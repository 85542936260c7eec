//! Differential tests of the code-space kernels against the scalar oracle:
//! word-at-a-time filter masks, measures decoded from codes, and
//! dictionary codes read at their stored width — in columns without nulls
//! and in nullable ones, whose validity bitmaps the kernels read in place.
//! Every result must match `execute_exact_scalar` bit for bit across worker
//! counts, over row counts that leave partial mask words, morsels and
//! chunks.

use idebench::core::spec::{AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate};
use idebench::core::{Query, VizSpec};
use idebench::query::{
    execute_exact_parallel, execute_exact_scalar, execute_exact_scalar_with_order, AccMode,
    ChunkedRun, CompiledPlan, Shuffle, SnapshotMode,
};
use idebench::storage::{ColumnData, DataType, Dataset, Ints, TableBuilder, Value};
use std::sync::Arc;

mod common;
use common::bits;

/// Row counts around the 64-row mask word, the 1 024-row morsel and the
/// 65 536-row chunk.
const ROW_COUNTS: [usize; 6] = [1, 63, 65, 1_023, 1_025, 65_537];

/// Categories of the wide dictionary: more than a `u8` code holds.
const WIDE_CATEGORIES: usize = 300;

/// A table whose columns take every narrow encoding the kernels read:
///
/// - `d`: decimal tenths in `[-10, 10]` holding both zeros (`i16` codes
///   with the reserved `-0.0` code);
/// - `t`: decimal hundredths in `[0, 24)` (`u16` codes);
/// - `dn`: `d` with every fifth row null;
/// - `m8`, `m16`: ints up to 255 and in `[1 000, 9 000]` (`u8`, `u16`);
/// - `w16`: ints spanning `[0, 65 535]`, too wide for a code table;
/// - `c8`, `c16`: nominals over 40 and 300 categories (`u8`, `u16` codes).
///
/// With `nullable`, four columns hold nulls: `d` every sixth row, `c8`
/// every ninth, `w16` (read as decoded values, not codes) every seventh,
/// and `m8` every fourth — its valid values then lie in `[17, 255]`, so a
/// null's placeholder code 0 lies outside their span.
fn table(n: usize, nullable: bool) -> Dataset {
    let mut b = TableBuilder::with_fields(
        "t",
        &[
            ("d", DataType::Float),
            ("t", DataType::Float),
            ("dn", DataType::Float),
            ("m8", DataType::Int),
            ("m16", DataType::Int),
            ("w16", DataType::Int),
            ("c8", DataType::Nominal),
            ("c16", DataType::Nominal),
        ],
    );
    for i in 0..n {
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
        let d = match i % 13 {
            3 => -0.0,
            7 => 0.0,
            _ => ((h % 201) as f64 - 100.0) / 10.0,
        };
        let null = |k: usize, r: usize| nullable && i % k == r;
        let row = [
            if null(6, 1) {
                Value::Null
            } else {
                Value::Float(d)
            },
            Value::Float((h % 2_400) as f64 / 100.0),
            if i % 5 == 2 {
                Value::Null
            } else {
                Value::Float(d)
            },
            if null(4, 3) {
                Value::Null
            } else if nullable {
                Value::Int(17 + (h % 239) as i64)
            } else {
                Value::Int((h % 256) as i64)
            },
            Value::Int(1_000 + (h % 8_001) as i64),
            if null(7, 5) {
                Value::Null
            } else {
                Value::Int(if i % 2 == 0 {
                    0
                } else {
                    65_535 - (h % 7) as i64
                })
            },
            if null(9, 4) {
                Value::Null
            } else {
                Value::Str(format!("k{}", h % 40))
            },
            Value::Str(format!("w{}", (i * 7 + (h % 3) as usize) % WIDE_CATEGORIES)),
        ];
        b.push_row(&row).unwrap();
    }
    Dataset::Denormalized(Arc::new(b.finish()))
}

fn range(column: &str, min: f64, max: f64) -> FilterExpr {
    FilterExpr::Pred(Predicate::Range {
        column: column.into(),
        min,
        max,
    })
}

fn members(column: &str, values: &[String]) -> FilterExpr {
    FilterExpr::Pred(Predicate::In {
        column: column.into(),
        values: values.to_vec(),
    })
}

/// OR/AND trees of ranges (empty ones, bounds on decoded values and on
/// both zeros) and IN lists over both dictionary widths.
fn filters() -> Vec<Option<FilterExpr>> {
    let wide: Vec<String> = (0..WIDE_CATEGORIES)
        .step_by(7)
        .map(|k| format!("w{k}"))
        .chain(["absent".to_string()])
        .collect();
    vec![
        None,
        Some(range("d", -0.0, 0.5)),
        Some(range("d", 0.0, 1.0)),
        Some(range("d", -2.5, -0.0)),
        Some(range("d", 1.0, 1.0)),
        Some(range("d", 3.0, -3.0)),
        Some(range("d", f64::NAN, 1.0)),
        Some(FilterExpr::Or(vec![
            range("t", 6.0, 8.0),
            range("t", 12.0, 14.0),
            range("t", 18.0, 20.0),
        ])),
        Some(FilterExpr::And(vec![
            FilterExpr::Or(vec![range("d", -10.0, -5.0), range("d", -0.0, 0.0)]),
            range("m8", 17.0, 255.0),
        ])),
        Some(FilterExpr::And(vec![
            FilterExpr::Or(vec![range("t", 0.0, 6.5), range("m16", 8_999.0, 9_000.0)]),
            members("c8", &["k1".into(), "k3".into(), "k39".into()]),
        ])),
        Some(FilterExpr::Or(vec![
            members("c16", &wide),
            range("w16", 65_530.0, 65_536.0),
            range("dn", -1.0, 0.0),
        ])),
        Some(members("c16", &["w299".into(), "w256".into(), "w0".into()])),
    ]
}

/// Filters every valid value of a nullable column passes, so only its
/// validity mask keeps the null rows out: an IN list of every `c8`
/// category (a null's placeholder code is a category's code) and ranges
/// over all of `d` (compared as codes) and `w16` (compared as values).
fn all_valid_filters() -> Vec<Option<FilterExpr>> {
    let every: Vec<String> = (0..40).map(|k| format!("k{k}")).collect();
    vec![
        Some(members("c8", &every)),
        Some(range("d", f64::NEG_INFINITY, f64::INFINITY)),
        Some(range("w16", 0.0, 65_536.0)),
    ]
}

/// Binnings with edges on decoded values and negative anchors, nominal
/// binnings over both dictionary widths (the fused 2-D path included), and
/// spaces too large for dense accumulation.
fn binnings() -> Vec<Vec<BinDef>> {
    let width = |dimension: &str, width: f64, anchor: f64| BinDef::Width {
        dimension: dimension.into(),
        width,
        anchor,
    };
    let nominal = |dimension: &str| BinDef::Nominal {
        dimension: dimension.into(),
    };
    vec![
        vec![nominal("c8")],
        vec![nominal("c16")],
        vec![nominal("c8"), nominal("c16")],
        vec![nominal("c16"), nominal("c8")],
        vec![width("d", 0.5, -1.5)],
        vec![width("d", 2.5, -0.0)],
        vec![width("dn", 0.3, -7.2)],
        vec![width("m8", 16.0, -3.0)],
        vec![width("t", 0.25, -0.25), nominal("c8")],
        // Sparse: 300 categories × 2 001 buckets.
        vec![nominal("c16"), width("d", 0.01, -0.005)],
        // Sparse: a width too fine for the dense cap.
        vec![width("w16", 1.0, -0.5)],
    ]
}

fn aggregates() -> Vec<AggregateSpec> {
    vec![
        AggregateSpec::count(),
        AggregateSpec::over(AggFunc::Sum, "d"),
        AggregateSpec::over(AggFunc::Avg, "d"),
        AggregateSpec::over(AggFunc::Sum, "m8"),
        AggregateSpec::over(AggFunc::Avg, "m16"),
        AggregateSpec::over(AggFunc::Avg, "dn"),
        AggregateSpec::over(AggFunc::Min, "t"),
        AggregateSpec::over(AggFunc::Max, "d"),
    ]
}

#[test]
fn code_kernels_match_the_scalar_oracle() {
    let mut modes = (false, false);
    for n in ROW_COUNTS {
        let ds = table(n, false);
        if n > 1_000 {
            let t = ds.as_denormalized().unwrap();
            let encoding = |name: &str| t.column(name).unwrap().data();
            assert!(matches!(
                encoding("d"),
                ColumnData::Decimal(Ints::Mid(_), 1)
            ));
            assert!(matches!(
                encoding("t"),
                ColumnData::Decimal(Ints::Narrow(_), 2)
            ));
            assert!(matches!(
                encoding("dn"),
                ColumnData::Decimal(Ints::Mid(_), 1)
            ));
            assert!(matches!(encoding("m8"), ColumnData::Int(Ints::Narrow(_))));
            assert!(matches!(encoding("m16"), ColumnData::Int(Ints::Mid(_))));
            assert!(matches!(encoding("w16"), ColumnData::Int(Ints::Mid(_))));
            assert!(matches!(
                encoding("c8"),
                ColumnData::Nominal(Ints::Narrow(_), _)
            ));
            assert!(matches!(
                encoding("c16"),
                ColumnData::Nominal(Ints::Mid(_), _)
            ));
        }
        for binning in binnings() {
            let spec = VizSpec::new("v", "t", binning, aggregates());
            for filter in filters() {
                let q = Query::for_viz(&spec, filter);
                let plan = CompiledPlan::compile(&ds, &q).unwrap();
                match plan.acc_mode() {
                    AccMode::Dense(_) => modes.0 = true,
                    AccMode::Sparse => modes.1 = true,
                }
                let want = bits(&execute_exact_scalar(&ds, &q).unwrap());
                for workers in [1, 2] {
                    let got = execute_exact_parallel(&ds, &q, workers).unwrap();
                    assert_eq!(
                        bits(&got),
                        want,
                        "{n} rows, {workers} workers: {}",
                        q.canonical_key()
                    );
                }
            }
        }
    }
    assert_eq!(modes, (true, true), "both accumulation stores are covered");
}

#[test]
fn nullable_code_kernels_match_the_scalar_oracle() {
    for n in ROW_COUNTS {
        let ds = table(n, true);
        if n > 1_000 {
            let t = ds.as_denormalized().unwrap();
            for name in ["d", "m8", "c8", "w16"] {
                assert!(t.column(name).unwrap().validity().is_some(), "{name}");
            }
            let m8 = t.column("m8").unwrap();
            assert!(matches!(m8.data(), ColumnData::Int(Ints::Narrow(_))));
            assert_eq!(m8.numeric_min_max(), Some((17.0, 255.0)));
        }
        // 1 000 003 is a prime above every row count: i ↦ i·p + c mod n is
        // a permutation.
        let order: Arc<Vec<u32>> = Arc::new(
            (0..n as u64)
                .map(|i| ((i * 1_000_003 + 12_345) % n as u64) as u32)
                .collect(),
        );
        let shuffle = Shuffle::from_order(&ds, Arc::clone(&order));
        // A dense bucketing of decoded values: `w16` spans too many codes
        // for a slot table.
        let decoded_dense = vec![BinDef::Width {
            dimension: "w16".into(),
            width: 8_192.0,
            anchor: 0.0,
        }];
        for binning in binnings().into_iter().chain([decoded_dense]) {
            let spec = VizSpec::new("v", "t", binning, aggregates());
            for filter in filters().into_iter().chain(all_valid_filters()) {
                let q = Query::for_viz(&spec, filter);
                let want = bits(&execute_exact_scalar(&ds, &q).unwrap());
                for workers in [1, 2, 8] {
                    let got = execute_exact_parallel(&ds, &q, workers).unwrap();
                    assert_eq!(
                        bits(&got),
                        want,
                        "{n} rows, {workers} workers: {}",
                        q.canonical_key()
                    );
                }
                let plan = CompiledPlan::compile(&ds, &q).unwrap();
                let mut run = ChunkedRun::from_shuffle(plan, &shuffle, SnapshotMode::Exact);
                run.set_workers(2);
                while !run.is_done() {
                    run.advance(40_009);
                }
                assert_eq!(
                    bits(&run.snapshot().unwrap()),
                    bits(&execute_exact_scalar_with_order(&ds, &q, Some(&order)).unwrap()),
                    "{n} rows, shuffled: {}",
                    q.canonical_key()
                );
            }
        }
    }
}

/// A table whose columns take the widest width of each role, which the
/// flights columns never hold:
///
/// - `i`: ints in `[-1 000, 1 000]`, null every eleventh row (`i64`: a
///   negative value keeps them plain);
/// - `d`: whole decimals in `[-50 000, -40 000]` and `-0.0` (`i32` codes
///   at exponent 0, spanning few enough values for a decode table, so
///   ranges and dense widths over them run in code space);
/// - `c`: one category per row, so at 65 537 rows the dictionary holds
///   more than 65 536 entries (`u32` codes).
fn wide_table(n: usize) -> Dataset {
    let mut b = TableBuilder::with_fields(
        "t",
        &[
            ("i", DataType::Int),
            ("d", DataType::Float),
            ("c", DataType::Nominal),
        ],
    );
    for i in 0..n {
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
        let d = if i % 17 == 5 {
            -0.0
        } else {
            -50_000.0 + (h % 10_001) as f64
        };
        b.push_row(&[
            if i % 11 == 4 {
                Value::Null
            } else {
                Value::Int(-1_000 + (h % 2_001) as i64)
            },
            Value::Float(d),
            Value::Str(format!("v{}", i * 7_919 % 65_537)),
        ])
        .unwrap();
    }
    Dataset::Denormalized(Arc::new(b.finish()))
}

#[test]
fn widest_role_widths_match_the_scalar_oracle() {
    let width = |dimension: &str, width: f64, anchor: f64| BinDef::Width {
        dimension: dimension.into(),
        width,
        anchor,
    };
    let nominal = BinDef::Nominal {
        dimension: "c".into(),
    };
    let binnings = vec![
        vec![width("i", 10.0, -5.0)],
        // Sparse: 20 001 buckets.
        vec![width("i", 0.1, 0.0)],
        vec![width("d", 250.0, -0.0)],
        // Sparse: 10 001 buckets.
        vec![width("d", 1.0, 0.5)],
        // Sparse once the dictionary outgrows the dense cap.
        vec![nominal.clone()],
        vec![nominal, width("i", 100.0, 0.0)],
        // Dictionary codes read as numbers.
        vec![width("c", 1_000.0, 0.0)],
        vec![width("i", 50.0, 0.0), width("d", 500.0, 0.0)],
    ];
    let labels = |codes: &[usize]| -> Vec<String> {
        codes
            .iter()
            .map(|k| format!("v{k}"))
            .chain(["absent".to_string()])
            .collect()
    };
    let filters = vec![
        None,
        Some(range("i", -500.0, 250.5)),
        Some(range("i", 0.0, 0.0)),
        Some(range("d", -45_000.0, -41_000.0)),
        Some(range("d", -0.0, 1.0)),
        Some(range("d", f64::NEG_INFINITY, -44_999.5)),
        Some(members("c", &labels(&[0, 300, 40_000, 65_536]))),
        Some(FilterExpr::Or(vec![
            range("i", 900.0, 1_000.5),
            members("c", &labels(&[7_919, 65_535])),
        ])),
        Some(FilterExpr::And(vec![
            range("d", -48_000.0, -0.0),
            range("c", 100.0, 30_000.5),
        ])),
    ];
    let aggregates = vec![
        AggregateSpec::count(),
        AggregateSpec::over(AggFunc::Sum, "i"),
        AggregateSpec::over(AggFunc::Avg, "i"),
        AggregateSpec::over(AggFunc::Min, "i"),
        AggregateSpec::over(AggFunc::Avg, "d"),
        AggregateSpec::over(AggFunc::Min, "d"),
        AggregateSpec::over(AggFunc::Max, "d"),
        AggregateSpec::over(AggFunc::Max, "c"),
    ];
    let mut modes = (false, false);
    for n in ROW_COUNTS {
        let ds = wide_table(n);
        if n > 65_536 {
            let t = ds.as_denormalized().unwrap();
            let col = |name: &str| t.column(name).unwrap();
            assert!(matches!(col("i").data(), ColumnData::Int(Ints::Wide(_))));
            assert!(matches!(
                col("d").data(),
                ColumnData::Decimal(Ints::Wide(_), 0)
            ));
            assert!(col("d").decode_table().is_some());
            assert!(matches!(
                col("c").data(),
                ColumnData::Nominal(Ints::Wide(_), _)
            ));
        }
        for binning in &binnings {
            let spec = VizSpec::new("v", "t", binning.clone(), aggregates.clone());
            for filter in &filters {
                let q = Query::for_viz(&spec, filter.clone());
                match CompiledPlan::compile(&ds, &q).unwrap().acc_mode() {
                    AccMode::Dense(_) => modes.0 = true,
                    AccMode::Sparse => modes.1 = true,
                }
                let want = bits(&execute_exact_scalar(&ds, &q).unwrap());
                for workers in [1, 2] {
                    let got = execute_exact_parallel(&ds, &q, workers).unwrap();
                    assert_eq!(
                        bits(&got),
                        want,
                        "{n} rows, {workers} workers: {}",
                        q.canonical_key()
                    );
                }
            }
        }
    }
    assert_eq!(modes, (true, true), "both accumulation stores are covered");
}
