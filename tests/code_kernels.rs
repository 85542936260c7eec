//! Differential tests of the code-space kernels against the scalar oracle:
//! word-at-a-time filter masks, measures decoded from codes, and
//! dictionary codes read at their stored width. Every result must match
//! `execute_exact_scalar` bit for bit at one and two workers, over row
//! counts that leave partial mask words, morsels and chunks.

use idebench::core::spec::{AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate};
use idebench::core::{AggResult, Query, VizSpec};
use idebench::query::{execute_exact_parallel, execute_exact_scalar, AccMode, CompiledPlan};
use idebench::storage::{ColumnData, DataType, Dataset, Ints, TableBuilder, Value};
use std::sync::Arc;

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
fn table(n: usize) -> Dataset {
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
        let row = [
            Value::Float(d),
            Value::Float((h % 2_400) as f64 / 100.0),
            if i % 5 == 2 {
                Value::Null
            } else {
                Value::Float(d)
            },
            Value::Int((h % 256) as i64),
            Value::Int(1_000 + (h % 8_001) as i64),
            Value::Int(if i % 2 == 0 {
                0
            } else {
                65_535 - (h % 7) as i64
            }),
            Value::Str(format!("k{}", h % 40)),
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

/// A result with every value as its bit pattern, bins in key order, so
/// `-0.0` and `0.0` differ.
fn bits(r: &AggResult) -> Vec<(String, Vec<u64>, Vec<u64>)> {
    let mut bins: Vec<_> = r
        .bins
        .iter()
        .map(|(k, s)| {
            (
                format!("{k:?}"),
                s.values.iter().map(|v| v.to_bits()).collect(),
                s.margins.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    bins.sort();
    bins
}

#[test]
fn code_kernels_match_the_scalar_oracle() {
    let mut modes = (false, false);
    for n in ROW_COUNTS {
        let ds = table(n);
        if n > 1_000 {
            let t = ds.as_denormalized().unwrap();
            let encoding = |name: &str| t.column(name).unwrap().data();
            assert!(matches!(
                encoding("d"),
                ColumnData::Decimal(Ints::I16(_), 1)
            ));
            assert!(matches!(
                encoding("t"),
                ColumnData::Decimal(Ints::U16(_), 2)
            ));
            assert!(matches!(
                encoding("dn"),
                ColumnData::Decimal(Ints::I16(_), 1)
            ));
            assert!(matches!(encoding("m8"), ColumnData::Int(Ints::U8(_))));
            assert!(matches!(encoding("m16"), ColumnData::Int(Ints::U16(_))));
            assert!(matches!(encoding("w16"), ColumnData::Int(Ints::U16(_))));
            assert!(matches!(
                encoding("c8"),
                ColumnData::Nominal(Ints::U8(_), _)
            ));
            assert!(matches!(
                encoding("c16"),
                ColumnData::Nominal(Ints::U16(_), _)
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
