//! Narrow column encodings and the permuted copies shuffled scans read:
//! encodings are lossless (or the column stays plain), the CSV loader
//! either rejects its input or loads exactly what was written, and a run
//! reading a shuffle's permuted copies answers bit for bit like the scalar
//! oracle visiting rows through the order.

use idebench::core::spec::{AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate};
use idebench::core::{Query, VizSpec};
use idebench::query::{
    execute_exact_scalar_with_order, ChunkedRun, CompiledPlan, Shuffle, SnapshotMode, CHUNK_ROWS,
};
use idebench::storage::{read_csv, Column, ColumnData, DataType, Dataset, SelVec, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

mod common;

// -------------------------------------------------------------- encodings

/// Scaled integers at and around the 8- and 16-bit code edges.
const EDGES: [i64; 14] = [
    0, 1, 254, 255, 256, 32_766, 32_767, 32_768, -32_767, -32_768, -32_769, 65_534, 65_535, 65_536,
];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// A float column with decimals, signed zeros, NaN, ±∞, nulls and
    /// codes at the width edges either stays plain or decodes bit for bit
    /// — null placeholders included — and compares equal to its plain form.
    #[test]
    fn decimal_columns_round_trip_or_stay_plain(
        cells in prop::collection::vec((0u8..24, any::<i32>(), 0usize..EDGES.len()), 1..80),
        exp in 0u8..4,
    ) {
        let scale = 10f64.powi(i32::from(exp));
        let mut values = Vec::with_capacity(cells.len());
        let mut valid = Vec::with_capacity(cells.len());
        for &(kind, k, edge) in &cells {
            values.push(match kind {
                0 => -0.0,
                1 => f64::NAN,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4..=11 => EDGES[edge] as f64 / scale,
                _ => f64::from(k % 100_000) / scale,
            });
            valid.push(kind != 5);
        }
        let n = values.len();
        let plain = Column::float(values.clone()).with_validity(SelVec::from_bools(n, valid));
        let narrow = plain.clone().narrowed();
        match narrow.data() {
            ColumnData::Float(_) => {}
            ColumnData::Decimal(codes, e) => {
                prop_assert!(values.iter().all(|v| v.is_finite()), "non-finite value encoded");
                prop_assert!(*e <= idebench::storage::encoding::MAX_DECIMAL_EXP);
                prop_assert!(codes.width() <= 4);
            }
            other => prop_assert!(false, "float column became {:?}", other.dtype()),
        }
        prop_assert_eq!(bits(&narrow.as_float().unwrap()), bits(&values));
        for i in 0..n {
            prop_assert_eq!(
                narrow.numeric_at(i).map(f64::to_bits),
                plain.numeric_at(i).map(f64::to_bits)
            );
        }
        if values.iter().all(|v| !v.is_nan()) {
            prop_assert!(narrow == plain);
        }
        if let Some(table) = narrow.decode_table() {
            let ColumnData::Decimal(codes, _) = narrow.data() else { unreachable!() };
            for i in 0..n {
                let k = codes.get(i);
                let via_table = match codes {
                    idebench::storage::Ints::U16(v) => table.decode(v[i]),
                    idebench::storage::Ints::I16(v) => table.decode(v[i]),
                    idebench::storage::Ints::I32(v) => table.decode(v[i]),
                    other => panic!("decimal codes of width {}", other.width()),
                };
                prop_assert_eq!(via_table.to_bits(), values[i].to_bits(), "code {}", k);
            }
        }
    }

    /// Integer and code columns narrow to `u8`/`u16` exactly when their
    /// values allow, and always read back unchanged.
    #[test]
    fn int_columns_round_trip(
        cells in prop::collection::vec((any::<bool>(), 0usize..EDGES.len(), any::<i64>()), 1..60),
    ) {
        let values: Vec<i64> = cells
            .iter()
            .map(|&(edge, i, k)| if edge { EDGES[i] } else { k % 70_000 })
            .collect();
        let narrow = Column::int(values.clone()).narrowed();
        prop_assert_eq!(&*narrow.as_int().unwrap(), &values[..]);
        let fits_u16 = values.iter().all(|&v| (0..=65_535).contains(&v));
        let width = match narrow.data() {
            ColumnData::Int(ints) => ints.width(),
            _ => unreachable!(),
        };
        prop_assert_eq!(width < 8, fits_u16);
    }
}

// ------------------------------------------------------ column statistics

/// The statistics of `col` from a walk over its decoded valid values, in
/// row order: `(numeric_min_max, finite_min_max)` as bit patterns.
#[allow(clippy::type_complexity)]
fn walked_stats(col: &Column) -> (Option<(u64, u64)>, Option<(u64, u64)>) {
    let mut finite: Option<(f64, f64)> = None;
    let mut all_finite = true;
    for v in (0..col.len()).filter_map(|i| col.numeric_at(i)) {
        if v.is_finite() {
            let (lo, hi) = finite.unwrap_or((v, v));
            finite = Some((lo.min(v), hi.max(v)));
        } else {
            all_finite = false;
        }
    }
    let bits = |p: Option<(f64, f64)>| p.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
    (bits(all_finite.then_some(finite).flatten()), bits(finite))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Statistics found from a coded payload's extreme codes equal the
    /// decoded walk, for int, nominal and decimal columns: with and without
    /// the `-0.0` code, with nulls, with one row and with every row equal.
    #[test]
    fn code_stats_match_the_decoded_walk(
        kind in 0u8..3,
        shape in 0u8..4,
        cells in prop::collection::vec((any::<u32>(), 0u8..16), 1..70),
        nulls in any::<bool>(),
        signed in any::<bool>(),
        exp in 0u8..3,
    ) {
        // Shape 0: one row; 1: every row equal; else as drawn.
        let cells = match shape {
            0 => cells[..1].to_vec(),
            1 => vec![cells[0]; cells.len()],
            _ => cells,
        };
        let n = cells.len();
        let col = match kind {
            0 => Column::int(
                cells.iter().map(|&(k, e)| if e == 0 { 255 } else { i64::from(k % 70_000) }).collect(),
            ),
            1 => {
                let dict = Arc::new(idebench::storage::Dictionary::from_values(
                    (0..400).map(|i| format!("v{i}")),
                ));
                let len = 1 + cells[0].0 % 400;
                Column::nominal(cells.iter().map(|&(k, _)| k % len).collect(), dict)
            }
            _ => {
                let scale = 10f64.powi(i32::from(exp));
                Column::float(
                    cells
                        .iter()
                        .map(|&(k, e)| match e {
                            0 => -0.0,
                            1 => 0.0,
                            // `u16` codes, or `i16` ones when signed.
                            _ if signed => (f64::from(k % 60_001) - 30_000.0) / scale,
                            _ => f64::from(k % 60_001) / scale,
                        })
                        .collect(),
                )
            }
        }
        .narrowed();
        if kind == 2 {
            prop_assert!(matches!(col.data(), ColumnData::Decimal(..)), "decimal payload");
        }
        let col = if nulls {
            col.with_validity(SelVec::from_bools(n, cells.iter().map(|&(_, e)| e % 3 != 2)))
        } else {
            col
        };
        let (walked_bounds, walked_finite) = walked_stats(&col);
        let bits = |p: Option<(f64, f64)>| p.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        prop_assert_eq!(bits(col.numeric_min_max()), walked_bounds);
        prop_assert_eq!(bits(col.finite_min_max()), walked_finite);
    }
}

// -------------------------------------------------------------------- CSV

const CSV_CELLS: [&str; 16] = [
    "",
    "0",
    "-0.0",
    "1.5",
    "12.25",
    "-40.7",
    "NaN",
    "inf",
    "-inf",
    "65535",
    "-32768",
    "abc",
    "1e400",
    "0.1",
    "AA",
    "9223372036854775808",
];

/// What `read_csv` must load for one cell, or `None` when the cell is not
/// a valid value of the type.
fn expected_cell(dtype: DataType, cell: &str) -> Option<Value> {
    if cell.is_empty() {
        return Some(Value::Null);
    }
    match dtype {
        DataType::Float => cell.parse::<f64>().ok().map(Value::Float),
        DataType::Int => cell.parse::<i64>().ok().map(Value::Int),
        DataType::Nominal => Some(Value::Str(cell.to_string())),
    }
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `read_csv` over headers with repeated names and rows with truncated,
    /// extra, malformed and special (`NaN`, `inf`, `-0.0`) cells returns an
    /// error or a table whose logical values are exactly the written ones;
    /// it never panics.
    #[test]
    fn csv_loads_exactly_or_fails(
        header in prop::collection::vec((0usize..4, 0u8..3), 1..5),
        rows in prop::collection::vec(
            (prop::collection::vec(0usize..CSV_CELLS.len(), 0..6), 0u8..8), 0..12),
    ) {
        let names = ["a", "b", "c", "d"];
        let types = [DataType::Float, DataType::Int, DataType::Nominal];
        let fields: Vec<(&str, DataType)> =
            header.iter().map(|&(n, t)| (names[n], types[t as usize])).collect();
        let mut text = fields
            .iter()
            .map(|(n, t)| format!("{n}:{}", t.name()))
            .collect::<Vec<_>>()
            .join(",");
        text.push('\n');
        let mut written: Vec<Vec<&str>> = Vec::new();
        for (cells, shape) in &rows {
            let mut line: Vec<&str> = cells.iter().map(|&c| CSV_CELLS[c]).collect();
            // Mostly well-formed rows: pad or cut to the header's arity.
            if *shape < 6 {
                line.resize(fields.len(), "1");
            }
            let joined = line.join(",");
            text.push_str(&joined);
            text.push('\n');
            // The loader skips blank lines.
            if !joined.is_empty() {
                written.push(line);
            }
        }
        let result = read_csv("t", text.as_bytes());
        let mut seen = Vec::new();
        let duplicate = fields.iter().any(|f| {
            let dup = seen.contains(&f.0);
            seen.push(f.0);
            dup
        });
        let expected: Option<Vec<Vec<Value>>> = (!duplicate)
            .then(|| {
                written
                    .iter()
                    .map(|line| {
                        (line.len() == fields.len())
                            .then(|| {
                                line.iter()
                                    .zip(&fields)
                                    .map(|(cell, (_, t))| expected_cell(*t, cell))
                                    .collect::<Option<Vec<_>>>()
                            })
                            .flatten()
                    })
                    .collect::<Option<Vec<_>>>()
            })
            .flatten();
        match (result, expected) {
            (Err(_), None) => {}
            (Ok(t), Some(rows)) => {
                prop_assert_eq!(t.num_rows(), rows.len());
                for (r, row) in rows.iter().enumerate() {
                    for (c, want) in row.iter().enumerate() {
                        let got = t.value_at(c, r);
                        prop_assert!(same_value(&got, want), "row {} col {}: {:?} vs {:?}", r, c, got, want);
                    }
                }
            }
            (Err(e), Some(_)) => prop_assert!(false, "valid input rejected: {}", e),
            (Ok(_), None) => prop_assert!(false, "invalid input accepted:\n{}", text),
        }
    }
}

// ------------------------------------------------------- permuted copies

/// The flights table with nulls in a nominal, an int and two float
/// columns.
fn nullable_flights(n: usize) -> Table {
    let t = idebench::datagen::flights::generate(n, 11);
    let mut cols = t.columns().to_vec();
    for (name, k) in [
        ("carrier", 11),
        ("month", 5),
        ("dep_delay", 7),
        ("distance", 13),
    ] {
        let i = t.schema().index_of(name).unwrap();
        let valid = SelVec::from_bools(n, (0..n).map(|r| r % k != 3));
        cols[i] = cols[i].clone().with_validity(valid);
    }
    Table::new(t.name(), t.schema().clone(), cols).unwrap()
}

fn queries() -> Vec<Query> {
    let q = |binning, aggregates, filter| {
        Query::for_viz(&VizSpec::new("v", "flights", binning, aggregates), filter)
    };
    vec![
        q(
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "dep_delay"),
            ],
            Some(FilterExpr::Pred(Predicate::Range {
                column: "distance".into(),
                min: 300.0,
                max: 1800.0,
            })),
        ),
        q(
            vec![
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 15.0,
                    anchor: 0.0,
                },
                BinDef::Nominal {
                    dimension: "origin_state".into(),
                },
            ],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Sum, "arr_delay"),
            ],
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["C00".into(), "C02".into(), "C05".into()],
            })),
        ),
        q(
            vec![BinDef::Width {
                dimension: "month".into(),
                width: 1.0,
                anchor: 0.0,
            }],
            vec![
                AggregateSpec::over(AggFunc::Min, "dep_time"),
                AggregateSpec::over(AggFunc::Max, "air_time"),
            ],
            Some(FilterExpr::Or(vec![
                FilterExpr::Pred(Predicate::Range {
                    column: "dep_delay".into(),
                    min: -5.0,
                    max: 5.0,
                }),
                FilterExpr::Pred(Predicate::In {
                    column: "origin".into(),
                    values: vec!["A000".into(), "A001".into()],
                }),
            ])),
        ),
    ]
}

/// Shuffled runs read permuted copies and answer bit for bit like the
/// scalar oracle visiting rows through the order: de-normalized data and
/// its star schema (nullable dimension attributes included), nullable
/// columns, workers {1, 2, 8}, stepped in uneven grants.
#[test]
fn shuffled_runs_over_copies_match_the_ordered_oracle() {
    let n = 2 * CHUNK_ROWS + 333;
    let table = nullable_flights(n);
    let denorm = Dataset::Denormalized(Arc::new(table.clone()));
    let star = idebench::datagen::normalize_flights(&table).unwrap();
    let order: Arc<Vec<u32>> = Arc::new(
        (0..n as u64)
            .map(|i| ((i * 700_001 + 17) % n as u64) as u32)
            .collect(),
    );
    // Referenced fact-length columns: nine of the de-normalized table; on
    // the star, the three dimension attributes are read through their join
    // materializations.
    for ds in [denorm, star] {
        let shuffle = Shuffle::from_order(&ds, Arc::clone(&order));
        for q in queries() {
            let want =
                common::bits(&execute_exact_scalar_with_order(&ds, &q, Some(&order)).unwrap());
            for workers in [1, 2, 8] {
                let plan = CompiledPlan::compile(&ds, &q).unwrap();
                let mut run = ChunkedRun::from_shuffle(plan, &shuffle, SnapshotMode::Exact);
                run.set_workers(workers);
                while !run.is_done() {
                    run.advance(40_009);
                }
                assert_eq!(
                    common::bits(&run.snapshot().unwrap()),
                    want,
                    "{} workers on {:?}",
                    workers,
                    q.canonical_key()
                );
                // The explicit-order constructor builds private copies and
                // answers the same.
                let mut private = ChunkedRun::with_order(
                    ds.clone(),
                    q.clone(),
                    Some(Arc::clone(&order)),
                    SnapshotMode::Exact,
                )
                .unwrap();
                private.set_workers(workers);
                private.advance(u64::MAX);
                assert_eq!(common::bits(&private.snapshot().unwrap()), want);
            }
        }
        // One copy per referenced fact-length column, shared by every
        // query and worker count above.
        let (copies, bytes) = shuffle.copy_stats();
        assert_eq!(copies, 9);
        assert!(bytes > 0);
    }
}
