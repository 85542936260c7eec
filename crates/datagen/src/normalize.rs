//! Star-schema normalization: vertical partitioning of a de-normalized
//! table into fact + dimension tables (paper §4.2, Exp 2).

use idebench_storage::{
    Column, ColumnData, DataType, Dataset, DimensionSpec, Field, Ints, Schema, StarSchema, Table,
    TableBuilder, Value,
};
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Splits `table` into a star schema per the dimension `specs`.
///
/// For each spec, the distinct combinations of the spec's attributes become
/// the rows of a new dimension table, the attributes are removed from the
/// fact table, and an integer surrogate-key column (`spec.fk_name`) is
/// appended to the fact referencing dimension row indexes. Dimension rows
/// and keys follow first-seen order over the fact rows. The columns the
/// fact keeps share their payloads with `table` (see [`Column`]); only the
/// key columns and the dimension tables are new memory.
pub fn normalize(table: &Table, specs: &[DimensionSpec]) -> Result<Dataset, String> {
    let nrows = table.num_rows();
    let mut moved: Vec<&str> = Vec::new();
    let mut dims: Vec<(DimensionSpec, Arc<Table>)> = Vec::with_capacity(specs.len());
    let mut fk_columns: Vec<(String, Column)> = Vec::with_capacity(specs.len());

    for spec in specs {
        let attr_cols: Vec<(usize, &Column)> = spec
            .attributes
            .iter()
            .map(|a| {
                let idx = table
                    .schema()
                    .index_of(a)
                    .map_err(|e| format!("normalize: {e}"))?;
                Ok((idx, table.column_at(idx)))
            })
            .collect::<Result<_, String>>()?;
        for a in &spec.attributes {
            if moved.contains(&a.as_str()) {
                return Err(format!("normalize: column {a} assigned to two dimensions"));
            }
            moved.push(a);
        }

        // Distinct attribute combinations → dimension rows, in first-seen
        // order. Each row's combination is one packed integer built from
        // per-attribute dense ids.
        let (keys, span) = combination_keys(&attr_cols, nrows);
        let (dim_ids, distinct) = first_seen(&keys, span);
        drop(keys);
        let mut dim_rows: Vec<usize> = Vec::new(); // representative fact row per dim row
        for (row, &id) in dim_ids.iter().enumerate() {
            if id as usize == dim_rows.len() {
                dim_rows.push(row);
            }
        }
        let fk = key_column(&dim_ids, distinct);

        // Materialize the dimension table from representative rows.
        let mut builder = TableBuilder::new(
            spec.table_name.clone(),
            Schema::new(
                attr_cols
                    .iter()
                    .map(|(idx, _)| table.schema().fields()[*idx].clone())
                    .collect(),
            ),
        );
        let mut row_vals: Vec<Value> = Vec::with_capacity(attr_cols.len());
        for &row in &dim_rows {
            row_vals.clear();
            for (idx, _) in &attr_cols {
                row_vals.push(table.value_at(*idx, row));
            }
            builder
                .push_row(&row_vals)
                .map_err(|e| format!("normalize: {e}"))?;
        }
        dims.push((spec.clone(), Arc::new(builder.finish())));
        fk_columns.push((spec.fk_name.clone(), fk));
    }

    // Fact table: all non-moved columns plus the FK columns.
    let mut fact_fields: Vec<Field> = Vec::new();
    let mut fact_cols: Vec<Column> = Vec::new();
    for (i, field) in table.schema().fields().iter().enumerate() {
        if !moved.contains(&field.name.as_str()) {
            fact_fields.push(field.clone());
            // O(1): the fact shares the payload with `table`.
            fact_cols.push(table.column_at(i).clone());
        }
    }
    for (name, fk) in fk_columns {
        fact_fields.push(Field::new(name, DataType::Int));
        fact_cols.push(fk);
    }
    let fact = Table::new(table.name(), Schema::new(fact_fields), fact_cols)
        .map_err(|e| format!("normalize: {e}"))?;

    let star = StarSchema::new(Arc::new(fact), dims).map_err(|e| format!("normalize: {e}"))?;
    Ok(Dataset::Star(Arc::new(star)))
}

/// The paper's Exp-2 normalization of the flights table: a `carriers`
/// dimension and an `airports` dimension keyed by the origin airport
/// ("the fact table holds foreign keys to two dimension tables (airports
/// and carriers)", §5.3).
pub fn normalize_flights(table: &Table) -> Result<Dataset, String> {
    normalize(
        table,
        &[
            DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
            DimensionSpec::new(
                "airports",
                "origin_key",
                vec!["origin".into(), "origin_state".into()],
            ),
        ],
    )
}

/// One packed integer per row that is equal for two rows exactly when
/// their values (nulls included) agree on every attribute in `attr_cols`,
/// plus a bound `span` that every key is below.
///
/// Attributes fold in as mixed-radix digits: `key = key * domain + id`,
/// where `id` is the row's dense id for the attribute and `domain` the
/// number of ids. When the next digit would overflow `u64`, the keys built
/// so far are first renumbered densely (at most `nrows` values), so the
/// fold never overflows.
fn combination_keys(attr_cols: &[(usize, &Column)], nrows: usize) -> (Vec<u64>, u64) {
    let mut keys = vec![0u64; nrows];
    let mut span: u64 = 1;
    for (_, col) in attr_cols {
        let (ids, domain) = attribute_ids(col);
        if span.checked_mul(domain).is_none() {
            let (dense, distinct) = first_seen(&keys, span);
            keys = dense.into_iter().map(u64::from).collect();
            span = distinct;
        }
        for (key, id) in keys.iter_mut().zip(ids) {
            *key = *key * domain + u64::from(id);
        }
        span *= domain;
    }
    (keys, span)
}

/// Surrogate keys `ids` (each below `distinct`) as an int column at the
/// width [`Table::new`] would narrow them to: `u8` up to 256 keys, `u16` up
/// to 65 536, `i64` past that.
fn key_column(ids: &[u32], distinct: u64) -> Column {
    let keys = if distinct <= 1 << 8 {
        Ints::Narrow(ids.iter().map(|&id| id as u8).collect())
    } else if distinct <= 1 << 16 {
        Ints::Mid(ids.iter().map(|&id| id as u16).collect())
    } else {
        Ints::Wide(ids.iter().map(|&id| i64::from(id)).collect())
    };
    Column::new(ColumnData::Int(keys))
}

/// Dense per-row ids of one attribute and the number of ids. A nominal
/// value's id is its dictionary code, read from the payload at its stored
/// width, and a null takes the code past the dictionary's end. A numeric
/// null takes id 0, and a numeric value takes 1 + its first-seen rank by
/// bit pattern.
fn attribute_ids(col: &Column) -> (Vec<u32>, u64) {
    match col.data() {
        ColumnData::Nominal(codes, dict) => {
            let null = u32::try_from(dict.len()).expect("dictionary codes fit u32");
            let mut ids = codes.widened().into_owned();
            if let Some(valid) = col.validity() {
                for (row, id) in ids.iter_mut().enumerate() {
                    if !valid.contains(row) {
                        *id = null;
                    }
                }
            }
            (ids, u64::from(null) + 1)
        }
        ColumnData::Float(_) | ColumnData::Decimal(..) => numeric_ids(
            col,
            (0..col.len()).map(|row| col.numeric_at(row).map_or(0, f64::to_bits)),
        ),
        ColumnData::Int(v) => numeric_ids(col, (0..v.len()).map(|row| v.get(row) as u64)),
    }
}

fn numeric_ids(col: &Column, bits: impl Iterator<Item = u64>) -> (Vec<u32>, u64) {
    let mut id_of: FxHashMap<u64, u32> = FxHashMap::default();
    let ids = bits
        .enumerate()
        .map(|(row, b)| {
            if !col.is_valid(row) {
                return 0;
            }
            let next = u32::try_from(id_of.len() + 1).expect("distinct values fit u32");
            *id_of.entry(b).or_insert(next)
        })
        .collect();
    (ids, id_of.len() as u64 + 1)
}

/// Numbers `keys` (each below `span`) densely in first-seen order: the
/// i-th distinct key gets id i. Returns the ids and the number of distinct
/// keys. When `span` is no larger than the number of keys, a lookup table
/// indexed by key replaces the hash map; the ids are the same.
fn first_seen(keys: &[u64], span: u64) -> (Vec<u32>, u64) {
    const UNSEEN: u32 = u32::MAX;
    let mut next: u32 = 0;
    let mut assign = |slot: &mut u32| {
        if *slot == UNSEEN {
            *slot = next;
            next = next.checked_add(1).expect("distinct keys fit u32");
        }
        *slot
    };
    let ids = if span <= keys.len() as u64 {
        let mut table = vec![UNSEEN; span as usize];
        keys.iter()
            .map(|&k| assign(&mut table[k as usize]))
            .collect()
    } else {
        let mut table: FxHashMap<u64, u32> = FxHashMap::default();
        keys.iter()
            .map(|&k| assign(table.entry(k).or_insert(UNSEEN)))
            .collect()
    };
    (ids, u64::from(next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flights;

    #[test]
    fn normalize_flights_builds_two_dimensions() {
        let t = flights::generate(2_000, 5);
        let ds = normalize_flights(&t).unwrap();
        let star = ds.as_star().unwrap();
        assert_eq!(star.dimensions().len(), 2);
        let (_, carriers) = star.dimension("carriers").unwrap();
        assert!(carriers.num_rows() <= flights::NUM_CARRIERS);
        let (_, airports) = star.dimension("airports").unwrap();
        assert!(airports.num_rows() <= flights::NUM_AIRPORTS);
        // Moved columns are gone from the fact, FKs are present.
        assert!(star.fact().column("carrier").is_err());
        assert!(star.fact().column("carrier_key").is_ok());
        assert_eq!(star.fact().num_rows(), 2_000);
    }

    #[test]
    fn fk_roundtrip_reconstructs_original_values() {
        let t = flights::generate(500, 5);
        let ds = normalize_flights(&t).unwrap();
        let star = ds.as_star().unwrap();
        let (spec, carriers) = star.dimension("carriers").unwrap();
        let fk = star.fact().column(&spec.fk_name).unwrap().as_int().unwrap();
        let orig_idx = t.schema().index_of("carrier").unwrap();
        for (row, &key) in fk.iter().enumerate() {
            let original = t.value_at(orig_idx, row);
            let via_join = carriers.value_at(0, key as usize);
            assert_eq!(original, via_join, "row {row}");
        }
    }

    #[test]
    fn multi_attribute_dimension_keeps_combinations() {
        let t = flights::generate(800, 6);
        let ds = normalize_flights(&t).unwrap();
        let star = ds.as_star().unwrap();
        let (spec, airports) = star.dimension("airports").unwrap();
        let fk = star.fact().column(&spec.fk_name).unwrap().as_int().unwrap();
        let o_idx = t.schema().index_of("origin").unwrap();
        let s_idx = t.schema().index_of("origin_state").unwrap();
        for row in (0..t.num_rows()).step_by(37) {
            assert_eq!(
                t.value_at(o_idx, row),
                airports.value_at(0, fk[row] as usize)
            );
            assert_eq!(
                t.value_at(s_idx, row),
                airports.value_at(1, fk[row] as usize)
            );
        }
    }

    #[test]
    fn fact_shares_kept_payloads() {
        let t = flights::generate(300, 4);
        let ds = normalize_flights(&t).unwrap();
        let star = ds.as_star().unwrap();
        let kept = star.fact().column("dep_delay").unwrap().data();
        let source = t.column("dep_delay").unwrap().data();
        assert!(std::ptr::eq(kept, source), "kept column was copied");
    }

    #[test]
    fn null_is_its_own_attribute_value() {
        // A null must not collide with any payload, including -1 (all bits
        // set as u64) and the NaN a null float is stored as.
        let mut b = TableBuilder::with_fields(
            "t",
            &[
                ("k", DataType::Int),
                ("x", DataType::Float),
                ("m", DataType::Float),
            ],
        );
        for (k, x) in [
            (Value::Int(-1), Value::Float(f64::NAN)),
            (Value::Null, Value::Null),
            (Value::Int(-1), Value::Float(f64::NAN)),
            (Value::Null, Value::Null),
            (Value::Int(-1), Value::Null),
        ] {
            b.push_row(&[k, x, Value::Float(1.0)]).unwrap();
        }
        let t = b.finish();
        let specs = [DimensionSpec::new(
            "d",
            "d_key",
            vec!["k".into(), "x".into()],
        )];
        let ds = normalize(&t, &specs).unwrap();
        let star = ds.as_star().unwrap();
        let fk = star.fact().column("d_key").unwrap().as_int().unwrap();
        assert_eq!(&*fk, &[0, 1, 0, 1, 2]);
        let (_, dim) = star.dimension("d").unwrap();
        assert_eq!(dim.num_rows(), 3);
        assert_eq!(dim.value_at(0, 1), Value::Null);
        assert_eq!(dim.value_at(1, 2), Value::Null);
    }

    #[test]
    fn wide_combinations_do_not_overflow_the_packed_key() {
        // Seven attributes with 997 ids each: 997^7 > u64::MAX, so the
        // fold must renumber its keys before the last digit.
        let n = 1_000;
        let cols: Vec<Column> = (0..7)
            .map(|c| Column::int((0..n).map(|r| (r * (c + 1)) as i64 % 997).collect()))
            .collect();
        let refs: Vec<(usize, &Column)> = cols.iter().enumerate().collect();
        let (keys, span) = combination_keys(&refs, n);
        let (ids, distinct) = first_seen(&keys, span);
        // Row r's combination is determined by r % 997 (attribute 0), and
        // every residue appears, so exactly 997 combinations exist.
        assert_eq!(distinct, 997);
        for r in 0..n {
            assert_eq!(ids[r], ids[r % 997]);
        }
    }

    #[test]
    fn overlapping_specs_rejected() {
        let t = flights::generate(100, 6);
        let specs = [
            DimensionSpec::new("a", "ka", vec!["carrier".into()]),
            DimensionSpec::new("b", "kb", vec!["carrier".into()]),
        ];
        assert!(normalize(&t, &specs).is_err());
    }

    #[test]
    fn unknown_attribute_rejected() {
        let t = flights::generate(100, 6);
        let specs = [DimensionSpec::new("a", "ka", vec!["ghost".into()])];
        assert!(normalize(&t, &specs).is_err());
    }

    #[test]
    fn normalization_shrinks_serialized_size() {
        // The paper observed normalized schemas are smaller overall (§5.3).
        // In our columnar layout an 8-byte surrogate key can outweigh a
        // 4-byte dictionary code, so the honest comparison — and the one
        // that matches the paper's CSV-loaded databases — is serialized
        // (CSV) size.
        let t = flights::generate(5_000, 6);
        let ds = normalize_flights(&t).unwrap();
        let star = ds.as_star().unwrap();

        let csv_len = |table: &idebench_storage::Table| {
            let mut buf = Vec::new();
            idebench_storage::write_csv(table, &mut buf).unwrap();
            buf.len()
        };
        let denorm_bytes = csv_len(&t);
        let norm_bytes: usize = csv_len(star.fact())
            + star
                .dimensions()
                .iter()
                .map(|(_, d)| csv_len(d))
                .sum::<usize>();
        assert!(
            norm_bytes < denorm_bytes,
            "normalized {norm_bytes} >= denormalized {denorm_bytes}"
        );
    }
}
