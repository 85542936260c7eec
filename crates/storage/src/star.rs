//! Star-schema datasets: a fact table plus dimension tables joined by
//! integer foreign keys.
//!
//! IDEBench runs on data-warehouse star schemas "in both de-normalized and
//! normalized form" (paper §3.1). [`Dataset`] is the handle the benchmark
//! passes to system adapters; engines that only support de-normalized data
//! (like the paper's IDEA and System X) reject the `Star` variant.

use crate::column::{Column, ColumnData};
use crate::encoding::Code;
use crate::error::StorageError;
use crate::match_ints;
use crate::table::Table;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Specification of one dimension split out of a de-normalized table.
///
/// `attributes` move into the dimension table; `fk_name` is the surrogate-key
/// column added to the fact table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionSpec {
    /// Name of the dimension table to create (e.g. `"carriers"`).
    pub table_name: String,
    /// Name of the foreign-key column added to the fact table.
    pub fk_name: String,
    /// De-normalized columns that move into the dimension table.
    pub attributes: Vec<String>,
}

impl DimensionSpec {
    /// Creates a dimension spec.
    pub fn new(
        table_name: impl Into<String>,
        fk_name: impl Into<String>,
        attributes: Vec<String>,
    ) -> Self {
        DimensionSpec {
            table_name: table_name.into(),
            fk_name: fk_name.into(),
            attributes,
        }
    }
}

/// Observable counters of a star schema's join cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinCacheStats {
    /// Materialized columns currently cached.
    pub entries: usize,
    /// Bytes held by the cached materializations.
    pub bytes: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that materialized (and inserted) a new column.
    pub misses: u64,
}

/// `(dimension index, column index)` → fact-ordered materialization.
type MaterializedColumns = FxHashMap<(usize, usize), Arc<Column>>;

/// Shared memo of fact-ordered dimension-column materializations.
///
/// The cache lives behind an `Arc`, so every clone of a [`StarSchema`] —
/// and every engine, session, or [`Dataset`] handle derived from it —
/// shares one set of materialized columns. It holds at most one copy per
/// dimension attribute, in that attribute's (narrow) encoding, so its size
/// is bounded by the schema — attribute widths times fact rows — not by
/// traffic; nothing is evicted for the lifetime of the dataset.
#[derive(Debug)]
struct JoinCacheInner {
    /// Materialized columns plus the bytes they hold, under one lock.
    columns: Mutex<(MaterializedColumns, usize)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A normalized dataset: one fact table and its dimensions.
#[derive(Debug, Clone)]
pub struct StarSchema {
    fact: Arc<Table>,
    dimensions: Vec<(DimensionSpec, Arc<Table>)>,
    join_cache: Arc<JoinCacheInner>,
}

impl StarSchema {
    /// Assembles a star schema. Each dimension's `fk_name` must exist as an
    /// integer column of the fact table, and key values must be valid row
    /// indexes of the dimension table.
    pub fn new(
        fact: Arc<Table>,
        dimensions: Vec<(DimensionSpec, Arc<Table>)>,
    ) -> Result<Self, StorageError> {
        for (spec, dim) in &dimensions {
            let ColumnData::Int(keys) = fact.column(&spec.fk_name)?.data() else {
                return Err(StorageError::TypeMismatch {
                    column: spec.fk_name.clone(),
                    expected: "int",
                    got: "non-int",
                });
            };
            let n = dim.num_rows() as i64;
            let bad =
                match_ints!(keys, v => v.iter().map(|&k| k.widen()).find(|&k| k < 0 || k >= n));
            if let Some(bad) = bad {
                return Err(StorageError::Csv {
                    line: 0,
                    message: format!(
                        "foreign key {bad} out of range for dimension {} ({} rows)",
                        spec.table_name, n
                    ),
                });
            }
        }
        Ok(StarSchema {
            fact,
            dimensions,
            join_cache: Arc::new(JoinCacheInner {
                columns: Mutex::new((FxHashMap::default(), 0)),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        })
    }

    /// The fact table.
    pub fn fact(&self) -> &Arc<Table> {
        &self.fact
    }

    /// The dimension tables with their specs.
    pub fn dimensions(&self) -> &[(DimensionSpec, Arc<Table>)] {
        &self.dimensions
    }

    /// Finds the dimension table holding `column`, if any.
    pub fn dimension_of_column(&self, column: &str) -> Option<(&DimensionSpec, &Arc<Table>)> {
        self.dimensions
            .iter()
            .find(|(_, t)| t.schema().index_of(column).is_ok())
            .map(|(s, t)| (s, t))
    }

    /// Dimension by table name.
    pub fn dimension(
        &self,
        table_name: &str,
    ) -> Result<(&DimensionSpec, &Arc<Table>), StorageError> {
        self.dimensions
            .iter()
            .find(|(s, _)| s.table_name == table_name)
            .map(|(s, t)| (s, t))
            .ok_or_else(|| StorageError::UnknownTable(table_name.to_string()))
    }

    /// Fact-ordered materialization of the dimension column `column`,
    /// served from the schema's shared join cache.
    ///
    /// The returned column has one row per *fact* row — row `r` holds
    /// `dim_column[fk[r]]` (with nulls preserved) — so scans read it like
    /// any de-normalized column: no per-row foreign-key indirection, no
    /// join at all. Materialization runs once per `(dimension, column)`
    /// pair; the memo is `Arc`-shared across every clone of this schema,
    /// so concurrent sessions and repeated queries against one dataset
    /// reuse a single materialization.
    ///
    /// Returns `None` when `column` is not a dimension attribute. The
    /// materialization keeps the dimension column's encoding, so narrow
    /// columns stay narrow.
    pub fn materialize_join(&self, column: &str) -> Option<Arc<Column>> {
        let (dim_idx, (spec, dim)) = self
            .dimensions
            .iter()
            .enumerate()
            .find(|(_, (_, t))| t.schema().index_of(column).is_ok())?;
        let col_idx = dim.schema().index_of(column).ok()?;
        let cache = &self.join_cache;
        if let Some(hit) = cache.columns.lock().unwrap().0.get(&(dim_idx, col_idx)) {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(hit));
        }
        let dim_col = dim.column_at(col_idx);
        let ColumnData::Int(fk) = self.fact.column(&spec.fk_name).ok()?.data() else {
            unreachable!("fk column validated at construction");
        };
        let materialized = Arc::new(match_ints!(fk, v => dim_col.take(
            v.iter().map(|&k| k.widen() as usize)
        )));
        let mut guard = cache.columns.lock().unwrap();
        // Re-check under the lock: a racing materialization may have landed
        // (reuse it, dropping ours).
        if let Some(existing) = guard.0.get(&(dim_idx, col_idx)) {
            cache.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(existing));
        }
        guard.1 += materialized.byte_size();
        guard
            .0
            .insert((dim_idx, col_idx), Arc::clone(&materialized));
        cache.misses.fetch_add(1, Ordering::Relaxed);
        Some(materialized)
    }

    /// Counters of the shared join cache (see
    /// [`StarSchema::materialize_join`]).
    pub fn join_cache_stats(&self) -> JoinCacheStats {
        let (entries, bytes) = {
            let guard = self.join_cache.columns.lock().unwrap();
            (guard.0.len(), guard.1)
        };
        JoinCacheStats {
            entries,
            bytes,
            hits: self.join_cache.hits.load(Ordering::Relaxed),
            misses: self.join_cache.misses.load(Ordering::Relaxed),
        }
    }

    /// Total rows across fact and dimensions (size metric for reports).
    pub fn total_rows(&self) -> usize {
        self.fact.num_rows()
            + self
                .dimensions
                .iter()
                .map(|(_, t)| t.num_rows())
                .sum::<usize>()
    }

    /// Total byte footprint across fact and dimensions.
    pub fn byte_size(&self) -> usize {
        self.fact.byte_size()
            + self
                .dimensions
                .iter()
                .map(|(_, t)| t.byte_size())
                .sum::<usize>()
    }
}

/// The dataset handle handed to system adapters.
#[derive(Debug, Clone)]
pub enum Dataset {
    /// One wide de-normalized table.
    Denormalized(Arc<Table>),
    /// Fact + dimensions (normalized star schema).
    Star(Arc<StarSchema>),
}

impl Dataset {
    /// Rows in the fact (or single) table — the "size" of the dataset in the
    /// sense of the paper's S/M/L settings.
    pub fn fact_rows(&self) -> usize {
        match self {
            Dataset::Denormalized(t) => t.num_rows(),
            Dataset::Star(s) => s.fact.num_rows(),
        }
    }

    /// True when the dataset is normalized (requires join support).
    pub fn is_normalized(&self) -> bool {
        matches!(self, Dataset::Star(_))
    }

    /// Whether two handles point at the *same* dataset (`Arc` identity).
    /// Engines use this for idempotent `prepare`: re-preparing the dataset
    /// already loaded must not rebuild shuffles, samples, or statistics.
    pub fn ptr_eq(&self, other: &Dataset) -> bool {
        match (self, other) {
            (Dataset::Denormalized(x), Dataset::Denormalized(y)) => Arc::ptr_eq(x, y),
            (Dataset::Star(x), Dataset::Star(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    /// Total physical rows across fact and dimensions — the unit engines
    /// charge load cost in.
    pub fn total_rows(&self) -> usize {
        match self {
            Dataset::Denormalized(t) => t.num_rows(),
            Dataset::Star(s) => s.total_rows(),
        }
    }

    /// Total byte footprint.
    pub fn byte_size(&self) -> usize {
        match self {
            Dataset::Denormalized(t) => t.byte_size(),
            Dataset::Star(s) => s.byte_size(),
        }
    }

    /// The de-normalized table, if this dataset is de-normalized.
    pub fn as_denormalized(&self) -> Option<&Arc<Table>> {
        match self {
            Dataset::Denormalized(t) => Some(t),
            Dataset::Star(_) => None,
        }
    }

    /// The star schema, if this dataset is normalized.
    pub fn as_star(&self) -> Option<&Arc<StarSchema>> {
        match self {
            Dataset::Star(s) => Some(s),
            Dataset::Denormalized(_) => None,
        }
    }

    /// Computes and caches numeric min/max statistics and decimal decode
    /// tables for every column (see [`crate::Column::numeric_min_max`] and
    /// [`crate::Column::decode_table`]).
    ///
    /// Engines call this during `prepare`, where load/preprocess cost is
    /// already reported, so plan compilation never pays a lazy O(rows)
    /// stats scan inside `submit` — a cost the work-unit accounting could
    /// not otherwise see.
    pub fn warm_numeric_stats(&self) {
        let warm = |t: &Table| {
            for col in t.columns() {
                let _ = (col.numeric_min_max(), col.decode_table());
            }
        };
        match self {
            Dataset::Denormalized(t) => warm(t),
            Dataset::Star(s) => {
                warm(s.fact());
                for (_, dim) in s.dimensions() {
                    warm(dim);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::table::{TableBuilder, Value};

    fn fact() -> Arc<Table> {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        for (d, k) in [(1.0, 0i64), (2.0, 1), (3.0, 0)] {
            b.push_row(&[d.into(), k.into()]).unwrap();
        }
        Arc::new(b.finish())
    }

    fn carriers() -> Arc<Table> {
        let mut b = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        b.push_row(&[Value::Str("AA".into())]).unwrap();
        b.push_row(&[Value::Str("DL".into())]).unwrap();
        Arc::new(b.finish())
    }

    fn spec() -> DimensionSpec {
        DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()])
    }

    #[test]
    fn star_schema_validates_keys() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        assert_eq!(s.total_rows(), 5);
        assert!(s.dimension("carriers").is_ok());
        assert!(s.dimension("nope").is_err());
    }

    #[test]
    fn dataset_total_rows_counts_every_table() {
        let star = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        assert_eq!(Dataset::Star(Arc::new(star)).total_rows(), 5);
        assert_eq!(Dataset::Denormalized(fact()).total_rows(), 3);
    }

    #[test]
    fn out_of_range_fk_rejected() {
        let mut b = TableBuilder::with_fields("f", &[("carrier_key", DataType::Int)]);
        b.push_row(&[Value::Int(5)]).unwrap();
        let bad_fact = Arc::new(b.finish());
        assert!(StarSchema::new(bad_fact, vec![(spec(), carriers())]).is_err());
    }

    #[test]
    fn dimension_of_column_finds_home_table() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        let (d, _) = s.dimension_of_column("carrier").unwrap();
        assert_eq!(d.table_name, "carriers");
        assert!(s.dimension_of_column("dep_delay").is_none());
    }

    #[test]
    fn join_cache_materializes_once_and_shares() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        let a = s.materialize_join("carrier").unwrap();
        // Fact-ordered: keys [0, 1, 0] → codes of AA, DL, AA.
        let (codes, dict) = a.as_nominal().unwrap();
        assert_eq!(&*codes, &[0, 1, 0]);
        assert_eq!(dict.value(1), Some("DL"));
        // Second lookup — and lookups through a *clone* of the schema —
        // share the same materialization.
        let b = s.materialize_join("carrier").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = s.clone().materialize_join("carrier").unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        let stats = s.join_cache_stats();
        assert_eq!(stats.entries, 1);
        // One-byte codes: the dimension's two-entry dictionary narrows them.
        assert_eq!(stats.bytes, 3);
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn join_cache_rejects_non_dimension_columns() {
        let s = StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap();
        assert!(s.materialize_join("dep_delay").is_none(), "fact column");
        assert!(s.materialize_join("ghost").is_none(), "unknown column");
    }

    #[test]
    fn dataset_accessors() {
        let denorm = Dataset::Denormalized(fact());
        assert_eq!(denorm.fact_rows(), 3);
        assert!(!denorm.is_normalized());
        assert!(denorm.as_denormalized().is_some());

        let star = Dataset::Star(Arc::new(
            StarSchema::new(fact(), vec![(spec(), carriers())]).unwrap(),
        ));
        assert!(star.is_normalized());
        assert_eq!(star.fact_rows(), 3);
        assert!(star.as_star().is_some());
        assert!(star.byte_size() > 0);
    }
}
