//! The System-X-class AQP engine: **offline stratified sampling**.
//!
//! Models the paper's commercial "System X" (§5): an in-memory approximate
//! engine that answers queries from *stratified sample tables built
//! offline*. Observable behaviour reproduced here:
//!
//! - Queries run **blocking over the sample**: fast, but nothing can be
//!   fetched before the sample scan finishes — so the smallest time
//!   requirements are violated (the paper saw >50% violations at 0.5 s,
//!   5% at 1 s, none from 3 s up).
//! - Because the sample is fixed offline, **quality metrics are constant
//!   across time requirements** (§6): more time does not buy better answers
//!   without building bigger samples — which would raise the (already
//!   significant) data-preparation time.
//! - Stratification guarantees rare strata are represented, keeping missing
//!   bins low even at small sampling rates.
//! - The paper's System X "only works on de-normalized data"; this
//!   reproduction goes further — star schemas sample *fact rows* (strata
//!   attributes read fact-ordered through the schema's shared join cache)
//!   and keep the sampled fact joined to the original dimensions, so the
//!   sample picks exactly the rows the de-normalized twin would (see
//!   [`build_stratified_sample_dataset`]).
//! - The sample is built once per dataset: it is kept in the dataset's memo
//!   ([`Dataset::memo`]) keyed by the seed, the sampling rate and the
//!   strata columns, so an engine restarted over the same dataset reuses
//!   it. The cost model still bills its construction to every prepare, as
//!   the paper charges data preparation to each restart.
//!
//! The sample uses proportional allocation with a per-stratum minimum of one
//! row, so uniform scale-up estimators apply (weights are equal across
//! strata up to rounding); see `DESIGN.md` for the simplification note.

use idebench_core::{CoreError, Overhead, PrepStats, Query, QueryHandle, Settings, SystemAdapter};
use idebench_query::{ChunkedRun, CompiledPlan, SnapshotMode};
use idebench_storage::{
    Code, Column, ColumnData, Dataset, DictCodes, Dictionary, StarSchema, Table,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Configuration of the stratified-sampling engine.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedConfig {
    /// Fraction of rows kept in the offline sample (paper used 1% of 500M;
    /// scaled-down datasets default to 10% so samples aren't degenerate).
    pub sampling_rate: f64,
    /// Columns defining the strata. Nominal columns only; columns missing
    /// from a dataset are ignored (falls back to coarser strata).
    pub strata_columns: Vec<String>,
    /// Base per-row cost of scanning the sample.
    pub cost_base: f64,
    /// Additional cost per 4-byte unit of referenced column width.
    pub cost_per_width_unit: f64,
    /// Extra cost per filter-matching sample row (weighted-estimate
    /// maintenance).
    pub match_cost: f64,
    /// Fixed planning/connection overhead per query, in (virtual) seconds;
    /// converted to work units at prepare time.
    pub per_query_overhead_s: f64,
    /// Load cost per row (CSV ingest, like the exact engine).
    pub load_units_per_row: f64,
    /// Offline sample-construction cost per *source* row (the scan).
    pub preprocess_units_per_row: f64,
    /// Offline sample-construction cost per *sample* row (the write) —
    /// the term that makes bigger samples costlier to prepare (paper §6).
    pub preprocess_units_per_sample_row: f64,
}

impl Default for StratifiedConfig {
    fn default() -> Self {
        StratifiedConfig {
            sampling_rate: 0.10,
            strata_columns: vec!["carrier".into(), "origin_state".into()],
            cost_base: 0.14,
            cost_per_width_unit: 0.08,
            match_cost: 0.65,
            per_query_overhead_s: 0.06,
            load_units_per_row: 1.0,
            preprocess_units_per_row: 0.35,
            preprocess_units_per_sample_row: 2.0,
        }
    }
}

impl StratifiedConfig {
    /// Per-row work-unit cost over the sample.
    pub fn row_cost(&self, plan: &CompiledPlan) -> f64 {
        self.cost_base + self.cost_per_width_unit * plan.width_units()
    }
}

/// The memo key of a dataset's offline sample: the seed, the sampling
/// rate's bits and the strata columns. Adapters over one dataset with the
/// same key share one sample (see [`Dataset::memo`]).
type SampleKey = (u64, u64, Vec<String>);

/// A dataset's offline sample, statistics warmed, as its memo holds it.
struct Sample(Dataset);

/// The offline-sampling adapter ("stratified" in reports).
pub struct StratifiedAdapter {
    config: StratifiedConfig,
    source: Option<Dataset>,
    sample: Option<Dataset>,
    population: u64,
    z: f64,
    overhead_units: u64,
    prep: PrepStats,
    /// Scan worker-pool size, taken from the settings at prepare time.
    workers: usize,
}

impl StratifiedAdapter {
    /// Creates the adapter with a custom configuration.
    pub fn new(config: StratifiedConfig) -> Self {
        assert!(
            config.sampling_rate > 0.0 && config.sampling_rate <= 1.0,
            "sampling rate must be in (0, 1]"
        );
        StratifiedAdapter {
            config,
            source: None,
            sample: None,
            population: 0,
            z: 1.96,
            overhead_units: 0,
            prep: PrepStats::default(),
            workers: 1,
        }
    }

    /// Creates the adapter with default calibration.
    pub fn with_defaults() -> Self {
        Self::new(StratifiedConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &StratifiedConfig {
        &self.config
    }

    /// Rows in the offline sample (after prepare).
    pub fn sample_rows(&self) -> usize {
        self.sample.as_ref().map_or(0, Dataset::fact_rows)
    }

    /// Hosts this adapter as a shared [`idebench_core::EngineService`]:
    /// one engine instance serves every session, so the offline stratified
    /// sample is built once and shared fleet-wide (submission is stateless
    /// across sessions).
    pub fn into_service(self) -> idebench_core::ServiceCore {
        idebench_core::ServiceCore::shared_adapter(self)
    }
}

/// One strata column: per-row dictionary codes plus a code-indexed table
/// of *value* hashes. Keying strata on value hashes (not raw codes) makes
/// the row choice independent of how a dictionary happens to assign codes,
/// so a star schema whose dimension table permutes the code order still
/// samples exactly the rows its de-normalized twin would.
struct StrataCol<'a> {
    codes: &'a DictCodes,
    value_keys: Vec<u64>,
}

/// A nominal column's codes, as stored, and its dictionary.
fn nominal_codes(col: &Column) -> Option<(&DictCodes, &Arc<Dictionary>)> {
    match col.data() {
        ColumnData::Nominal(codes, dict) => Some((codes, dict)),
        _ => None,
    }
}

/// FxHash of every dictionary value, indexed by code.
fn dictionary_value_keys(dict: &Dictionary) -> Vec<u64> {
    use std::hash::{Hash, Hasher};
    (0..dict.len() as u32)
        .map(|code| {
            let mut h = rustc_hash::FxHasher::default();
            dict.value(code).unwrap_or("").hash(&mut h);
            h.finish()
        })
        .collect()
}

/// Selects the sampled row indexes: proportional allocation over the
/// strata keyed by the given columns' *values*, minimum one row per
/// stratum, seeded row choice within each stratum.
///
/// The rows are laid out grouped by stratum ([`group_by_stratum`]), and
/// each stratum's range is shuffled with one generator, stratum by stratum
/// in key order.
fn choose_stratified_rows(
    num_rows: usize,
    strata_cols: &[StrataCol<'_>],
    rate: f64,
    seed: u64,
) -> Vec<usize> {
    assert!(u32::try_from(num_rows).is_ok(), "row ids fit in u32");
    let key_of = |row: usize| {
        strata_cols.iter().fold(0u64, |key, col| {
            key.wrapping_mul(1_000_003)
                .wrapping_add(col.value_keys[col.codes.get(row) as usize])
        })
    };
    // Strata ids are dense, so the number of code tuples bounds them: a
    // `u16` per row holds them for any realistic strata columns, and halves
    // the memory pass 1 holds until pass 2 has read it.
    let tuples = strata_cols
        .iter()
        .fold(1usize, |n, col| n.saturating_mul(col.value_keys.len()));
    let (mut grouped, ends) = if tuples <= 1 << 16 {
        group_by_stratum::<u16>(num_rows, key_of)
    } else {
        group_by_stratum::<u32>(num_rows, key_of)
    };

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5177_a7e5);
    let mut chosen: Vec<usize> = Vec::with_capacity((num_rows as f64 * rate) as usize + 1);
    let mut start = 0;
    for end in ends {
        let rows = &mut grouped[start..end];
        start = end;
        let take = ((rows.len() as f64 * rate).round() as usize).clamp(1, rows.len());
        rows.shuffle(&mut rng);
        chosen.extend(rows[..take].iter().map(|&r| r as usize));
    }
    chosen.sort_unstable();
    chosen
}

/// Lays rows `0..num_rows` out grouped by stratum, in one `u32` per row:
/// strata in key order, rows in row order within each. Returns the grouped
/// rows and the end of each stratum's range, in key order.
///
/// A counting sort: pass 1 hashes each row's strata key once, numbers the
/// strata densely in order of first appearance, records each row's id as a
/// `T`, and counts the rows per stratum; the strata are ordered by key, and
/// pass 2 reads each row's id back and writes the row into its stratum's
/// range.
fn group_by_stratum<T: Code>(
    num_rows: usize,
    key_of: impl Fn(usize) -> u64,
) -> (Vec<u32>, Vec<usize>) {
    let mut ids: FxHashMap<u64, T> = FxHashMap::default();
    let mut keys: Vec<u64> = Vec::new();
    let mut cursors: Vec<usize> = Vec::new();
    let stratum: Vec<T> = (0..num_rows)
        .map(|row| {
            let key = key_of(row);
            let id = *ids.entry(key).or_insert_with(|| {
                keys.push(key);
                cursors.push(0);
                T::try_from(keys.len() as i64 - 1)
                    .ok()
                    .expect("the code tuples bound the strata ids")
            });
            cursors[id.widen() as usize] += 1;
            id
        })
        .collect();
    // Each count becomes the write cursor of its stratum's range.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_unstable_by_key(|&id| keys[id]);
    let mut start = 0;
    for &id in &order {
        start += std::mem::replace(&mut cursors[id], start);
    }
    let mut grouped = vec![0u32; num_rows];
    for (row, id) in stratum.into_iter().enumerate() {
        let cursor = &mut cursors[id.widen() as usize];
        grouped[*cursor] = row as u32;
        *cursor += 1;
    }
    // Each cursor now sits at the end of its range.
    let ends = order.iter().map(|&id| cursors[id]).collect();
    (grouped, ends)
}

/// Builds a stratified sample of `table`: proportional allocation over the
/// strata defined by `strata_columns` (ignored when absent), minimum one
/// row per stratum, seeded row choice within each stratum.
pub fn build_stratified_sample(
    table: &Table,
    strata_columns: &[String],
    rate: f64,
    seed: u64,
) -> Table {
    // Gather code accessors for present nominal strata columns.
    let strata_cols: Vec<StrataCol<'_>> = strata_columns
        .iter()
        .filter_map(|name| table.column(name).ok())
        .filter_map(|c| {
            nominal_codes(c).map(|(codes, dict)| StrataCol {
                codes,
                value_keys: dictionary_value_keys(dict),
            })
        })
        .collect();
    let chosen = choose_stratified_rows(table.num_rows(), &strata_cols, rate, seed);
    table
        .take(&chosen)
        .renamed(format!("{}_sample", table.name()))
}

/// A strata code column resolved against a dataset: borrowed from the fact
/// table, or shared from the star schema's join cache.
enum StrataCodes<'a> {
    Borrowed(&'a DictCodes),
    Shared(Arc<Column>),
}

impl StrataCodes<'_> {
    fn codes(&self) -> &DictCodes {
        match self {
            StrataCodes::Borrowed(c) => c,
            StrataCodes::Shared(c) => nominal_codes(c).expect("nominal strata column").0,
        }
    }
}

/// Builds the offline stratified sample of a [`Dataset`].
///
/// De-normalized datasets sample the single table as before. Star schemas
/// sample *fact rows* — strata attributes living in dimension tables are
/// read fact-ordered through the schema's shared join cache — and keep the
/// sampled fact joined to the **original** dimension tables, so the sample
/// remains a normalized dataset and sampled queries still pay the
/// (devirtualized) join. Strata are keyed on attribute *values* (not
/// dictionary codes), so the sampled rows are identical to the
/// de-normalized form's even when a dimension table's dictionary assigns
/// codes in a different order.
pub fn build_stratified_sample_dataset(
    dataset: &Dataset,
    strata_columns: &[String],
    rate: f64,
    seed: u64,
) -> Dataset {
    match dataset {
        Dataset::Denormalized(t) => Dataset::Denormalized(Arc::new(build_stratified_sample(
            t,
            strata_columns,
            rate,
            seed,
        ))),
        Dataset::Star(s) => {
            let fact = s.fact();
            // Each present nominal strata column: its fact-ordered codes
            // (borrowed or cache-shared) plus the value-key table of its
            // dictionary.
            let holders: Vec<(StrataCodes<'_>, Vec<u64>)> = strata_columns
                .iter()
                .filter_map(|name| {
                    if let Ok(c) = fact.column(name) {
                        return nominal_codes(c).map(|(codes, dict)| {
                            (StrataCodes::Borrowed(codes), dictionary_value_keys(dict))
                        });
                    }
                    let (_, dim) = s.dimension_of_column(name)?;
                    let (_, dict) = nominal_codes(dim.column(name).ok()?)?;
                    let value_keys = dictionary_value_keys(dict);
                    Some((StrataCodes::Shared(s.materialize_join(name)?), value_keys))
                })
                .collect();
            let strata_cols: Vec<StrataCol<'_>> = holders
                .iter()
                .map(|(h, value_keys)| StrataCol {
                    codes: h.codes(),
                    value_keys: value_keys.clone(),
                })
                .collect();
            let chosen = choose_stratified_rows(fact.num_rows(), &strata_cols, rate, seed);
            let sampled_fact = fact
                .take(&chosen)
                .renamed(format!("{}_sample", fact.name()));
            Dataset::Star(Arc::new(
                StarSchema::new(Arc::new(sampled_fact), s.dimensions().to_vec())
                    .expect("sampled fact keeps valid foreign keys"),
            ))
        }
    }
}

impl SystemAdapter for StratifiedAdapter {
    fn name(&self) -> &str {
        "stratified"
    }

    fn prepare(&mut self, dataset: &Dataset, settings: &Settings) -> Result<PrepStats, CoreError> {
        self.workers = settings.effective_workers();
        if let Some(existing) = &self.source {
            if existing.ptr_eq(dataset) {
                self.z = settings.z_value();
                self.overhead_units = settings.seconds_to_units(self.config.per_query_overhead_s);
                return Ok(self.prep);
            }
        }
        let (strata, rate) = (&self.config.strata_columns, self.config.sampling_rate);
        let key: SampleKey = (settings.seed, rate.to_bits(), strata.clone());
        let sample = dataset.memo().get_or_build(key, || {
            let sample = build_stratified_sample_dataset(dataset, strata, rate, settings.seed);
            // Column min/max stats power the planner's dense bucketed
            // binning; warming them here keeps the O(rows) scan out of
            // submit().
            sample.warm_numeric_stats();
            Sample(sample)
        });
        let rows = dataset.fact_rows() as f64;
        let sample_rows = sample.0.fact_rows() as f64;
        self.population = dataset.fact_rows() as u64;
        self.sample = Some(sample.0.clone());
        self.source = Some(dataset.clone());
        self.z = settings.z_value();
        self.overhead_units = settings.seconds_to_units(self.config.per_query_overhead_s);
        self.prep = PrepStats {
            load_units: (rows * self.config.load_units_per_row).round() as u64,
            preprocess_units: (rows * self.config.preprocess_units_per_row
                + sample_rows * self.config.preprocess_units_per_sample_row)
                .round() as u64,
            // The paper: "each connection must execute a warm-up query".
            warmup_units: (sample_rows * self.config.cost_base).round() as u64
                + self.overhead_units,
        };
        Ok(self.prep)
    }

    fn submit(&mut self, query: &Query) -> Box<dyn QueryHandle> {
        let sample = self
            .sample
            .as_ref()
            .expect("prepare() must run before submit()")
            .clone();
        // One compilation serves both the cost model and the entire scan.
        let plan = CompiledPlan::compile(&sample, query)
            .expect("driver-validated query binds against the sample");
        let cost = self.config.row_cost(&plan);
        let mut run = ChunkedRun::from_plan(
            plan,
            None,
            SnapshotMode::EstimateAtEnd {
                z: self.z,
                population: self.population,
            },
        );
        run.set_row_cost(cost);
        run.set_match_cost(self.config.match_cost);
        run.set_workers(self.workers);
        Overhead::wrap(self.overhead_units, Box::new(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::spec::{AggregateSpec, BinDef};
    use idebench_core::{BinCoord, BinKey, VizSpec};
    use idebench_query::execute_exact;
    use idebench_storage::{DataType, TableBuilder};

    fn table(n: usize) -> Table {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("origin_state", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for i in 0..n {
            // Carrier "R" is rare: 1 in 500 rows.
            let c = if i % 500 == 0 {
                "R"
            } else if i % 2 == 0 {
                "AA"
            } else {
                "DL"
            };
            let s = if i % 3 == 0 { "CA" } else { "NY" };
            b.push_row(&[c.into(), s.into(), ((i % 83) as f64).into()])
                .unwrap();
        }
        b.finish()
    }

    fn dataset(n: usize) -> Dataset {
        Dataset::Denormalized(Arc::new(table(n)))
    }

    fn count_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn sample_size_tracks_rate() {
        let t = table(10_000);
        let s = build_stratified_sample(&t, &["carrier".into()], 0.1, 7);
        let ratio = s.num_rows() as f64 / t.num_rows() as f64;
        assert!((ratio - 0.1).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn rare_strata_always_represented() {
        let t = table(10_000);
        // 20 rows of carrier "R" at 0.1% sampling would usually vanish with
        // uniform sampling; stratification keeps at least one.
        let s = build_stratified_sample(&t, &["carrier".into()], 0.001, 7);
        let (codes, dict) = s.column("carrier").unwrap().as_nominal().unwrap();
        let r_code = dict.code("R").expect("dictionary shared with source");
        assert!(codes.contains(&r_code), "rare stratum lost");
    }

    #[test]
    fn sample_deterministic_per_seed() {
        let t = table(5_000);
        let a = build_stratified_sample(&t, &["carrier".into()], 0.05, 9);
        let b = build_stratified_sample(&t, &["carrier".into()], 0.05, 9);
        assert_eq!(a, b);
        let c = build_stratified_sample(&t, &["carrier".into()], 0.05, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn missing_strata_columns_fall_back() {
        let t = table(1_000);
        let s = build_stratified_sample(&t, &["ghost".into()], 0.1, 7);
        // One giant stratum → plain uniform sample of ~10%.
        assert!((s.num_rows() as f64 - 100.0).abs() <= 1.0);
    }

    #[test]
    fn blocking_no_result_until_sample_scanned() {
        let ds = dataset(10_000);
        let mut adapter = StratifiedAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut h = adapter.submit(&count_query());
        h.step(10);
        assert!(h.snapshot().is_none());
        while !h.step(100_000).is_done() {}
        let snap = h.snapshot().unwrap();
        assert!(!snap.exact);
    }

    #[test]
    fn estimates_scale_to_population() {
        let ds = dataset(50_000);
        let mut adapter = StratifiedAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut h = adapter.submit(&count_query());
        while !h.step(1_000_000).is_done() {}
        let snap = h.snapshot().unwrap();
        let total: f64 = snap.bins.values().map(|b| b.values[0]).sum();
        // Scale-up estimate of total row count ≈ population.
        assert!(
            (total - 50_000.0).abs() / 50_000.0 < 0.02,
            "total estimate {total}"
        );
        // Margins are reported.
        assert!(snap.bins.values().all(|b| b.margins[0] >= 0.0));
    }

    #[test]
    fn estimate_close_to_ground_truth_per_bin() {
        let ds = dataset(50_000);
        let gt = execute_exact(&ds, &count_query()).unwrap();
        let mut adapter = StratifiedAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut h = adapter.submit(&count_query());
        while !h.step(1_000_000).is_done() {}
        let snap = h.snapshot().unwrap();
        let aa = BinKey::d1(BinCoord::Cat(0));
        let est = snap.value(&aa, 0).unwrap();
        let truth = gt.value(&aa, 0).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn per_query_overhead_delays_start() {
        let ds = dataset(10_000);
        let mut adapter = StratifiedAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        // Default overhead = 0.06 s × 1M units/s = 60k units.
        let mut h = adapter.submit(&count_query());
        let st = h.step(30_000);
        assert_eq!(st.units(), 30_000, "grant fully absorbed by overhead");
        assert!(h.snapshot().is_none(), "no result while planning");
        // The sample scan itself (~1k rows) is tiny next to the overhead.
        while !h.step(50_000).is_done() {}
        assert!(h.snapshot().is_some());
    }

    /// A star twin of `table(n)`: carrier moves into a dimension reached by
    /// an FK whose codes match the de-normalized column's exactly.
    fn star_dataset(n: usize) -> Dataset {
        use idebench_storage::{DimensionSpec, Value};
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("origin_state", DataType::Nominal),
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        // Mirror table(n)'s carrier sequence as FKs: R=0? No — dimension
        // rows are in first-seen order (R at i=0, then AA, DL), matching
        // the de-normalized dictionary's code assignment.
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        for c in ["R", "AA", "DL"] {
            d.push_row(&[Value::Str(c.into())]).unwrap();
        }
        for i in 0..n {
            let key = if i % 500 == 0 {
                0i64
            } else if i % 2 == 0 {
                1
            } else {
                2
            };
            let s = if i % 3 == 0 { "CA" } else { "NY" };
            f.push_row(&[s.into(), ((i % 83) as f64).into(), key.into()])
                .unwrap();
        }
        Dataset::Star(Arc::new(
            StarSchema::new(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
                    Arc::new(d.finish()),
                )],
            )
            .unwrap(),
        ))
    }

    #[test]
    fn permuted_dimension_codes_sample_the_same_rows() {
        // A star twin whose carrier dimension assigns dictionary codes in a
        // *different* order than the de-normalized column's first-seen
        // order. Value-keyed strata must still pick exactly the same rows.
        use idebench_storage::{DimensionSpec, Value};
        let n = 4_000;
        let denorm = table(n);
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("origin_state", DataType::Nominal),
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        // Dimension ordered AA, DL, R — denorm first-seen order is R, AA, DL.
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        for c in ["AA", "DL", "R"] {
            d.push_row(&[Value::Str(c.into())]).unwrap();
        }
        for i in 0..n {
            let key = if i % 500 == 0 {
                2i64 // R
            } else if i % 2 == 0 {
                0 // AA
            } else {
                1 // DL
            };
            let s = if i % 3 == 0 { "CA" } else { "NY" };
            f.push_row(&[s.into(), ((i % 83) as f64).into(), key.into()])
                .unwrap();
        }
        let star = Dataset::Star(Arc::new(
            StarSchema::new(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
                    Arc::new(d.finish()),
                )],
            )
            .unwrap(),
        ));
        let strata = vec!["carrier".to_string(), "origin_state".to_string()];
        let flat_sample = build_stratified_sample(&denorm, &strata, 0.1, 7);
        let star_sample = build_stratified_sample_dataset(&star, &strata, 0.1, 7);
        let star_fact = star_sample.as_star().unwrap().fact();
        assert_eq!(flat_sample.num_rows(), star_fact.num_rows());
        assert_eq!(
            flat_sample.column("dep_delay").unwrap().as_float().unwrap(),
            star_fact.column("dep_delay").unwrap().as_float().unwrap(),
            "identical fact rows sampled despite permuted dimension codes"
        );
    }

    #[test]
    fn star_schema_samples_matching_fact_rows() {
        let n = 10_000;
        let star = star_dataset(n);
        let mut adapter = StratifiedAdapter::with_defaults();
        adapter.prepare(&star, &Settings::default()).unwrap();
        let ratio = adapter.sample_rows() as f64 / n as f64;
        assert!((ratio - 0.1).abs() < 0.01, "ratio {ratio}");
        // The sample is still a star schema joined to the full dimensions,
        // and its estimates scale to the *fact* population.
        let mut h = adapter.submit(&count_query());
        while !h.step(1_000_000).is_done() {}
        let snap = h.snapshot().unwrap();
        let total: f64 = snap.bins.values().map(|b| b.values[0]).sum();
        let rel = (total - n as f64).abs() / (n as f64);
        assert!(rel < 0.02, "total estimate {total}");
        // Rare carrier "R" survives stratification through the join.
        assert!(
            snap.bins.len() >= 3,
            "rare stratum lost: {} bins",
            snap.bins.len()
        );
    }

    #[test]
    fn prepare_reports_offline_costs() {
        let ds = dataset(10_000);
        let mut adapter = StratifiedAdapter::with_defaults();
        let prep = adapter.prepare(&ds, &Settings::default()).unwrap();
        assert_eq!(prep.load_units, 10_000);
        // Source scan (10k x 0.35) + sample write (~1k x 2.0).
        assert!(prep.preprocess_units >= 5_400 && prep.preprocess_units <= 5_600);
        assert!(prep.warmup_units > 0);
        // Idempotent.
        let again = adapter.prepare(&ds, &Settings::default()).unwrap();
        assert_eq!(prep, again);
    }

    /// The hash-map row choice the counting sort replaced, kept as the
    /// oracle: each stratum's rows collected in a `Vec`, strata shuffled in
    /// key order.
    fn choose_rows_oracle(
        num_rows: usize,
        strata_cols: &[StrataCol<'_>],
        rate: f64,
        seed: u64,
    ) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5177_a7e5);
        let mut strata: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for row in 0..num_rows {
            let mut key = 0u64;
            for col in strata_cols {
                key = key
                    .wrapping_mul(1_000_003)
                    .wrapping_add(col.value_keys[col.codes.get(row) as usize]);
            }
            strata.entry(key).or_default().push(row);
        }
        let mut chosen: Vec<usize> = Vec::new();
        let mut keys: Vec<u64> = strata.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let rows = &mut strata.get_mut(&key).expect("key from map");
            let take = ((rows.len() as f64 * rate).round() as usize).clamp(1, rows.len());
            rows.shuffle(&mut rng);
            chosen.extend_from_slice(&rows[..take]);
        }
        chosen.sort_unstable();
        chosen
    }

    #[test]
    fn counting_sort_chooses_the_oracle_rows() {
        use rand::Rng;
        // Random cases: 0–3 strata columns over random codes and value
        // keys, random rates. Value keys drawn from a few values make two
        // code tuples share one strata key; many codes over few rows make
        // one-row strata.
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let rows = rng.random_range(1..400usize);
            let ncols = rng.random_range(0..4usize);
            let columns: Vec<(DictCodes, Vec<u64>)> = (0..ncols)
                .map(|_| {
                    let codes = rng.random_range(1..60u32);
                    let distinct = rng.random_range(1..=codes as u64);
                    let keys = (0..codes).map(|_| rng.random_range(0..distinct)).collect();
                    let col: Vec<u8> = (0..rows)
                        .map(|_| rng.random_range(0..codes) as u8)
                        .collect();
                    (DictCodes::from(col), keys)
                })
                .collect();
            let strata: Vec<StrataCol<'_>> = columns
                .iter()
                .map(|(codes, value_keys)| StrataCol {
                    codes,
                    value_keys: value_keys.clone(),
                })
                .collect();
            let rate = rng.random_range(0.001..1.0);
            let seed = rng.random_range(0..u64::MAX);
            assert_eq!(
                choose_stratified_rows(rows, &strata, rate, seed),
                choose_rows_oracle(rows, &strata, rate, seed),
                "case {case}: {rows} rows, {ncols} columns, rate {rate}"
            );
        }
    }

    #[test]
    fn counting_sort_edge_strata_match_the_oracle() {
        // Every row its own stratum; and two code tuples, (0, 0) in row 2
        // and (1, 1) in row 3, whose value keys give one strata key.
        let codes = DictCodes::from((0..50u16).collect::<Vec<_>>());
        let own = [StrataCol {
            codes: &codes,
            value_keys: (0..50).map(|k| k * 31).collect(),
        }];
        let (a, b) = (
            DictCodes::from(vec![0u8, 1, 0, 1, 1]),
            DictCodes::from(vec![1u8, 0, 0, 1, 0]),
        );
        let shared = [
            StrataCol {
                codes: &a,
                value_keys: vec![0, 1],
            },
            StrataCol {
                codes: &b,
                value_keys: vec![1_000_003, 0],
            },
        ];
        for rate in [0.01, 0.5, 1.0] {
            for cols in [&own[..], &shared[..]] {
                let n = cols[0].codes.len();
                assert_eq!(
                    choose_stratified_rows(n, cols, rate, 3),
                    choose_rows_oracle(n, cols, rate, 3)
                );
            }
        }
        assert_eq!(choose_stratified_rows(50, &own, 0.01, 3).len(), 50);
    }

    #[test]
    fn strata_ids_of_either_width_match_the_oracle() {
        // 65 536 code tuples record `u16` stratum ids, 65 537 `u32` ones;
        // rows spread over thousands of codes.
        for dict in [1usize << 16, (1 << 16) + 1] {
            let codes = DictCodes::from(
                (0..5_000u32)
                    .map(|r| (r * 7_919) % dict as u32)
                    .collect::<Vec<_>>(),
            );
            let cols = [StrataCol {
                codes: &codes,
                value_keys: (0..dict as u64)
                    .map(|k| k.wrapping_mul(0x9e37_79b9))
                    .collect(),
            }];
            for rate in [0.01, 0.5] {
                assert_eq!(
                    choose_stratified_rows(5_000, &cols, rate, 7),
                    choose_rows_oracle(5_000, &cols, rate, 7),
                    "{dict} code tuples, rate {rate}"
                );
            }
        }
    }

    #[test]
    fn fresh_adapters_over_one_dataset_share_one_sample() {
        let ds = dataset(10_000);
        let mut a = StratifiedAdapter::with_defaults();
        let pa = a.prepare(&ds, &Settings::default()).unwrap();
        let sample = a.sample.clone().unwrap();
        drop(a);
        // A restarted engine takes the sample from the dataset's memo, and
        // still reports the offline costs.
        let mut b = StratifiedAdapter::with_defaults();
        assert_eq!(b.prepare(&ds, &Settings::default()).unwrap(), pa);
        assert!(b.sample.as_ref().unwrap().ptr_eq(&sample));
        // Another key is another sample, and replaces the memo's.
        let mut c = StratifiedAdapter::new(StratifiedConfig {
            sampling_rate: 0.2,
            ..StratifiedConfig::default()
        });
        c.prepare(&ds, &Settings::default()).unwrap();
        assert!(!c.sample.as_ref().unwrap().ptr_eq(&sample));
        let other_seed = Settings {
            seed: Settings::default().seed + 1,
            ..Settings::default()
        };
        let mut d = StratifiedAdapter::with_defaults();
        d.prepare(&ds, &other_seed).unwrap();
        assert!(!d.sample.as_ref().unwrap().ptr_eq(&sample));
    }

    #[test]
    fn dropping_the_dataset_frees_its_sample() {
        for ds in [dataset(2_000), star_dataset(2_000)] {
            let mut adapter = StratifiedAdapter::with_defaults();
            adapter.prepare(&ds, &Settings::default()).unwrap();
            let sample = Arc::downgrade(adapter.sample.as_ref().unwrap().fact_table());
            let source = Arc::downgrade(ds.fact_table());
            drop(adapter);
            assert!(sample.upgrade().is_some(), "the dataset's memo holds it");
            drop(ds);
            assert!(source.upgrade().is_none());
            assert!(sample.upgrade().is_none());
        }
    }

    #[test]
    fn shared_service_builds_the_sample_once() {
        use idebench_core::{EngineService, QueryOptions};
        let ds = dataset(10_000);
        let svc = StratifiedAdapter::with_defaults().into_service();
        let p0 = svc.open_session(0, &ds, &Settings::default()).unwrap();
        // Second session: prepare is idempotent on the shared instance —
        // same offline sample, same reported costs.
        let p1 = svc.open_session(1, &ds, &Settings::default()).unwrap();
        assert_eq!(p0, p1);
        let t = svc.submit(
            &count_query(),
            QueryOptions::for_session(1).with_step_quantum(1_000_000),
        );
        assert!(t.drive().is_done());
        let snap = t.snapshot().unwrap();
        assert!(!snap.exact, "sample scan yields estimates");
    }
}
