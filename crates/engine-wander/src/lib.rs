//! The XDB-class engine: **wander-join online aggregation** with a blocking
//! fallback (paper §5, approXimateDB/XDB, paper ref 26).
//!
//! Behavioural contract, mirroring the paper's findings:
//!
//! - **Online aggregation for COUNT and SUM, single aggregate only**: the
//!   paper notes XDB "supports online aggregation for COUNT and SUM, but
//!   does not provide online support for AVG nor for multiple aggregates in
//!   a single query". Eligible queries sample rows (random walks) and can
//!   report estimates at every *report interval*.
//! - **Blocking fallback**: ineligible queries run as regular PostgreSQL
//!   queries — a row-store scan whose cost is proportional to the full
//!   table width. On the benchmark's data sizes these always blow the time
//!   requirement, which is why the paper measured a consistent ~66%
//!   violation rate at every TR.
//! - **Online joins** (wander join): on star schemas, walks start from a
//!   uniformly random fact row and follow foreign keys into the dimensions,
//!   so per-walk cost grows only with the number of join hops — TR
//!   violations stay flat as normalized data grows (Exp 2/Figure 6e).
//! - **Report interval**: estimates can only be fetched at fixed intervals;
//!   a time requirement below the first interval is violated even by
//!   online-eligible queries.

use idebench_core::{
    AggFunc, CoreError, PrepStats, Query, QueryHandle, Settings, StepStatus, SystemAdapter,
};
use idebench_query::{ChunkedRun, CompiledPlan, Shuffle, SnapshotMode};
use idebench_storage::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Configuration of the wander-join engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanderConfig {
    /// Row-store scan cost per column of the scanned table (blocking path
    /// reads full rows regardless of the referenced columns).
    pub cost_per_table_column: f64,
    /// Base cost per random walk (online path): one uniform row fetch.
    pub walk_cost_base: f64,
    /// Extra cost per foreign-key hop of a walk.
    pub walk_cost_per_join: f64,
    /// Extra cost per filter-matching walk (estimator update).
    pub walk_match_cost: f64,
    /// Interval (in virtual seconds) at which online results become
    /// fetchable ("report interval" in XDB); converted to work units at
    /// prepare time.
    pub report_interval_s: f64,
    /// Load cost per row — the paper measured 130 min for 500M rows
    /// (bulk load + primary-key build), ~7× MonetDB's.
    pub load_units_per_row: f64,
}

impl Default for WanderConfig {
    fn default() -> Self {
        WanderConfig {
            cost_per_table_column: 0.27,
            walk_cost_base: 1.2,
            walk_cost_per_join: 0.6,
            walk_match_cost: 0.3,
            report_interval_s: 0.35,
            load_units_per_row: 7.0,
        }
    }
}

impl WanderConfig {
    /// Cost per fact row on the blocking (row-store) path.
    pub fn blocking_row_cost(&self, plan: &CompiledPlan) -> f64 {
        self.cost_per_table_column * plan.fact_arity() as f64
    }

    /// Cost per sampled row (walk) on the online path.
    pub fn walk_cost(&self, plan: &CompiledPlan) -> f64 {
        self.walk_cost_base + self.walk_cost_per_join * plan.joined_columns() as f64
    }
}

/// Whether XDB can run this query with online aggregation.
pub fn online_eligible(query: &Query) -> bool {
    query.aggregates().len() == 1
        && matches!(query.aggregates()[0].func, AggFunc::Count | AggFunc::Sum)
}

/// The wander-join adapter ("wander" in reports).
pub struct WanderAdapter {
    config: WanderConfig,
    dataset: Option<Dataset>,
    /// The random-walk order and its permuted column copies (kept in the
    /// dataset's memo, see [`Shuffle::interned`]).
    shuffle: Option<Arc<Shuffle>>,
    z: f64,
    report_interval_units: u64,
    prep: PrepStats,
    /// Scan worker-pool size, taken from the settings at prepare time.
    workers: usize,
}

impl WanderAdapter {
    /// Creates the adapter with a custom configuration.
    pub fn new(config: WanderConfig) -> Self {
        WanderAdapter {
            config,
            dataset: None,
            shuffle: None,
            z: 1.96,
            report_interval_units: 350_000,
            prep: PrepStats::default(),
            workers: 1,
        }
    }

    /// Creates the adapter with default calibration.
    pub fn with_defaults() -> Self {
        Self::new(WanderConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &WanderConfig {
        &self.config
    }

    /// Hosts this adapter as a shared [`idebench_core::EngineService`]:
    /// one engine instance serves every session (the shuffle order and the
    /// loaded dataset are shared fleet-wide; submission is stateless).
    pub fn into_service(self) -> idebench_core::ServiceCore {
        idebench_core::ServiceCore::shared_adapter(self)
    }
}

impl SystemAdapter for WanderAdapter {
    fn name(&self) -> &str {
        "wander"
    }

    fn prepare(&mut self, dataset: &Dataset, settings: &Settings) -> Result<PrepStats, CoreError> {
        self.workers = settings.effective_workers();
        if let Some(existing) = &self.dataset {
            if existing.ptr_eq(dataset) {
                self.z = settings.z_value();
                self.report_interval_units =
                    settings.seconds_to_units(self.config.report_interval_s);
                return Ok(self.prep);
            }
        }
        // Column min/max stats power the planner's dense bucketed binning;
        // warming them here keeps the O(rows) scan out of submit().
        dataset.warm_numeric_stats();
        let seed = settings.seed ^ 0x0bad_5eed;
        self.shuffle = Some(Shuffle::interned(dataset, seed, |order| {
            order.shuffle(&mut StdRng::seed_from_u64(seed))
        }));
        self.z = settings.z_value();
        self.report_interval_units = settings.seconds_to_units(self.config.report_interval_s);
        self.prep = PrepStats {
            load_units: (dataset.total_rows() as f64 * self.config.load_units_per_row).round()
                as u64,
            preprocess_units: 0,
            warmup_units: 0,
        };
        self.dataset = Some(dataset.clone());
        Ok(self.prep)
    }

    fn submit(&mut self, query: &Query) -> Box<dyn QueryHandle> {
        let dataset = self
            .dataset
            .as_ref()
            .expect("prepare() must run before submit()")
            .clone();
        // One compilation serves both the cost model and the entire scan.
        let plan = CompiledPlan::compile(&dataset, query)
            .expect("driver-validated query binds against the dataset");
        let population = plan.num_rows() as u64;
        if online_eligible(query) {
            let cost = self.config.walk_cost(&plan);
            let shuffle = self.shuffle.as_ref().expect("prepare() builds the shuffle");
            let mut run = ChunkedRun::from_shuffle(
                plan,
                shuffle,
                SnapshotMode::Estimate {
                    z: self.z,
                    population,
                },
            );
            run.set_row_cost(cost);
            run.set_match_cost(self.config.walk_match_cost);
            run.set_workers(self.workers);
            Box::new(WanderHandle {
                run,
                consumed: 0,
                report_interval: self.report_interval_units,
            })
        } else {
            // Blocking PostgreSQL-style fallback for unsupported online
            // queries.
            let cost = self.config.blocking_row_cost(&plan);
            let mut run = ChunkedRun::from_plan(plan, None, SnapshotMode::Exact);
            run.set_row_cost(cost);
            run.set_workers(self.workers);
            Box::new(run)
        }
    }
}

/// Online wander-join execution: estimate snapshots gated by the report
/// interval.
struct WanderHandle {
    run: ChunkedRun,
    consumed: u64,
    report_interval: u64,
}

impl QueryHandle for WanderHandle {
    fn step(&mut self, granted: u64) -> StepStatus {
        let status = self.run.step(granted);
        self.consumed += status.units();
        status
    }

    fn snapshot(&self) -> Option<idebench_core::AggResult> {
        if !self.run.is_done() && self.consumed < self.report_interval {
            return None; // first report not due yet
        }
        self.run.snapshot()
    }

    fn is_done(&self) -> bool {
        self.run.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::spec::{AggregateSpec, BinDef};
    use idebench_core::VizSpec;
    use idebench_query::execute_exact;
    use idebench_storage::{DataType, DimensionSpec, StarSchema, TableBuilder, Value};

    fn dataset(n: usize) -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
                ("distance", DataType::Float),
            ],
        );
        for i in 0..n {
            let c = if i % 3 == 0 { "AA" } else { "DL" };
            b.push_row(&[
                c.into(),
                ((i % 61) as f64).into(),
                ((i % 997) as f64).into(),
            ])
            .unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn star(n: usize) -> Dataset {
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        for i in 0..n {
            f.push_row(&[((i % 61) as f64).into(), ((i % 2) as i64).into()])
                .unwrap();
        }
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        d.push_row(&[Value::Str("AA".into())]).unwrap();
        d.push_row(&[Value::Str("DL".into())]).unwrap();
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

    fn avg_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        Query::for_viz(&spec, None)
    }

    fn multi_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Sum, "dep_delay"),
            ],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn eligibility_matches_paper_constraints() {
        assert!(online_eligible(&count_query()));
        assert!(!online_eligible(&avg_query()));
        assert!(!online_eligible(&multi_query()));
        let sum_spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Sum, "dep_delay")],
        );
        assert!(online_eligible(&Query::for_viz(&sum_spec, None)));
    }

    #[test]
    fn online_query_reports_after_interval() {
        let ds = dataset(500_000);
        let mut adapter = WanderAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut h = adapter.submit(&count_query());
        h.step(100_000);
        assert!(h.snapshot().is_none(), "before first report interval");
        h.step(300_000);
        let snap = h.snapshot().expect("first report is due");
        assert!(!snap.exact, "walks cover only a prefix of the data");
        let total: f64 = snap.bins.values().map(|b| b.values[0]).sum();
        assert!(
            (total - 500_000.0).abs() / 500_000.0 < 0.05,
            "total {total}"
        );
    }

    #[test]
    fn blocking_fallback_for_avg() {
        let ds = dataset(5_000);
        let mut adapter = WanderAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut h = adapter.submit(&avg_query());
        h.step(1_000);
        assert!(h.snapshot().is_none());
        while !h.step(100_000).is_done() {}
        let snap = h.snapshot().unwrap();
        assert!(snap.exact);
        assert_eq!(snap, execute_exact(&ds, &avg_query()).unwrap());
    }

    #[test]
    fn blocking_cost_scales_with_table_width() {
        let ds = dataset(10);
        let q = avg_query();
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        let cfg = WanderConfig::default();
        // 3 columns × 0.27
        assert!((cfg.blocking_row_cost(&plan) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn online_join_walks_cost_per_hop() {
        let ds = star(100);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(&spec, None);
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        let cfg = WanderConfig::default();
        assert!((cfg.walk_cost(&plan) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn online_join_estimates_match_truth_shape() {
        let ds = star(50_000);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(&spec, None);
        let mut adapter = WanderAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut h = adapter.submit(&q);
        h.step(400_000);
        let snap = h.snapshot().expect("report due");
        let gt = execute_exact(&ds, &q).unwrap();
        for (key, stats) in &gt.bins {
            let est = snap.value(key, 0).unwrap_or(0.0);
            let rel = (est - stats.values[0]).abs() / stats.values[0];
            assert!(rel < 0.1, "bin {key:?}: est {est} vs {}", stats.values[0]);
        }
    }

    #[test]
    fn completed_online_query_is_exact() {
        let ds = dataset(2_000);
        let mut adapter = WanderAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut h = adapter.submit(&count_query());
        while !h.step(100_000).is_done() {}
        let snap = h.snapshot().unwrap();
        assert!(snap.exact);
        assert_eq!(snap, execute_exact(&ds, &count_query()).unwrap());
    }

    #[test]
    fn prepare_costs_reflect_expensive_load() {
        let ds = dataset(1_000);
        let mut adapter = WanderAdapter::with_defaults();
        let prep = adapter.prepare(&ds, &Settings::default()).unwrap();
        assert_eq!(prep.load_units, 7_000);
        let again = adapter.prepare(&ds, &Settings::default()).unwrap();
        assert_eq!(prep, again);
    }

    #[test]
    fn shared_service_serves_multiple_sessions() {
        use idebench_core::{EngineService, QueryOptions};
        let ds = dataset(2_000);
        let svc = WanderAdapter::with_defaults().into_service();
        svc.open_session(0, &ds, &Settings::default()).unwrap();
        svc.open_session(1, &ds, &Settings::default()).unwrap();
        let expected = execute_exact(&ds, &count_query()).unwrap();
        for session in [0u64, 1] {
            let t = svc.submit(
                &count_query(),
                QueryOptions::for_session(session).with_step_quantum(100_000),
            );
            assert!(t.drive().is_done());
            assert_eq!(t.snapshot().unwrap(), expected);
        }
    }
}
