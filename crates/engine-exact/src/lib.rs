//! The MonetDB-class analytical engine: **blocking, exact** execution.
//!
//! This engine represents the paper's "Analytical Database Systems" category
//! (§2.3): a vectorized column store that always computes exact results and
//! only returns them on completion. Consequences for the benchmark metrics
//! (§5.2): a query either finishes within the time requirement — delivering
//! a perfect result — or is cancelled with *nothing*, so TR violations and
//! missing bins track each other and both grow with data size.
//!
//! Star schemas are supported: dimension attributes are accessed through
//! foreign keys (the equivalent of MonetDB's radix hash join probes), paid
//! for in the per-row cost model.

use idebench_core::{CoreError, PrepStats, Query, QueryHandle, Settings, SystemAdapter};
use idebench_query::{ChunkedRun, CompiledPlan, SnapshotMode};
use idebench_storage::Dataset;

/// Cost-model and preparation constants for the exact engine.
///
/// Work units are "tuples touched" currency (see DESIGN.md): the default
/// virtual rate of 1M units/s makes a plain 1-unit/row scan of the M-scale
/// dataset (5M rows) take 5 virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactConfig {
    /// Base per-row scan cost.
    pub cost_base: f64,
    /// Additional cost per 4-byte unit of referenced column width.
    pub cost_per_width_unit: f64,
    /// Tuple-reconstruction overhead per column of the scanned table —
    /// the term that makes the (narrower) normalized fact table slightly
    /// cheaper to scan, as the paper observed in Exp 2.
    pub cost_per_fact_column: f64,
    /// Extra cost per filter-matching row (group-by hash update and
    /// aggregate maintenance run only for qualifying tuples). This makes
    /// filter selectivity the dominant cost factor, reproducing Exp 4, and
    /// spreads query latencies so TR violations fall roughly linearly with
    /// the TR, as in Figure 5's MonetDB row.
    pub match_cost: f64,
    /// Load cost per row (CSV ingest; §5.2 reports 19 min for 500M rows).
    pub load_units_per_row: f64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        // Calibration: a parallel columnar scan is cheap (the filter-column
        // read of the M dataset ≈ 0.3 virtual s) while grouped aggregation
        // of qualifying tuples dominates (an unfiltered group-by of M ≈ 7
        // virtual s) — mirroring a multi-core MonetDB where scans run at
        // memory bandwidth but per-tuple aggregation does not parallelize
        // away.
        ExactConfig {
            cost_base: 0.02,
            cost_per_width_unit: 0.015,
            cost_per_fact_column: 0.006,
            match_cost: 1.3,
            load_units_per_row: 1.0,
        }
    }
}

impl ExactConfig {
    /// Per-row work-unit cost for a compiled plan.
    pub fn row_cost(&self, plan: &CompiledPlan) -> f64 {
        self.cost_base
            + self.cost_per_width_unit * plan.width_units()
            + self.cost_per_fact_column * plan.fact_arity() as f64
    }
}

/// The blocking exact adapter ("exact" in reports).
pub struct ExactAdapter {
    config: ExactConfig,
    dataset: Option<Dataset>,
    prep: PrepStats,
    /// Scan worker-pool size, taken from the settings at prepare time.
    workers: usize,
}

impl ExactAdapter {
    /// Creates the adapter with a custom cost model.
    pub fn new(config: ExactConfig) -> Self {
        ExactAdapter {
            config,
            dataset: None,
            prep: PrepStats::default(),
            workers: 1,
        }
    }

    /// Creates the adapter with default calibration.
    pub fn with_defaults() -> Self {
        Self::new(ExactConfig::default())
    }

    /// The active cost model.
    pub fn config(&self) -> &ExactConfig {
        &self.config
    }

    /// Hosts this adapter as a shared [`idebench_core::EngineService`]:
    /// one engine instance serves every session (submission is stateless
    /// across sessions, so dataset ingestion and column statistics are
    /// shared fleet-wide instead of duplicated per analyst).
    pub fn into_service(self) -> idebench_core::ServiceCore {
        idebench_core::ServiceCore::shared_adapter(self)
    }

    fn dataset(&self) -> &Dataset {
        self.dataset
            .as_ref()
            .expect("prepare() must run before submit()")
    }
}

impl SystemAdapter for ExactAdapter {
    fn name(&self) -> &str {
        "exact"
    }

    fn prepare(&mut self, dataset: &Dataset, settings: &Settings) -> Result<PrepStats, CoreError> {
        self.workers = settings.effective_workers();
        if let Some(existing) = &self.dataset {
            if existing.ptr_eq(dataset) {
                return Ok(self.prep);
            }
        }
        let rows = dataset.total_rows() as f64;
        // Column min/max stats power the planner's dense bucketed binning;
        // warming them here keeps the O(rows) scan out of submit().
        dataset.warm_numeric_stats();
        self.prep = PrepStats {
            load_units: (rows * self.config.load_units_per_row).round() as u64,
            preprocess_units: 0,
            warmup_units: 0,
        };
        self.dataset = Some(dataset.clone());
        Ok(self.prep)
    }

    fn submit(&mut self, query: &Query) -> Box<dyn QueryHandle> {
        let dataset = self.dataset().clone();
        // One compilation serves both the cost model and the entire scan.
        let plan = CompiledPlan::compile(&dataset, query)
            .expect("driver-validated query binds against the dataset");
        let cost = self.config.row_cost(&plan);
        let mut run = ChunkedRun::from_plan(plan, None, SnapshotMode::Exact);
        run.set_row_cost(cost);
        run.set_match_cost(self.config.match_cost);
        run.set_workers(self.workers);
        Box::new(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
    use idebench_core::VizSpec;
    use idebench_query::execute_exact;
    use idebench_storage::{DataType, DimensionSpec, StarSchema, TableBuilder, Value};
    use std::sync::Arc;

    fn dataset(n: usize) -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for i in 0..n {
            let c = if i % 4 == 0 { "AA" } else { "DL" };
            b.push_row(&[c.into(), (i as f64 % 60.0).into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn query() -> Query {
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

    fn star_like() -> Dataset {
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        for i in 0..100i64 {
            f.push_row(&[(i as f64).into(), (i % 2).into()]).unwrap();
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

    #[test]
    fn blocking_result_matches_ground_truth() {
        let ds = dataset(1_000);
        let mut adapter = ExactAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut handle = adapter.submit(&query());
        assert!(handle.snapshot().is_none());
        loop {
            if handle.step(10_000).is_done() {
                break;
            }
        }
        let snap = handle.snapshot().unwrap();
        assert!(snap.exact);
        assert_eq!(snap, execute_exact(&ds, &query()).unwrap());
    }

    #[test]
    fn no_partial_results_before_completion() {
        let ds = dataset(10_000);
        let mut adapter = ExactAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut handle = adapter.submit(&query());
        handle.step(100);
        assert!(!handle.is_done());
        assert!(handle.snapshot().is_none());
    }

    #[test]
    fn prepare_is_idempotent_per_dataset() {
        let ds = dataset(100);
        let mut adapter = ExactAdapter::with_defaults();
        let p1 = adapter.prepare(&ds, &Settings::default()).unwrap();
        let p2 = adapter.prepare(&ds, &Settings::default()).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.load_units, 100);

        let other = dataset(50);
        let p3 = adapter.prepare(&other, &Settings::default()).unwrap();
        assert_eq!(p3.load_units, 50);
    }

    #[test]
    fn cost_model_scales_with_width_and_arity() {
        let ds = dataset(10);
        let q = query();
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        let cfg = ExactConfig::default();
        // width: carrier (1) + dep_delay (2) = 3; arity 2.
        let expect = 0.02 + 0.015 * 3.0 + 0.006 * 2.0;
        assert!((cfg.row_cost(&plan) - expect).abs() < 1e-12);
    }

    #[test]
    fn normalized_scan_cheaper_when_fact_is_narrower() {
        // The Exp-2 effect: same query, narrower fact table → lower cost,
        // as long as the query doesn't touch dimension attributes.
        let cfg = ExactConfig::default();
        let denorm = dataset(100);
        let star = star_like();
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(&spec, None);
        let denorm_cost = cfg.row_cost(&CompiledPlan::compile(&denorm, &q).unwrap());
        let star_cost = cfg.row_cost(&CompiledPlan::compile(&star, &q).unwrap());
        // Both tables have 2 columns here, so costs tie; with the real
        // flights schema (13 cols denorm vs 11 normalized) the normalized
        // fact is cheaper. Assert the model is monotone in arity instead.
        assert_eq!(denorm_cost, star_cost);
        let mut wide_cfg = cfg;
        wide_cfg.cost_per_fact_column = 0.1;
        assert!(wide_cfg.row_cost(&CompiledPlan::compile(&denorm, &q).unwrap()) > denorm_cost);
    }

    #[test]
    fn step_consumes_proportional_units() {
        let ds = dataset(1_000);
        let mut adapter = ExactAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let mut handle = adapter.submit(&query());
        let status = handle.step(59);
        // Every granted unit is consumed (all rows match, so scan + match
        // cost both apply); the final row may leave a sub-unit remainder.
        assert!(status.units() >= 57 && status.units() <= 59);
        assert!(!status.is_done());
    }

    #[test]
    fn multi_worker_scan_matches_single_worker_ground_truth() {
        let ds = dataset(40_000);
        let mut adapter = ExactAdapter::with_defaults();
        adapter
            .prepare(&ds, &Settings::default().with_workers(4))
            .unwrap();
        let mut handle = adapter.submit(&query());
        while !handle.step(1_000_000).is_done() {}
        // Parallel dispatch never changes a result, bit for bit.
        assert_eq!(
            handle.snapshot().unwrap(),
            execute_exact(&ds, &query()).unwrap()
        );
    }

    #[test]
    fn shared_service_answers_identically_across_sessions() {
        use idebench_core::{EngineService, QueryOptions, TicketStatus};
        let ds = dataset(1_000);
        let svc = ExactAdapter::with_defaults().into_service();
        let p0 = svc.open_session(0, &ds, &Settings::default()).unwrap();
        let p1 = svc.open_session(1, &ds, &Settings::default()).unwrap();
        assert_eq!(p0, p1, "shared instance ingests the dataset once");
        let expected = execute_exact(&ds, &query()).unwrap();
        for session in [0u64, 1] {
            let t = svc.submit(
                &query(),
                QueryOptions::for_session(session).with_step_quantum(100_000),
            );
            assert!(matches!(t.drive(), TicketStatus::Done { .. }));
            assert_eq!(t.snapshot().unwrap(), expected);
        }
    }

    #[test]
    fn star_schema_supported_and_correct() {
        let ds = star_like();
        let mut adapter = ExactAdapter::with_defaults();
        adapter.prepare(&ds, &Settings::default()).unwrap();
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(&spec, None);
        let mut handle = adapter.submit(&q);
        while !handle.step(100_000).is_done() {}
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap, execute_exact(&ds, &q).unwrap());
        assert_eq!(snap.bins.len(), 2);
    }
}
