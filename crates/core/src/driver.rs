//! The benchmark driver (paper §4.4).
//!
//! The driver simulates a workflow against a shared [`EngineService`]: it
//! applies each interaction to the visualization graph, fans the
//! interaction out into (possibly multiple concurrent) queries submitted as
//! deadline-tagged tickets, enforces the time requirement on every query,
//! grants think-time to the engine between interactions, and records one
//! [`QueryMeasurement`] per query.
//!
//! There is one driver loop, [`WorkflowSession::step_service`].
//! [`BenchmarkDriver::run_workflow`] runs one session through it straight
//! to the end; multi-session harnesses interleave several sessions' steps
//! over one service. An engine written against the paper's Listing-1
//! [`crate::SystemAdapter`] interface runs under the driver through
//! [`crate::ServiceCore::shared_adapter`] or
//! [`crate::ServiceCore::per_session_adapters`].
//!
//! Concurrency model: queries triggered by the same interaction run in
//! parallel *lanes*, each with the full time-requirement budget — matching
//! the paper's 20-core testbed where a handful of concurrent queries do not
//! contend (its Exp 4 found no significant concurrency effect). Under
//! virtual execution the interaction's elapsed time is the slowest lane.
//!
//! Orthogonally to the lane model, each engine may parallelize a *single*
//! query's scan over [`Settings::effective_workers`] worker threads
//! (intra-query morsel dispatch). The dispatcher computes whole chunks
//! ahead of the scan cursor, one per worker, and bills each grant from the
//! chunks' filter bitmaps — so fine-grained virtual-time stepping at the
//! default `step_quantum` uses the full pool just as one-shot scans do,
//! at the price of at most `workers − 1` unused chunks (plus the current
//! chunk's remainder) when a query expires. It is a wall-clock concern
//! only: the virtual work-unit accounting the driver enforces is identical
//! for every worker count, as are query results bit for bit, so `workers`
//! never affects a report — only how fast it is produced.

use crate::adapter::PrepStats;
use crate::error::CoreError;
use crate::graph::VizGraph;
use crate::interaction::Interaction;
use crate::query::Query;
use crate::result::AggResult;
use crate::service::{EngineService, QueryOptions, QueryTicket, SessionId};
use crate::settings::{ExecutionMode, Settings};
use crate::spec::BinDef;
use idebench_storage::Dataset;
use std::time::Instant;

/// Provides exact results for metric evaluation.
///
/// Implemented by the `idebench-query` crate on top of the exact executor;
/// kept as a trait here so the benchmark core stays engine-agnostic.
pub trait GroundTruthProvider {
    /// The exact, complete result for `query`.
    fn ground_truth(&mut self, query: &Query) -> AggResult;
}

/// Everything a workflow expects to expose to the driver.
///
/// The `idebench-workflow` crate's `Workflow` implements this; tests can run
/// plain interaction slices through [`BenchmarkDriver::run_interactions`].
pub trait RunnableWorkflow {
    /// Workflow name (report column `workflow`).
    fn workflow_name(&self) -> &str;
    /// Workflow type label (e.g. `"mixed"`, `"1n_linking"`).
    fn workflow_kind(&self) -> &str;
    /// The interaction sequence.
    fn interactions(&self) -> &[Interaction];
}

/// Measurement for a single executed query (one detailed-report row).
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// Sequential query id within the workflow run.
    pub query_id: usize,
    /// Index of the interaction that triggered the query.
    pub interaction_id: usize,
    /// The visualization the query refreshes.
    pub viz_name: String,
    /// The executed query (composed filter included).
    pub query: Query,
    /// Start timestamp, ms since workflow start (virtual or wall).
    pub start_ms: f64,
    /// End timestamp (completion or cancellation at the TR), ms.
    pub end_ms: f64,
    /// Whether the time requirement was violated (no fetchable result at TR).
    pub tr_violated: bool,
    /// The snapshot taken at the TR (or at completion), if any.
    pub result: Option<AggResult>,
    /// How many queries the triggering interaction issued concurrently.
    pub concurrent: usize,
}

/// The outcome of running one workflow against one system.
#[derive(Debug, Clone)]
pub struct WorkflowOutcome {
    /// System (engine service) name.
    pub system: String,
    /// Workflow name.
    pub workflow_name: String,
    /// Workflow type label.
    pub workflow_kind: String,
    /// Settings the run used.
    pub settings: Settings,
    /// Data-preparation cost reported by the engine.
    pub prep: PrepStats,
    /// One measurement per executed query, in execution order.
    pub query_results: Vec<QueryMeasurement>,
    /// Total virtual/wall ms the workflow took (queries + think time).
    pub total_ms: f64,
}

/// The IDEBench benchmark driver.
#[derive(Debug, Clone)]
pub struct BenchmarkDriver {
    settings: Settings,
}

impl BenchmarkDriver {
    /// Creates a driver with the given settings.
    pub fn new(settings: Settings) -> Self {
        BenchmarkDriver { settings }
    }

    /// The driver's settings.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// Runs a full workflow as session 0 of `service`.
    pub fn run_workflow(
        &self,
        service: &dyn EngineService,
        dataset: &Dataset,
        workflow: &impl RunnableWorkflow,
    ) -> Result<WorkflowOutcome, CoreError> {
        self.run_interactions(
            service,
            dataset,
            workflow.workflow_name(),
            workflow.workflow_kind(),
            workflow.interactions(),
        )
    }

    /// Runs a raw interaction sequence as session 0 of `service`.
    ///
    /// The session is opened (engine preparation) before the first
    /// interaction and closed after the last. Engine state behind the
    /// service outlives the call, so running several workflows through one
    /// service back to back keeps warm datasets and reuse caches, as one
    /// engine instance serving an analyst would.
    pub fn run_interactions(
        &self,
        service: &dyn EngineService,
        dataset: &Dataset,
        workflow_name: &str,
        workflow_kind: &str,
        interactions: &[Interaction],
    ) -> Result<WorkflowOutcome, CoreError> {
        let mut session = WorkflowSession::new(self.settings.clone());
        let prep = service.open_session(session.session_id(), dataset, &self.settings)?;
        for interaction in interactions {
            session.step_service(service, dataset, interaction)?;
        }
        service.close_session(session.session_id());
        Ok(session.into_outcome(service.name(), workflow_name, workflow_kind, prep))
    }
}

/// Resumable execution state of one workflow run — one simulated analyst.
///
/// [`BenchmarkDriver::run_interactions`] drives a session straight through;
/// multi-session harnesses (the `idebench-fleet` crate) keep several
/// sessions alive at once and interleave [`WorkflowSession::step_service`]
/// calls on a shared virtual clock, all submitting into one shared
/// [`EngineService`]. The session owns everything one analyst's run
/// accumulates — viz graph, measurements, virtual clock — and *nothing
/// else*: engine state lives behind the service, keyed by the session's
/// [`SessionId`].
#[derive(Debug)]
pub struct WorkflowSession {
    settings: Settings,
    session_id: SessionId,
    graph: VizGraph,
    measurements: Vec<QueryMeasurement>,
    clock_ms: f64,
    query_id: usize,
    interactions_run: usize,
}

impl WorkflowSession {
    /// Creates an empty session at virtual time 0 (session id 0 — the
    /// single-analyst default).
    pub fn new(settings: Settings) -> Self {
        WorkflowSession::for_session(settings, 0)
    }

    /// Creates an empty session with an explicit service session id.
    pub fn for_session(settings: Settings, session_id: SessionId) -> Self {
        WorkflowSession {
            settings,
            session_id,
            graph: VizGraph::new(),
            measurements: Vec::new(),
            clock_ms: 0.0,
            query_id: 0,
            interactions_run: 0,
        }
    }

    /// The session's settings.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// The id this session submits under on a shared service.
    pub fn session_id(&self) -> SessionId {
        self.session_id
    }

    /// Virtual (or wall) ms elapsed since the session started.
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Number of interactions the session has executed.
    pub fn interactions_run(&self) -> usize {
        self.interactions_run
    }

    /// Measurements recorded so far, in execution order.
    pub fn measurements(&self) -> &[QueryMeasurement] {
        &self.measurements
    }

    /// Executes the session's next interaction against a shared
    /// [`EngineService`]: applies it to the viz graph, submits one ticket
    /// per triggered query under the session's [`SessionId`] with the time
    /// requirement as the work-unit deadline, drives every ticket to
    /// completion or the deadline, and advances the session clock past the
    /// interaction's think time. Returns the ms the interaction consumed
    /// (queries + think time).
    ///
    /// Concurrent lanes are submitted in affected-viz order and share one
    /// effective deadline, so the scheduler's `(deadline, session, ticket)`
    /// order funds them one after another, each with its full budget.
    pub fn step_service(
        &mut self,
        service: &dyn EngineService,
        dataset: &Dataset,
        interaction: &Interaction,
    ) -> Result<f64, CoreError> {
        let started_ms = self.clock_ms;
        let interaction_id = self.interactions_run;
        let affected = self.graph.apply(interaction)?;

        // Engine notifications for non-query interactions. Queries are
        // resolved (count-binnings → widths) before they reach the engine
        // so speculative canonical keys match later real queries.
        match interaction {
            Interaction::Link { source, target } => {
                let mut sq = self.graph.query_for(source)?;
                let mut tq = self.graph.query_for(target)?;
                resolve_count_binnings(&mut sq, dataset)?;
                resolve_count_binnings(&mut tq, dataset)?;
                service.on_link(self.session_id, &sq, &tq);
            }
            Interaction::Discard { viz } => service.on_discard(self.session_id, viz),
            _ => {}
        }

        // Submit one ticket per affected viz (concurrent lanes, each with
        // the full per-lane deadline budget). With a nonzero contention
        // penalty, k concurrent lanes each run at 1/(1 + penalty·(k−1)) of
        // full speed (same wall TR, less work).
        let concurrent = affected.len();
        let slowdown =
            1.0 + self.settings.concurrency_penalty * concurrent.saturating_sub(1) as f64;
        let deadline_units = match self.settings.tr_budget_units() {
            Some(budget) => (budget as f64 / slowdown).floor() as u64,
            None => u64::MAX, // wall mode: the driver enforces the deadline
        };
        let mut lanes: Vec<(String, Query, QueryTicket)> = Vec::with_capacity(concurrent);
        for name in &affected {
            let mut query = self.graph.query_for(name)?;
            resolve_count_binnings(&mut query, dataset)?;
            let opts = QueryOptions::for_session(self.session_id)
                .with_deadline_units(deadline_units)
                .with_step_quantum(self.settings.step_quantum);
            let ticket = service.submit(&query, opts);
            lanes.push((name.clone(), query, ticket));
        }

        let mut interaction_elapsed_ms = 0.0f64;
        for (viz_name, query, ticket) in lanes {
            let (elapsed_ms, done) = self.drive_ticket(&ticket, slowdown);
            let snapshot = ticket.into_snapshot();
            let tr_violated = snapshot.is_none();
            debug_assert!(
                !(done && tr_violated),
                "a completed query must have a fetchable result"
            );
            interaction_elapsed_ms = interaction_elapsed_ms.max(elapsed_ms);
            self.measurements.push(QueryMeasurement {
                query_id: self.query_id,
                interaction_id,
                viz_name,
                query,
                start_ms: self.clock_ms,
                end_ms: self.clock_ms + elapsed_ms,
                tr_violated,
                result: snapshot,
                concurrent,
            });
            self.query_id += 1;
        }

        self.clock_ms += interaction_elapsed_ms;

        // Think time: the user stares at the dashboard; the engine may
        // speculate (paper §5.4 / Exp 3).
        if let Some(budget) = self.settings.think_budget_units() {
            service.on_think(self.session_id, budget);
        }
        self.clock_ms += self.settings.think_time_ms as f64;

        self.interactions_run += 1;
        Ok(self.clock_ms - started_ms)
    }

    /// Drives one ticket to settlement within the time requirement.
    ///
    /// Virtual mode: the deadline is already encoded in the ticket's
    /// work-unit budget, so this just pumps the scheduler until the ticket
    /// settles. Wall mode: pumps until done or the wall deadline, then
    /// deadline-cancels. `slowdown ≥ 1` scales how much time each work
    /// unit costs (contention). Returns `(elapsed_ms, done)` with
    /// `elapsed_ms` capped at the TR.
    fn drive_ticket(&self, ticket: &QueryTicket, slowdown: f64) -> (f64, bool) {
        match self.settings.execution {
            ExecutionMode::Virtual { .. } => {
                let status = ticket.drive();
                (
                    self.settings.units_to_ms(status.spent()) * slowdown,
                    status.is_done(),
                )
            }
            ExecutionMode::Wall => {
                let start = Instant::now();
                let deadline_ms = self.settings.time_requirement_ms as f64;
                loop {
                    let status = ticket.pump();
                    if status.is_settled() {
                        break;
                    }
                    if start.elapsed().as_secs_f64() * 1e3 >= deadline_ms {
                        ticket.expire();
                        break;
                    }
                }
                let elapsed = (start.elapsed().as_secs_f64() * 1e3).min(deadline_ms);
                (elapsed, ticket.status().is_done())
            }
        }
    }

    /// Finishes the session, packaging its measurements into a
    /// [`WorkflowOutcome`] (the caller supplies what the session does not
    /// track: engine name, workflow labels, preparation stats).
    pub fn into_outcome(
        self,
        system: &str,
        workflow_name: &str,
        workflow_kind: &str,
        prep: PrepStats,
    ) -> WorkflowOutcome {
        WorkflowOutcome {
            system: system.to_string(),
            workflow_name: workflow_name.to_string(),
            workflow_kind: workflow_kind.to_string(),
            settings: self.settings,
            prep,
            query_results: self.measurements,
            total_ms: self.clock_ms,
        }
    }
}

/// Rewrites every `Count` binning of `query` into an equivalent `Width`
/// binning over the column's observed `[min, max]` (paper §2.2: count-based
/// binning "requires a computation of the current minimum and maximum
/// value").
///
/// The bounds come from the column's own lazily cached statistics
/// (`Column::finite_min_max`: the range of its finite values, so a NaN or
/// ±∞ row does not stop the column from being binned), the same cached
/// scan the query planner's dense bucketed binning reads, so harnesses
/// replaying a workload outside the driver (e.g. to pre-compute ground
/// truth) resolve binnings identically.
pub fn resolve_count_binnings(query: &mut Query, dataset: &Dataset) -> Result<(), CoreError> {
    for idx in 0..query.binning().len() {
        if let BinDef::Count { dimension, bins } = query.binning()[idx].clone() {
            let (min, max) = column_min_max(dataset, &dimension)?;
            let nbins = bins.max(1) as f64;
            // Widen slightly so max falls inside the last bin rather than
            // spilling into bin `bins`.
            let width = ((max - min) / nbins).max(f64::MIN_POSITIVE) * (1.0 + 1e-12);
            // Through the invalidating setter: the rewrite must also drop
            // any canonical-key memo already read off the unresolved query.
            query.set_bin(
                idx,
                BinDef::Width {
                    dimension,
                    width,
                    anchor: min,
                },
            );
        }
    }
    Ok(())
}

fn column_min_max(dataset: &Dataset, column: &str) -> Result<(f64, f64), CoreError> {
    let stats = match dataset {
        Dataset::Denormalized(t) => t.column(column)?.finite_min_max(),
        Dataset::Star(s) => match s.fact().column(column) {
            Ok(c) => c.finite_min_max(),
            Err(_) => {
                let (_, dim) = s
                    .dimension_of_column(column)
                    .ok_or_else(|| CoreError::Storage(format!("unknown column {column}")))?;
                dim.column(column)?.finite_min_max()
            }
        },
    };
    stats.ok_or_else(|| {
        CoreError::Storage(format!(
            "column {column} has no finite values to derive a bin range from"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{QueryHandle, StepStatus, SystemAdapter};
    use crate::result::{BinCoord, BinKey, BinStats};
    use crate::service::ServiceCore;
    use crate::spec::{AggregateSpec, VizSpec};
    use idebench_storage::{DataType, TableBuilder};
    use std::sync::{Arc, Mutex};

    /// Hook calls a [`ToyAdapter`] received, shared with the test so that
    /// forwarding through the service bridge is observed.
    #[derive(Debug, Default)]
    struct HookLog {
        think_calls: Vec<u64>,
        discards: Vec<String>,
        links: usize,
    }

    /// A toy adapter whose queries cost `cost_units` and return one bin.
    struct ToyAdapter {
        cost_units: u64,
        progressive: bool,
        log: Arc<Mutex<HookLog>>,
    }

    struct ToyHandle {
        remaining: u64,
        progressive: bool,
        done: bool,
    }

    impl QueryHandle for ToyHandle {
        fn step(&mut self, granted: u64) -> StepStatus {
            let used = granted.min(self.remaining);
            self.remaining -= used;
            if self.remaining == 0 {
                self.done = true;
                StepStatus::Done { units: used }
            } else {
                StepStatus::Running { units: used }
            }
        }

        fn snapshot(&self) -> Option<AggResult> {
            if self.done || self.progressive {
                let mut r = AggResult::empty_exact();
                r.insert(BinKey::d1(BinCoord::Cat(0)), BinStats::exact(vec![1.0]));
                Some(r)
            } else {
                None
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    impl SystemAdapter for ToyAdapter {
        fn name(&self) -> &str {
            "toy"
        }

        fn prepare(
            &mut self,
            _dataset: &Dataset,
            _settings: &Settings,
        ) -> Result<PrepStats, CoreError> {
            Ok(PrepStats {
                load_units: 7,
                ..Default::default()
            })
        }

        fn submit(&mut self, _query: &Query) -> Box<dyn QueryHandle> {
            Box::new(ToyHandle {
                remaining: self.cost_units,
                progressive: self.progressive,
                done: false,
            })
        }

        fn on_think(&mut self, budget_units: u64) {
            self.log.lock().unwrap().think_calls.push(budget_units);
        }

        fn on_discard(&mut self, viz_name: &str) {
            self.log.lock().unwrap().discards.push(viz_name.to_string());
        }

        fn on_link(&mut self, _s: &Query, _t: &Query) {
            self.log.lock().unwrap().links += 1;
        }
    }

    fn dataset() -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for i in 0..10 {
            b.push_row(&["AA".into(), (i as f64).into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn viz(name: &str) -> VizSpec {
        VizSpec::new(
            name,
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        )
    }

    fn settings() -> Settings {
        // TR = 1 virtual second at 1000 units/s → budget 1000 units.
        Settings::default()
            .with_time_requirement_ms(1_000)
            .with_think_time_ms(500)
            .with_execution(ExecutionMode::Virtual { work_rate: 1_000.0 })
    }

    /// Runs `interactions` against a [`ToyAdapter`] hosted behind a shared
    /// service, returning the outcome and the adapter's hook log.
    fn run(
        cost_units: u64,
        progressive: bool,
        interactions: &[Interaction],
    ) -> (Result<WorkflowOutcome, CoreError>, HookLog) {
        let log = Arc::new(Mutex::new(HookLog::default()));
        let service = ServiceCore::shared_adapter(ToyAdapter {
            cost_units,
            progressive,
            log: Arc::clone(&log),
        });
        let out = BenchmarkDriver::new(settings()).run_interactions(
            &service,
            &dataset(),
            "wf",
            "test",
            interactions,
        );
        let log = std::mem::take(&mut *log.lock().unwrap());
        (out, log)
    }

    #[test]
    fn fast_blocking_query_completes_within_tr() {
        let (out, _) = run(400, false, &[Interaction::CreateViz { viz: viz("a") }]);
        let out = out.unwrap();
        assert_eq!(out.query_results.len(), 1);
        assert_eq!(out.system, "toy");
        let m = &out.query_results[0];
        assert!(!m.tr_violated);
        assert!(m.result.is_some());
        assert!((m.end_ms - m.start_ms - 400.0).abs() < 1e-9);
        assert_eq!(out.prep.load_units, 7);
    }

    #[test]
    fn slow_blocking_query_violates_tr() {
        let (out, _) = run(5_000, false, &[Interaction::CreateViz { viz: viz("a") }]);
        let m = &out.unwrap().query_results[0];
        assert!(m.tr_violated);
        assert!(m.result.is_none());
        // Cancelled exactly at the TR.
        assert!((m.end_ms - m.start_ms - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn slow_progressive_query_still_delivers() {
        let (out, _) = run(5_000, true, &[Interaction::CreateViz { viz: viz("a") }]);
        let m = &out.unwrap().query_results[0];
        assert!(!m.tr_violated);
        assert!(m.result.is_some());
    }

    #[test]
    fn link_interaction_fans_out_concurrent_queries() {
        let interactions = vec![
            Interaction::CreateViz { viz: viz("src") },
            Interaction::CreateViz { viz: viz("t1") },
            Interaction::CreateViz { viz: viz("t2") },
            Interaction::Link {
                source: "src".into(),
                target: "t1".into(),
            },
            Interaction::Link {
                source: "src".into(),
                target: "t2".into(),
            },
            Interaction::SetFilter {
                viz: "src".into(),
                filter: None,
            },
        ];
        let (out, log) = run(100, false, &interactions);
        // Last interaction refreshes src + t1 + t2 concurrently.
        let out = out.unwrap();
        let last: Vec<_> = out
            .query_results
            .iter()
            .filter(|m| m.interaction_id == 5)
            .collect();
        assert_eq!(last.len(), 3);
        assert!(last.iter().all(|m| m.concurrent == 3));
        assert_eq!(log.links, 2);
    }

    #[test]
    fn think_time_budget_granted_each_interaction() {
        let (out, log) = run(
            10,
            false,
            &[
                Interaction::CreateViz { viz: viz("a") },
                Interaction::CreateViz { viz: viz("b") },
            ],
        );
        out.unwrap();
        // 500 ms think at 1000 units/s = 500 units, twice.
        assert_eq!(log.think_calls, vec![500, 500]);
    }

    #[test]
    fn clock_advances_with_queries_and_think_time() {
        let (out, _) = run(
            200,
            false,
            &[
                Interaction::CreateViz { viz: viz("a") },
                Interaction::CreateViz { viz: viz("b") },
            ],
        );
        let out = out.unwrap();
        // Each interaction: 200 ms query + 500 ms think.
        assert!((out.total_ms - 2.0 * (200.0 + 500.0)).abs() < 1e-9);
        let second = &out.query_results[1];
        assert!((second.start_ms - 700.0).abs() < 1e-9);
    }

    #[test]
    fn discard_notifies_engine_and_triggers_no_query() {
        let (out, log) = run(
            10,
            false,
            &[
                Interaction::CreateViz { viz: viz("a") },
                Interaction::Discard { viz: "a".into() },
            ],
        );
        assert_eq!(out.unwrap().query_results.len(), 1);
        assert_eq!(log.discards, vec!["a"]);
    }

    #[test]
    fn count_binning_resolved_against_data_range() {
        let spec = VizSpec::new(
            "q",
            "flights",
            vec![BinDef::Count {
                dimension: "dep_delay".into(),
                bins: 3,
            }],
            vec![AggregateSpec::count()],
        );
        let (out, _) = run(10, false, &[Interaction::CreateViz { viz: spec }]);
        let out = out.unwrap();
        let q = &out.query_results[0].query;
        match &q.binning()[0] {
            BinDef::Width { width, anchor, .. } => {
                // data is 0..9 → min 0, max 9, 3 bins ⇒ width 3.
                assert!((anchor - 0.0).abs() < 1e-9);
                assert!((width - 3.0).abs() < 1e-6);
            }
            other => panic!("expected Width, got {other:?}"),
        }
    }

    #[test]
    fn count_binning_without_a_range_is_a_storage_error() {
        let query = |dimension: &str| {
            let bins = vec![BinDef::Count {
                dimension: dimension.into(),
                bins: 3,
            }];
            Query::for_viz(
                &VizSpec::new("q", "flights", bins, vec![AggregateSpec::count()]),
                None,
            )
        };
        let err = resolve_count_binnings(&mut query("ghost"), &dataset()).unwrap_err();
        assert!(matches!(err, CoreError::Storage(_)), "{err:?}");
        let empty = TableBuilder::with_fields("flights", &[("dep_delay", DataType::Float)]);
        let empty = Dataset::Denormalized(Arc::new(empty.finish()));
        let err = resolve_count_binnings(&mut query("dep_delay"), &empty).unwrap_err();
        assert!(
            matches!(&err, CoreError::Storage(m) if m.contains("no finite values")),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_viz_interaction_is_an_error() {
        let (out, _) = run(
            10,
            false,
            &[Interaction::Discard {
                viz: "ghost".into(),
            }],
        );
        assert!(matches!(out.unwrap_err(), CoreError::UnknownViz(_)));
    }

    #[test]
    fn engine_panic_in_step_unwinds_instead_of_aborting() {
        struct PanicHandle;
        impl QueryHandle for PanicHandle {
            fn step(&mut self, _granted: u64) -> StepStatus {
                panic!("engine fault");
            }
            fn snapshot(&self) -> Option<AggResult> {
                None
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        struct PanicAdapter;
        impl SystemAdapter for PanicAdapter {
            fn name(&self) -> &str {
                "panic"
            }
            fn prepare(&mut self, _: &Dataset, _: &Settings) -> Result<PrepStats, CoreError> {
                Ok(PrepStats::default())
            }
            fn submit(&mut self, _query: &Query) -> Box<dyn QueryHandle> {
                Box::new(PanicHandle)
            }
        }
        // The panic poisons the scheduler mutex mid-step; the in-flight
        // ticket is then dropped during unwinding and must not panic again.
        let service = ServiceCore::shared_adapter(PanicAdapter);
        let ds = dataset();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BenchmarkDriver::new(settings()).run_interactions(
                &service,
                &ds,
                "wf",
                "test",
                &[Interaction::CreateViz { viz: viz("a") }],
            )
        }));
        assert!(caught.is_err());
    }
}
