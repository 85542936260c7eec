//! The three workloads and one repetition ("rep") of each.
//!
//! A rep is everything a researcher waits for, from a cold start: set-up
//! (data generation, normalization, workflow generation, ground truth), the
//! session phase (engine preparation and every interaction, closed loop on
//! the wall clock), and the reports. Every rep of a seed is identical work
//! with identical virtual-time results; a run repeats reps and reports the
//! fastest (see `run`).

use crate::host::{process_cpu_s, Fnv};
use crate::probe::{ServiceProbe, StepStats, TicketStats, Timed};
use crate::trace::Trace;
use idebench_core::service::{EngineService, ServiceCore};
use idebench_core::{
    CoreError, DetailedReport, Query, Settings, SummaryReport, SystemAdapter, WorkflowOutcome,
    WorkflowSession,
};
use idebench_engine_cache::{CacheConfig, CachingAdapter};
use idebench_engine_exact::ExactAdapter;
use idebench_engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench_engine_stratified::StratifiedAdapter;
use idebench_engine_wander::WanderAdapter;
use idebench_fleet::{FleetConfig, FleetHarness, FleetOutcome, FleetReport, LoadModel};
use idebench_query::{enumerate_workload_queries, CachedGroundTruth, CompiledPlan};
use idebench_storage::Dataset;
use idebench_workflow::{Workflow, WorkflowGenerator, WorkflowType};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Time requirements of the explore workloads, ms.
const TIME_REQUIREMENTS_MS: [u64; 2] = [1_000, 5_000];

/// Think time of every workload, ms (the paper's stress-test setting).
const THINK_TIME_MS: u64 = 1_000;

/// Generator seed of the interaction scripts. The scripts are a fixed
/// suite, like IDEBench's predefined workflows; `--seed` drives the data
/// and the engines' sampling, so seeds vary the data, not the amount of
/// work.
const WORKFLOW_SEED: u64 = 42;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-analyst sessions over denormalized flights (paper Exp 1).
    ExploreDenorm,
    /// The same sessions over the normalized star schema (paper Exp 2).
    ExploreStar,
    /// Many analysts behind one exact service and the semantic cache.
    FleetDashboard,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ExploreDenorm,
        Workload::ExploreStar,
        Workload::FleetDashboard,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreDenorm => "explore_denorm",
            Workload::ExploreStar => "explore_star",
            Workload::FleetDashboard => "fleet_dashboard",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes the benchmark runs this workload at.
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::ExploreDenorm | Workload::ExploreStar => Sizes {
                rows: 1_000_000,
                workflows: 2,
                workflow_len: 10,
                writer_sessions: 0,
                reader_sessions: 0,
            },
            Workload::FleetDashboard => Sizes {
                rows: 200_000,
                workflows: 0,
                workflow_len: 12,
                writer_sessions: 12,
                reader_sessions: 6,
            },
        }
    }
}

/// How big one rep of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Fact rows of the generated flights table.
    pub rows: usize,
    /// Explore: workflows each (engine, TR) cell runs.
    pub workflows: usize,
    /// Interactions per workflow.
    pub workflow_len: usize,
    /// Fleet: sessions of the write-heavy (independent) phase.
    pub writer_sessions: usize,
    /// Fleet: sessions of the read-heavy (shared dashboard) phase.
    pub reader_sessions: usize,
}

impl Sizes {
    /// A tiny configuration for tests.
    pub fn toy() -> Sizes {
        Sizes {
            rows: 20_000,
            workflows: 1,
            workflow_len: 6,
            writer_sessions: 3,
            reader_sessions: 2,
        }
    }

    /// Identifies the configuration in the recorded-hash table.
    pub fn tag(&self) -> String {
        format!(
            "r{}w{}l{}s{}x{}",
            self.rows,
            self.workflows,
            self.workflow_len,
            self.writer_sessions,
            self.reader_sessions
        )
    }
}

/// What the traced run hands an engine's service factory: where the timing wrapper
/// accumulates and records.
#[derive(Clone)]
pub struct Instrument {
    /// Step time and work of this engine.
    pub stats: Arc<StepStats>,
    /// The run's tracer.
    pub trace: Trace,
}

impl Instrument {
    /// Wraps an adapter in the step-timing decorator.
    pub fn wrap<A: SystemAdapter>(&self, adapter: A) -> Timed<A> {
        Timed::new(adapter, Arc::clone(&self.stats), self.trace.clone())
    }
}

/// Builds a fresh shared service; `Some` asks for the timed variant.
pub type BuildFn = Arc<dyn Fn(Option<Instrument>) -> Arc<dyn EngineService> + Send + Sync>;

/// One engine of the explore roster.
#[derive(Clone)]
pub struct EngineSpec {
    /// Name used in per-layer metric names (`engine.<metric>.*`).
    pub metric: &'static str,
    /// Service factory.
    pub build: BuildFn,
}

impl EngineSpec {
    /// An engine with a service factory.
    pub fn new(
        metric: &'static str,
        build: impl Fn(Option<Instrument>) -> Arc<dyn EngineService> + Send + Sync + 'static,
    ) -> EngineSpec {
        EngineSpec {
            metric,
            build: Arc::new(build),
        }
    }
}

/// Hosts a stateless engine: its own `into_service()` when untraced, the
/// same shared-adapter host around the timing wrapper when traced.
fn shared<A: SystemAdapter + 'static>(
    make: fn() -> A,
    into_service: fn(A) -> ServiceCore,
) -> impl Fn(Option<Instrument>) -> Arc<dyn EngineService> {
    move |instrument| match instrument {
        None => into_service(make()).into_shared(),
        Some(i) => ServiceCore::shared_adapter(i.wrap(make())).into_shared(),
    }
}

/// The paper's Exp-1 roster plus the System-Y-style cache over exact.
pub fn paper_roster() -> Vec<EngineSpec> {
    vec![
        EngineSpec::new(
            "exact",
            shared(ExactAdapter::with_defaults, ExactAdapter::into_service),
        ),
        EngineSpec::new(
            "wander",
            shared(WanderAdapter::with_defaults, WanderAdapter::into_service),
        ),
        EngineSpec::new("progressive", |instrument| match instrument {
            None => ProgressiveAdapter::service(ProgressiveConfig::default()).into_shared(),
            Some(i) => ServiceCore::per_session_adapters("progressive", move |_| {
                Box::new(i.wrap(ProgressiveAdapter::with_defaults()))
            })
            .into_shared(),
        }),
        EngineSpec::new(
            "stratified",
            shared(
                StratifiedAdapter::with_defaults,
                StratifiedAdapter::into_service,
            ),
        ),
        EngineSpec::new("cache_exact", |instrument| match instrument {
            None => {
                CachingAdapter::service(CacheConfig::default(), |_| ExactAdapter::with_defaults())
                    .into_shared()
            }
            Some(i) => ServiceCore::per_session_adapters("cache+exact", move |_| {
                Box::new(i.wrap(CachingAdapter::with_defaults(ExactAdapter::with_defaults())))
            })
            .into_shared(),
        }),
    ]
}

/// Everything one rep measured.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Hash of the rep's virtual-time reports (see [`hash_reports`]).
    pub hash: u64,
    /// Wall s from rep start to the first session opening.
    pub setup_s: f64,
    /// Wall s of the session phase.
    pub session_s: f64,
    /// Wall s from rep start until the reports are built.
    pub report_s: f64,
    /// Queries executed in the session phase.
    pub queries: usize,
    /// Wall ms of every interaction.
    pub interaction_ms: Vec<f64>,
    /// `open_session` and interaction calls attempted.
    pub attempted: u64,
    /// Attempted calls that returned `Err` or panicked.
    pub failed: u64,
    /// Per-layer readings (traced reps fill most of them).
    pub layers: BTreeMap<String, f64>,
    /// Ticket accounting (traced reps only).
    pub tickets: TicketStats,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

impl Rep {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.layers.entry(name.into()).or_insert(0.0) += value;
    }

    /// Runs one fallible call, counting it as attempted and — on `Err` or
    /// panic — as failed. Returns `None` on failure.
    fn guarded<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, CoreError>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(err)) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {err}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("perfbench: {what} panicked");
                None
            }
        }
    }
}

fn timed<T>(trace: &Trace, span: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = trace.span(span, id, f);
    (out, start.elapsed().as_secs_f64())
}

fn settings(seed: u64, tr_ms: u64, star: bool) -> Settings {
    Settings::default()
        .with_seed(seed)
        .with_time_requirement_ms(tr_ms)
        .with_think_time_ms(THINK_TIME_MS)
        .with_joins(star)
}

/// Hashes the deterministic report content: every detailed row and summary
/// row, all of them virtual-time or quality fields (wall readings are never
/// written into reports).
fn hash_reports(detailed: &DetailedReport, summary: &SummaryReport, h: &mut Fnv) {
    h.write(
        serde_json::to_string(detailed)
            .expect("report serializes")
            .as_bytes(),
    );
    h.write(
        serde_json::to_string(summary)
            .expect("report serializes")
            .as_bytes(),
    );
}

/// Checks that exact engines' answers within the TR equal ground truth.
fn check_exact_rows(detailed: &DetailedReport, rep: &mut Rep) {
    let wrong = detailed
        .rows
        .iter()
        .filter(|r| matches!(r.driver.as_str(), "exact" | "cache+exact") && !r.tr_violated)
        .filter(|r| r.metrics.missing_bins != 0.0 || r.metrics.rel_error_avg.unwrap_or(0.0) != 0.0)
        .count();
    if wrong > 0 {
        rep.problems
            .push(format!("{wrong} exact answers differ from ground truth"));
    }
}

fn distinct_queries(dataset: &Dataset, workflows: &[Workflow]) -> Vec<Query> {
    let slices: Vec<&[idebench_core::Interaction]> = workflows
        .iter()
        .map(|w| w.interactions.as_slice())
        .collect();
    enumerate_workload_queries(dataset, &slices).expect("workload queries bind against the dataset")
}

/// Times `CompiledPlan::compile` over `queries`; median µs.
fn compile_us_p50(dataset: &Dataset, queries: &[Query], trace: &Trace) -> f64 {
    let mut us: Vec<f64> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let (plan, s) = timed(trace, "query.compile", i as u64, || {
                CompiledPlan::compile(dataset, q).expect("workload query compiles")
            });
            drop(std::hint::black_box(plan));
            s * 1e6
        })
        .collect();
    crate::stats::median(&mut us)
}

fn join_cache_layers(dataset: &Dataset, rep: &mut Rep) {
    if let Dataset::Star(star) = dataset {
        let stats = star.join_cache_stats();
        rep.set("storage.join_cache.materializations", stats.misses as f64);
        rep.set("storage.join_cache.bytes", stats.bytes as f64);
        rep.set("storage.join_cache.hits", stats.hits as f64);
    }
}

/// One rep of `explore_denorm` (`star == false`) or `explore_star`.
pub fn explore_rep(
    sizes: &Sizes,
    roster: &[EngineSpec],
    star: bool,
    seed: u64,
    trace: &Trace,
) -> Rep {
    let traced = trace.is_on();
    let mut rep = Rep::default();
    let t0 = Instant::now();

    // Set-up.
    let (table, generate_s) = timed(trace, "datagen.generate", seed, || {
        idebench_datagen::generate(sizes.rows, seed)
    });
    let (dataset, normalize_s) = if star {
        let normalized = timed(trace, "datagen.normalize", seed, || {
            idebench_datagen::normalize_flights(&table).expect("flights normalize")
        });
        // The star schema replaces the wide table, as it would for a user.
        drop(table);
        normalized
    } else {
        (Dataset::Denormalized(Arc::new(table)), 0.0)
    };
    let (workflows, workflow_s) = timed(trace, "workflow.generate", seed, || {
        WorkflowGenerator::new(WorkflowType::Mixed, WORKFLOW_SEED)
            .generate_batch(sizes.workflows, sizes.workflow_len)
    });
    let threads = idebench_core::settings::available_parallelism();
    let ((queries, mut gt), gt_s) = timed(trace, "query.ground_truth", seed, || {
        let queries = distinct_queries(&dataset, &workflows);
        let gt = CachedGroundTruth::precompute(dataset.clone(), &queries, threads);
        (queries, gt)
    });
    rep.setup_s = t0.elapsed().as_secs_f64();

    // Session phase: a fresh service per (engine, TR) cell, the way the
    // paper restarts systems between configurations.
    let cpu0 = process_cpu_s();
    let session_start = Instant::now();
    let mut outcomes: Vec<WorkflowOutcome> = Vec::new();
    let mut open_s = 0.0;
    let mut step_service_s = 0.0;
    let mut engine_step_s = 0.0;
    for engine in roster {
        let stats = Arc::new(StepStats::default());
        for tr in TIME_REQUIREMENTS_MS {
            let settings = settings(seed, tr, star);
            let instrument = traced.then(|| Instrument {
                stats: Arc::clone(&stats),
                trace: trace.clone(),
            });
            let core = (engine.build)(instrument);
            let probe =
                traced.then(|| Arc::new(ServiceProbe::new(core.clone(), trace.clone(), true)));
            let service: Arc<dyn EngineService> = match &probe {
                Some(p) => p.clone(),
                None => core,
            };
            'cell: for (wi, workflow) in workflows.iter().enumerate() {
                let mut session = WorkflowSession::new(settings.clone());
                let opened = Instant::now();
                let Some(prep) = rep.guarded("open_session", || {
                    service.open_session(session.session_id(), &dataset, &settings)
                }) else {
                    break 'cell;
                };
                let open = opened.elapsed().as_secs_f64();
                open_s += open;
                if wi == 0 {
                    rep.add(format!("engine.{}.prepare_s", engine.metric), open);
                }
                for interaction in &workflow.interactions {
                    let started = Instant::now();
                    let stepped = rep.guarded("step_service", || {
                        trace.span("core.interaction", wi as u64, || {
                            session.step_service(service.as_ref(), &dataset, interaction)
                        })
                    });
                    if stepped.is_none() {
                        break 'cell;
                    }
                    let wall = started.elapsed().as_secs_f64();
                    step_service_s += wall;
                    rep.interaction_ms.push(wall * 1e3);
                }
                service.close_session(session.session_id());
                outcomes.push(session.into_outcome(
                    service.name(),
                    &workflow.name,
                    workflow.kind.label(),
                    prep,
                ));
            }
            if let Some(p) = &probe {
                let t = p.ticket_stats().expect("ticket accounting is on");
                merge_tickets(&mut rep.tickets, t);
            }
        }
        if traced {
            engine_layers(&mut rep, engine.metric, &stats);
            engine_step_s += stats.step_s();
        }
    }
    rep.session_s = session_start.elapsed().as_secs_f64();
    rep.queries = outcomes.iter().map(|o| o.query_results.len()).sum();
    let cpu_util = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => (b - a) / rep.session_s,
        _ => 0.0,
    };

    // Reports.
    let ((detailed, summary), evaluate_s) = timed(trace, "report.evaluate", seed, || {
        let detailed = DetailedReport::merged(
            outcomes
                .iter()
                .map(|o| DetailedReport::from_outcome(o, &mut gt)),
        );
        let summary = SummaryReport::from_detailed(&detailed);
        (detailed, summary)
    });
    rep.report_s = t0.elapsed().as_secs_f64();

    let mut h = Fnv::default();
    hash_reports(&detailed, &summary, &mut h);
    rep.hash = h.finish();
    check_exact_rows(&detailed, &mut rep);
    if detailed.rows.is_empty() {
        rep.problems.push("no query was evaluated".into());
    }

    rep.set("datagen.generate_s", generate_s);
    rep.set("datagen.normalize_s", normalize_s);
    rep.set("workflow.generate_s", workflow_s);
    rep.set("query.ground_truth_s", gt_s);
    rep.set("query.ground_truth_queries", queries.len() as f64);
    rep.set(
        "query.ground_truth_rows_per_s",
        (queries.len() * sizes.rows) as f64 / gt_s,
    );
    rep.set("report.evaluate_s", evaluate_s);
    rep.set("exec.cpu_util", cpu_util);
    join_cache_layers(&dataset, &mut rep);
    if traced {
        rep.set("core.overhead_s", step_service_s - engine_step_s);
        rep.set(
            "session.accounted_frac",
            (open_s + step_service_s) / rep.session_s,
        );
        rep.set(
            "query.compile_us_p50",
            compile_us_p50(&dataset, &queries, trace),
        );
    }
    rep
}

fn engine_layers(rep: &mut Rep, metric: &str, stats: &StepStats) {
    let units = stats.units();
    rep.set(format!("engine.{metric}.step_s"), stats.step_s());
    rep.set(format!("engine.{metric}.steps"), stats.steps() as f64);
    rep.set(format!("engine.{metric}.units"), units as f64);
    let ns_per_unit = if units == 0 {
        0.0
    } else {
        stats.step_s() * 1e9 / units as f64
    };
    rep.set(format!("engine.{metric}.ns_per_unit"), ns_per_unit);
}

fn merge_tickets(into: &mut TicketStats, from: TicketStats) {
    into.tickets += from.tickets;
    into.done += from.done;
    into.expired += from.expired;
    into.revoked += from.revoked;
    into.settle_us.extend(from.settle_us);
}

/// The fleet's two phases: independent closed-loop sessions (cache misses
/// and inserts: the writes), then a staggered shared dashboard (cache hits:
/// the reads).
fn fleet_phases(sizes: &Sizes) -> [(&'static str, FleetConfig); 2] {
    // The fleet derives every session's script and arrival from the
    // settings' seed, so it is the fixed suite seed.
    let settings = settings(WORKFLOW_SEED, 1_000, false);
    [
        (
            "writes",
            FleetConfig::new(settings.clone(), sizes.writer_sessions)
                .with_workflow(WorkflowType::Mixed, sizes.workflow_len),
        ),
        (
            "reads",
            FleetConfig::new(settings, sizes.reader_sessions)
                .with_workflow(WorkflowType::Mixed, sizes.workflow_len)
                .with_shared_workflow(true)
                .with_load(LoadModel::Open {
                    arrival_rate_per_s: 0.05,
                }),
        ),
    ]
}

/// One rep of `fleet_dashboard`.
pub fn fleet_rep(sizes: &Sizes, seed: u64, trace: &Trace) -> Rep {
    let traced = trace.is_on();
    let mut rep = Rep::default();
    let t0 = Instant::now();

    let (table, generate_s) = timed(trace, "datagen.generate", seed, || {
        idebench_datagen::generate(sizes.rows, seed)
    });
    let dataset = Dataset::Denormalized(Arc::new(table));
    rep.setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = process_cpu_s();
    let session_start = Instant::now();
    let stats = Arc::new(StepStats::default());
    let mut run_s = 0.0;
    let mut interaction_s = 0.0;
    let mut open_s = 0.0;
    let mut phases: Vec<(&'static str, FleetHarness, FleetOutcome)> = Vec::new();
    for (i, (phase, config)) in fleet_phases(sizes).into_iter().enumerate() {
        let instrument = traced.then(|| Instrument {
            stats: Arc::clone(&stats),
            trace: trace.clone(),
        });
        let core = match instrument {
            None => ExactAdapter::with_defaults().into_service().into_shared(),
            Some(i) => {
                ServiceCore::shared_adapter(i.wrap(ExactAdapter::with_defaults())).into_shared()
            }
        };
        let probe = Arc::new(ServiceProbe::new(core, trace.clone(), traced));
        let harness = FleetHarness::new(config);
        probe.start_clock();
        let service: Arc<dyn EngineService> = probe.clone();
        let started = Instant::now();
        let outcome = rep.guarded("fleet phase", || {
            trace.span("fleet.run", i as u64, || harness.run(&dataset, service))
        });
        run_s += started.elapsed().as_secs_f64();
        // The guarded call counted itself once; count every interaction
        // and session opening it covered instead.
        let samples = probe.interaction_ms();
        let opens = probe.open_ms();
        rep.attempted += (samples.len() + opens.len()).saturating_sub(1) as u64;
        interaction_s += samples.iter().sum::<f64>() / 1e3;
        open_s += opens.iter().sum::<f64>() / 1e3;
        if let Some(first) = opens.first() {
            rep.add("engine.exact.prepare_s", first / 1e3);
        }
        rep.interaction_ms.extend(samples);
        if let Some(t) = probe.ticket_stats() {
            merge_tickets(&mut rep.tickets, t);
        }
        if let Some(outcome) = outcome {
            rep.queries += outcome
                .sessions
                .iter()
                .map(|s| s.outcome.query_results.len())
                .sum::<usize>();
            phases.push((phase, harness, outcome));
        }
    }
    rep.session_s = session_start.elapsed().as_secs_f64();
    let cpu_util = match (cpu0, process_cpu_s()) {
        (Some(a), Some(b)) => (b - a) / rep.session_s,
        _ => 0.0,
    };

    let mut h = Fnv::default();
    let mut evaluate_s = 0.0;
    for (i, (phase, _, outcome)) in phases.iter().enumerate() {
        let (report, s) = timed(trace, "fleet.evaluate", i as u64, || {
            FleetReport::evaluate(outcome, &dataset)
        });
        evaluate_s += s;
        hash_reports(&report.detailed, &report.summary, &mut h);
        check_exact_rows(&report.detailed, &mut rep);
        let cache = outcome.cache;
        rep.set(format!("fleet.cache.{phase}.hits"), cache.hits as f64);
        rep.set(format!("fleet.cache.{phase}.misses"), cache.misses as f64);
        rep.set(
            format!("fleet.cache.{phase}.insertions"),
            cache.insertions as f64,
        );
        rep.set(format!("fleet.cache.{phase}.hit_ratio"), cache.hit_rate());
        if *phase == "reads" && cache.hit_rate() < 0.5 {
            rep.problems.push(format!(
                "shared-dashboard hit ratio {:.3} is below 0.5",
                cache.hit_rate()
            ));
        }
    }
    rep.report_s = t0.elapsed().as_secs_f64();
    rep.hash = h.finish();
    if phases.is_empty() {
        rep.problems.push("no fleet phase completed".into());
    }

    rep.set("datagen.generate_s", generate_s);
    rep.set("fleet.run_s", run_s);
    rep.set("fleet.evaluate_s", evaluate_s);
    rep.set("exec.cpu_util", cpu_util);
    if traced {
        engine_layers(&mut rep, "exact", &stats);
        rep.set("core.overhead_s", interaction_s - stats.step_s());
        rep.set(
            "session.accounted_frac",
            (open_s + interaction_s) / rep.session_s,
        );
        let workflows: Vec<Workflow> = phases
            .iter()
            .flat_map(|(_, harness, outcome)| {
                (0..outcome.sessions.len()).map(|s| harness.workflow_for(s))
            })
            .collect();
        let queries = distinct_queries(&dataset, &workflows);
        rep.set(
            "query.compile_us_p50",
            compile_us_p50(&dataset, &queries, trace),
        );
    }
    rep
}
