//! The fleet harness: concurrent multi-session benchmarking over a shared
//! engine substrate.
//!
//! IDEBench's driver simulates *one* analyst stepping through one workflow
//! (paper §4.4). Deployed exploration backends serve many analysts at once
//! against one shared dataset — the dimension the paper leaves open. This
//! crate adds that dimension: a [`FleetHarness`] spawns N simulated analyst
//! sessions (each an independent Markov-generated workflow from
//! `idebench-workflow`, seeded per session via
//! [`idebench_core::Settings::for_session`]), and drives them all into
//! **one shared `Arc<dyn EngineService>`** — sessions own no engine state
//! at all; they submit deadline-tagged tickets under their session id and
//! the service's central scheduler multiplexes the grants
//! ([`idebench_core::service`]). Three shared layers coordinate the fleet:
//!
//! - the **shared engine service** itself (scheduler + engine state:
//!   shared dataset ingestion for stateless engines, per-session state
//!   behind the service for engines that need it);
//! - the **persistent scan worker pool** (`idebench_query::ScanPool`):
//!   every session's query scans fan their morsel chunks over one
//!   process-wide pool, so intra-query parallelism and inter-session
//!   concurrency compose without oversubscription; and
//! - the **cross-session semantic result cache** ([`SemanticCache`]):
//!   canonical query semantics → exact result, layered over the engine
//!   service as [`CachedEngineService`], with per-session hit/miss
//!   accounting. Visibility is *causal on the virtual timeline* — a lookup
//!   only hits results whose producing query completed at an earlier
//!   virtual time, so simultaneous analysts miss each other's in-flight
//!   queries exactly as in a real deployment.
//!
//! # Load models
//!
//! Sessions arrive under a configurable [`LoadModel`]: **closed-loop**
//! (all N analysts present from t = 0, pacing themselves with the
//! settings' think time) or **open-loop** (session arrivals follow a
//! seeded Poisson process on the virtual clock).
//!
//! # Determinism
//!
//! A fleet run is bit-for-bit reproducible given its seed. Session
//! interleaving lives on the **virtual clock**: the harness is a discrete-
//! event simulation that always executes the runnable session with the
//! smallest virtual timestamp (ties break by session id), so the order in
//! which sessions observe the shared cache — and therefore every hit/miss
//! count and latency — is a pure function of the configuration. Wall-clock
//! parallelism (the shared scan pool inside each query, the parallel
//! ground-truth precompute in [`report::FleetReport::evaluate`], which
//! scans each distinct query once) never touches the virtual timeline, extending the repo's bit-identity
//! guarantee from single scans to whole fleets: same seed, same merged
//! report, for any worker count and any physical interleaving.

pub mod cache;
pub mod report;

pub use cache::{CacheStats, CachedEngineService, SemanticCache};
pub use report::{FleetReport, SessionSummary};

use idebench_core::service::{EngineService, SessionId};
use idebench_core::WorkflowSession;
use idebench_core::{CoreError, ExecutionMode, PrepStats, Settings, WorkflowOutcome};
use idebench_storage::Dataset;
use idebench_workflow::{Workflow, WorkflowGenerator, WorkflowType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How sessions arrive at the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "model", rename_all = "lowercase")]
pub enum LoadModel {
    /// Closed loop: all sessions are present from virtual time 0 and pace
    /// themselves with the settings' think time — a fixed population of
    /// analysts staring at their dashboards.
    Closed,
    /// Open loop: sessions arrive by a Poisson process at
    /// `arrival_rate_per_s` (virtual seconds), independent of how fast the
    /// system serves them — service-style load.
    Open {
        /// Mean session arrivals per virtual second (> 0).
        arrival_rate_per_s: f64,
    },
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Base benchmark settings; each session runs under
    /// `settings.for_session(i)`.
    pub settings: Settings,
    /// Number of simulated analyst sessions.
    pub sessions: usize,
    /// Arrival model.
    pub load: LoadModel,
    /// Workflow pattern every session's generator follows.
    pub workflow_kind: WorkflowType,
    /// Interactions per session workflow.
    pub workflow_len: usize,
    /// When set, every session replays the *same* generated workflow
    /// (identical generator seed; names still differ per session) — the
    /// shared-dashboard scenario that maximizes cross-session cache
    /// traffic. Pair it with staggered arrivals ([`LoadModel::Open`]):
    /// analysts opening the dashboard at the exact same instant cannot
    /// causally share results, later arrivals reuse everything. Default:
    /// independent per-session workflows.
    #[serde(default)]
    pub shared_workflow: bool,
}

impl FleetConfig {
    /// A closed-loop mixed-workflow configuration of `sessions` sessions.
    pub fn new(settings: Settings, sessions: usize) -> FleetConfig {
        FleetConfig {
            settings,
            sessions,
            load: LoadModel::Closed,
            workflow_kind: WorkflowType::Mixed,
            workflow_len: 12,
            shared_workflow: false,
        }
    }

    /// Builder-style setter for the load model.
    pub fn with_load(mut self, load: LoadModel) -> FleetConfig {
        self.load = load;
        self
    }

    /// Builder-style setter for the workflow pattern and length.
    pub fn with_workflow(mut self, kind: WorkflowType, len: usize) -> FleetConfig {
        self.workflow_kind = kind;
        self.workflow_len = len;
        self
    }

    /// Builder-style setter for the shared-dashboard mode.
    pub fn with_shared_workflow(mut self, shared: bool) -> FleetConfig {
        self.shared_workflow = shared;
        self
    }
}

/// One session's slice of a fleet run.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Session id (0-based).
    pub session: usize,
    /// Virtual arrival time, ms since fleet start.
    pub arrival_ms: f64,
    /// Interactions the session actually executed.
    pub interactions: usize,
    /// The session's ordinary single-workflow outcome.
    pub outcome: WorkflowOutcome,
    /// The session's traffic against the shared semantic cache.
    pub cache: CacheStats,
}

/// Everything a fleet run produced (evaluate into a [`FleetReport`] for
/// metrics against ground truth).
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The configuration that produced this outcome.
    pub config: FleetConfig,
    /// Per-session outcomes, in session-id order.
    pub sessions: Vec<SessionOutcome>,
    /// Virtual ms from fleet start until the last session finished.
    pub makespan_ms: f64,
    /// Distinct results held by the shared cache at the end of the run.
    pub cache_entries: usize,
    /// Fleet-wide cache traffic (sum over sessions).
    pub cache: CacheStats,
}

/// The multi-session harness (see module docs).
pub struct FleetHarness {
    config: FleetConfig,
}

/// One live session of the event loop. Note what is *not* here: no
/// adapter, no engine handle — engine state lives behind the shared
/// service, keyed by the session id.
struct LiveSession {
    arrival_ms: f64,
    workflow: Workflow,
    session: WorkflowSession,
    next_interaction: usize,
    prepared: bool,
    prep: PrepStats,
}

impl LiveSession {
    fn done(&self) -> bool {
        self.next_interaction >= self.workflow.interactions.len()
    }

    /// The virtual time of the session's next interaction.
    fn next_time(&self) -> f64 {
        self.arrival_ms + self.session.clock_ms()
    }
}

impl FleetHarness {
    /// Creates a harness for the given configuration.
    ///
    /// # Panics
    ///
    /// Requires virtual execution: under wall-clock execution session
    /// clocks would vary run-to-run, breaking the deterministic event
    /// order and the cache's virtual-time causality.
    pub fn new(config: FleetConfig) -> FleetHarness {
        assert!(
            matches!(config.settings.execution, ExecutionMode::Virtual { .. }),
            "fleet runs require ExecutionMode::Virtual — wall-clock time would \
             break deterministic event ordering and cache causality"
        );
        if let LoadModel::Open { arrival_rate_per_s } = config.load {
            assert!(
                arrival_rate_per_s > 0.0 && arrival_rate_per_s.is_finite(),
                "open-loop arrival rate must be positive"
            );
        }
        FleetHarness { config }
    }

    /// The harness configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The deterministic virtual arrival schedule (ms), one entry per
    /// session in session-id order. Closed-loop: all zeros. Open-loop:
    /// cumulative exponential inter-arrivals seeded from the base settings.
    pub fn arrivals(&self) -> Vec<f64> {
        match self.config.load {
            LoadModel::Closed => vec![0.0; self.config.sessions],
            LoadModel::Open { arrival_rate_per_s } => {
                // Distinct stream from workflow/session seeds.
                let mut rng =
                    StdRng::seed_from_u64(self.config.settings.seed ^ 0xA881_F1E7_0F1E_E7A1);
                let mut t = 0.0f64;
                let mut arrivals = Vec::with_capacity(self.config.sessions);
                for _ in 0..self.config.sessions {
                    arrivals.push(t);
                    let u: f64 = rng.random();
                    // Exponential inter-arrival, seconds → ms.
                    t += -(1.0 - u).ln() / arrival_rate_per_s * 1e3;
                }
                arrivals
            }
        }
    }

    /// The workflow session `i` will run (exposed for inspection; the run
    /// generates exactly these).
    pub fn workflow_for(&self, session: usize) -> Workflow {
        let seed = if self.config.shared_workflow {
            self.config.settings.seed
        } else {
            self.config.settings.for_session(session as u64).seed
        };
        WorkflowGenerator::new(self.config.workflow_kind, seed).generate_named(
            self.config.workflow_len,
            format!("s{session}_{}", self.config.workflow_kind.label()),
        )
    }

    /// Runs the fleet against **one shared engine service**: every session
    /// submits into `engine` under its own session id, interleaved on the
    /// shared virtual clock (see the module's determinism notes), all
    /// scans over the shared worker pool, results shared through the
    /// semantic cache layered over the service.
    pub fn run(
        &self,
        dataset: &Dataset,
        engine: Arc<dyn EngineService>,
    ) -> Result<FleetOutcome, CoreError> {
        let n = self.config.sessions;
        let cache = SemanticCache::new(n);
        let service = cache.wrap_service(engine);
        let arrivals = self.arrivals();

        let mut live: Vec<LiveSession> = (0..n)
            .map(|i| LiveSession {
                arrival_ms: arrivals[i],
                workflow: self.workflow_for(i),
                session: WorkflowSession::for_session(
                    self.config.settings.for_session(i as u64),
                    i as SessionId,
                ),
                next_interaction: 0,
                prepared: false,
                prep: PrepStats::default(),
            })
            .collect();

        // Discrete-event loop: always run the pending interaction with the
        // smallest virtual timestamp; ties break toward the lower session
        // id. This total order is what makes the shared cache's hit/miss
        // sequence — and hence the whole report — independent of worker
        // counts and physical thread interleaving.
        loop {
            let mut pick: Option<(usize, f64)> = None;
            for (i, s) in live.iter().enumerate() {
                if s.done() {
                    continue;
                }
                let t = s.next_time();
                if pick.is_none_or(|(_, best)| t < best) {
                    pick = Some((i, t));
                }
            }
            let Some((i, start_ms)) = pick else { break };
            let s = &mut live[i];
            if !s.prepared {
                s.prep = service.open_session(i as SessionId, dataset, s.session.settings())?;
                s.prepared = true;
            }
            // Cache-causality protocol: stamp the session's virtual "now"
            // (lookups only see results completed by then), run the
            // interaction, then publish whatever it completed as available
            // from the interaction's end — so simultaneous analysts miss
            // each other's in-flight queries exactly as a real deployment
            // would, and only genuinely earlier completions are shared.
            cache.begin_event(i, start_ms);
            let interaction = s.workflow.interactions[s.next_interaction].clone();
            s.session
                .step_service(service.as_ref(), dataset, &interaction)?;
            let queries_end_ms =
                s.arrival_ms + s.session.clock_ms() - s.session.settings().think_time_ms as f64;
            cache.commit_staged(i, queries_end_ms);
            s.next_interaction += 1;
            if s.done() {
                service.close_session(i as SessionId);
            }
        }

        let system = service.name().to_string();
        let mut sessions = Vec::with_capacity(n);
        let mut makespan_ms = 0.0f64;
        for (i, s) in live.into_iter().enumerate() {
            let interactions = s.session.interactions_run();
            let outcome =
                s.session
                    .into_outcome(&system, &s.workflow.name, s.workflow.kind.label(), s.prep);
            makespan_ms = makespan_ms.max(s.arrival_ms + outcome.total_ms);
            sessions.push(SessionOutcome {
                session: i,
                arrival_ms: s.arrival_ms,
                interactions,
                outcome,
                cache: cache.session_stats(i),
            });
        }
        Ok(FleetOutcome {
            config: self.config.clone(),
            sessions,
            makespan_ms,
            cache_entries: cache.len(),
            cache: cache.totals(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::service::ServiceCore;
    use idebench_engine_exact::ExactAdapter;

    fn dataset(n: usize) -> Dataset {
        Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(n, 42)))
    }

    fn config(sessions: usize) -> FleetConfig {
        FleetConfig::new(
            Settings::default()
                .with_time_requirement_ms(1_000)
                .with_think_time_ms(500)
                .with_seed(11),
            sessions,
        )
        .with_workflow(WorkflowType::Mixed, 8)
    }

    /// The canonical shared service of these tests: one exact engine
    /// instance serving every session.
    fn exact_service() -> Arc<dyn EngineService> {
        ServiceCore::shared_adapter(ExactAdapter::with_defaults()).into_shared()
    }

    #[test]
    fn closed_loop_fleet_runs_every_session() {
        let ds = dataset(5_000);
        let out = FleetHarness::new(config(3))
            .run(&ds, exact_service())
            .unwrap();
        assert_eq!(out.sessions.len(), 3);
        for (i, s) in out.sessions.iter().enumerate() {
            assert_eq!(s.session, i);
            assert_eq!(s.arrival_ms, 0.0);
            assert!(!s.outcome.query_results.is_empty());
            assert_eq!(s.outcome.workflow_name, format!("s{i}_mixed"));
        }
        let slowest = out
            .sessions
            .iter()
            .map(|s| s.outcome.total_ms)
            .fold(0.0f64, f64::max);
        assert_eq!(out.makespan_ms, slowest);
    }

    #[test]
    fn sessions_run_distinct_workflows_unless_shared() {
        let h = FleetHarness::new(config(2));
        assert_ne!(
            h.workflow_for(0).interactions,
            h.workflow_for(1).interactions
        );
        let shared = FleetHarness::new(config(2).with_shared_workflow(true));
        assert_eq!(
            shared.workflow_for(0).interactions,
            shared.workflow_for(1).interactions
        );
        // Session 0 always matches the single-analyst run of the base seed.
        assert_eq!(
            h.workflow_for(0).interactions,
            shared.workflow_for(0).interactions
        );
    }

    #[test]
    fn staggered_shared_dashboard_hits_the_cross_session_cache() {
        let ds = dataset(5_000);
        // Staggered arrivals: later analysts open the same dashboard after
        // earlier ones' queries have completed on the virtual timeline.
        let cfg = config(3)
            .with_shared_workflow(true)
            .with_load(LoadModel::Open {
                arrival_rate_per_s: 0.1,
            });
        let out = FleetHarness::new(cfg).run(&ds, exact_service()).unwrap();
        assert!(
            out.cache.hits > 0,
            "replayed workflows behind a stagger must share results: {:?}",
            out.cache
        );
        // A later session replays session 0's completed queries from the
        // cache; hits cost zero time, so its active span can only shrink.
        let s0 = &out.sessions[0];
        let s1 = &out.sessions[1];
        assert!(s1.cache.hits > 0);
        assert!(s1.outcome.total_ms <= s0.outcome.total_ms);
    }

    #[test]
    fn simultaneous_identical_sessions_cannot_causally_share() {
        // All analysts open the identical dashboard at t = 0: nobody's
        // results exist yet when the others look, so there are no
        // cross-session hits — their timelines stay identical, and every
        // session does its own work (as a real simultaneous stampede
        // would).
        let ds = dataset(5_000);
        let out = FleetHarness::new(config(2).with_shared_workflow(true))
            .run(&ds, exact_service())
            .unwrap();
        assert_eq!(
            out.sessions[0].cache, out.sessions[1].cache,
            "identical timelines, identical traffic"
        );
        assert_eq!(
            out.sessions[0].outcome.total_ms,
            out.sessions[1].outcome.total_ms
        );
    }

    #[test]
    fn open_loop_arrivals_are_seeded_and_monotone() {
        let cfg = config(5).with_load(LoadModel::Open {
            arrival_rate_per_s: 0.5,
        });
        let a = FleetHarness::new(cfg.clone()).arrivals();
        let b = FleetHarness::new(cfg).arrivals();
        assert_eq!(a, b, "arrival schedule is deterministic");
        assert_eq!(a[0], 0.0);
        assert!(
            a.windows(2).all(|w| w[0] < w[1]),
            "arrivals increase: {a:?}"
        );
        // Mean inter-arrival should be in the vicinity of 1/rate = 2 s.
        let mean_gap = a.last().unwrap() / (a.len() - 1) as f64;
        assert!(
            (200.0..20_000.0).contains(&mean_gap),
            "implausible mean inter-arrival {mean_gap} ms"
        );
    }

    #[test]
    fn open_loop_makespan_extends_past_last_arrival() {
        let ds = dataset(2_000);
        let cfg = config(3).with_load(LoadModel::Open {
            arrival_rate_per_s: 0.2,
        });
        let h = FleetHarness::new(cfg);
        let arrivals = h.arrivals();
        let out = h.run(&ds, exact_service()).unwrap();
        for (s, a) in out.sessions.iter().zip(&arrivals) {
            assert_eq!(s.arrival_ms, *a);
        }
        assert!(out.makespan_ms >= *arrivals.last().unwrap());
    }

    #[test]
    fn fleet_outcome_is_deterministic_across_worker_counts() {
        let ds = dataset(20_000);
        let mut reference: Option<Vec<(f64, f64, bool)>> = None;
        for workers in [1usize, 2, 8] {
            let mut cfg = config(2);
            cfg.settings = cfg.settings.with_workers(workers);
            let out = FleetHarness::new(cfg).run(&ds, exact_service()).unwrap();
            let shape: Vec<(f64, f64, bool)> = out
                .sessions
                .iter()
                .flat_map(|s| s.outcome.query_results.iter())
                .map(|m| (m.start_ms, m.end_ms, m.tr_violated))
                .collect();
            match &reference {
                None => reference = Some(shape),
                Some(r) => assert_eq!(&shape, r, "workers = {workers}"),
            }
        }
    }
}
