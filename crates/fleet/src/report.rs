//! The fleet report: per-session [`DetailedReport`]s merged into one
//! service-level view — throughput, latency percentiles, time-requirement
//! violation rates and cache hit rates — the artifact `bench_fleet` emits
//! as `BENCH_fleet.json`.
//!
//! Evaluation against ground truth is the wall-clock-expensive part of
//! reporting (every distinct query costs one exact scan), so
//! [`FleetReport::evaluate`] collects the outcome's distinct queries and
//! precomputes each one once, in parallel, through
//! [`CachedGroundTruth::precompute`]; queries repeated across sessions are
//! then served from memory. Exact execution is deterministic, so the merged
//! report is bit-identical for any number of precompute threads.

use crate::{CacheStats, FleetOutcome};
use idebench_core::metrics::percentile;
use idebench_core::settings::available_parallelism;
use idebench_core::{DetailedReport, Query, SummaryReport};
use idebench_query::CachedGroundTruth;
use idebench_storage::Dataset;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One session's row of the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Session id (0-based).
    pub session: usize,
    /// Workflow name (e.g. `"s3_mixed"`).
    pub workflow: String,
    /// Workflow pattern label.
    pub workflow_kind: String,
    /// Virtual arrival time, ms since fleet start.
    pub arrival_ms: f64,
    /// Virtual ms the session was active (arrival → finish).
    pub active_ms: f64,
    /// Interactions the session executed.
    pub interactions: usize,
    /// Queries the session issued.
    pub queries: usize,
    /// Queries that violated the time requirement.
    pub tr_violations: usize,
    /// Median query latency, ms.
    pub p50_latency_ms: f64,
    /// The session's traffic against the shared semantic cache.
    pub cache: CacheStats,
}

/// The merged multi-session report (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// System (engine) name the sessions ran against.
    pub system: String,
    /// Number of sessions.
    pub sessions: usize,
    /// Per-session rows, in session-id order.
    pub per_session: Vec<SessionSummary>,
    /// Virtual ms from fleet start until the last session finished.
    pub makespan_ms: f64,
    /// Total interactions across sessions.
    pub interactions: usize,
    /// Total queries across sessions.
    pub queries: usize,
    /// Interactions per virtual second of makespan.
    pub interactions_per_s: f64,
    /// Queries per virtual second of makespan.
    pub queries_per_s: f64,
    /// Median query latency across the fleet, ms.
    pub latency_p50_ms: f64,
    /// 95th-percentile query latency, ms.
    pub latency_p95_ms: f64,
    /// 99th-percentile query latency, ms.
    pub latency_p99_ms: f64,
    /// Fraction (0–1) of queries that violated the time requirement.
    pub tr_violation_rate: f64,
    /// Fleet-wide cache traffic.
    pub cache: CacheStats,
    /// Fleet-wide cache hit rate (0–1).
    pub cache_hit_rate: f64,
    /// Distinct results the shared cache held at the end of the run.
    pub cache_entries: usize,
    /// The merged per-query detailed report (quality metrics included).
    pub detailed: DetailedReport,
    /// The aggregated summary (reuses the per-cell p50/p95/p99 latency
    /// columns of [`SummaryReport`]).
    pub summary: SummaryReport,
}

impl FleetReport {
    /// Evaluates a fleet outcome against exact ground truth and merges the
    /// per-session reports. Each distinct query is scanned once, in
    /// parallel, by [`CachedGroundTruth::precompute`]; sessions are then
    /// evaluated in order against that oracle.
    pub fn evaluate(outcome: &FleetOutcome, dataset: &Dataset) -> FleetReport {
        let distinct = distinct_queries(outcome);
        let mut gt =
            CachedGroundTruth::precompute(dataset.clone(), &distinct, available_parallelism());
        let per_session = outcome
            .sessions
            .iter()
            .map(|s| DetailedReport::from_outcome(&s.outcome, &mut gt))
            .collect();
        Self::from_detailed(outcome, per_session)
    }

    /// Assembles the report from already-evaluated per-session detailed
    /// reports (in session-id order).
    pub fn from_detailed(outcome: &FleetOutcome, per_session: Vec<DetailedReport>) -> FleetReport {
        assert_eq!(per_session.len(), outcome.sessions.len());
        let system = outcome
            .sessions
            .first()
            .map(|s| s.outcome.system.clone())
            .unwrap_or_default();

        let mut rows_sessions = Vec::with_capacity(outcome.sessions.len());
        for (s, d) in outcome.sessions.iter().zip(&per_session) {
            let latencies: Vec<f64> = d.rows.iter().map(|r| r.end_time - r.start_time).collect();
            rows_sessions.push(SessionSummary {
                session: s.session,
                workflow: s.outcome.workflow_name.clone(),
                workflow_kind: s.outcome.workflow_kind.clone(),
                arrival_ms: s.arrival_ms,
                active_ms: s.outcome.total_ms,
                interactions: s.interactions,
                queries: d.rows.len(),
                tr_violations: d.rows.iter().filter(|r| r.tr_violated).count(),
                p50_latency_ms: percentile(&latencies, 50.0).unwrap_or(0.0),
                cache: s.cache,
            });
        }

        let detailed = DetailedReport::merged(per_session);
        let latencies: Vec<f64> = detailed
            .rows
            .iter()
            .map(|r| r.end_time - r.start_time)
            .collect();
        let queries = detailed.rows.len();
        let violations = detailed.rows.iter().filter(|r| r.tr_violated).count();
        let interactions: usize = rows_sessions.iter().map(|s| s.interactions).sum();
        let makespan_s = outcome.makespan_ms / 1e3;
        let per_s = |count: usize| {
            if makespan_s > 0.0 {
                count as f64 / makespan_s
            } else {
                0.0
            }
        };
        let summary = SummaryReport::from_detailed(&detailed);
        FleetReport {
            system,
            sessions: outcome.sessions.len(),
            per_session: rows_sessions,
            makespan_ms: outcome.makespan_ms,
            interactions,
            queries,
            interactions_per_s: per_s(interactions),
            queries_per_s: per_s(queries),
            latency_p50_ms: percentile(&latencies, 50.0).unwrap_or(0.0),
            latency_p95_ms: percentile(&latencies, 95.0).unwrap_or(0.0),
            latency_p99_ms: percentile(&latencies, 99.0).unwrap_or(0.0),
            tr_violation_rate: if queries == 0 {
                0.0
            } else {
                violations as f64 / queries as f64
            },
            cache: outcome.cache,
            cache_hit_rate: outcome.cache.hit_rate(),
            cache_entries: outcome.cache_entries,
            detailed,
            summary,
        }
    }

    /// Serializes the report as pretty JSON (the `BENCH_fleet.json` body).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet reports serialize")
    }

    /// Renders a terminal summary: fleet totals plus one row per session.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} sessions on '{}' — makespan {:.1} s (virtual)",
            self.sessions,
            self.system,
            self.makespan_ms / 1e3
        );
        let _ = writeln!(
            out,
            "throughput: {:.2} interactions/s, {:.2} queries/s  |  latency p50/p95/p99: \
             {:.0}/{:.0}/{:.0} ms  |  TR violations: {:.1}%  |  cache: {:.1}% hits \
             ({} entries)",
            self.interactions_per_s,
            self.queries_per_s,
            self.latency_p50_ms,
            self.latency_p95_ms,
            self.latency_p99_ms,
            self.tr_violation_rate * 100.0,
            self.cache_hit_rate * 100.0,
            self.cache_entries,
        );
        let _ = writeln!(
            out,
            "{:<4} {:<16} {:>10} {:>10} {:>8} {:>8} {:>7} {:>8} {:>6} {:>6}",
            "sid",
            "workflow",
            "arrive_ms",
            "active_ms",
            "inters",
            "queries",
            "TRviol",
            "p50ms",
            "hits",
            "miss"
        );
        for s in &self.per_session {
            let _ = writeln!(
                out,
                "{:<4} {:<16} {:>10.0} {:>10.0} {:>8} {:>8} {:>7} {:>8.0} {:>6} {:>6}",
                s.session,
                s.workflow,
                s.arrival_ms,
                s.active_ms,
                s.interactions,
                s.queries,
                s.tr_violations,
                s.p50_latency_ms,
                s.cache.hits,
                s.cache.misses,
            );
        }
        out.push('\n');
        out.push_str(&self.summary.render_text());
        out
    }
}

/// The outcome's distinct queries, deduplicated by
/// [`Query::canonical_key`], in session order.
fn distinct_queries(outcome: &FleetOutcome) -> Vec<Query> {
    let mut seen = FxHashSet::default();
    outcome
        .sessions
        .iter()
        .flat_map(|s| &s.outcome.query_results)
        .filter(|m| seen.insert(m.query.canonical_key()))
        .map(|m| m.query.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, FleetHarness};
    use idebench_core::{ServiceCore, Settings};
    use idebench_engine_exact::ExactAdapter;
    use idebench_workflow::WorkflowType;
    use std::sync::Arc;

    fn dataset(n: usize) -> Dataset {
        Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(n, 42)))
    }

    fn config(sessions: usize) -> FleetConfig {
        FleetConfig::new(
            Settings::default()
                .with_time_requirement_ms(1_000)
                .with_think_time_ms(500)
                .with_seed(5),
            sessions,
        )
        .with_workflow(WorkflowType::Mixed, 6)
    }

    fn run(cfg: FleetConfig, dataset: &Dataset) -> crate::FleetOutcome {
        let service = ServiceCore::shared_adapter(ExactAdapter::with_defaults()).into_shared();
        FleetHarness::new(cfg).run(dataset, service).unwrap()
    }

    fn outcome(sessions: usize, dataset: &Dataset) -> crate::FleetOutcome {
        run(config(sessions), dataset)
    }

    #[test]
    fn evaluate_merges_sessions_and_computes_rates() {
        let ds = dataset(4_000);
        let out = outcome(3, &ds);
        let report = FleetReport::evaluate(&out, &ds);
        assert_eq!(report.sessions, 3);
        assert_eq!(report.per_session.len(), 3);
        assert_eq!(
            report.queries,
            report.detailed.rows.len(),
            "merged detailed rows back the fleet totals"
        );
        assert_eq!(
            report.queries,
            report.per_session.iter().map(|s| s.queries).sum::<usize>()
        );
        assert!(report.queries_per_s > 0.0);
        assert!(report.latency_p95_ms >= report.latency_p50_ms);
        assert!((0.0..=1.0).contains(&report.tr_violation_rate));
        assert!((0.0..=1.0).contains(&report.cache_hit_rate));
        let text = report.render_text();
        assert!(text.contains("fleet: 3 sessions"));
        assert!(text.contains("s1_mixed"));
        // The JSON artifact round-trips.
        let back: FleetReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn parallel_evaluation_is_deterministic() {
        let ds = dataset(4_000);
        let out = outcome(4, &ds);
        let a = FleetReport::evaluate(&out, &ds).to_json();
        let b = FleetReport::evaluate(&out, &ds).to_json();
        assert_eq!(a, b, "precompute thread interleaving must not leak");
    }

    #[test]
    fn each_distinct_query_is_executed_once_per_evaluation() {
        let ds = dataset(4_000);
        let out = run(config(4).with_shared_workflow(true), &ds);
        let results: Vec<&Query> = out
            .sessions
            .iter()
            .flat_map(|s| &s.outcome.query_results)
            .map(|m| &m.query)
            .collect();
        let distinct = distinct_queries(&out);
        let keys: FxHashSet<_> = distinct.iter().map(Query::canonical_key).collect();
        assert_eq!(keys.len(), distinct.len(), "canonical keys are unique");
        assert!(
            distinct.len() < results.len(),
            "a shared dashboard repeats queries across sessions"
        );
        assert!(results.iter().all(|q| keys.contains(&q.canonical_key())));

        let mut gt = CachedGroundTruth::precompute(ds.clone(), &distinct, 2);
        for s in &out.sessions {
            DetailedReport::from_outcome(&s.outcome, &mut gt);
        }
        assert_eq!(
            gt.stats(),
            (results.len() as u64, 0),
            "no query is rescanned"
        );
        assert_eq!(gt.len(), distinct.len());
    }

    #[test]
    fn overlapping_sessions_raise_throughput() {
        let ds = dataset(4_000);
        let one = FleetReport::evaluate(&outcome(1, &ds), &ds);
        let four = FleetReport::evaluate(&outcome(4, &ds), &ds);
        assert!(
            four.queries_per_s > one.queries_per_s,
            "4 overlapping sessions must out-throughput 1: {} vs {}",
            four.queries_per_s,
            one.queries_per_s
        );
    }
}
