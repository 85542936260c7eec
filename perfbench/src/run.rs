//! One benchmark run: repeated reps of a workload, the output check, and
//! the metrics reported from them.
//!
//! An untraced run repeats untraced reps (at least [`MIN_UNTRACED_REPS`])
//! until its time is up and reports the end-to-end metrics. A traced run
//! alternates untraced and traced reps, reports the per-layer metrics from
//! the traced ones, and the tracing overhead from the difference. Every rep
//! of a seed must produce the same report hash, traced or not, and that
//! hash must equal the recorded one where the seed has a record.

use crate::host::{peak_rss_mb, reference_kernel_s};
use crate::stats::{median, percentile};
use crate::trace::{self_time_by_layer, Span, Trace};
use crate::workload::{explore_rep, fleet_rep, paper_roster, EngineSpec, Rep, Sizes, Workload};
use std::time::Instant;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("report_s", "s"),
    ("queries_per_s", "1/s"),
    ("interaction_p50_ms", "ms"),
    ("interaction_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Engine names used in per-layer metric names.
const ENGINES: [&str; 5] = [
    "exact",
    "wander",
    "progressive",
    "stratified",
    "cache_exact",
];

/// Layers whose self time the traced run reports.
const TRACED_LAYERS: [&str; 7] = [
    "datagen", "workflow", "query", "engine", "core", "report", "fleet",
];

/// Fewest untraced reps of an untraced run: set-up runs at least three times.
const MIN_UNTRACED_REPS: usize = 3;

/// Most reps of any run, whatever `--seconds` says.
const MAX_REPS: usize = 60;

/// Recorded output hashes: `workload seed size-tag hash` per line.
const RECORDED: &str = include_str!("../expected_hashes.txt");

/// Per-layer metrics (traced runs): name and unit. Metrics of a layer a
/// workload does not exercise read 0.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("datagen.generate_s", "s"),
        ("datagen.normalize_s", "s"),
        ("workflow.generate_s", "s"),
        ("query.ground_truth_s", "s"),
        ("query.ground_truth_queries", "count"),
        ("query.ground_truth_rows_per_s", "rows/s"),
        ("query.compile_us_p50", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for engine in ENGINES {
        for (suffix, unit) in [
            ("prepare_s", "s"),
            ("step_s", "s"),
            ("steps", "count"),
            ("units", "count"),
            ("ns_per_unit", "ns"),
        ] {
            m.push((format!("engine.{engine}.{suffix}"), unit));
        }
    }
    for (n, u) in [
        ("core.overhead_s", "s"),
        ("session.accounted_frac", "ratio"),
        ("service.tickets", "count"),
        ("service.done", "count"),
        ("service.expired", "count"),
        ("service.revoked", "count"),
        ("service.ticket_us_p50", "us"),
        ("report.evaluate_s", "s"),
        ("fleet.run_s", "s"),
        ("fleet.evaluate_s", "s"),
    ] {
        m.push((n.to_string(), u));
    }
    for phase in ["writes", "reads"] {
        for (suffix, unit) in [
            ("hits", "count"),
            ("misses", "count"),
            ("insertions", "count"),
            ("hit_ratio", "ratio"),
        ] {
            m.push((format!("fleet.cache.{phase}.{suffix}"), unit));
        }
    }
    for (n, u) in [
        ("storage.join_cache.materializations", "count"),
        ("storage.join_cache.bytes", "bytes"),
        ("storage.join_cache.hits", "count"),
        ("exec.cpu_util", "ratio"),
        ("failed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.spans", "count"),
    ] {
        m.push((n.to_string(), u));
    }
    for layer in TRACED_LAYERS {
        m.push((format!("self.{layer}_s"), "s"));
    }
    m
}

/// What one run does.
#[derive(Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall seconds to keep starting reps for.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// Engines of the explore workloads.
    pub roster: Vec<EngineSpec>,
}

impl RunConfig {
    /// The benchmark's configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            sizes: workload.sizes(),
            roster: paper_roster(),
        }
    }

    /// One rep under `trace`.
    pub fn rep(&self, trace: &Trace) -> Rep {
        match self.workload {
            Workload::ExploreDenorm => {
                explore_rep(&self.sizes, &self.roster, false, self.seed, trace)
            }
            Workload::ExploreStar => explore_rep(&self.sizes, &self.roster, true, self.seed, trace),
            Workload::FleetDashboard => fleet_rep(&self.sizes, self.seed, trace),
        }
    }

    /// The recorded output hash of this configuration, if any.
    pub fn recorded_hash(&self) -> Option<u64> {
        let tag = self.sizes.tag();
        RECORDED.lines().find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, t, h]
                    if *w == self.workload.name() && s.parse() == Ok(self.seed) && *t == tag =>
                {
                    u64::from_str_radix(h, 16).ok()
                }
                _ => None,
            }
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted over all reps.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The end-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// The report hash every rep produced (that of the first rep).
    pub hash: u64,
    /// Untraced reps run.
    pub untraced_reps: usize,
    /// Traced reps run.
    pub traced_reps: usize,
    /// Interaction samples behind the latency percentiles.
    pub interactions: usize,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Spans of the last traced rep.
    pub spans: Vec<Span>,
    /// Fastest and slowest wall ms of the host reference kernel, read
    /// before every rep: how far the host's speed moved during the run.
    pub reference_ms: (f64, f64),
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    median(&mut v)
}

/// Runs the configured reps, checks their outputs, and derives the metrics.
pub fn run(cfg: &RunConfig) -> RunResult {
    let start = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut spans = Vec::new();
    let mut reference_ms = (f64::INFINITY, 0.0f64);
    loop {
        let enough = if cfg.trace {
            !traced.is_empty() && traced.len() == untraced.len()
        } else {
            untraced.len() >= MIN_UNTRACED_REPS
        };
        let out_of_time = start.elapsed().as_secs_f64() >= cfg.seconds;
        if (enough && out_of_time) || untraced.len() + traced.len() >= MAX_REPS {
            break;
        }
        let kernel_ms = reference_kernel_s() * 1e3;
        reference_ms.0 = reference_ms.0.min(kernel_ms);
        reference_ms.1 = reference_ms.1.max(kernel_ms);
        let rep = if cfg.trace && untraced.len() > traced.len() {
            let trace = Trace::on();
            let mut rep = cfg.rep(&trace);
            spans = trace.spans();
            for (layer, s) in self_time_by_layer(&spans) {
                rep.layers.insert(format!("self.{layer}_s"), s);
            }
            traced.push(rep);
            traced.last()
        } else {
            untraced.push(cfg.rep(&Trace::off()));
            untraced.last()
        };
        let rep = rep.expect("a rep was just pushed");
        eprintln!(
            "perfbench: rep {} reference {kernel_ms:.1}ms setup {:.3}s session {:.3}s report {:.3}s queries {}",
            untraced.len() + traced.len(),
            rep.setup_s,
            rep.session_s,
            rep.report_s,
            rep.queries
        );
    }

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let hash = all[0].hash;
    let mut problems: Vec<String> = Vec::new();
    for rep in &all {
        problems.extend(rep.problems.iter().cloned());
    }
    if all.iter().any(|r| r.hash != hash) {
        problems.push("report hashes differ between reps of one seed".into());
    }
    if let Some(recorded) = cfg.recorded_hash() {
        if recorded != hash {
            problems.push(format!(
                "report hash {hash:016x} differs from the recorded {recorded:016x}"
            ));
        }
    }
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();

    let metrics = if cfg.trace {
        if traced.iter().any(|r| {
            (
                r.tickets.tickets,
                r.tickets.done,
                r.tickets.expired,
                r.tickets.revoked,
            ) != (
                traced[0].tickets.tickets,
                traced[0].tickets.done,
                traced[0].tickets.expired,
                traced[0].tickets.revoked,
            )
        }) {
            problems.push("ticket counts differ between traced reps".into());
        }
        per_layer_metrics(&untraced, &traced, attempted, failed, spans.len())
    } else {
        end_to_end_metrics(&untraced)
    };
    problems.sort();
    problems.dedup();

    RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        hash,
        untraced_reps: untraced.len(),
        traced_reps: traced.len(),
        interactions: untraced.iter().map(|r| r.interaction_ms.len()).sum(),
        problems,
        spans,
        reference_ms,
    }
}

/// Wall readings of identical reps: the CPU speed a shared host delivers
/// swings by up to 2× within seconds, and contention only ever adds time,
/// so the fastest repetition of the same work is the steadiest estimate of
/// what the program costs.
fn fastest(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    reps.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Each interaction's fastest wall ms over the reps. Every rep replays the
/// same interactions in the same order, so index `i` is the same work in
/// every rep.
fn fastest_interactions(reps: &[Rep]) -> Vec<f64> {
    let n = reps
        .iter()
        .map(|r| r.interaction_ms.len())
        .min()
        .unwrap_or(0);
    (0..n)
        .map(|i| fastest(reps, |r| r.interaction_ms[i]))
        .collect()
}

fn end_to_end_metrics(reps: &[Rep]) -> Vec<Metric> {
    let mut latencies = fastest_interactions(reps);
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: match name {
                "setup_s" => fastest(reps, |r| r.setup_s),
                "report_s" => fastest(reps, |r| r.report_s),
                "queries_per_s" => -fastest(reps, |r| -(r.queries as f64) / r.session_s),
                "interaction_p50_ms" => percentile(&mut latencies, 50.0),
                "interaction_p95_ms" => percentile(&mut latencies, 95.0),
                "peak_rss_mb" => peak_rss_mb().unwrap_or(0.0),
                _ => unreachable!("END_TO_END lists only these"),
            },
            unit,
        })
        .collect()
}

fn per_layer_metrics(
    untraced: &[Rep],
    traced: &[Rep],
    attempted: u64,
    failed: u64,
    spans: usize,
) -> Vec<Metric> {
    let first = &traced[0].tickets;
    let mut settle_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.tickets.settle_us.iter().copied())
        .collect();
    let overhead = median_of(traced, |r| r.session_s) / median_of(untraced, |r| r.session_s) - 1.0;
    per_layer_catalog()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "service.tickets" => first.tickets as f64,
                "service.done" => first.done as f64,
                "service.expired" => first.expired as f64,
                "service.revoked" => first.revoked as f64,
                "service.ticket_us_p50" => median(&mut settle_us),
                "failed_frac" => failed as f64 / attempted.max(1) as f64,
                "trace.overhead_frac" => overhead,
                "trace.spans" => spans as f64,
                _ => median_of(traced, |r| r.layers.get(&name).copied().unwrap_or(0.0)),
            };
            Metric {
                name,
                value: if value.is_finite() { value } else { 0.0 },
                unit,
            }
        })
        .collect()
}

/// The last line of the benchmark's output: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(",")
    )
}
