//! Shared harness for the IDEBench experiment binaries.
//!
//! Every figure/table of the paper's evaluation has a binary in `src/bin/`
//! (see DESIGN.md's experiment index). This library provides what they all
//! share: dataset construction, the system roster, configuration sweeps,
//! report plumbing, and minimal CLI-argument handling.

pub mod config;

use idebench_core::service::{EngineService, ServiceCore};
use idebench_core::settings::available_parallelism;
use idebench_core::{
    BenchmarkDriver, CoreError, DetailedReport, Settings, SummaryReport, SystemAdapter,
};
use idebench_datagen::normalize_flights;
use idebench_engine_cache::CachingAdapter;
use idebench_engine_exact::ExactAdapter;
use idebench_engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench_engine_stratified::StratifiedAdapter;
use idebench_engine_wander::WanderAdapter;
use idebench_query::CachedGroundTruth;
use idebench_storage::Dataset;
use idebench_workflow::{Workflow, WorkflowGenerator, WorkflowType};
use std::path::PathBuf;
use std::sync::Arc;

/// Common command-line arguments of every experiment binary.
///
/// `--rows N` sets the M-scale row count (S = N/5, L = 2N); `--seed N` the
/// global seed; `--quick` shrinks rows *and* the virtual work rate by 10×,
/// preserving every cost/TR ratio while making a run take seconds;
/// `--out DIR` the output directory for JSON artifacts.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// M-scale rows (default 5,000,000).
    pub rows_m: usize,
    /// Global RNG seed.
    pub seed: u64,
    /// Virtual work rate, units/second.
    pub work_rate: f64,
    /// Output directory for machine-readable results.
    pub out_dir: PathBuf,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            rows_m: 5_000_000,
            seed: 42,
            work_rate: 1e6,
            out_dir: PathBuf::from("bench-results"),
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with usage help on error.
    pub fn parse() -> ExpArgs {
        let mut args = ExpArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--rows" => {
                    args.rows_m = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--rows needs a number"));
                }
                "--seed" => {
                    args.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--quick" => {
                    args.rows_m = 500_000;
                    args.work_rate = 1e5;
                }
                "--out" => {
                    args.out_dir =
                        PathBuf::from(iter.next().unwrap_or_else(|| usage("--out needs a path")));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Row count for a scale letter: S = M/5, M, L = 2M (the paper's
    /// 100M/500M/1B ratios).
    pub fn rows(&self, scale: char) -> usize {
        match scale {
            's' | 'S' => self.rows_m / 5,
            'l' | 'L' => self.rows_m * 2,
            _ => self.rows_m,
        }
    }

    /// Base settings with this run's execution calibration.
    pub fn settings(&self) -> Settings {
        Settings::default().with_seed(self.seed).with_execution(
            idebench_core::ExecutionMode::Virtual {
                work_rate: self.work_rate,
            },
        )
    }

    /// Writes a JSON artifact into the output directory.
    pub fn write_json(&self, name: &str, value: &impl serde::Serialize) {
        std::fs::create_dir_all(&self.out_dir).expect("create output dir");
        let path = self.out_dir.join(name);
        let text = serde_json::to_string_pretty(value).expect("results serialize");
        std::fs::write(&path, text).expect("write results file");
        println!("[wrote {}]", path.display());
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <exp> [--rows N] [--seed N] [--quick] [--out DIR]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Generates the de-normalized flights dataset at the given scale.
pub fn flights_dataset(rows: usize, seed: u64) -> Dataset {
    Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(rows, seed)))
}

/// Normalizes a de-normalized flights dataset into the Exp-2 star schema.
pub fn star_dataset(denorm: &Dataset) -> Dataset {
    let table = denorm.as_denormalized().expect("denormalized input");
    normalize_flights(table).expect("flights normalization succeeds")
}

/// A fresh adapter by report name (fresh state per configuration, the way
/// the paper restarts systems between runs).
pub fn adapter_by_name(name: &str) -> Box<dyn SystemAdapter> {
    try_adapter_by_name(name).unwrap_or_else(|| panic!("unknown system {name}"))
}

/// Non-panicking adapter lookup; `None` for unknown names (used by the
/// config runner to reject bad configuration files gracefully).
pub fn try_adapter_by_name(name: &str) -> Option<Box<dyn SystemAdapter>> {
    Some(match name {
        "exact" => Box::new(ExactAdapter::with_defaults()),
        "wander" => Box::new(WanderAdapter::with_defaults()),
        "progressive" => Box::new(ProgressiveAdapter::with_defaults()),
        "progressive+spec" => Box::new(ProgressiveAdapter::with_speculation()),
        "progressive-noreuse" => Box::new(ProgressiveAdapter::new(ProgressiveConfig {
            enable_reuse: false,
            ..ProgressiveConfig::default()
        })),
        "stratified" => Box::new(StratifiedAdapter::with_defaults()),
        "cache+exact" => Box::new(CachingAdapter::with_defaults(ExactAdapter::with_defaults())),
        // The paper's System Y shows pure per-query overhead with no
        // observable result reuse (§5.6), hence caching off.
        "system_y" => Box::new(CachingAdapter::new(
            ExactAdapter::with_defaults(),
            idebench_engine_cache::CacheConfig {
                overhead_s: 1.5,
                enable_cache: false,
            },
        )),
        _ => return None,
    })
}

/// A fresh shared service by report name (fresh engine state per
/// configuration, the way the paper restarts systems between runs). The
/// service hosts one [`adapter_by_name`] instance per session, created at
/// the session's first `open_session`, so each session keeps its own
/// engine state across the workflows it runs.
pub fn service_by_name(name: &str) -> Arc<dyn EngineService> {
    let inner = name.to_string();
    ServiceCore::per_session_adapters(name, move |_| adapter_by_name(&inner)).into_shared()
}

/// Names of the four main-experiment systems.
pub const MAIN_SYSTEMS: [&str; 4] = ["exact", "wander", "progressive", "stratified"];

/// The paper's default workload: 10 workflows per type (plus mixed).
pub fn default_workflows(kind: WorkflowType, seed: u64, count: usize, len: usize) -> Vec<Workflow> {
    WorkflowGenerator::new(kind, seed).generate_batch(count, len)
}

/// Pre-computes the ground truth of an entire workload in parallel (one
/// exact execution per distinct canonical query key, spread over all cores).
/// Experiment binaries call this once and reuse the oracle across every
/// (system, TR) configuration cell. Fails when a workload query does not
/// bind against the dataset.
pub fn parallel_ground_truth(
    dataset: &Dataset,
    workflows: &[Workflow],
) -> Result<CachedGroundTruth, CoreError> {
    let slices: Vec<&[idebench_core::Interaction]> = workflows
        .iter()
        .map(|w| w.interactions.as_slice())
        .collect();
    let distinct = idebench_query::enumerate_workload_queries(dataset, &slices)?;
    Ok(CachedGroundTruth::precompute(
        dataset.clone(),
        &distinct,
        available_parallelism(),
    ))
}

/// Runs a set of workflows through one shared service under one
/// configuration and evaluates every query against ground truth.
///
/// All workflows run as session 0 of the service, one after another, so
/// engine state (reuse caches, warm datasets) persists across the set the
/// way it would in one engine instance serving one analyst.
pub fn run_workflows(
    service: &dyn EngineService,
    dataset: &Dataset,
    workflows: &[Workflow],
    settings: &Settings,
    gt: &mut CachedGroundTruth,
) -> Result<DetailedReport, CoreError> {
    let driver = BenchmarkDriver::new(settings.clone());
    let mut reports = Vec::with_capacity(workflows.len());
    for wf in workflows {
        let outcome = driver.run_workflow(service, dataset, wf)?;
        reports.push(DetailedReport::from_outcome(&outcome, gt));
    }
    Ok(DetailedReport::merged(reports))
}

/// The dataset/workload/ground-truth bundle every experiment binary sets
/// up before its configuration sweep — extracted here so the `exp*` and
/// `ablations` binaries share one construction path instead of repeating
/// it.
pub struct ExpContext {
    /// The parsed common CLI arguments.
    pub args: ExpArgs,
    /// The dataset under test.
    pub dataset: Dataset,
    /// The workload.
    pub workflows: Vec<Workflow>,
    /// Ground-truth oracle for metric evaluation (shared across every
    /// configuration cell of the sweep).
    pub gt: CachedGroundTruth,
}

impl ExpContext {
    /// The standard sweep setup: flights data at `scale`, `count`
    /// workflows of `kind` with `len` interactions, and ground truth for
    /// the whole workload pre-computed in parallel on all cores.
    pub fn standard(
        args: ExpArgs,
        scale: char,
        kind: WorkflowType,
        count: usize,
        len: usize,
    ) -> ExpContext {
        let dataset = flights_dataset(args.rows(scale), args.seed);
        let workflows = default_workflows(kind, args.seed, count, len);
        let gt = parallel_ground_truth(&dataset, &workflows)
            .expect("workload queries bind against the dataset");
        ExpContext {
            args,
            dataset,
            workflows,
            gt,
        }
    }

    /// Setup over an explicit dataset/workload pair, with a lazy oracle
    /// that computes each query's ground truth on first use (cheaper than
    /// [`parallel_ground_truth`] when only a few queries are evaluated).
    pub fn with_workload(args: ExpArgs, dataset: Dataset, workflows: Vec<Workflow>) -> ExpContext {
        let gt = CachedGroundTruth::new(dataset.clone());
        ExpContext {
            args,
            dataset,
            workflows,
            gt,
        }
    }

    /// Runs the whole workload on a fresh shared service for `system`
    /// (see [`service_by_name`]) and evaluates it.
    pub fn run_system(
        &mut self,
        system: &str,
        settings: &Settings,
    ) -> Result<DetailedReport, CoreError> {
        let service = service_by_name(system);
        run_workflows(
            service.as_ref(),
            &self.dataset,
            &self.workflows,
            settings,
            &mut self.gt,
        )
    }

    /// Runs workflow `idx` alone on a fresh shared service for `system`
    /// (per-workflow comparisons, e.g. Exp 5's three 1:N variants).
    pub fn run_nth(
        &mut self,
        system: &str,
        settings: &Settings,
        idx: usize,
    ) -> Result<DetailedReport, CoreError> {
        let service = service_by_name(system);
        let driver = BenchmarkDriver::new(settings.clone());
        let outcome = driver.run_workflow(service.as_ref(), &self.dataset, &self.workflows[idx])?;
        Ok(DetailedReport::from_outcome(&outcome, &mut self.gt))
    }
}

/// Pretty-prints a summary report with a heading.
pub fn print_summary(title: &str, summary: &SummaryReport) {
    println!("\n=== {title} ===");
    print!("{}", summary.render_text());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_letters() {
        let args = ExpArgs::default();
        assert_eq!(args.rows('S'), 1_000_000);
        assert_eq!(args.rows('m'), 5_000_000);
        assert_eq!(args.rows('L'), 10_000_000);
    }

    #[test]
    fn roster_contains_four_systems() {
        for name in MAIN_SYSTEMS {
            assert_eq!(adapter_by_name(name).name(), name);
        }
    }

    #[test]
    fn end_to_end_smoke_all_systems() {
        // A miniature Exp-1: every main system runs a small mixed workload
        // through the shared-service path and produces evaluable reports.
        let dataset = flights_dataset(20_000, 7);
        let mut gt = CachedGroundTruth::new(dataset.clone());
        let workflows = default_workflows(WorkflowType::Mixed, 7, 2, 8);
        let settings = Settings::default()
            .with_seed(7)
            .with_time_requirement_ms(50)
            .with_think_time_ms(10)
            .with_execution(idebench_core::ExecutionMode::Virtual { work_rate: 1e5 });
        for name in MAIN_SYSTEMS {
            let service = service_by_name(name);
            let report = run_workflows(service.as_ref(), &dataset, &workflows, &settings, &mut gt)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!report.rows.is_empty(), "{name} produced no rows");
            let summary = SummaryReport::from_detailed(&report);
            assert_eq!(summary.rows.len(), 1);
        }
    }

    #[test]
    fn exp_context_matches_manual_setup() {
        let args = ExpArgs {
            rows_m: 10_000,
            seed: 9,
            work_rate: 1e5,
            ..ExpArgs::default()
        };
        let settings = args
            .settings()
            .with_time_requirement_ms(100)
            .with_think_time_ms(10);
        let mut ctx = ExpContext::standard(args, 'M', WorkflowType::Mixed, 2, 6);
        assert_eq!(ctx.workflows.len(), 2);
        let merged = ctx.run_system("exact", &settings).expect("exact runs");
        let nth = ctx.run_nth("exact", &settings, 0).expect("first workflow");
        assert!(!merged.rows.is_empty());
        assert!(nth.rows.len() < merged.rows.len());
        // The context's oracle served both runs.
        let (hits, _misses) = ctx.gt.stats();
        assert!(hits > 0, "repeated queries hit the shared oracle");
    }

    #[test]
    fn star_dataset_roundtrip() {
        let denorm = flights_dataset(5_000, 3);
        let star = star_dataset(&denorm);
        assert!(star.is_normalized());
        assert_eq!(star.fact_rows(), 5_000);
    }
}
