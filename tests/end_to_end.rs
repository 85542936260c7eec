//! Cross-crate integration tests: the full benchmark pipeline on every
//! engine, checking the *behavioural contracts* each paper system category
//! must exhibit.

use idebench::core::{
    BenchmarkDriver, DetailedReport, EngineService, ExecutionMode, GroundTruthProvider, Settings,
    SummaryReport, SystemAdapter,
};
use idebench::engine_cache::CachingAdapter;
use idebench::engine_exact::ExactAdapter;
use idebench::engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench::engine_stratified::StratifiedAdapter;
use idebench::engine_wander::WanderAdapter;
use idebench::query::CachedGroundTruth;
use idebench::storage::Dataset;
use idebench::workflow::{Workflow, WorkflowGenerator, WorkflowType};
use std::sync::Arc;

const ROWS: usize = 60_000;
const RATE: f64 = 3e4; // full 1-unit scan of ROWS = 2 virtual seconds

fn dataset() -> Dataset {
    Dataset::Denormalized(Arc::new(idebench::datagen::flights::generate(ROWS, 42)))
}

fn workflows() -> Vec<Workflow> {
    WorkflowGenerator::new(WorkflowType::Mixed, 42).generate_batch(3, 12)
}

fn settings(tr_ms: u64) -> Settings {
    Settings::default()
        .with_time_requirement_ms(tr_ms)
        .with_think_time_ms(200)
        .with_execution(ExecutionMode::Virtual { work_rate: RATE })
}

fn run(
    service: &dyn EngineService,
    dataset: &Dataset,
    tr_ms: u64,
    gt: &mut CachedGroundTruth,
) -> DetailedReport {
    let driver = BenchmarkDriver::new(settings(tr_ms));
    let mut parts = Vec::new();
    for wf in workflows() {
        let outcome = driver.run_workflow(service, dataset, &wf).expect("runs");
        parts.push(DetailedReport::from_outcome(&outcome, gt));
    }
    DetailedReport::merged(parts)
}

#[test]
fn exact_engine_is_all_or_nothing() {
    let ds = dataset();
    let mut gt = CachedGroundTruth::new(ds.clone());
    let service = ExactAdapter::with_defaults().into_service();
    let report = run(&service, &ds, 1_000, &mut gt);
    for row in &report.rows {
        if row.tr_violated {
            assert_eq!(
                row.metrics.missing_bins, 1.0,
                "violated ⇒ nothing delivered"
            );
            assert_eq!(row.metrics.bins_delivered, 0);
        } else {
            assert_eq!(row.metrics.missing_bins, 0.0, "completed ⇒ complete");
            assert_eq!(row.metrics.rel_error_avg.unwrap_or(0.0), 0.0);
            assert_eq!(row.metrics.bins_out_of_margin, 0);
        }
    }
    // At this scale some queries must fall on each side.
    assert!(report.rows.iter().any(|r| r.tr_violated));
    assert!(report.rows.iter().any(|r| !r.tr_violated));
}

#[test]
fn progressive_quality_improves_with_time_requirement() {
    let ds = dataset();
    let mut gt = CachedGroundTruth::new(ds.clone());
    let mut missings = Vec::new();
    let mut violations = Vec::new();
    for tr in [200u64, 1_000, 5_000] {
        // Fresh engine per TR, as the benchmark restarts systems per run.
        let service = ProgressiveAdapter::service(ProgressiveConfig::default());
        let report = run(&service, &ds, tr, &mut gt);
        let summary = SummaryReport::from_detailed(&report);
        missings.push(summary.rows[0].mean_missing_bins);
        violations.push(summary.rows[0].pct_tr_violated);
    }
    assert!(
        missings[0] > missings[1] && missings[1] > missings[2],
        "missing bins must fall with TR: {missings:?}"
    );
    // Near-zero violations at every TR (only warm-up can violate).
    assert!(violations.iter().all(|&v| v < 5.0), "{violations:?}");
}

#[test]
fn stratified_quality_constant_across_time_requirements() {
    let ds = dataset();
    let mut gt = CachedGroundTruth::new(ds.clone());
    let mut mres = Vec::new();
    for tr in [2_000u64, 10_000] {
        let service = StratifiedAdapter::with_defaults().into_service();
        let report = run(&service, &ds, tr, &mut gt);
        let summary = SummaryReport::from_detailed(&report);
        assert_eq!(summary.rows[0].pct_tr_violated, 0.0, "TR {tr} generous");
        mres.push(summary.rows[0].mean_mre.expect("has errors"));
    }
    // The offline sample doesn't improve with more time (paper §6).
    assert!(
        (mres[0] - mres[1]).abs() < 1e-9,
        "offline sample quality should not depend on TR: {mres:?}"
    );
}

#[test]
fn wander_violations_flat_across_time_requirements() {
    let ds = dataset();
    let mut gt = CachedGroundTruth::new(ds.clone());
    let mut rates = Vec::new();
    for tr in [500u64, 1_500] {
        let service = WanderAdapter::with_defaults().into_service();
        let report = run(&service, &ds, tr, &mut gt);
        let summary = SummaryReport::from_detailed(&report);
        rates.push(summary.rows[0].pct_tr_violated);
    }
    // Blocking-fallback queries dominate the violation rate at any TR.
    assert!(
        rates[0] > 30.0,
        "expected substantial violations: {rates:?}"
    );
    assert!(
        (rates[0] - rates[1]).abs() < 10.0,
        "violation rate should stay roughly level: {rates:?}"
    );
}

#[test]
fn middleware_layer_adds_overhead_but_same_results() {
    let ds = dataset();
    let mut gt = CachedGroundTruth::new(ds.clone());
    let bare = ExactAdapter::with_defaults().into_service();
    let bare_report = run(&bare, &ds, 20_000, &mut gt);
    // Result caching off: repeated queries answered from cache are *faster*
    // than a bare scan, which would mask the overhead this test pins down.
    let layered = CachingAdapter::service(
        idebench::engine_cache::CacheConfig {
            overhead_s: 1.5,
            enable_cache: false,
        },
        |_| ExactAdapter::with_defaults(),
    );
    let layered_report = run(&layered, &ds, 20_000, &mut gt);

    let mean_lat = |r: &DetailedReport| {
        r.rows
            .iter()
            .map(|x| x.end_time - x.start_time)
            .sum::<f64>()
            / r.rows.len() as f64
    };
    // Same completeness, higher latency.
    assert!(mean_lat(&layered_report) > mean_lat(&bare_report) + 1_000.0);
    let total_missing =
        |r: &DetailedReport| r.rows.iter().map(|x| x.metrics.missing_bins).sum::<f64>();
    assert_eq!(total_missing(&layered_report), total_missing(&bare_report));
}

#[test]
fn preparation_cost_ordering_matches_paper() {
    let ds = dataset();
    let s = settings(1_000);
    let mut exact = ExactAdapter::with_defaults();
    let mut wander = WanderAdapter::with_defaults();
    let mut progressive = ProgressiveAdapter::with_defaults();
    let mut stratified = StratifiedAdapter::with_defaults();
    let p_exact = exact.prepare(&ds, &s).unwrap().total_units();
    let p_wander = wander.prepare(&ds, &s).unwrap().total_units();
    let p_prog = progressive.prepare(&ds, &s).unwrap().total_units();
    let p_strat = stratified.prepare(&ds, &s).unwrap().total_units();
    // Paper §5.2: IDEA (3 min) < MonetDB (19) < System X (27) < XDB (130).
    assert!(p_prog < p_exact);
    assert!(p_exact < p_strat);
    assert!(p_strat < p_wander);
}

#[test]
fn normalized_and_denormalized_agree_on_exact_results() {
    // Join correctness: the exact engine must produce identical results on
    // the star schema and the de-normalized original.
    let table = idebench::datagen::flights::generate(20_000, 9);
    let denorm = Dataset::Denormalized(Arc::new(table.clone()));
    let star = idebench::datagen::normalize_flights(&table).expect("normalizes");

    let mut gt_flat = CachedGroundTruth::new(denorm.clone());
    let flat_service = ExactAdapter::with_defaults().into_service();
    let driver = BenchmarkDriver::new(settings(60_000));
    // Workflows touch carrier/origin_state (moved to dimensions) and fact
    // columns alike.
    for wf in workflows() {
        let flat = driver.run_workflow(&flat_service, &denorm, &wf).unwrap();
        let star_service = ExactAdapter::with_defaults().into_service();
        let starred = driver.run_workflow(&star_service, &star, &wf).unwrap();
        assert_eq!(flat.query_results.len(), starred.query_results.len());
        for (a, b) in flat.query_results.iter().zip(&starred.query_results) {
            let (Some(ra), Some(rb)) = (&a.result, &b.result) else {
                // Generous TR: everything completes.
                panic!("query cancelled under a 60s TR");
            };
            // Codes may differ between dictionaries, so compare via ground
            // truth metrics instead of raw maps: both must be exact and
            // complete.
            let gta = gt_flat.ground_truth(&a.query);
            let ma = idebench::core::Metrics::evaluate(ra, &gta);
            assert_eq!(ma.missing_bins, 0.0);
            assert_eq!(ma.rel_error_avg.unwrap_or(0.0), 0.0);
            assert!(rb.exact);
            assert_eq!(ra.bins_delivered(), rb.bins_delivered());
        }
    }
}

#[test]
fn detailed_report_matches_table1_layout() {
    let ds = dataset();
    let mut gt = CachedGroundTruth::new(ds.clone());
    let service = ProgressiveAdapter::service(ProgressiveConfig::default());
    let report = run(&service, &ds, 500, &mut gt);
    let csv = report.to_csv();
    let header = csv.lines().next().unwrap();
    for column in [
        "id",
        "viz_name",
        "driver",
        "think_time",
        "time_req",
        "tr_violated",
        "bin_dims",
        "binning_type",
        "agg_type",
        "bins_ofm",
        "bins_delivered",
        "bins_in_gt",
        "rel_error_avg",
        "missing_bins",
        "cosine_distance",
        "margin_avg",
    ] {
        assert!(header.contains(column), "missing column {column}");
    }
    assert_eq!(csv.lines().count(), report.rows.len() + 1);
}
