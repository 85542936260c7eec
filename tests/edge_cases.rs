//! Failure-injection and edge-case tests across the stack.

use idebench::core::spec::{AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate};
use idebench::core::{
    BenchmarkDriver, ExecutionMode, Interaction, Query, Settings, SystemAdapter, VizSpec,
};
use idebench::engine_cache::CachingAdapter;
use idebench::engine_exact::ExactAdapter;
use idebench::engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench::engine_stratified::{StratifiedAdapter, StratifiedConfig};
use idebench::engine_wander::WanderAdapter;
use idebench::storage::Dataset;
use idebench::workflow::{Workflow, WorkflowType};
use std::sync::Arc;

fn flights(n: usize) -> Dataset {
    Dataset::Denormalized(Arc::new(idebench::datagen::flights::generate(n, 13)))
}

fn star(n: usize) -> Dataset {
    let t = idebench::datagen::flights::generate(n, 13);
    idebench::datagen::normalize_flights(&t).unwrap()
}

fn carrier_count(name: &str) -> VizSpec {
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
    Settings::default()
        .with_time_requirement_ms(1_000)
        .with_think_time_ms(0)
        .with_execution(ExecutionMode::Virtual { work_rate: 1e5 })
}

#[test]
fn every_engine_runs_star_schemas_through_the_driver() {
    // The paper's IDEA and System X rejected normalized data; with the
    // join-devirtualization layer every engine runs it (the virtual cost
    // model still charges the logical joins).
    let ds = star(2_000);
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz {
            viz: carrier_count("a"),
        }],
    );
    let driver = BenchmarkDriver::new(settings());
    let progressive = ProgressiveAdapter::service(ProgressiveConfig::default());
    assert!(driver.run_workflow(&progressive, &ds, &wf).is_ok());
    let stratified = StratifiedAdapter::with_defaults().into_service();
    assert!(driver.run_workflow(&stratified, &ds, &wf).is_ok());
    let exact = ExactAdapter::with_defaults().into_service();
    assert!(driver.run_workflow(&exact, &ds, &wf).is_ok());
    let wander = WanderAdapter::with_defaults().into_service();
    assert!(driver.run_workflow(&wander, &ds, &wf).is_ok());
}

#[test]
fn unknown_column_in_workflow_surfaces_as_error() {
    let ds = flights(1_000);
    let bad_viz = VizSpec::new(
        "bad",
        "flights",
        vec![BinDef::Nominal {
            dimension: "ghost_column".into(),
        }],
        vec![AggregateSpec::count()],
    );
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz { viz: bad_viz }],
    );
    let driver = BenchmarkDriver::new(settings());
    // The ground-truth executor rejects the query; engines would panic on
    // an unvalidated query, so validate through the exact path first.
    let q = Query::for_viz(&carrier_count("ok"), None);
    assert!(idebench::query::execute_exact(&ds, &q).is_ok());
    let bad_q = Query::for_viz(
        &VizSpec::new(
            "bad",
            "flights",
            vec![BinDef::Nominal {
                dimension: "ghost_column".into(),
            }],
            vec![AggregateSpec::count()],
        ),
        None,
    );
    assert!(idebench::query::execute_exact(&ds, &bad_q).is_err());
    let _ = (wf, driver);
}

#[test]
fn filter_matching_nothing_yields_empty_but_valid_result() {
    let ds = flights(5_000);
    let q = Query::for_viz(
        &carrier_count("v"),
        Some(FilterExpr::Pred(Predicate::Range {
            column: "dep_delay".into(),
            min: 1e9,
            max: 2e9,
        })),
    );
    let result = idebench::query::execute_exact(&ds, &q).unwrap();
    assert_eq!(result.bins_delivered(), 0);
    assert!(result.exact);
    // Metrics against an empty ground truth are well-defined.
    let m = idebench::core::Metrics::evaluate(&result, &result);
    assert_eq!(m.missing_bins, 0.0);
}

#[test]
fn full_rate_stratified_sample_returns_exact_results() {
    let ds = flights(3_000);
    let mut adapter = StratifiedAdapter::new(StratifiedConfig {
        sampling_rate: 1.0,
        ..StratifiedConfig::default()
    });
    adapter.prepare(&ds, &settings()).unwrap();
    let q = Query::for_viz(&carrier_count("v"), None);
    let mut h = adapter.submit(&q);
    while !h.step(1_000_000).is_done() {}
    let snap = h.snapshot().unwrap();
    // A 100% "sample" is the population: estimates collapse to exact.
    assert!(snap.exact);
    assert_eq!(snap, idebench::query::execute_exact(&ds, &q).unwrap());
}

#[test]
fn cache_layer_does_not_cache_partial_results() {
    // Wrapping the *progressive* engine: snapshots below 100% are
    // approximate and must not be served as cached exact answers.
    let ds = flights(200_000);
    let mut adapter = CachingAdapter::with_defaults(ProgressiveAdapter::new(ProgressiveConfig {
        first_query_warmup_s: 0.0,
        ..ProgressiveConfig::default()
    }));
    adapter.prepare(&ds, &settings()).unwrap();
    let q = Query::for_viz(&carrier_count("v"), None);
    let mut h = adapter.submit(&q);
    // Overhead is 1.5 s × 1e5 = 150k units; grant only a little more, so
    // the inner scan (200k rows × ~1.35 units) is far from complete.
    h.step(200_000);
    assert!(!h.is_done());
    drop(h);
    assert_eq!(adapter.cached_results(), 0, "partial result must not cache");

    // Run a second submission to completion: the exact result does cache.
    let mut h2 = adapter.submit(&q);
    while !h2.step(1_000_000).is_done() {}
    drop(h2);
    assert_eq!(adapter.cached_results(), 1);
}

#[test]
fn speculation_cap_bounds_memory() {
    let ds = flights(50_000);
    let mut adapter = idebench::engine_progressive::ProgressiveAdapter::new(ProgressiveConfig {
        enable_speculation: true,
        first_query_warmup_s: 0.0,
        max_speculative_runs: 5,
        ..ProgressiveConfig::default()
    });
    adapter.prepare(&ds, &settings()).unwrap();
    // Source with 120 airports → 120 possible selections, capped at 5.
    let source = VizSpec::new(
        "src",
        "flights",
        vec![BinDef::Nominal {
            dimension: "origin".into(),
        }],
        vec![AggregateSpec::count()],
    );
    let sq = Query::for_viz(&source, None);
    let mut h = adapter.submit(&sq);
    while !h.step(10_000_000).is_done() {}
    drop(h);
    let target = Query::for_viz(&carrier_count("tgt"), None);
    adapter.on_link(&sq, &target);
    assert!(adapter.pending_speculative() <= 5);
}

#[test]
fn empty_workflow_is_a_noop() {
    let ds = flights(100);
    let wf = Workflow::new("w", WorkflowType::Independent, vec![]);
    let driver = BenchmarkDriver::new(settings());
    let service = ExactAdapter::with_defaults().into_service();
    let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
    assert!(outcome.query_results.is_empty());
    assert_eq!(outcome.total_ms, 0.0);
}

#[test]
fn min_max_aggregates_supported_end_to_end() {
    let ds = flights(5_000);
    let viz = VizSpec::new(
        "v",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![
            AggregateSpec::over(AggFunc::Min, "dep_delay"),
            AggregateSpec::over(AggFunc::Max, "dep_delay"),
        ],
    );
    let q = Query::for_viz(&viz, None);
    let gt = idebench::query::execute_exact(&ds, &q).unwrap();
    for stats in gt.bins.values() {
        assert!(stats.values[0] <= stats.values[1], "min ≤ max");
    }
    // The progressive engine estimates min/max as observed extrema.
    let mut adapter = ProgressiveAdapter::new(ProgressiveConfig {
        first_query_warmup_s: 0.0,
        ..ProgressiveConfig::default()
    });
    adapter.prepare(&ds, &settings()).unwrap();
    let mut h = adapter.submit(&q);
    h.step(2_000);
    let partial = h.snapshot().unwrap();
    for (key, stats) in &partial.bins {
        let truth = &gt.bins[key];
        // Observed extrema never exceed the true extrema.
        assert!(stats.values[0] >= truth.values[0] - 1e-9);
        assert!(stats.values[1] <= truth.values[1] + 1e-9);
    }
}

#[test]
fn tiny_datasets_complete_instantly_without_violations() {
    let ds = flights(10);
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz {
            viz: carrier_count("a"),
        }],
    );
    let driver = BenchmarkDriver::new(settings());
    for name in ["exact", "wander"] {
        let service = match name {
            "exact" => ExactAdapter::with_defaults().into_service(),
            _ => WanderAdapter::with_defaults().into_service(),
        };
        let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
        let m = &outcome.query_results[0];
        assert!(!m.tr_violated, "{name} on 10 rows");
        assert!(m.result.is_some());
    }
}
