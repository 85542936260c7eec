//! Driver-semantics integration tests: time-requirement enforcement, think
//! time, link fan-out, and cancellation, observed through a real engine.

use idebench::core::spec::{AggregateSpec, BinDef, SelCoord, Selection};
use idebench::core::{BenchmarkDriver, ExecutionMode, Interaction, Settings, VizSpec};
use idebench::engine_exact::ExactAdapter;
use idebench::engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench::storage::Dataset;
use idebench::workflow::{Workflow, WorkflowType};
use std::sync::Arc;

const ROWS: usize = 50_000;

fn dataset() -> Dataset {
    Dataset::Denormalized(Arc::new(idebench::datagen::flights::generate(ROWS, 21)))
}

fn settings(tr_ms: u64, think_ms: u64) -> Settings {
    Settings::default()
        .with_time_requirement_ms(tr_ms)
        .with_think_time_ms(think_ms)
        .with_execution(ExecutionMode::Virtual { work_rate: 1e4 })
}

fn carrier_viz(name: &str) -> VizSpec {
    VizSpec::new(
        name,
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::count()],
    )
}

#[test]
fn cancelled_queries_end_exactly_at_the_time_requirement() {
    // Full scans cost ≈ ROWS x 1.5 units ≈ 7.5 virtual s at 10k units/s.
    let ds = dataset();
    let driver = BenchmarkDriver::new(settings(1_000, 0));
    let service = ExactAdapter::with_defaults().into_service();
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz {
            viz: carrier_viz("a"),
        }],
    );
    let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
    let m = &outcome.query_results[0];
    assert!(m.tr_violated);
    let elapsed = m.end_ms - m.start_ms;
    assert!(
        (elapsed - 1_000.0).abs() < 2.0,
        "cancellation at the TR boundary, got {elapsed} ms"
    );
}

#[test]
fn completed_queries_record_true_latency() {
    let ds = dataset();
    let driver = BenchmarkDriver::new(settings(60_000, 0));
    let service = ExactAdapter::with_defaults().into_service();
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz {
            viz: carrier_viz("a"),
        }],
    );
    let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
    let m = &outcome.query_results[0];
    assert!(!m.tr_violated);
    let elapsed = m.end_ms - m.start_ms;
    assert!(
        elapsed > 1_000.0 && elapsed < 60_000.0,
        "latency recorded, got {elapsed} ms"
    );
}

#[test]
fn think_time_advances_clock_between_interactions() {
    let ds = dataset();
    let driver = BenchmarkDriver::new(settings(500, 2_000));
    let service = ProgressiveAdapter::service(ProgressiveConfig::default());
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![
            Interaction::CreateViz {
                viz: carrier_viz("a"),
            },
            Interaction::CreateViz {
                viz: carrier_viz("b"),
            },
        ],
    );
    let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
    let first = &outcome.query_results[0];
    let second = &outcome.query_results[1];
    // Second interaction starts after first query (≤ TR) + think time.
    let gap = second.start_ms - first.start_ms;
    assert!(
        (gap - (500.0 + 2_000.0)).abs() < 2.0,
        "expected TR + think gap, got {gap} ms"
    );
    assert!((outcome.total_ms - 2.0 * 2_500.0).abs() < 4.0);
}

#[test]
fn selection_on_linked_vizs_triggers_concurrent_updates() {
    let ds = dataset();
    let driver = BenchmarkDriver::new(settings(500, 100));
    let service = ProgressiveAdapter::service(ProgressiveConfig::default());
    let wf = Workflow::new(
        "w",
        WorkflowType::OneToN,
        vec![
            Interaction::CreateViz {
                viz: carrier_viz("hub"),
            },
            Interaction::CreateViz {
                viz: carrier_viz("t1"),
            },
            Interaction::CreateViz {
                viz: carrier_viz("t2"),
            },
            Interaction::Link {
                source: "hub".into(),
                target: "t1".into(),
            },
            Interaction::Link {
                source: "hub".into(),
                target: "t2".into(),
            },
            Interaction::Select {
                viz: "hub".into(),
                selection: Some(Selection {
                    bins: vec![vec![SelCoord::Category("C00".into())]],
                }),
            },
        ],
    );
    let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
    let last: Vec<_> = outcome
        .query_results
        .iter()
        .filter(|m| m.interaction_id == 5)
        .collect();
    assert_eq!(last.len(), 2, "both targets update");
    assert!(last.iter().all(|m| m.concurrent == 2));
    // Both updates carry the selection filter.
    assert!(last.iter().all(|m| m.query.filter_specificity() == 1));
    // Parallel lanes: both share the same start timestamp.
    assert_eq!(last[0].start_ms, last[1].start_ms);
}

#[test]
fn progressive_results_complete_under_generous_tr() {
    let ds = dataset();
    let driver = BenchmarkDriver::new(settings(30_000, 0));
    let service = ProgressiveAdapter::service(ProgressiveConfig::default());
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz {
            viz: carrier_viz("a"),
        }],
    );
    let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
    let result = outcome.query_results[0].result.as_ref().expect("snapshot");
    assert!(result.exact, "full scan converges to exact");
    assert_eq!(result.processed_fraction, 1.0);
}

#[test]
fn concurrency_penalty_slows_concurrent_lanes() {
    // With contention enabled, the 1:N fan-out processes less data per
    // lane within the same TR; with the default 0 penalty lanes are free.
    let ds = dataset();
    let wf = Workflow::new(
        "w",
        WorkflowType::OneToN,
        vec![
            Interaction::CreateViz {
                viz: carrier_viz("hub"),
            },
            Interaction::CreateViz {
                viz: carrier_viz("t1"),
            },
            Interaction::CreateViz {
                viz: carrier_viz("t2"),
            },
            Interaction::Link {
                source: "hub".into(),
                target: "t1".into(),
            },
            Interaction::Link {
                source: "hub".into(),
                target: "t2".into(),
            },
            Interaction::Select {
                viz: "hub".into(),
                selection: Some(Selection {
                    bins: vec![vec![SelCoord::Category("C00".into())]],
                }),
            },
        ],
    );
    let mut fractions = Vec::new();
    for penalty in [0.0, 1.0] {
        let mut settings = settings(500, 0);
        settings.concurrency_penalty = penalty;
        let driver = BenchmarkDriver::new(settings);
        let service = ProgressiveAdapter::service(ProgressiveConfig::default());
        let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
        let last = outcome
            .query_results
            .iter()
            .rfind(|m| m.interaction_id == 5)
            .unwrap();
        fractions.push(last.result.as_ref().map_or(0.0, |r| r.processed_fraction));
        // Elapsed time still capped at the TR.
        assert!(last.end_ms - last.start_ms <= 500.0 + 1e-6);
    }
    // penalty 1.0 with 2 concurrent lanes halves the work budget.
    assert!(
        fractions[1] < fractions[0] * 0.7,
        "contention must reduce processed fraction: {fractions:?}"
    );
}

#[test]
fn wall_clock_mode_runs_and_measures() {
    // Wall mode smoke test: tiny dataset so this finishes instantly.
    let ds = Dataset::Denormalized(Arc::new(idebench::datagen::flights::generate(2_000, 3)));
    let settings = Settings::default()
        .with_time_requirement_ms(2_000)
        .with_think_time_ms(0)
        .with_execution(ExecutionMode::Wall);
    let driver = BenchmarkDriver::new(settings);
    let service = ExactAdapter::with_defaults().into_service();
    let wf = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz {
            viz: carrier_viz("a"),
        }],
    );
    let outcome = driver.run_workflow(&service, &ds, &wf).unwrap();
    let m = &outcome.query_results[0];
    assert!(!m.tr_violated, "2k rows complete within a 2s wall TR");
    assert!(m.result.is_some());
    assert!(m.end_ms >= m.start_ms);
}
