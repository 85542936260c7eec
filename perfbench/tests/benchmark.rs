//! Tests of the benchmark itself, at toy sizes: every metric is emitted with
//! its unit, the output-check hash is stable, and failing engines are
//! counted without aborting the run.

use idebench_core::service::ServiceCore;
use idebench_core::{CoreError, PrepStats, Query, QueryHandle, Settings, SystemAdapter};
use idebench_storage::Dataset;
use perfbench::run::{per_layer_catalog, END_TO_END};
use perfbench::workload::{paper_roster, EngineSpec};
use perfbench::{result_line, run, RunConfig, RunResult, Sizes, Workload};

fn toy(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        sizes: Sizes::toy(),
        ..RunConfig::new(workload, 7, 0.0, trace)
    }
}

fn names(result: &RunResult) -> Vec<(String, &'static str)> {
    result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect()
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let json: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
    json[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let end_to_end: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for workload in Workload::ALL {
        let untraced = run(&toy(workload, false));
        assert!(untraced.correct, "{:?}: {:?}", workload, untraced.problems);
        assert_eq!(names(&untraced), end_to_end);
        assert!(
            untraced.metrics.iter().all(|m| m.value > 0.0),
            "{untraced:?}"
        );
        assert!(untraced.attempted > 0 && untraced.failed == 0);

        let traced = run(&toy(workload, true));
        assert!(traced.correct, "{:?}: {:?}", workload, traced.problems);
        assert_eq!(names(&traced), per_layer_catalog());
        assert!(!traced.spans.is_empty());

        let line = result_line(&untraced);
        let json: serde_json::Value = serde_json::from_str(&line).expect("result line parses");
        let keys: Vec<&String> = json.as_object().expect("object").keys().collect();
        assert_eq!(keys.len(), 4);
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
    }
}

#[test]
fn declared_metrics_match_the_emitted_ones() {
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), end_to_end);
    let per_layer: Vec<(String, String)> = per_layer_catalog()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), per_layer);
}

#[test]
fn output_hash_is_stable_across_runs_and_tracing() {
    for workload in Workload::ALL {
        let first = run(&toy(workload, false));
        let second = run(&toy(workload, false));
        let traced = run(&toy(workload, true));
        assert_eq!(first.hash, second.hash, "{workload:?}");
        assert_eq!(
            first.hash, traced.hash,
            "{workload:?}: tracing changed results"
        );
    }
}

/// Fails every `prepare` with an error.
struct RefusesData;

impl SystemAdapter for RefusesData {
    fn name(&self) -> &str {
        "refuses"
    }

    fn prepare(&mut self, _: &Dataset, _: &Settings) -> Result<PrepStats, CoreError> {
        Err(CoreError::Unsupported("no data today".into()))
    }

    fn submit(&mut self, _: &Query) -> Box<dyn QueryHandle> {
        unreachable!("never prepared")
    }
}

/// Panics on the first query.
struct PanicsOnSubmit;

impl SystemAdapter for PanicsOnSubmit {
    fn name(&self) -> &str {
        "panics"
    }

    fn prepare(&mut self, _: &Dataset, _: &Settings) -> Result<PrepStats, CoreError> {
        Ok(PrepStats::default())
    }

    fn submit(&mut self, _: &Query) -> Box<dyn QueryHandle> {
        panic!("deliberate engine fault")
    }
}

#[test]
fn failing_engines_are_counted_and_do_not_abort_the_run() {
    let baseline = run(&toy(Workload::ExploreDenorm, false));
    let mut cfg = toy(Workload::ExploreDenorm, false);
    cfg.roster = vec![
        EngineSpec::new("refuses", |_| {
            ServiceCore::shared_adapter(RefusesData).into_shared()
        }),
        EngineSpec::new("panics", |_| {
            ServiceCore::shared_adapter(PanicsOnSubmit).into_shared()
        }),
    ];
    cfg.roster.extend(paper_roster());
    let faulty = run(&cfg);
    // Each faulty engine fails once per TR cell of every rep; the paper
    // engines' cells still run and produce exactly the fault-free reports.
    let reps = faulty.untraced_reps as u64;
    assert_eq!(faulty.failed, 2 * 2 * reps);
    assert!(faulty.attempted > faulty.failed);
    assert!(faulty.correct, "{:?}", faulty.problems);
    assert_eq!(faulty.hash, baseline.hash);
    let line = result_line(&faulty);
    assert!(line.contains(&format!("\"failed\":{}", faulty.failed)));
}
