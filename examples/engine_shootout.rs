//! Engine shoot-out: the same workload on all five system categories.
//!
//! Mirrors the paper's Figure-5 comparison at example scale: one mixed
//! workflow, one time requirement, five engines — blocking-exact,
//! progressive, offline-stratified, wander-join, and the System-Y-style
//! middleware layer.
//!
//! ```sh
//! cargo run --release --example engine_shootout
//! ```

use idebench::prelude::*;
use idebench_engine_cache::{CacheConfig, CachingAdapter};
use idebench_engine_exact::ExactAdapter;
use idebench_engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench_engine_stratified::StratifiedAdapter;
use idebench_engine_wander::WanderAdapter;
use idebench_query::CachedGroundTruth;
use std::sync::Arc;

fn main() {
    let table = idebench::datagen::flights::generate(300_000, 11);
    let dataset = Dataset::Denormalized(Arc::new(table));
    let workflows: Vec<_> = (0..3)
        .map(|i| WorkflowGenerator::new(WorkflowType::Mixed, 100 + i).generate(15))
        .collect();
    let settings = Settings::default()
        .with_time_requirement_ms(1_000)
        .with_execution(idebench::core::ExecutionMode::Virtual { work_rate: 1e5 });

    let mut gt = CachedGroundTruth::new(dataset.clone());
    // One service per engine, built once: its workflows run back to back
    // as one analyst, keeping the engine's warm state between them.
    let services = [
        ExactAdapter::with_defaults().into_service(),
        ProgressiveAdapter::service(ProgressiveConfig::default()),
        StratifiedAdapter::with_defaults().into_service(),
        WanderAdapter::with_defaults().into_service(),
        CachingAdapter::service(CacheConfig::default(), |_| ExactAdapter::with_defaults()),
    ];

    let driver = BenchmarkDriver::new(settings);
    let mut reports = Vec::new();
    for service in &services {
        for wf in &workflows {
            let outcome = driver
                .run_workflow(service, &dataset, wf)
                .expect("workflow runs");
            reports.push(DetailedReport::from_outcome(&outcome, &mut gt));
        }
    }
    let merged = DetailedReport::merged(reports);
    let summary = SummaryReport::from_detailed(&merged);
    println!("{}", summary.render_text());
    println!("(TR = 1s; exact violates or answers perfectly, progressive always answers");
    println!(" approximately, stratified answers from its offline sample, wander answers");
    println!(" COUNT/SUM online and blocks otherwise, cache+exact adds per-query overhead.)");
}
