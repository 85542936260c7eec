//! Quickstart: generate data, generate a workload, benchmark an engine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use idebench::prelude::*;
use idebench_query::CachedGroundTruth;
use std::sync::Arc;

fn main() {
    // 1. A small flights dataset (the paper's default data, §4.2).
    let table = idebench::datagen::flights::generate(200_000, 42);
    println!(
        "dataset: {} rows x {} columns",
        table.num_rows(),
        table.num_columns()
    );
    let dataset = Dataset::Denormalized(Arc::new(table));

    // 2. One mixed workflow of 12 interactions (§4.3).
    let workflow = WorkflowGenerator::new(WorkflowType::Mixed, 7).generate(12);
    println!("\n{}", workflow.render_text());

    // 3. Benchmark the progressive engine under a 500 ms time requirement.
    let settings = Settings::default()
        .with_time_requirement_ms(500)
        .with_think_time_ms(1_000);
    let driver = BenchmarkDriver::new(settings);
    let service = idebench::engine_progressive::ProgressiveAdapter::service(
        idebench::engine_progressive::ProgressiveConfig::default(),
    );
    let outcome = driver
        .run_workflow(&service, &dataset, &workflow)
        .expect("workflow runs");

    // 4. Evaluate against exact ground truth and print the reports (§4.7/4.8).
    let mut gt = CachedGroundTruth::new(dataset.clone());
    let detailed = DetailedReport::from_outcome(&outcome, &mut gt);
    let summary = SummaryReport::from_detailed(&detailed);
    println!("{}", summary.render_text());
    println!(
        "first rows of the detailed report:\n{}",
        detailed
            .to_csv()
            .lines()
            .take(6)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
