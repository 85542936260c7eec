//! Customizability end-to-end (paper §3.2): benchmark a *different* dataset
//! without writing any schema glue — infer the workload profile straight
//! from the table and run the standard pipeline on it.
//!
//! ```sh
//! cargo run --release --example custom_dataset
//! ```

use idebench::core::ExecutionMode;
use idebench::prelude::*;
use idebench::query::CachedGroundTruth;
use idebench::workflow::{DataProfile, GeneratorConfig};
use std::sync::Arc;

fn main() {
    // A dataset the benchmark has never seen: e-commerce orders.
    let table = idebench::datagen::orders::generate(150_000, 77);
    println!(
        "dataset: {} ({} rows x {} columns)",
        table.name(),
        table.num_rows(),
        table.num_columns()
    );

    // Infer the exploration profile: which columns are dimensions, their
    // category domains, sensible bin widths.
    let profile = DataProfile::infer(&table, 25, 64);
    println!("\ninferred profile:");
    for dim in &profile.dimensions {
        match dim {
            idebench::workflow::DimensionProfile::Nominal { name, categories } => {
                println!("  {name:<12} nominal, {} categories", categories.len());
            }
            idebench::workflow::DimensionProfile::Quantitative {
                name,
                bin_width,
                min,
                max,
                measure,
                ..
            } => {
                println!(
                    "  {name:<12} quantitative [{min:.1}, {max:.1}] width {bin_width}{}",
                    if *measure { ", measure" } else { "" }
                );
            }
        }
    }

    // Generate workloads against the inferred profile and benchmark two
    // engines on them.
    let dataset = Dataset::Denormalized(Arc::new(table));
    let generator = idebench::workflow::WorkflowGenerator::with_profile(
        WorkflowType::Mixed,
        7,
        profile,
        GeneratorConfig::default(),
    );
    let workflows = generator.generate_batch(3, 12);

    let settings = Settings::default()
        .with_time_requirement_ms(1_000)
        .with_execution(ExecutionMode::Virtual { work_rate: 1e5 });
    let driver = BenchmarkDriver::new(settings);
    let mut gt = CachedGroundTruth::new(dataset.clone());
    let mut reports = Vec::new();
    let services = [
        idebench::engine_exact::ExactAdapter::with_defaults().into_service(),
        idebench::engine_progressive::ProgressiveAdapter::service(
            idebench::engine_progressive::ProgressiveConfig::default(),
        ),
    ];
    for service in &services {
        for wf in &workflows {
            let outcome = driver
                .run_workflow(service, &dataset, wf)
                .expect("workflow runs");
            reports.push(DetailedReport::from_outcome(&outcome, &mut gt));
        }
    }
    let merged = DetailedReport::merged(reports);
    println!("\n{}", SummaryReport::from_detailed(&merged).render_text());
}
