//! **Table 1 (paper appendix A.1):** the detailed per-query report for a
//! single workflow.
//!
//! Runs one mixed workflow on the progressive engine with the paper's
//! Table-1 configuration (TR = 0.5 s, think time 3 s, size M) and prints
//! the report as CSV, mirroring Table 1's columns.

use idebench_bench::{default_workflows, flights_dataset, service_by_name, ExpArgs};
use idebench_core::{BenchmarkDriver, DetailedReport};
use idebench_query::CachedGroundTruth;
use idebench_workflow::WorkflowType;

fn main() {
    let args = ExpArgs::parse();
    let rows = args.rows('M');
    println!("detailed report: one mixed workflow, {rows} rows, TR=0.5s, think=3s\n");
    let dataset = flights_dataset(rows, args.seed);
    let mut gt = CachedGroundTruth::new(dataset.clone());
    let workflow = &default_workflows(WorkflowType::Mixed, args.seed, 1, 20)[0];

    let settings = args
        .settings()
        .with_time_requirement_ms(500)
        .with_think_time_ms(3_000);
    let driver = BenchmarkDriver::new(settings);
    let service = service_by_name("progressive");
    let outcome = driver
        .run_workflow(service.as_ref(), &dataset, workflow)
        .expect("workflow runs");
    let report = DetailedReport::from_outcome(&outcome, &mut gt);
    print!("{}", report.to_csv());

    std::fs::create_dir_all(&args.out_dir).expect("create output dir");
    let path = args.out_dir.join("detailed_report.csv");
    std::fs::write(&path, report.to_csv()).expect("write csv");
    eprintln!("\n[wrote {}]", path.display());
    args.write_json("detailed_report.json", &report);
}
