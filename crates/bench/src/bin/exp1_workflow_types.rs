//! **Figure 6d (paper §5.2):** proportion of missing bins by system and
//! workflow type.
//!
//! Runs 10 workflows of each of the four patterns plus mixed against every
//! main system at the default TR = 3 s and prints the missing-bins matrix.

use idebench_bench::{
    default_workflows, flights_dataset, run_workflows, service_by_name, ExpArgs, MAIN_SYSTEMS,
};
use idebench_core::{DetailedReport, SummaryReport};
use idebench_workflow::WorkflowType;

fn main() {
    let args = ExpArgs::parse();
    let rows = args.rows('M');
    println!("exp1d: workflow-type breakdown, {rows} rows, TR=3s");
    let dataset = flights_dataset(rows, args.seed);
    let all_workflows: Vec<_> = WorkflowType::ALL
        .iter()
        .flat_map(|k| default_workflows(*k, args.seed, 10, 18))
        .collect();
    eprintln!("precomputing ground truth on all cores...");
    let mut gt = idebench_bench::parallel_ground_truth(&dataset, &all_workflows)
        .expect("workload queries bind against the dataset");

    let mut all = Vec::new();
    for kind in WorkflowType::ALL {
        let workflows = default_workflows(kind, args.seed, 10, 18);
        for system in MAIN_SYSTEMS {
            let settings = args
                .settings()
                .with_time_requirement_ms(3_000)
                .with_think_time_ms(1_000);
            let service = service_by_name(system);
            let report = run_workflows(service.as_ref(), &dataset, &workflows, &settings, &mut gt)
                .unwrap_or_else(|e| panic!("{system} {kind:?}: {e}"));
            all.push(report);
        }
        eprintln!("  done: {}", kind.label());
    }
    let merged = DetailedReport::merged(all);
    let by_kind = SummaryReport::from_detailed_by_kind(&merged);

    println!("\n=== Figure 6d: mean missing bins by system x workflow type ===");
    print!("{:<14}", "system");
    for kind in WorkflowType::ALL {
        print!(" {:>12}", kind.label());
    }
    println!();
    for system in MAIN_SYSTEMS {
        print!("{system:<14}");
        for kind in WorkflowType::ALL {
            let cell = by_kind
                .rows
                .iter()
                .find(|r| r.system == system && r.workflow_kind == kind.label())
                .map_or(f64::NAN, |r| r.mean_missing_bins);
            print!(" {cell:>12.3}");
        }
        println!();
    }
    args.write_json("exp1_workflow_types.json", &by_kind);
}
