//! **Experiment 2 (paper §5.3, Figure 6e):** normalized vs de-normalized
//! schemas.
//!
//! Compares the exact (MonetDB-class) and wander (XDB-class) engines on the
//! S and M dataset scales, each in de-normalized form and normalized into
//! the carriers/airports star schema, and prints the TR-violation ratios.
//! Expected shape (paper): both systems slightly better normalized; the
//! exact engine's violations grow with size while the wander engine's stay
//! roughly level thanks to online joins.
//!
//! **Reproduction extension:** the paper excluded IDEA and System X here
//! because they rejected normalized data. Our progressive and stratified
//! engines run star schemas through the join-devirtualization layer (the
//! virtual cost model still bills every logical join), so the sweep covers
//! them too — rows the paper could not measure.

use idebench_bench::{
    default_workflows, flights_dataset, run_workflows, service_by_name, star_dataset, ExpArgs,
};
use idebench_core::{DetailedReport, SummaryReport};
use idebench_workflow::WorkflowType;

/// The paper's Exp-2 roster plus the engines the paper had to exclude
/// (their originals rejected normalized data; ours run it).
const SYSTEMS: [&str; 4] = ["exact", "wander", "progressive", "stratified"];

fn main() {
    let args = ExpArgs::parse();
    println!("exp2: normalized vs de-normalized, TR=3s, systems {SYSTEMS:?}");
    let workflows = default_workflows(WorkflowType::Mixed, args.seed, 10, 18);

    println!(
        "\n{:<10} {:<8} {:<14} {:>8} {:>12}",
        "system", "scale", "schema", "queries", "%TR_violated"
    );
    let mut results = Vec::new();
    for scale in ['S', 'M'] {
        let rows = args.rows(scale);
        let denorm = flights_dataset(rows, args.seed);
        let star = star_dataset(&denorm);
        for (schema_label, dataset, use_joins) in [
            ("denormalized", &denorm, false),
            ("normalized", &star, true),
        ] {
            let mut gt = idebench_bench::parallel_ground_truth(dataset, &workflows)
                .expect("workload queries bind against the dataset");
            for system in SYSTEMS {
                let settings = args
                    .settings()
                    .with_time_requirement_ms(3_000)
                    .with_think_time_ms(1_000)
                    .with_joins(use_joins);
                let service = service_by_name(system);
                let report =
                    run_workflows(service.as_ref(), dataset, &workflows, &settings, &mut gt)
                        .unwrap_or_else(|e| panic!("{system} {schema_label} {scale}: {e}"));
                let summary = SummaryReport::from_detailed(&report);
                let row = &summary.rows[0];
                println!(
                    "{:<10} {:<8} {:<14} {:>8} {:>12.1}",
                    system, scale, schema_label, row.queries, row.pct_tr_violated
                );
                results.push(serde_json::json!({
                    "system": system,
                    "scale": scale.to_string(),
                    "schema": schema_label,
                    "pct_tr_violated": row.pct_tr_violated,
                    "mean_missing_bins": row.mean_missing_bins,
                }));
                let _ = DetailedReport::merged([report]);
            }
        }
        eprintln!("  done: scale {scale}");
    }
    args.write_json("exp2_joins.json", &results);
}
