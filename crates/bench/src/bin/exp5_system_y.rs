//! **Experiment 5 (paper §5.6):** the System-Y middleware layer.
//!
//! The paper replicated three variants of the 1:N workflow on a commercial
//! IDE system backed by MonetDB and found it "renders and updates the
//! visualizations roughly at the same speed as when one uses MonetDB
//! directly, with an added delay of about 1–2 s per query" and no
//! prefetching. This binary runs the same comparison: the exact engine bare
//! vs wrapped in the caching/overhead layer, on three 1:N workflow
//! variants, reporting mean per-query latency.

use idebench_bench::{default_workflows, flights_dataset, ExpArgs, ExpContext};
use idebench_workflow::WorkflowType;

fn main() {
    let args = ExpArgs::parse();
    let rows = args.rows('M');
    println!("exp5: System-Y layer vs bare exact engine, {rows} rows, TR=10s");
    let dataset = flights_dataset(rows, args.seed);
    // Three variants of the 1:N workflow (three seeds).
    let workflows = default_workflows(WorkflowType::OneToN, args.seed, 3, 12);
    let mut ctx = ExpContext::with_workload(args, dataset, workflows);

    println!(
        "\n{:<12} {:<14} {:>9} {:>14} {:>12}",
        "workflow", "system", "queries", "mean_lat(ms)", "%TR_violated"
    );
    let mut results = Vec::new();
    let mut mean_latency = std::collections::BTreeMap::<String, Vec<f64>>::new();
    for wf_idx in 0..ctx.workflows.len() {
        for system in ["exact", "system_y"] {
            // TR = 10 s so queries complete and latency is comparable.
            let settings = ctx
                .args
                .settings()
                .with_time_requirement_ms(10_000)
                .with_think_time_ms(1_000);
            let report = ctx
                .run_nth(system, &settings, wf_idx)
                .unwrap_or_else(|e| panic!("{system}: {e}"));
            let wf_name = ctx.workflows[wf_idx].name.clone();
            let lats: Vec<f64> = report
                .rows
                .iter()
                .map(|r| r.end_time - r.start_time)
                .collect();
            let mean_lat = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
            let violated = report.rows.iter().filter(|r| r.tr_violated).count();
            let pct = violated as f64 / report.rows.len().max(1) as f64 * 100.0;
            println!(
                "{:<12} {:<14} {:>9} {:>14.0} {:>12.1}",
                wf_name,
                system,
                report.rows.len(),
                mean_lat,
                pct
            );
            mean_latency
                .entry(system.to_string())
                .or_default()
                .push(mean_lat);
            results.push(serde_json::json!({
                "workflow": wf_name,
                "system": system,
                "mean_latency_ms": mean_lat,
                "pct_tr_violated": pct,
            }));
        }
    }
    let bare = mean_latency["exact"].iter().sum::<f64>() / 3.0;
    let layered = mean_latency["system_y"].iter().sum::<f64>() / 3.0;
    println!(
        "\nmean added delay per query: {:.0} ms (paper: ~1-2 s per query)",
        layered - bare
    );
    ctx.args.write_json("exp5_system_y.json", &results);
}
