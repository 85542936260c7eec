//! **Experiment 3 (paper §5.4, Figure 6f):** varying think time with
//! speculative execution.
//!
//! Reproduces the paper's custom four-interaction workflow:
//! 1. create a 2D count histogram (100 bins) of arrival vs departure delays,
//! 2. create a 1D count histogram of carriers,
//! 3. link 1D → 2D,
//! 4. select a single carrier, forcing the 2D histogram to update.
//!
//! The progressive engine (with its speculative-execution extension) uses
//! the think time between interactions to pre-execute the 2D query for
//! every possible carrier selection; the missing-bins ratio of the final
//! update therefore falls as think time grows.

use idebench_bench::{flights_dataset, ExpArgs, ExpContext};
use idebench_core::spec::{AggregateSpec, BinDef, SelCoord, Selection};
use idebench_core::{Interaction, VizSpec};
use idebench_workflow::{Workflow, WorkflowType};

/// The fixed §5.4 workflow.
///
/// The 2D histogram uses fixed-width 15-minute delay bins rather than a
/// min/max-derived 10×10 grid: the flights delay distribution is heavy-
/// tailed, so a min/max grid would collapse nearly all mass into a couple
/// of cells, whereas the paper's 2D delay histograms have on the order of
/// a thousand ground-truth bins (Table 1, row 3).
fn think_time_workflow() -> Workflow {
    let viz2d = VizSpec::new(
        "viz_2d",
        "flights",
        vec![
            BinDef::Width {
                dimension: "arr_delay".into(),
                width: 15.0,
                anchor: 0.0,
            },
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 15.0,
                anchor: 0.0,
            },
        ],
        vec![AggregateSpec::count()],
    );
    let viz1d = VizSpec::new(
        "viz_carriers",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::count()],
    );
    Workflow::new(
        "think_time",
        WorkflowType::OneToN,
        vec![
            Interaction::CreateViz { viz: viz2d },
            Interaction::CreateViz { viz: viz1d },
            Interaction::Link {
                source: "viz_carriers".into(),
                target: "viz_2d".into(),
            },
            Interaction::Select {
                viz: "viz_carriers".into(),
                selection: Some(Selection {
                    bins: vec![vec![SelCoord::Category("C00".into())]],
                }),
            },
        ],
    )
}

fn main() {
    let args = ExpArgs::parse();
    let rows = args.rows('M');
    println!("exp3: think-time sweep, {rows} rows, TR=3s, progressive engine");
    let dataset = flights_dataset(rows, args.seed);
    let mut ctx = ExpContext::with_workload(args, dataset, vec![think_time_workflow()]);

    println!(
        "\n{:<12} {:>16} {:>16}",
        "think(s)", "missing(spec)", "missing(no-spec)"
    );
    let mut series = Vec::new();
    for think_s in 1..=10u64 {
        let mut row = serde_json::Map::new();
        row.insert("think_s".into(), serde_json::json!(think_s));
        let mut cells = Vec::new();
        for (label, system) in [("spec", "progressive+spec"), ("nospec", "progressive")] {
            let settings = ctx
                .args
                .settings()
                .with_time_requirement_ms(3_000)
                .with_think_time_ms(think_s * 1_000);
            let report = ctx
                .run_nth(system, &settings, 0)
                .unwrap_or_else(|e| panic!("{system} think={think_s}: {e}"));
            // The final query is the 2D update triggered by the selection.
            let last = report.rows.last().expect("final update exists");
            assert_eq!(last.viz_name, "viz_2d");
            cells.push(last.metrics.missing_bins);
            row.insert(
                format!("missing_bins_{label}"),
                serde_json::json!(last.metrics.missing_bins),
            );
        }
        println!("{:<12} {:>16.3} {:>16.3}", think_s, cells[0], cells[1]);
        series.push(serde_json::Value::Object(row));
    }
    ctx.args.write_json("exp3_think_time.json", &series);
}
