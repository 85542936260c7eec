//! The paper's §2.1 use case, replayed as a hand-written workflow.
//!
//! Jean explores patient admissions; we mirror her session on the flights
//! data (the benchmark's default): overview histograms, a drill-down into
//! evening departures, cross-filtering by carrier, and a linked 2D delay
//! view — demonstrating hand-authored workflows, linking semantics, and
//! per-interaction inspection of results.
//!
//! ```sh
//! cargo run --release --example hospital_dashboard
//! ```

use idebench::core::spec::{
    AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate, SelCoord, Selection,
};
use idebench::core::{GroundTruthProvider, Interaction, VizSpec};
use idebench::prelude::*;
use idebench_query::CachedGroundTruth;
use std::sync::Arc;

fn main() {
    let table = idebench::datagen::flights::generate(250_000, 3);
    let dataset = Dataset::Denormalized(Arc::new(table));

    // "Jean starts out by examining demographic information…": an overview
    // histogram of departure times (admits per hour of day in the paper).
    let dep_hours = VizSpec::new(
        "dep_hours",
        "flights",
        vec![BinDef::Width {
            dimension: "dep_time".into(),
            width: 1.0,
            anchor: 0.0,
        }],
        vec![AggregateSpec::count()],
    );
    // A carrier breakdown (the "admissions by department" analogue).
    let by_carrier = VizSpec::new(
        "by_carrier",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "dep_delay"),
        ],
    );
    // The detail view Jean drills into: 2D delays.
    let delays_2d = VizSpec::new(
        "delays_2d",
        "flights",
        vec![
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 15.0,
                anchor: 0.0,
            },
            BinDef::Width {
                dimension: "arr_delay".into(),
                width: 15.0,
                anchor: 0.0,
            },
        ],
        vec![AggregateSpec::count()],
    );

    let workflow = Workflow::new(
        "jean_session",
        WorkflowType::Mixed,
        vec![
            Interaction::CreateViz { viz: dep_hours },
            Interaction::CreateViz { viz: by_carrier },
            Interaction::CreateViz { viz: delays_2d },
            // "She filters down to admits coming from the emergency center":
            // restrict the carrier view to evening departures.
            Interaction::SetFilter {
                viz: "by_carrier".into(),
                filter: Some(FilterExpr::Pred(Predicate::Range {
                    column: "dep_time".into(),
                    min: 19.0,
                    max: 22.0,
                })),
            },
            // "Who are these patients?": link the carrier view into the 2D
            // delay view and brush the dominant carrier.
            Interaction::Link {
                source: "by_carrier".into(),
                target: "delays_2d".into(),
            },
            Interaction::Select {
                viz: "by_carrier".into(),
                selection: Some(Selection {
                    bins: vec![vec![SelCoord::Category("C00".into())]],
                }),
            },
        ],
    );
    println!("{}", workflow.render_text());

    let settings = Settings::default()
        .with_time_requirement_ms(2_000)
        .with_execution(idebench::core::ExecutionMode::Virtual { work_rate: 1e5 });
    let driver = BenchmarkDriver::new(settings);
    let service = idebench::engine_progressive::ProgressiveAdapter::service(
        idebench::engine_progressive::ProgressiveConfig::default(),
    );
    let outcome = driver
        .run_workflow(&service, &dataset, &workflow)
        .expect("session replays");

    let mut gt = CachedGroundTruth::new(dataset.clone());
    println!("per-interaction results:");
    for m in &outcome.query_results {
        let truth = gt.ground_truth(&m.query);
        let metrics = match &m.result {
            Some(r) => idebench::core::Metrics::evaluate(r, &truth),
            None => idebench::core::Metrics::all_missing(&truth),
        };
        println!(
            "  interaction {:>2} -> {:<12} {:>4} of {:>4} bins, mre {}  ({} ms{})",
            m.interaction_id,
            m.viz_name,
            metrics.bins_delivered,
            metrics.bins_in_gt,
            metrics
                .rel_error_avg
                .map_or("   -".into(), |e| format!("{e:.3}")),
            (m.end_ms - m.start_ms).round(),
            if m.tr_violated { ", TR violated" } else { "" },
        );
    }

    // The evening-rush insight: compare filtered vs unfiltered carrier
    // delay averages, the analogue of Jean's over-represented age group.
    let last = outcome
        .query_results
        .iter()
        .rfind(|m| m.viz_name == "by_carrier")
        .expect("carrier view refreshed");
    if let Some(result) = &last.result {
        println!(
            "\nevening-filtered carrier view delivers {} bins at {:.0}% of data processed",
            result.bins_delivered(),
            result.processed_fraction * 100.0
        );
    }
}
