//! Author a workflow as JSON (the paper's Figure-4 format), load it, view
//! it, translate its queries to SQL, and run it.
//!
//! ```sh
//! cargo run --release --example custom_workflow_json
//! ```

use idebench::prelude::*;
use idebench_query::{to_sql, CachedGroundTruth};
use std::sync::Arc;

const WORKFLOW_JSON: &str = r#"{
  "name": "figure4",
  "kind": "1n_linking",
  "interactions": [
    {
      "interaction": "create_viz",
      "viz": {
        "name": "viz_delays",
        "source": "flights",
        "binning": [
          { "type": "width", "dimension": "dep_delay", "width": 10.0, "anchor": 0.0 }
        ],
        "aggregates": [ { "type": "count" } ]
      }
    },
    {
      "interaction": "create_viz",
      "viz": {
        "name": "viz_carriers",
        "source": "flights",
        "binning": [ { "type": "nominal", "dimension": "carrier" } ],
        "aggregates": [ { "type": "avg", "dimension": "arr_delay" } ]
      }
    },
    { "interaction": "link", "source": "viz_carriers", "target": "viz_delays" },
    {
      "interaction": "select",
      "viz": "viz_carriers",
      "selection": { "bins": [ [ "C01" ] ] }
    }
  ]
}"#;

fn main() {
    let workflow = Workflow::from_json(WORKFLOW_JSON).expect("valid workflow JSON");
    println!("{}", workflow.render_text());

    // Show the Figure-4 style SQL translation of every triggered query.
    let table = idebench::datagen::flights::generate(100_000, 5);
    let dataset = Dataset::Denormalized(Arc::new(table));
    let mut graph = idebench::core::VizGraph::new();
    println!("SQL translation of triggered queries:");
    for interaction in &workflow.interactions {
        let affected = graph.apply(interaction).expect("valid interaction");
        for viz in &affected {
            let query = graph.query_for(viz).expect("query composes");
            println!("  [{}] {}", interaction.kind(), to_sql(&query, None));
        }
    }

    // And actually run it against the exact engine.
    let settings = Settings::default().with_time_requirement_ms(5_000);
    let driver = BenchmarkDriver::new(settings);
    let service = idebench::engine_exact::ExactAdapter::with_defaults().into_service();
    let outcome = driver
        .run_workflow(&service, &dataset, &workflow)
        .expect("workflow runs");
    let mut gt = CachedGroundTruth::new(dataset.clone());
    let report = DetailedReport::from_outcome(&outcome, &mut gt);
    println!("\n{}", SummaryReport::from_detailed(&report).render_text());
}
