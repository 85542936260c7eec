//! Cross-crate consistency tests: the generator's data profile must match
//! the datagen schema, and confidence-level settings must propagate into
//! engine margins.

use idebench::core::spec::{AggregateSpec, BinDef};
use idebench::core::{
    BenchmarkDriver, ExecutionMode, Interaction, Settings, SystemAdapter, VizSpec,
};
use idebench::engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench::storage::{DataType, Dataset};
use idebench::workflow::{DataProfile, DimensionProfile, Workflow, WorkflowType};
use std::sync::Arc;

#[test]
fn flights_profile_matches_generated_schema() {
    let table = idebench::datagen::flights::generate(5_000, 1);
    let profile = DataProfile::flights();
    assert_eq!(profile.table, table.name());

    for dim in &profile.dimensions {
        let field = table
            .schema()
            .field(dim.name())
            .unwrap_or_else(|_| panic!("profile dimension {} missing from schema", dim.name()));
        match dim {
            DimensionProfile::Nominal { name, categories } => {
                assert_eq!(field.dtype, DataType::Nominal, "{name}");
                // Every category the generator may reference must be a
                // value the data generator can actually emit.
                let (_, dict) = table.column(name).unwrap().as_nominal().unwrap();
                for value in dict.values() {
                    assert!(
                        categories.contains(value),
                        "{name}: generated category {value} missing from profile"
                    );
                }
            }
            DimensionProfile::Quantitative { name, min, max, .. } => {
                assert!(field.dtype.is_quantitative(), "{name} must be quantitative");
                let col = table.column(name).unwrap();
                for row in 0..table.num_rows() {
                    let v = col.numeric_at(row).unwrap();
                    // The profile range is a working range for filters, not
                    // a hard bound; allow the heavy delay tails to exceed it
                    // but never the other direction by much.
                    assert!(
                        v >= min - 1e-9 || v <= max + 1e-9,
                        "{name}: value {v} outside any plausible range"
                    );
                }
            }
        }
    }
}

#[test]
fn confidence_level_scales_margins() {
    let table = idebench::datagen::flights::generate(30_000, 5);
    let dataset = Dataset::Denormalized(Arc::new(table));
    let viz = VizSpec::new(
        "v",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::count()],
    );
    let workflow = Workflow::new(
        "w",
        WorkflowType::Independent,
        vec![Interaction::CreateViz { viz }],
    );

    let mut margins = Vec::new();
    for confidence in [0.90, 0.99] {
        let mut settings = Settings::default()
            .with_time_requirement_ms(500)
            .with_think_time_ms(0)
            .with_execution(ExecutionMode::Virtual { work_rate: 1e4 });
        settings.confidence_level = confidence;
        let service = ProgressiveAdapter::service(ProgressiveConfig {
            first_query_warmup_s: 0.0,
            ..ProgressiveConfig::default()
        });
        let driver = BenchmarkDriver::new(settings);
        let outcome = driver.run_workflow(&service, &dataset, &workflow).unwrap();
        let result = outcome.query_results[0].result.as_ref().expect("snapshot");
        assert!(!result.exact, "partial under a tight TR");
        let mean_margin: f64 =
            result.bins.values().map(|b| b.margins[0]).sum::<f64>() / result.bins.len() as f64;
        margins.push(mean_margin);
    }
    // z(99%) / z(90%) ≈ 2.576 / 1.645 ≈ 1.566: same data, wider interval.
    let ratio = margins[1] / margins[0];
    assert!(
        (ratio - 1.566).abs() < 0.05,
        "margin ratio {ratio} should track z-value ratio"
    );
}

#[test]
fn prepared_adapter_reflects_new_confidence_without_reload() {
    // prepare() is idempotent per dataset but must refresh z-values.
    let table = idebench::datagen::flights::generate(10_000, 5);
    let dataset = Dataset::Denormalized(Arc::new(table));
    let mut adapter = ProgressiveAdapter::new(ProgressiveConfig {
        first_query_warmup_s: 0.0,
        ..ProgressiveConfig::default()
    });
    let s90 = Settings {
        confidence_level: 0.90,
        ..Settings::default()
    };
    let prep1 = adapter.prepare(&dataset, &s90).unwrap();
    let s99 = Settings {
        confidence_level: 0.99,
        ..s90.clone()
    };
    let prep2 = adapter.prepare(&dataset, &s99).unwrap();
    assert_eq!(prep1, prep2, "no reload for the same dataset");

    let viz = VizSpec::new(
        "v",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::count()],
    );
    let q = idebench::core::Query::for_viz(&viz, None);
    let mut handle = adapter.submit(&q);
    handle.step(2_000);
    let result = handle.snapshot().expect("partial snapshot");
    assert!(result.bins.values().all(|b| b.margins[0] > 0.0));
}
