//! Data profiles: what the workload generator knows about a dataset.
//!
//! The generator never touches the data itself; it samples binnings,
//! filters and selections from a profile describing the available
//! dimensions — making workloads reusable across dataset scales (the same
//! seed yields the same workload for S, M and L data) and customizable for
//! user-supplied datasets (paper §3.2 "Customizability").

use serde::{Deserialize, Serialize};

/// One explorable dimension of the dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DimensionProfile {
    /// A nominal dimension with a known category domain.
    Nominal {
        /// Column name.
        name: String,
        /// The category values filters/selections may reference.
        categories: Vec<String>,
    },
    /// A quantitative dimension with a default bin width and value range.
    Quantitative {
        /// Column name.
        name: String,
        /// Default bin width for width-based binning.
        bin_width: f64,
        /// Anchor (left edge of bin 0).
        anchor: f64,
        /// Smallest value the generator assumes present.
        min: f64,
        /// Largest value the generator assumes present.
        max: f64,
        /// Whether the column is also a sensible aggregate measure.
        measure: bool,
    },
}

impl DimensionProfile {
    /// The column name.
    pub fn name(&self) -> &str {
        match self {
            DimensionProfile::Nominal { name, .. }
            | DimensionProfile::Quantitative { name, .. } => name,
        }
    }
}

/// A full dataset profile for the generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataProfile {
    /// Source table name queries reference.
    pub table: String,
    /// Explorable dimensions.
    pub dimensions: Vec<DimensionProfile>,
}

impl DataProfile {
    /// The default profile matching the `idebench-datagen` flights schema
    /// (paper Figure 2). Kept in sync by an integration test.
    pub fn flights() -> DataProfile {
        let carriers: Vec<String> = (0..14).map(|i| format!("C{i:02}")).collect();
        let states: Vec<String> = (0..48).map(|i| format!("S{i:02}")).collect();
        let airports: Vec<String> = (0..120).map(|i| format!("A{i:03}")).collect();
        DataProfile {
            table: "flights".into(),
            dimensions: vec![
                DimensionProfile::Nominal {
                    name: "carrier".into(),
                    categories: carriers,
                },
                DimensionProfile::Nominal {
                    name: "origin".into(),
                    categories: airports.clone(),
                },
                DimensionProfile::Nominal {
                    name: "origin_state".into(),
                    categories: states.clone(),
                },
                DimensionProfile::Nominal {
                    name: "dest_state".into(),
                    categories: states,
                },
                DimensionProfile::Quantitative {
                    name: "dep_delay".into(),
                    bin_width: 10.0,
                    anchor: 0.0,
                    min: -30.0,
                    max: 180.0,
                    measure: true,
                },
                DimensionProfile::Quantitative {
                    name: "arr_delay".into(),
                    bin_width: 10.0,
                    anchor: 0.0,
                    min: -40.0,
                    max: 180.0,
                    measure: true,
                },
                DimensionProfile::Quantitative {
                    name: "dep_time".into(),
                    bin_width: 1.0,
                    anchor: 0.0,
                    min: 0.0,
                    max: 24.0,
                    measure: false,
                },
                DimensionProfile::Quantitative {
                    name: "distance".into(),
                    bin_width: 200.0,
                    anchor: 0.0,
                    min: 80.0,
                    max: 2900.0,
                    measure: true,
                },
                DimensionProfile::Quantitative {
                    name: "air_time".into(),
                    bin_width: 30.0,
                    anchor: 0.0,
                    min: 20.0,
                    max: 420.0,
                    measure: true,
                },
                DimensionProfile::Quantitative {
                    name: "month".into(),
                    bin_width: 1.0,
                    anchor: 1.0,
                    min: 1.0,
                    max: 12.0,
                    measure: false,
                },
                DimensionProfile::Quantitative {
                    name: "day_of_week".into(),
                    bin_width: 1.0,
                    anchor: 1.0,
                    min: 1.0,
                    max: 7.0,
                    measure: false,
                },
            ],
        }
    }

    /// Infers a profile from any table, making arbitrary datasets usable
    /// with the workload generator (paper §3.2: workloads and datasets
    /// "can be customized to the use case").
    ///
    /// - Nominal columns contribute their full dictionary as the category
    ///   domain, skipping ultra-high-cardinality columns (> `max_categories`
    ///   distinct values — IDs, not dimensions).
    /// - Quantitative columns contribute their observed `[min, max]` with a
    ///   bin width of roughly `range / target_bins`, rounded to a
    ///   human-friendly step (1/2/5 × 10^k). Columns marked as measures are
    ///   those with more than `target_bins` distinct-ish values.
    pub fn infer(table: &idebench_storage::Table, target_bins: u32, max_categories: usize) -> Self {
        let mut dimensions = Vec::new();
        for (idx, field) in table.schema().fields().iter().enumerate() {
            let col = table.column_at(idx);
            match col.dictionary() {
                Some(dict) => {
                    if dict.len() <= max_categories && !dict.is_empty() {
                        dimensions.push(DimensionProfile::Nominal {
                            name: field.name.clone(),
                            categories: dict.values().to_vec(),
                        });
                    }
                }
                None => {
                    let mut min = f64::INFINITY;
                    let mut max = f64::NEG_INFINITY;
                    for row in 0..col.len() {
                        if let Some(v) = col.numeric_at(row) {
                            min = min.min(v);
                            max = max.max(v);
                        }
                    }
                    if !min.is_finite() || max <= min {
                        continue; // empty or constant column: nothing to bin
                    }
                    let raw_width = (max - min) / f64::from(target_bins.max(1));
                    let mut width = friendly_step(raw_width);
                    // Fractional bins on integer columns are sparse noise.
                    let is_int = col.dtype() == idebench_storage::DataType::Int;
                    if is_int && width < 1.0 {
                        width = 1.0;
                    }
                    let anchor = (min / width).floor() * width;
                    // Integers with a narrow domain (day-of-week style) are
                    // dimensions, not measures.
                    let narrow_int = is_int && (max - min) <= 32.0;
                    dimensions.push(DimensionProfile::Quantitative {
                        name: field.name.clone(),
                        bin_width: width,
                        anchor,
                        min,
                        max,
                        measure: !narrow_int,
                    });
                }
            }
        }
        DataProfile {
            table: table.name().to_string(),
            dimensions,
        }
    }

    /// Indexes of nominal dimensions.
    pub fn nominal_indexes(&self) -> Vec<usize> {
        self.dimensions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, DimensionProfile::Nominal { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indexes of quantitative dimensions.
    pub fn quantitative_indexes(&self) -> Vec<usize> {
        self.dimensions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, DimensionProfile::Quantitative { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indexes of dimensions usable as aggregate measures.
    pub fn measure_indexes(&self) -> Vec<usize> {
        self.dimensions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, DimensionProfile::Quantitative { measure: true, .. }))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Rounds a step to the nearest "friendly" bin width: 1, 2 or 5 × 10^k.
fn friendly_step(raw: f64) -> f64 {
    debug_assert!(raw > 0.0);
    let magnitude = 10f64.powf(raw.log10().floor());
    let normalized = raw / magnitude;
    let mult = if normalized < 1.5 {
        1.0
    } else if normalized < 3.5 {
        2.0
    } else if normalized < 7.5 {
        5.0
    } else {
        10.0
    };
    mult * magnitude
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_storage::{DataType, TableBuilder, Value};

    #[test]
    fn friendly_steps() {
        assert_eq!(friendly_step(0.9), 1.0);
        assert_eq!(friendly_step(1.8), 2.0);
        assert_eq!(friendly_step(4.0), 5.0);
        assert_eq!(friendly_step(8.0), 10.0);
        assert_eq!(friendly_step(37.0), 50.0);
        assert_eq!(friendly_step(0.012), 0.01);
    }

    #[test]
    fn infer_classifies_columns() {
        let mut b = TableBuilder::with_fields(
            "shop",
            &[
                ("region", DataType::Nominal),
                ("price", DataType::Float),
                ("weekday", DataType::Int),
                ("constant", DataType::Float),
            ],
        );
        for i in 0..100i64 {
            b.push_row(&[
                Value::Str(format!("R{}", i % 4)),
                Value::Float(10.0 + i as f64 * 3.0),
                Value::Int(1 + i % 7),
                Value::Float(5.0),
            ])
            .unwrap();
        }
        let t = b.finish();
        let p = DataProfile::infer(&t, 25, 50);
        assert_eq!(p.table, "shop");
        // constant column dropped; region nominal; price measure; weekday
        // narrow-int non-measure.
        assert_eq!(p.dimensions.len(), 3);
        match &p.dimensions[0] {
            DimensionProfile::Nominal { name, categories } => {
                assert_eq!(name, "region");
                assert_eq!(categories.len(), 4);
            }
            other => panic!("expected nominal region, got {other:?}"),
        }
        match &p.dimensions[1] {
            DimensionProfile::Quantitative {
                name,
                measure,
                bin_width,
                ..
            } => {
                assert_eq!(name, "price");
                assert!(*measure);
                assert!(*bin_width > 0.0);
            }
            other => panic!("expected quantitative price, got {other:?}"),
        }
        match &p.dimensions[2] {
            DimensionProfile::Quantitative { name, measure, .. } => {
                assert_eq!(name, "weekday");
                assert!(!*measure, "narrow ints are dimensions, not measures");
            }
            other => panic!("expected quantitative weekday, got {other:?}"),
        }
    }

    #[test]
    fn infer_skips_id_like_nominals() {
        let mut b = TableBuilder::with_fields("t", &[("id", DataType::Nominal)]);
        for i in 0..500 {
            b.push_row(&[Value::Str(format!("id-{i}"))]).unwrap();
        }
        let p = DataProfile::infer(&b.finish(), 25, 100);
        assert!(
            p.dimensions.is_empty(),
            "500 distinct ids is not a dimension"
        );
    }

    #[test]
    fn flights_profile_has_both_kinds() {
        let p = DataProfile::flights();
        assert_eq!(p.table, "flights");
        assert!(!p.nominal_indexes().is_empty());
        assert!(!p.quantitative_indexes().is_empty());
        assert!(!p.measure_indexes().is_empty());
        // Measures are a subset of quantitative dims.
        for m in p.measure_indexes() {
            assert!(p.quantitative_indexes().contains(&m));
        }
    }

    #[test]
    fn profile_serde_roundtrip() {
        let p = DataProfile::flights();
        let js = serde_json::to_string(&p).unwrap();
        let back: DataProfile = serde_json::from_str(&js).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn dimension_names() {
        let p = DataProfile::flights();
        assert_eq!(p.dimensions[0].name(), "carrier");
        assert_eq!(p.dimensions[4].name(), "dep_delay");
    }
}
