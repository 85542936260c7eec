//! The benchmark configuration file format and the full-run executor —
//! the equivalent of the paper's "command line application configured to
//! load and simulate workflows" (§4.4).
//!
//! A configuration names the dataset, the systems under test, the settings
//! grid (time requirements × think times), and the workload — either
//! generated on the fly or loaded from a directory of workflow JSON files.

use crate::{flights_dataset, parallel_ground_truth, run_workflows, service_by_name, star_dataset};
use idebench_core::{CoreError, DetailedReport, Settings, SummaryReport};
use idebench_workflow::{Workflow, WorkflowGenerator, WorkflowType};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Dataset section of a benchmark configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Rows of the de-normalized fact table.
    pub rows: usize,
    /// RNG seed for the data generator.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Whether to normalize into the flights star schema (Exp 2).
    #[serde(default)]
    pub normalized: bool,
}

fn default_seed() -> u64 {
    42
}

/// Workload section: generate workloads or load them from disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkloadConfig {
    /// Generate `count` workflows of `interactions` steps for each type.
    Generate {
        /// Workflow types to generate (report rows are grouped by these).
        types: Vec<WorkflowType>,
        /// Workflows per type (the paper's default is 10).
        count: usize,
        /// Interactions per workflow.
        interactions: usize,
    },
    /// Load every `*.json` workflow from a directory.
    Dir {
        /// The directory holding workflow files.
        path: PathBuf,
    },
}

/// A full benchmark configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkConfig {
    /// Dataset to generate.
    pub dataset: DatasetConfig,
    /// Systems under test, by adapter name (see `adapter_by_name`).
    pub systems: Vec<String>,
    /// Time requirements to sweep, milliseconds.
    pub time_requirements_ms: Vec<u64>,
    /// Think time between interactions, milliseconds.
    #[serde(default = "default_think")]
    pub think_time_ms: u64,
    /// Confidence level for AQP margins.
    #[serde(default = "default_confidence")]
    pub confidence_level: f64,
    /// Virtual work rate, units per second.
    #[serde(default = "default_rate")]
    pub work_rate: f64,
    /// The workload.
    pub workload: WorkloadConfig,
}

fn default_think() -> u64 {
    1_000
}
fn default_confidence() -> f64 {
    0.95
}
fn default_rate() -> f64 {
    1e6
}

impl Default for BenchmarkConfig {
    /// The paper's default configuration, scaled to this reproduction's M
    /// size: all four main systems, the five default TRs, 10 workflows of
    /// each of the four types plus mixed.
    fn default() -> Self {
        BenchmarkConfig {
            dataset: DatasetConfig {
                rows: 5_000_000,
                seed: 42,
                normalized: false,
            },
            systems: crate::MAIN_SYSTEMS.iter().map(|s| s.to_string()).collect(),
            time_requirements_ms: Settings::DEFAULT_TIME_REQUIREMENTS_MS.to_vec(),
            think_time_ms: 1_000,
            confidence_level: 0.95,
            work_rate: 1e6,
            workload: WorkloadConfig::Generate {
                types: WorkflowType::ALL.to_vec(),
                count: 10,
                interactions: 18,
            },
        }
    }
}

/// The artifacts of a full benchmark run.
pub struct BenchmarkRun {
    /// Every evaluated query.
    pub detailed: DetailedReport,
    /// Aggregated per (system, TR).
    pub summary: SummaryReport,
    /// Aggregated per (system, TR, workflow type).
    pub summary_by_kind: SummaryReport,
}

impl BenchmarkConfig {
    /// Parses a configuration from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Serializes the configuration (e.g. to scaffold a template file).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Loads a configuration file.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CoreError::Config(format!("{}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| CoreError::Config(format!("{}: {e}", path.display())))
    }

    /// Materializes the workload.
    pub fn workflows(&self) -> Result<Vec<Workflow>, CoreError> {
        match &self.workload {
            WorkloadConfig::Generate {
                types,
                count,
                interactions,
            } => {
                let mut all = Vec::with_capacity(types.len() * count);
                for kind in types {
                    all.extend(
                        WorkflowGenerator::new(*kind, self.dataset.seed)
                            .generate_batch(*count, *interactions),
                    );
                }
                Ok(all)
            }
            WorkloadConfig::Dir { path } => idebench_workflow::store::load_batch(path)
                .map_err(|e| CoreError::Config(e.to_string())),
        }
    }

    /// Executes the full configuration: every system × every TR over the
    /// whole workload, evaluated against a shared ground-truth cache.
    /// `progress` is called after each (system, TR) cell completes.
    pub fn execute(
        &self,
        mut progress: impl FnMut(&str, u64, usize),
    ) -> Result<BenchmarkRun, CoreError> {
        // Validate the roster and the settings before any expensive work.
        for system in &self.systems {
            if crate::try_adapter_by_name(system).is_none() {
                return Err(CoreError::Unsupported(format!(
                    "unknown system {system:?} in configuration"
                )));
            }
        }
        if !(self.confidence_level > 0.0 && self.confidence_level < 1.0) {
            return Err(CoreError::Config(format!(
                "confidence_level must lie strictly between 0 and 1, got {}",
                self.confidence_level
            )));
        }
        if !(self.work_rate.is_finite() && self.work_rate > 0.0) {
            return Err(CoreError::Config(format!(
                "work_rate must be a finite number above 0, got {}",
                self.work_rate
            )));
        }
        let denorm = flights_dataset(self.dataset.rows, self.dataset.seed);
        let dataset = if self.dataset.normalized {
            star_dataset(&denorm)
        } else {
            denorm
        };
        let workflows = self.workflows()?;
        // Ground truth for the whole workload, shared by every
        // (system, TR) cell below.
        let mut gt = parallel_ground_truth(&dataset, &workflows)?;
        let mut parts = Vec::new();
        for &tr in &self.time_requirements_ms {
            for system in &self.systems {
                let mut settings = Settings::default()
                    .with_time_requirement_ms(tr)
                    .with_think_time_ms(self.think_time_ms)
                    .with_seed(self.dataset.seed)
                    .with_joins(self.dataset.normalized)
                    .with_execution(idebench_core::ExecutionMode::Virtual {
                        work_rate: self.work_rate,
                    });
                settings.confidence_level = self.confidence_level;
                let service = service_by_name(system);
                let report =
                    run_workflows(service.as_ref(), &dataset, &workflows, &settings, &mut gt)?;
                progress(system, tr, report.rows.len());
                parts.push(report);
            }
        }
        let detailed = DetailedReport::merged(parts);
        let summary = SummaryReport::from_detailed(&detailed);
        let summary_by_kind = SummaryReport::from_detailed_by_kind(&detailed);
        Ok(BenchmarkRun {
            detailed,
            summary,
            summary_by_kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let c = BenchmarkConfig::default();
        assert_eq!(c.time_requirements_ms, vec![500, 1000, 3000, 5000, 10000]);
        assert_eq!(c.confidence_level, 0.95);
        assert_eq!(c.systems.len(), 4);
        match &c.workload {
            WorkloadConfig::Generate { types, count, .. } => {
                assert_eq!(types.len(), 5);
                assert_eq!(*count, 10);
            }
            other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn config_json_roundtrip() {
        let c = BenchmarkConfig::default();
        let back = BenchmarkConfig::from_json(&c.to_json()).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let c = BenchmarkConfig::from_json(
            r#"{
                "dataset": { "rows": 1000 },
                "systems": ["exact"],
                "time_requirements_ms": [100],
                "workload": { "generate": { "types": ["mixed"], "count": 1, "interactions": 5 } }
            }"#,
        )
        .unwrap();
        assert_eq!(c.dataset.seed, 42);
        assert_eq!(c.think_time_ms, 1_000);
        assert_eq!(c.confidence_level, 0.95);
    }

    /// Two systems, one TR, one six-step workflow over 5 000 rows.
    fn tiny_config() -> BenchmarkConfig {
        BenchmarkConfig {
            dataset: DatasetConfig {
                rows: 5_000,
                seed: 7,
                normalized: false,
            },
            systems: vec!["exact".into(), "progressive".into()],
            time_requirements_ms: vec![50],
            think_time_ms: 10,
            confidence_level: 0.95,
            work_rate: 1e4,
            workload: WorkloadConfig::Generate {
                types: vec![WorkflowType::Mixed],
                count: 1,
                interactions: 6,
            },
        }
    }

    #[test]
    fn tiny_config_executes_end_to_end() {
        let mut cells = 0;
        let run = tiny_config().execute(|_, _, _| cells += 1).unwrap();
        assert_eq!(cells, 2);
        assert!(!run.detailed.rows.is_empty());
        assert_eq!(run.summary.rows.len(), 2);
    }

    #[test]
    fn unknown_system_rejected_before_running() {
        let c = BenchmarkConfig {
            systems: vec!["warpdrive".into()],
            ..BenchmarkConfig::default()
        };
        let Err(err) = c.execute(|_, _, _| {}) else {
            panic!("unknown system must be rejected");
        };
        assert!(err.to_string().contains("warpdrive"));
    }

    #[test]
    fn out_of_range_settings_rejected_before_running() {
        for level in [1.0, 0.0, -0.5, f64::NAN] {
            let c = BenchmarkConfig {
                confidence_level: level,
                ..tiny_config()
            };
            let Err(err) = c.execute(|_, _, _| {}) else {
                panic!("confidence_level {level} must be rejected");
            };
            assert!(matches!(err, CoreError::Config(_)), "{err:?}");
            assert!(err.to_string().contains("confidence_level"), "{err}");
        }
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = BenchmarkConfig {
                work_rate: rate,
                ..tiny_config()
            };
            let Err(err) = c.execute(|_, _, _| {}) else {
                panic!("work_rate {rate} must be rejected");
            };
            assert!(matches!(err, CoreError::Config(_)), "{err:?}");
            assert!(err.to_string().contains("work_rate"), "{err}");
        }
    }

    #[test]
    fn workload_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("idebench-cfg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let batch = WorkflowGenerator::new(WorkflowType::Mixed, 3).generate_batch(2, 5);
        idebench_workflow::store::save_batch(&dir, &batch).unwrap();
        let c = BenchmarkConfig {
            workload: WorkloadConfig::Dir { path: dir.clone() },
            ..BenchmarkConfig::default()
        };
        assert_eq!(c.workflows().unwrap(), batch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_files_report_config_errors() {
        let dir = std::env::temp_dir().join(format!("idebench-badcfg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = dir.join("cfg.json");
        std::fs::write(&cfg, r#"{ "dataset": { "rows": "many" } }"#).unwrap();
        let err = BenchmarkConfig::load(&cfg).unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.starts_with("config error: "), "{msg}");
        assert!(msg.contains("cfg.json"), "{msg}");

        let missing = BenchmarkConfig::load(&dir.join("absent.json")).unwrap_err();
        assert!(missing.to_string().starts_with("config error: "));

        let workflows = dir.join("workflows");
        std::fs::create_dir_all(&workflows).unwrap();
        std::fs::write(workflows.join("w0.json"), "{ not json").unwrap();
        let c = BenchmarkConfig {
            workload: WorkloadConfig::Dir { path: workflows },
            ..BenchmarkConfig::default()
        };
        let msg = c.workflows().unwrap_err().to_string();
        assert!(msg.starts_with("config error: "), "{msg}");
        assert!(msg.contains("w0.json"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
