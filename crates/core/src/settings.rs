//! Benchmark settings (paper §4.6) and the execution/time model.

use serde::{Deserialize, Serialize};

/// Dataset size labels used by the default configuration.
///
/// The paper runs S=100M, M=500M, L=1B rows on a dual-socket server. This
/// reproduction scales rows down and compensates by scaling the virtual
/// work rate (see [`ExecutionMode::Virtual`]) so that the ratio between
/// query cost and the time-requirement grid is preserved (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum DataScale {
    /// Small (default 1,000,000 rows).
    S,
    /// Medium (default 5,000,000 rows).
    M,
    /// Large (default 10,000,000 rows).
    L,
}

impl DataScale {
    /// Default row count for the scale.
    pub fn default_rows(self) -> usize {
        match self {
            DataScale::S => 1_000_000,
            DataScale::M => 5_000_000,
            DataScale::L => 10_000_000,
        }
    }

    /// Report label, mirroring the paper's "100m"/"500m"/"1b" strings.
    pub fn label(self) -> &'static str {
        match self {
            DataScale::S => "S",
            DataScale::M => "M",
            DataScale::L => "L",
        }
    }
}

/// How query execution time is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "mode", rename_all = "lowercase")]
pub enum ExecutionMode {
    /// Deterministic virtual time: engines report *work units* (≈ one unit
    /// per tuple touched) and the driver converts them to virtual seconds at
    /// `work_rate` units/second. Reproducible across machines.
    Virtual {
        /// Work units per virtual second.
        work_rate: f64,
    },
    /// Wall-clock time: the driver steps queries until a real deadline.
    Wall,
}

impl ExecutionMode {
    /// The default calibration: 1M units/s, so a full scan of the M dataset
    /// (5M rows) costs 5 virtual seconds — the same ratio to the paper's
    /// 0.5–10 s TR grid as MonetDB scanning 500M rows on the paper's testbed.
    pub fn default_virtual() -> Self {
        ExecutionMode::Virtual { work_rate: 1e6 }
    }
}

/// Default work units granted to a query per step: the driver's
/// [`Settings::step_quantum`], a ticket's default grant and the progressive
/// engine's think-time round-robin slice.
pub const DEFAULT_STEP_QUANTUM: u64 = 16_384;

/// All benchmark settings (§4.6 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Settings {
    /// Time Requirement (TR): maximum duration per query, milliseconds.
    pub time_requirement_ms: u64,
    /// Think time between consecutive interactions, milliseconds.
    pub think_time_ms: u64,
    /// Confidence level at which AQP engines report margins (e.g. 0.95).
    pub confidence_level: f64,
    /// Whether the dataset is normalized (star schema) and engines must join.
    pub use_joins: bool,
    /// Dataset scale label (report column `data size`).
    pub data_scale: DataScale,
    /// Execution/time accounting mode.
    pub execution: ExecutionMode,
    /// Work units a driver step grants a query at a time. Smaller = more
    /// precise TR enforcement, larger = less overhead.
    pub step_quantum: u64,
    /// RNG seed controlling any stochastic choices in the run.
    pub seed: u64,
    /// Optional CPU-contention model for concurrent queries: each of `k`
    /// concurrent lanes runs at `1 / (1 + penalty·(k−1))` of full speed.
    ///
    /// The default 0 models the paper's 20-core testbed where a handful of
    /// concurrent queries do not contend (its Exp 4 found no significant
    /// concurrency effect); positive values let users explore the
    /// contention hypothesis the paper offers for Figure 6d.
    #[serde(default)]
    pub concurrency_penalty: f64,
    /// Worker threads each engine may use for one query's scan (intra-query
    /// parallelism in the morsel dispatcher). `0` (the default) means "all
    /// available cores"; see [`Settings::effective_workers`]. Results are
    /// bit-identical for every value — the dispatcher's fixed chunk grid
    /// and in-order partial merge pin the accumulation sequence — so this
    /// only trades wall-clock speed, never reproducibility. The dispatcher
    /// computes whole chunks ahead of the scan cursor, `workers` at a time,
    /// so small `step_quantum` grants parallelize as well as one-shot
    /// scans; an abandoned scan wastes at most `workers − 1` chunks plus
    /// the current chunk's remainder.
    #[serde(default)]
    pub workers: usize,
}

/// This machine's available parallelism, min 1 — the single fallback both
/// [`Settings::effective_workers`] and the query dispatcher's
/// `available_workers` resolve "use all cores" through.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for Settings {
    /// The paper's default configuration: TR = 3 s is mid-grid; think time
    /// 1 s (used in all stress-test experiments); 95% confidence;
    /// de-normalized schema.
    fn default() -> Self {
        Settings {
            time_requirement_ms: 3_000,
            think_time_ms: 1_000,
            confidence_level: 0.95,
            use_joins: false,
            data_scale: DataScale::M,
            execution: ExecutionMode::default_virtual(),
            step_quantum: DEFAULT_STEP_QUANTUM,
            seed: 42,
            concurrency_penalty: 0.0,
            workers: 0,
        }
    }
}

impl Settings {
    /// The five default time requirements of the paper's evaluation (§5.1).
    pub const DEFAULT_TIME_REQUIREMENTS_MS: [u64; 5] = [500, 1_000, 3_000, 5_000, 10_000];

    /// Builder-style setter for the time requirement.
    pub fn with_time_requirement_ms(mut self, tr: u64) -> Self {
        self.time_requirement_ms = tr;
        self
    }

    /// Builder-style setter for the think time.
    pub fn with_think_time_ms(mut self, tt: u64) -> Self {
        self.think_time_ms = tt;
        self
    }

    /// Builder-style setter for joins/normalized mode.
    pub fn with_joins(mut self, joins: bool) -> Self {
        self.use_joins = joins;
        self
    }

    /// Builder-style setter for the data scale label.
    pub fn with_data_scale(mut self, scale: DataScale) -> Self {
        self.data_scale = scale;
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the execution mode.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Builder-style setter for the scan worker count (`0` = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Derives per-session settings for multi-session (fleet) runs: the
    /// same configuration with the seed mixed with the session index, so
    /// every simulated analyst explores independently yet reproducibly.
    /// Session 0 keeps the base seed — a 1-session fleet is exactly the
    /// single-analyst benchmark.
    pub fn for_session(&self, session: u64) -> Settings {
        let mut s = self.clone();
        s.seed = self
            .seed
            .wrapping_add(session.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s
    }

    /// The scan worker count engines should configure on their runs:
    /// `workers` itself, or — when it is 0 — this machine's available
    /// parallelism (min 1).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            available_parallelism()
        } else {
            self.workers
        }
    }

    /// The TR in work units under virtual execution.
    ///
    /// Returns `None` in wall mode (deadlines are wall-clock instants).
    pub fn tr_budget_units(&self) -> Option<u64> {
        match self.execution {
            ExecutionMode::Virtual { work_rate } => {
                Some((self.time_requirement_ms as f64 / 1e3 * work_rate).round() as u64)
            }
            ExecutionMode::Wall => None,
        }
    }

    /// Think time in work units under virtual execution (speculation budget).
    pub fn think_budget_units(&self) -> Option<u64> {
        match self.execution {
            ExecutionMode::Virtual { work_rate } => {
                Some((self.think_time_ms as f64 / 1e3 * work_rate).round() as u64)
            }
            ExecutionMode::Wall => None,
        }
    }

    /// Converts work units to virtual milliseconds (virtual mode only).
    pub fn units_to_ms(&self, units: u64) -> f64 {
        match self.execution {
            ExecutionMode::Virtual { work_rate } => units as f64 / work_rate * 1e3,
            ExecutionMode::Wall => f64::NAN,
        }
    }

    /// The work rate engines use to convert their second-denominated
    /// constants (report intervals, warm-ups, middleware overheads) into
    /// work units. Wall mode falls back to the default calibration.
    pub fn work_rate(&self) -> f64 {
        match self.execution {
            ExecutionMode::Virtual { work_rate } => work_rate,
            ExecutionMode::Wall => 1e6,
        }
    }

    /// Converts seconds to work units at this settings' rate.
    pub fn seconds_to_units(&self, seconds: f64) -> u64 {
        (seconds * self.work_rate()).round() as u64
    }

    /// The z-value for the configured two-sided confidence level.
    ///
    /// Supports the common levels exactly and falls back to a rational
    /// approximation of the normal quantile elsewhere.
    pub fn z_value(&self) -> f64 {
        crate::metrics::normal_quantile(0.5 + self.confidence_level / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let s = Settings::default();
        assert_eq!(s.confidence_level, 0.95);
        assert!(!s.use_joins);
        assert_eq!(s.time_requirement_ms, 3_000);
        assert_eq!(
            Settings::DEFAULT_TIME_REQUIREMENTS_MS,
            [500, 1000, 3000, 5000, 10000]
        );
    }

    #[test]
    fn tr_budget_in_units() {
        let s = Settings::default()
            .with_time_requirement_ms(500)
            .with_execution(ExecutionMode::Virtual { work_rate: 1e6 });
        assert_eq!(s.tr_budget_units(), Some(500_000));
        assert_eq!(s.think_budget_units(), Some(1_000_000));
        let wall = s.with_execution(ExecutionMode::Wall);
        assert_eq!(wall.tr_budget_units(), None);
    }

    #[test]
    fn units_to_ms_roundtrip() {
        let s = Settings::default();
        let budget = s.tr_budget_units().unwrap();
        let ms = s.units_to_ms(budget);
        assert!((ms - s.time_requirement_ms as f64).abs() < 1e-6);
    }

    #[test]
    fn z_value_for_95_pct() {
        let s = Settings::default();
        assert!((s.z_value() - 1.959964).abs() < 1e-3);
    }

    #[test]
    fn scale_defaults() {
        assert_eq!(DataScale::S.default_rows(), 1_000_000);
        assert!(DataScale::L.default_rows() > DataScale::M.default_rows());
        assert_eq!(DataScale::M.label(), "M");
    }

    #[test]
    fn settings_serde_roundtrip() {
        let s = Settings::default()
            .with_joins(true)
            .with_seed(7)
            .with_workers(3);
        let js = serde_json::to_string(&s).unwrap();
        let back: Settings = serde_json::from_str(&js).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn session_seeds_are_stable_and_distinct() {
        let s = Settings::default().with_seed(42);
        assert_eq!(s.for_session(0).seed, 42, "session 0 keeps the base seed");
        let seeds: Vec<u64> = (0..8).map(|i| s.for_session(i).seed).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in seeds.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(s.for_session(3), s.for_session(3), "derivation is pure");
        // Everything but the seed is untouched.
        let d = s.for_session(5);
        assert_eq!(d.time_requirement_ms, s.time_requirement_ms);
        assert_eq!(d.workers, s.workers);
    }

    #[test]
    fn workers_default_to_available_parallelism() {
        let s = Settings::default();
        assert_eq!(s.workers, 0);
        assert!(s.effective_workers() >= 1);
        assert_eq!(s.with_workers(6).effective_workers(), 6);
    }

    #[test]
    fn workers_field_optional_in_serialized_settings() {
        // Settings serialized before the workers knob existed still load.
        let js = r#"{"time_requirement_ms":3000,"think_time_ms":1000,
            "confidence_level":0.95,"use_joins":false,"data_scale":"m",
            "execution":{"mode":"virtual","work_rate":1000000.0},
            "step_quantum":16384,"seed":42}"#;
        let s: Settings = serde_json::from_str(js).unwrap();
        assert_eq!(s.workers, 0);
    }
}
