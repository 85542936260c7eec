//! # IDEBench — A Benchmark for Interactive Data Exploration (Rust)
//!
//! A complete Rust reproduction of *IDEBench: A Benchmark for Interactive
//! Data Exploration* (Eichmann, Binnig, Kraska, Zgraggen; SIGMOD 2020).
//!
//! This facade crate re-exports the full public API:
//!
//! - [`core`]: benchmark driver, viz/query specification, settings, metrics,
//!   reports and the [`core::SystemAdapter`] trait.
//! - [`storage`]: the columnar storage substrate (tables, star schemas).
//! - [`query`]: shared query-evaluation primitives (filters, binning,
//!   aggregation, confidence intervals, SQL rendering, ground truth).
//! - [`datagen`]: the flights seed generator and the Gaussian-copula data
//!   scaler from §4.2 of the paper.
//! - [`workflow`]: the Markov-chain workload generator from §4.3.
//! - Engines representing the paper's system categories:
//!   [`engine_exact`] (MonetDB-class), [`engine_progressive`] (IDEA-class),
//!   [`engine_stratified`] (System-X-class), [`engine_wander`] (XDB-class)
//!   and [`engine_cache`] (System-Y-class).
//! - [`fleet`]: the multi-session fleet harness — N concurrent simulated
//!   analysts over one shared dataset, coordinated by the persistent scan
//!   worker pool and a cross-session semantic result cache, with merged
//!   throughput/latency/cache reports.
//!
//! ## Quickstart
//!
//! ```
//! use idebench::prelude::*;
//!
//! // 1. Generate a small flights dataset.
//! let table = idebench::datagen::flights::generate(10_000, 42);
//! let dataset = Dataset::Denormalized(std::sync::Arc::new(table));
//!
//! // 2. Generate one mixed workflow.
//! let wf = WorkflowGenerator::new(WorkflowType::Mixed, 7).generate(8);
//!
//! // 3. Run it against the progressive engine under a 500 ms time requirement.
//! let settings = Settings::default().with_time_requirement_ms(500);
//! let service = idebench::engine_progressive::ProgressiveAdapter::service(
//!     idebench::engine_progressive::ProgressiveConfig::default(),
//! );
//! let outcome = BenchmarkDriver::new(settings)
//!     .run_workflow(&service, &dataset, &wf)
//!     .unwrap();
//! assert!(!outcome.query_results.is_empty());
//! ```

pub use idebench_core as core;
pub use idebench_datagen as datagen;
pub use idebench_engine_cache as engine_cache;
pub use idebench_engine_exact as engine_exact;
pub use idebench_engine_progressive as engine_progressive;
pub use idebench_engine_stratified as engine_stratified;
pub use idebench_engine_wander as engine_wander;
pub use idebench_fleet as fleet;
pub use idebench_query as query;
pub use idebench_storage as storage;
pub use idebench_workflow as workflow;

/// Convenience prelude importing the types most programs need.
pub mod prelude {
    pub use idebench_core::{
        BenchmarkDriver, DetailedReport, Metrics, QueryHandle, Settings, StepStatus, SummaryReport,
        SystemAdapter,
    };
    pub use idebench_storage::{DataType, Dataset, Table};
    pub use idebench_workflow::{Workflow, WorkflowGenerator, WorkflowType};
}
