//! Wall-clock benchmark of the IDEBench workspace, end to end and layer by
//! layer.
//!
//! The benchmark drives the workspace's public API from outside — data
//! generation, workflow generation, ground-truth precompute, the shared
//! `EngineService` stepped through `WorkflowSession::step_service`, the
//! fleet harness and the reports — and records wall-clock time beside the
//! reports, never inside them. See `README.md` in this directory for the
//! workloads, the metrics and how to run it.

pub mod host;
pub mod probe;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

pub use run::{result_line, run, RunConfig, RunResult};
pub use workload::{Sizes, Workload};
