//! The IDEBench benchmark core.
//!
//! This crate implements the paper's primary contribution — the benchmark
//! itself — independent of any particular database engine:
//!
//! - [`spec`]: the JSON-compatible visualization/query specification model
//!   (paper Figure 4): binnings, aggregates, filters, selections.
//! - [`interaction`]: the user interactions workflows are made of
//!   (create / filter / select / link / discard, §4.3).
//! - [`graph`]: the visualization dependency graph the driver maintains while
//!   simulating a workflow (§2.2, §4.4), including filter composition across
//!   links.
//! - [`settings`]: benchmark settings (§4.6) — time requirement, think time,
//!   dataset size, joins, confidence level — plus the execution mode.
//! - [`adapter`]: the [`SystemAdapter`] / [`QueryHandle`] interface that
//!   systems under test implement (§4.5).
//! - [`service`]: the shared, concurrent, deadline-aware [`EngineService`]
//!   API — one engine serving many sessions through a deadline/priority
//!   scheduler with cooperative cancellation ([`QueryTicket`]), and
//!   [`ServiceCore`], which runs `SystemAdapter` impls behind it.
//! - [`driver`]: the benchmark driver that runs workflows through an
//!   [`EngineService`], enforces the time requirement, and grants
//!   think-time to the engine (§4.4).
//! - [`metrics`]: the quality metrics of §4.7 (missing bins, mean relative
//!   error, SMAPE, cosine distance, margins, out-of-margin, bias).
//! - [`report`]: detailed (Table 1) and summary (Figure 5) reports (§4.8).

pub mod adapter;
pub mod driver;
pub mod error;
pub mod graph;
pub mod interaction;
pub mod metrics;
pub mod query;
pub mod report;
pub mod result;
pub mod service;
pub mod settings;
pub mod spec;

pub use adapter::{PrepStats, QueryHandle, StepStatus, SystemAdapter};
pub use driver::{
    BenchmarkDriver, GroundTruthProvider, QueryMeasurement, WorkflowOutcome, WorkflowSession,
};
pub use error::CoreError;
pub use graph::VizGraph;
pub use interaction::Interaction;
pub use metrics::Metrics;
pub use query::Query;
pub use report::{DetailedReport, DetailedRow, SummaryReport, SummaryRow};
pub use result::{AggResult, BinCoord, BinKey, BinStats};
pub use service::{
    EngineService, QueryOptions, QueryTicket, ServiceCore, SessionId, TicketScheduler,
    TicketStatus, TicketSubscription,
};
pub use settings::{DataScale, ExecutionMode, Settings};
pub use spec::{AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate, Selection, VizSpec};
