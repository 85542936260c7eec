//! The system-adapter interface (paper §4.5, Listing 1).
//!
//! A system under test implements [`SystemAdapter`]. The benchmark driver
//! reaches it through the shared service
//! ([`crate::service::ServiceCore`]): interactions are delegated
//! through it, and query execution is driven through the pull-based
//! [`QueryHandle`] it returns, one scheduler grant at a time. Pull-based
//! stepping gives the driver exact control over the time-requirement budget
//! in both virtual and wall-clock execution modes, and makes cancellation
//! trivial (drop the handle).

use crate::error::CoreError;
use crate::query::Query;
use crate::result::AggResult;
use crate::settings::Settings;
use idebench_storage::Dataset;
use serde::{Deserialize, Serialize};

/// Outcome of one `step` call on a query handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The query consumed `units` work units and has more work to do.
    Running {
        /// Work units actually consumed by this step (≤ granted).
        units: u64,
    },
    /// The query consumed `units` work units and is now complete.
    Done {
        /// Work units actually consumed by this step (≤ granted).
        units: u64,
    },
}

impl StepStatus {
    /// Units consumed by the step.
    pub fn units(self) -> u64 {
        match self {
            StepStatus::Running { units } | StepStatus::Done { units } => units,
        }
    }

    /// Whether the query is complete.
    pub fn is_done(self) -> bool {
        matches!(self, StepStatus::Done { .. })
    }
}

/// A running query owned by the adapter.
///
/// The driver repeatedly grants work quanta via [`QueryHandle::step`]; at the
/// time requirement it calls [`QueryHandle::snapshot`] and drops the handle.
/// Per the paper's metric definition, the time requirement is violated iff
/// `snapshot()` returns `None` at that point.
///
/// Handles are `Send` so the shared-service scheduler
/// ([`crate::service::TicketScheduler`]) can own in-flight queries from any
/// thread.
pub trait QueryHandle: Send {
    /// Performs up to `granted` work units. Blocking engines typically
    /// consume the full grant until done; progressive engines refresh their
    /// snapshot as they go.
    fn step(&mut self, granted: u64) -> StepStatus;

    /// The best currently-available result: `None` if nothing can be
    /// fetched yet, partial estimates for progressive engines, or the final
    /// result once done.
    fn snapshot(&self) -> Option<AggResult>;

    /// Whether the query has run to completion.
    fn is_done(&self) -> bool;
}

/// Data-preparation statistics (paper §5.2 "data preparation time").
///
/// Covers everything from connecting to a new data source until the system
/// can answer workload queries: loading, indexing, offline sampling,
/// warm-up queries.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PrepStats {
    /// Work units spent loading/copying the data into the system.
    pub load_units: u64,
    /// Work units spent on offline pre-processing (sample tables, indexes).
    pub preprocess_units: u64,
    /// Work units spent on warm-up queries required before first use.
    pub warmup_units: u64,
}

impl PrepStats {
    /// Total preparation work.
    pub fn total_units(&self) -> u64 {
        self.load_units + self.preprocess_units + self.warmup_units
    }
}

/// Proxy between the benchmark and a system under test (paper Listing 1).
///
/// This is the *single-analyst* engine SPI: `submit` takes `&mut self`, so
/// one instance hands out one exclusively-owned query at a time. The driver
/// runs every workflow through [`crate::service::EngineService`]; adapters
/// run there unchanged, hosted by [`crate::ServiceCore::shared_adapter`] or
/// [`crate::ServiceCore::per_session_adapters`] (`Send` is required so
/// hosted adapters can live inside the shared service).
pub trait SystemAdapter: Send {
    /// Short system name used in reports (e.g. `"exact"`, `"progressive"`).
    fn name(&self) -> &str;

    /// Ingests the dataset and performs all offline preparation. Called once
    /// before any workflow runs. Returns the preparation cost breakdown.
    ///
    /// Errors with [`CoreError::Unsupported`] when the system cannot handle
    /// the dataset shape (e.g. normalized data without join support).
    fn prepare(&mut self, dataset: &Dataset, settings: &Settings) -> Result<PrepStats, CoreError>;

    /// Called when a workflow starts (paper: `workflow_start`).
    fn workflow_start(&mut self) {}

    /// Called when a workflow ends (paper: `workflow_end`).
    fn workflow_end(&mut self) {}

    /// Submits a query, returning a steppable handle.
    fn submit(&mut self, query: &Query) -> Box<dyn QueryHandle>;

    /// Notifies the adapter of a new link between two vizs — a hint for
    /// speculative execution (paper: `link_vizs`). `source_query` is the
    /// current query of the link source, `target_query` of the target.
    fn on_link(&mut self, _source_query: &Query, _target_query: &Query) {}

    /// Grants idle think-time to the adapter (units of work it may spend on
    /// speculative queries). Engines without speculation ignore this.
    fn on_think(&mut self, _budget_units: u64) {}

    /// Notifies the adapter that a viz was discarded so it can free memory
    /// (paper: `delete_vizs`).
    fn on_discard(&mut self, _viz_name: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_status_accessors() {
        assert_eq!(StepStatus::Running { units: 5 }.units(), 5);
        assert!(!StepStatus::Running { units: 5 }.is_done());
        assert!(StepStatus::Done { units: 0 }.is_done());
    }

    #[test]
    fn prep_stats_total() {
        let p = PrepStats {
            load_units: 10,
            preprocess_units: 5,
            warmup_units: 1,
        };
        assert_eq!(p.total_units(), 16);
        assert_eq!(PrepStats::default().total_units(), 0);
    }
}
