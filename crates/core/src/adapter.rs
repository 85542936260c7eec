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

/// A fixed per-query cost paid before an inner handle runs: IDEA's
/// first-query warm-up, System X's planning overhead and System Y's
/// middleware overhead (paper §5).
///
/// Each grant pays the outstanding overhead first and passes only the rest
/// to the inner handle. Until the overhead is paid the handle shows no
/// snapshot and is not done, even when the inner handle has nothing left to
/// do (a scan over zero rows).
pub struct Overhead {
    remaining: u64,
    inner: Box<dyn QueryHandle>,
}

impl Overhead {
    /// Puts `units` of overhead in front of `inner`; zero overhead returns
    /// `inner` itself.
    pub fn wrap(units: u64, inner: Box<dyn QueryHandle>) -> Box<dyn QueryHandle> {
        if units == 0 {
            inner
        } else {
            Box::new(Overhead {
                remaining: units,
                inner,
            })
        }
    }
}

impl QueryHandle for Overhead {
    fn step(&mut self, granted: u64) -> StepStatus {
        let paid = self.remaining.min(granted);
        self.remaining -= paid;
        if self.remaining > 0 {
            return StepStatus::Running { units: paid };
        }
        let status = self.inner.step(granted - paid);
        let units = paid + status.units();
        if status.is_done() {
            StepStatus::Done { units }
        } else {
            StepStatus::Running { units }
        }
    }

    fn snapshot(&self) -> Option<AggResult> {
        if self.remaining > 0 {
            None
        } else {
            self.inner.snapshot()
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0 && self.inner.is_done()
    }
}

/// A query whose result is known before any work is done, such as a
/// result-cache hit: every step is `Done` and consumes nothing.
pub struct Ready(pub AggResult);

impl QueryHandle for Ready {
    fn step(&mut self, _granted: u64) -> StepStatus {
        StepStatus::Done { units: 0 }
    }

    fn snapshot(&self) -> Option<AggResult> {
        Some(self.0.clone())
    }

    fn is_done(&self) -> bool {
        true
    }
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

    /// A scan of `rows` one-unit rows whose snapshot counts the rows done.
    struct Rows {
        done: u64,
        rows: u64,
    }

    impl QueryHandle for Rows {
        fn step(&mut self, granted: u64) -> StepStatus {
            let units = granted.min(self.rows - self.done);
            self.done += units;
            if self.is_done() {
                StepStatus::Done { units }
            } else {
                StepStatus::Running { units }
            }
        }

        fn snapshot(&self) -> Option<AggResult> {
            let mut r = AggResult::empty_exact();
            r.processed_fraction = self.done as f64;
            Some(r)
        }

        fn is_done(&self) -> bool {
            self.done == self.rows
        }
    }

    fn overhead(units: u64, rows: u64) -> Box<dyn QueryHandle> {
        Overhead::wrap(units, Box::new(Rows { done: 0, rows }))
    }

    /// Steps `h` with `grant` until done, returning every step's status.
    fn drain(h: &mut dyn QueryHandle, grant: u64) -> Vec<StepStatus> {
        let mut steps = Vec::new();
        while !h.is_done() {
            let st = h.step(grant);
            assert!(st.units() <= grant, "{st:?} exceeds the grant {grant}");
            steps.push(st);
        }
        steps
    }

    #[test]
    fn overhead_larger_than_a_grant_is_paid_over_several_steps() {
        let mut h = overhead(25, 10);
        assert_eq!(h.step(10), StepStatus::Running { units: 10 });
        assert_eq!(h.step(10), StepStatus::Running { units: 10 });
        assert!(
            h.snapshot().is_none(),
            "no result before the overhead is paid"
        );
        assert!(!h.is_done());
        // 5 units finish the overhead, 5 reach the inner handle.
        assert_eq!(h.step(10), StepStatus::Running { units: 10 });
        assert_eq!(h.snapshot().unwrap().processed_fraction, 5.0);
        assert_eq!(h.step(10), StepStatus::Done { units: 5 });
        assert!(h.is_done());
    }

    #[test]
    fn overhead_ending_on_a_grant_boundary_passes_nothing_on() {
        let mut h = overhead(20, 10);
        assert_eq!(h.step(10), StepStatus::Running { units: 10 });
        assert_eq!(h.step(10), StepStatus::Running { units: 10 });
        assert_eq!(h.snapshot().unwrap().processed_fraction, 0.0);
        assert_eq!(h.step(10), StepStatus::Done { units: 10 });
    }

    #[test]
    fn zero_overhead_is_the_inner_handle() {
        for grant in [1, 3, 10, 64] {
            let mut plain = Rows { done: 0, rows: 10 };
            assert_eq!(
                drain(&mut *overhead(0, 10), grant),
                drain(&mut plain, grant)
            );
        }
    }

    #[test]
    fn finished_inner_handle_is_done_once_the_overhead_is_paid() {
        let mut h = overhead(15, 0);
        assert!(!h.is_done(), "a 0-row scan still pays its overhead");
        assert!(h.snapshot().is_none());
        assert_eq!(h.step(10), StepStatus::Running { units: 10 });
        assert!(h.snapshot().is_none());
        assert_eq!(h.step(10), StepStatus::Done { units: 5 });
        assert!(h.is_done());
        assert_eq!(h.snapshot().unwrap().processed_fraction, 0.0);
        assert_eq!(h.step(10), StepStatus::Done { units: 0 });
    }

    #[test]
    fn ready_result_waits_only_for_the_overhead() {
        let mut h = Overhead::wrap(3, Box::new(Ready(AggResult::empty_exact())));
        assert_eq!(h.step(2), StepStatus::Running { units: 2 });
        assert!(h.snapshot().is_none());
        assert_eq!(h.step(2), StepStatus::Done { units: 1 });
        assert_eq!(h.snapshot(), Some(AggResult::empty_exact()));
        let mut free = Overhead::wrap(0, Box::new(Ready(AggResult::empty_exact())));
        assert!(free.is_done());
        assert_eq!(free.step(5), StepStatus::Done { units: 0 });
    }

    #[test]
    fn steps_bill_overhead_plus_inner_work_within_every_grant() {
        for (units, rows) in [(0, 7), (1, 7), (7, 7), (20, 7), (5, 0), (100, 1_000)] {
            for grant in [1, 2, 7, 16, 1_000] {
                let steps = drain(&mut *overhead(units, rows), grant);
                let total: u64 = steps.iter().map(|s| s.units()).sum();
                assert_eq!(total, units + rows, "overhead {units}, grant {grant}");
                assert!(steps[..steps.len() - 1].iter().all(|s| !s.is_done()));
                assert!(steps.last().unwrap().is_done());
            }
        }
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
