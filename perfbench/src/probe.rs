//! Measuring wrappers around the engine SPI and the shared service.
//!
//! [`Timed`] decorates a `SystemAdapter` so that every `QueryHandle::step`
//! is timed; it is hosted through `ServiceCore::{shared_adapter,
//! per_session_adapters}` exactly like the bare engine. [`ServiceProbe`]
//! decorates an `Arc<dyn EngineService>`: it marks interaction boundaries
//! (the fleet harness drives `step_service` itself, and every interaction
//! ends with one `on_think`), times `open_session`, and — when ticket
//! accounting is on — counts tickets by terminal state and their
//! submit→settle wall time through `QueryTicket::on_settle`. Both forward
//! every call unchanged; the benchmark's output hash proves it.

use crate::trace::Trace;
use idebench_core::service::{EngineService, QueryOptions, QueryTicket, SessionId};
use idebench_core::{
    AggResult, CoreError, PrepStats, Query, QueryHandle, Settings, StepStatus, SystemAdapter,
};
use idebench_storage::Dataset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Busy time and work of one engine's `QueryHandle::step` calls. The
/// counters are statistics only, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct StepStats {
    ns: AtomicU64,
    steps: AtomicU64,
    units: AtomicU64,
    queries: AtomicU64,
}

impl StepStats {
    /// Seconds spent inside `step`.
    pub fn step_s(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Number of `step` calls.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Work units the steps consumed.
    pub fn units(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }
}

/// A `SystemAdapter` whose query handles time every `step`.
pub struct Timed<A> {
    inner: A,
    stats: Arc<StepStats>,
    trace: Trace,
}

impl<A: SystemAdapter> Timed<A> {
    /// Wraps `inner`, accumulating into `stats` and recording an
    /// `engine.step` span per step into `trace`.
    pub fn new(inner: A, stats: Arc<StepStats>, trace: Trace) -> Timed<A> {
        Timed {
            inner,
            stats,
            trace,
        }
    }
}

impl<A: SystemAdapter> SystemAdapter for Timed<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare(&mut self, dataset: &Dataset, settings: &Settings) -> Result<PrepStats, CoreError> {
        self.inner.prepare(dataset, settings)
    }

    fn workflow_start(&mut self) {
        self.inner.workflow_start();
    }

    fn workflow_end(&mut self) {
        self.inner.workflow_end();
    }

    fn submit(&mut self, query: &Query) -> Box<dyn QueryHandle> {
        let id = self.stats.queries.fetch_add(1, Ordering::Relaxed);
        Box::new(TimedHandle {
            inner: self.inner.submit(query),
            stats: Arc::clone(&self.stats),
            trace: self.trace.clone(),
            id,
        })
    }

    fn on_link(&mut self, source_query: &Query, target_query: &Query) {
        self.inner.on_link(source_query, target_query);
    }

    fn on_think(&mut self, budget_units: u64) {
        self.inner.on_think(budget_units);
    }

    fn on_discard(&mut self, viz_name: &str) {
        self.inner.on_discard(viz_name);
    }
}

struct TimedHandle {
    inner: Box<dyn QueryHandle>,
    stats: Arc<StepStats>,
    trace: Trace,
    id: u64,
}

impl QueryHandle for TimedHandle {
    fn step(&mut self, granted: u64) -> StepStatus {
        let inner = &mut self.inner;
        let (status, ns) = self.trace.span("engine.step", self.id, || {
            let start = Instant::now();
            let status = inner.step(granted);
            (status, start.elapsed().as_nanos() as u64)
        });
        self.stats.ns.fetch_add(ns, Ordering::Relaxed);
        self.stats.steps.fetch_add(1, Ordering::Relaxed);
        self.stats
            .units
            .fetch_add(status.units(), Ordering::Relaxed);
        status
    }

    fn snapshot(&self) -> Option<AggResult> {
        self.inner.snapshot()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Ticket counts by terminal state plus submit→settle wall times.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TicketStats {
    /// Tickets submitted.
    pub tickets: u64,
    /// Tickets settled `Done`.
    pub done: u64,
    /// Tickets settled `Expired`.
    pub expired: u64,
    /// Tickets settled `Revoked`.
    pub revoked: u64,
    /// Submit→settle wall time of every settled ticket, µs.
    pub settle_us: Vec<f64>,
}

#[derive(Default)]
struct Marks {
    last: Option<Instant>,
    interaction_ms: Vec<f64>,
    open_ms: Vec<f64>,
}

/// An `EngineService` decorator; see the module docs.
pub struct ServiceProbe {
    inner: Arc<dyn EngineService>,
    trace: Trace,
    tickets: Option<Arc<Mutex<TicketStats>>>,
    marks: Mutex<Marks>,
}

impl ServiceProbe {
    /// Wraps `inner`. With `count_tickets`, every ticket gets a settle hook.
    pub fn new(inner: Arc<dyn EngineService>, trace: Trace, count_tickets: bool) -> ServiceProbe {
        ServiceProbe {
            inner,
            trace,
            tickets: count_tickets.then(Default::default),
            marks: Mutex::new(Marks::default()),
        }
    }

    /// Starts the interaction clock: the next interaction is timed from now.
    pub fn start_clock(&self) {
        self.marks.lock().expect("marks lock").last = Some(Instant::now());
    }

    /// Wall ms of each interaction, delimited by the `on_think` that ends
    /// it and the previous boundary (an interaction end or a session open).
    pub fn interaction_ms(&self) -> Vec<f64> {
        self.marks
            .lock()
            .expect("marks lock")
            .interaction_ms
            .clone()
    }

    /// Wall ms of each `open_session` call, in call order.
    pub fn open_ms(&self) -> Vec<f64> {
        self.marks.lock().expect("marks lock").open_ms.clone()
    }

    /// The ticket accounting, when enabled.
    pub fn ticket_stats(&self) -> Option<TicketStats> {
        self.tickets
            .as_ref()
            .map(|t| t.lock().expect("ticket stats lock").clone())
    }
}

impl EngineService for ServiceProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open_session(
        &self,
        session: SessionId,
        dataset: &Dataset,
        settings: &Settings,
    ) -> Result<PrepStats, CoreError> {
        let start = Instant::now();
        let prep = self.trace.span("engine.prepare", session, || {
            self.inner.open_session(session, dataset, settings)
        });
        let mut marks = self.marks.lock().expect("marks lock");
        marks.open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        marks.last = Some(Instant::now());
        prep
    }

    fn close_session(&self, session: SessionId) {
        self.inner.close_session(session);
    }

    fn submit(&self, query: &Query, opts: QueryOptions) -> QueryTicket {
        let submitted = Instant::now();
        let ticket = self.inner.submit(query, opts);
        if let Some(stats) = &self.tickets {
            stats.lock().expect("ticket stats lock").tickets += 1;
            let stats = Arc::clone(stats);
            ticket.on_settle(move |status, _| {
                let mut s = stats.lock().expect("ticket stats lock");
                if status.is_done() {
                    s.done += 1;
                } else if status.is_expired() {
                    s.expired += 1;
                } else if status.is_revoked() {
                    s.revoked += 1;
                }
                s.settle_us.push(submitted.elapsed().as_secs_f64() * 1e6);
            });
        }
        ticket
    }

    fn revoke_superseded(&self, session: SessionId, viz_name: &str) {
        self.inner.revoke_superseded(session, viz_name);
    }

    fn on_link(&self, session: SessionId, source_query: &Query, target_query: &Query) {
        self.inner.on_link(session, source_query, target_query);
    }

    fn on_think(&self, session: SessionId, budget_units: u64) {
        self.inner.on_think(session, budget_units);
        let now = Instant::now();
        let mut marks = self.marks.lock().expect("marks lock");
        if let Some(last) = marks.last.replace(now) {
            let ms = now.duration_since(last).as_secs_f64() * 1e3;
            marks.interaction_ms.push(ms);
        }
    }

    fn on_discard(&self, session: SessionId, viz_name: &str) {
        self.inner.on_discard(session, viz_name);
    }
}
