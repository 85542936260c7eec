//! The shared, concurrent, deadline-aware query service API.
//!
//! [`SystemAdapter`] (paper §4.5) is a *single-analyst proxy*: `submit`
//! takes `&mut self` and hands out one exclusively-owned query handle at a
//! time, so multi-session harnesses can only scale by cloning one adapter
//! per session and sharing state through side channels. [`EngineService`]
//! is the opposite shape — the deployment shape: **one shared engine, many
//! in-flight queries**, submitted through `&self` with explicit deadlines
//! and session identity, and driven by a central deadline-aware scheduler.
//!
//! # The ticket model
//!
//! [`EngineService::submit`] returns a [`QueryTicket`] — a handle into the
//! service's [`TicketScheduler`]. The scheduler multiplexes grant quanta
//! across *all* in-flight tickets: every pump grants one quantum of work
//! units to the ticket with the least `(deadline, session, ticket)` key —
//! earliest-deadline-first, with deterministic session/ticket tie-breaks.
//! Callers observe progress through [`QueryTicket::snapshot`] (best
//! currently-available result) and [`QueryTicket::on_settle`] (fired once
//! with the terminal status), and drive execution cooperatively with
//! [`QueryTicket::drive`] / [`QueryTicket::pump`].
//!
//! # Cancellation
//!
//! Queries end early cooperatively, per the paper's driver semantics
//! (§4.4: a new interaction on a viz supersedes that viz's pending
//! refresh):
//!
//! - **supersede**: submitting a query for a `(session, viz)` pair that
//!   already has an unsettled ticket revokes the old ticket
//!   ([`EngineService::revoke_superseded`] revokes it without a
//!   replacement, for layers that answer the new query themselves);
//! - **deadline**: a ticket whose work-unit budget (`deadline_units`) is
//!   exhausted settles as [`TicketStatus::Expired`] — its last snapshot
//!   (partial, for progressive engines) remains fetchable;
//!   [`QueryTicket::expire`] does the same at a wall-clock deadline;
//! - **drop**: dropping a ticket revokes any remaining work.
//!
//! A revoked ticket consumes no further units and **never surfaces a stale
//! snapshot** ([`QueryTicket::snapshot`] returns `None`).
//!
//! # Determinism
//!
//! Scheduling order is a pure function of `(deadline_units, session id,
//! ticket id)`; grants are virtual work units, never wall clock. Worker
//! threads (the morsel dispatcher under a step) only change how fast a
//! grant's rows are scanned, never the grant sequence or the results — so
//! reports produced through the service are bit-identical across worker
//! counts.
//!
//! # Implementations
//!
//! [`ServiceCore`] is the shared host every in-repo engine uses: it owns
//! the scheduler and runs unmodified [`SystemAdapter`] implementations
//! behind it — either one shared instance (stateless engines,
//! [`ServiceCore::shared_adapter`]) or one instance per session (engines
//! with per-analyst state, [`ServiceCore::per_session_adapters`]). See the
//! README's migration note.

use crate::adapter::{PrepStats, QueryHandle, SystemAdapter};
use crate::error::CoreError;
use crate::query::Query;
use crate::result::AggResult;
use crate::settings::{Settings, DEFAULT_STEP_QUANTUM};
use idebench_storage::Dataset;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Identifies one analyst session within a shared service.
pub type SessionId = u64;

/// Identifies one submitted query within a scheduler.
pub type TicketId = u64;

/// Scheduler ordering key: `(deadline_units, session, ticket)`. Smaller
/// sorts first on every component — the earliest effective deadline wins,
/// then ties break deterministically by session and submission order.
type SchedKey = (u64, SessionId, TicketId);

/// Per-query submission options (deadline, session, grant size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Work-unit budget before the ticket is expired — the query's
    /// *effective deadline* on the virtual timeline, and its urgency key
    /// for earliest-deadline-first scheduling. `u64::MAX` means "no
    /// deadline" (wall-clock callers enforce their own).
    pub deadline_units: u64,
    /// The submitting session.
    pub session: SessionId,
    /// Work units granted to this ticket per scheduler pump (0 grants 1).
    /// Smaller = finer-grained deadline enforcement and fairer
    /// interleaving; larger = less stepping overhead.
    pub step_quantum: u64,
}

impl QueryOptions {
    /// Default options for a session: no deadline and the default driver
    /// step quantum.
    pub fn for_session(session: SessionId) -> QueryOptions {
        QueryOptions {
            deadline_units: u64::MAX,
            session,
            step_quantum: DEFAULT_STEP_QUANTUM,
        }
    }

    /// Builder-style setter for the work-unit deadline.
    pub fn with_deadline_units(mut self, units: u64) -> QueryOptions {
        self.deadline_units = units;
        self
    }

    /// Builder-style setter for the per-grant step quantum.
    pub fn with_step_quantum(mut self, quantum: u64) -> QueryOptions {
        self.step_quantum = quantum;
        self
    }
}

/// Observable state of a ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketStatus {
    /// Admitted and schedulable; `spent` units consumed so far.
    Running {
        /// Work units consumed so far.
        spent: u64,
    },
    /// Completed; the final result is fetchable via `snapshot`.
    Done {
        /// Work units the query consumed in total.
        spent: u64,
    },
    /// Deadline exhausted before completion. The last snapshot the engine
    /// produced (partial, for progressive engines; `None` for blocking
    /// ones) remains fetchable.
    Expired {
        /// Work units charged to the query: the full budget when a finite
        /// work-unit deadline was set (the benchmark's time-requirement
        /// accounting), otherwise the units consumed before
        /// [`QueryTicket::expire`] was called.
        spent: u64,
    },
    /// Superseded or dropped; no further units are consumed and
    /// `snapshot` returns `None`.
    Revoked {
        /// Work units consumed before revocation.
        spent: u64,
    },
}

impl TicketStatus {
    /// Work units charged to the ticket so far.
    pub fn spent(self) -> u64 {
        match self {
            TicketStatus::Running { spent }
            | TicketStatus::Done { spent }
            | TicketStatus::Expired { spent }
            | TicketStatus::Revoked { spent } => spent,
        }
    }

    /// Whether the ticket has reached a terminal state.
    pub fn is_settled(self) -> bool {
        !matches!(self, TicketStatus::Running { .. })
    }

    /// Whether the query ran to completion.
    pub fn is_done(self) -> bool {
        matches!(self, TicketStatus::Done { .. })
    }

    /// Whether the ticket was revoked (superseded or dropped).
    pub fn is_revoked(self) -> bool {
        matches!(self, TicketStatus::Revoked { .. })
    }

    /// Whether the ticket expired at its deadline.
    pub fn is_expired(self) -> bool {
        matches!(self, TicketStatus::Expired { .. })
    }
}

/// Callback invoked exactly once when a ticket settles (see
/// [`QueryTicket::on_settle`]). Receives the terminal status and the final
/// snapshot, and runs under the scheduler lock — it must not call back
/// into the scheduler or ticket API.
pub type SettleHook = Box<dyn FnOnce(TicketStatus, Option<&AggResult>) + Send>;

/// One in-flight (or settled, not-yet-released) query.
struct TicketCell {
    key: SchedKey,
    viz: String,
    quantum: u64,
    deadline: u64,
    status: TicketStatus,
    /// The engine's handle; present exactly while the ticket runs.
    handle: Option<Box<dyn QueryHandle>>,
    /// `Arc`-shared so settled cache hits cost no deep copy at admission
    /// (readers copy once, at `snapshot()`).
    final_snapshot: Option<Arc<AggResult>>,
    hook: Option<SettleHook>,
}

impl TicketCell {
    /// Moves a running cell to the terminal `status`: takes a final
    /// snapshot (never for revocations — a superseded query must not
    /// surface a stale result), drops the engine handle (cancelling any
    /// remaining work), and fires the settle hook.
    fn settle(&mut self, status: TicketStatus) {
        debug_assert!(!self.status.is_settled(), "settling a settled ticket");
        let handle = self.handle.take();
        self.final_snapshot = if status.is_revoked() {
            None
        } else {
            handle.as_ref().and_then(|h| h.snapshot()).map(Arc::new)
        };
        drop(handle);
        self.status = status;
        if let Some(hook) = self.hook.take() {
            hook(status, self.final_snapshot.as_deref());
        }
    }

    /// Settles the cell `Expired` after `spent` units. A finite deadline
    /// charges its full budget however early the ticket stops (the
    /// benchmark's time-requirement accounting); without one only the
    /// consumed units are charged.
    fn expire(&mut self, spent: u64) {
        let spent = if self.deadline == u64::MAX {
            spent
        } else {
            self.deadline
        };
        self.settle(TicketStatus::Expired { spent });
    }

    /// Revokes the cell if it still runs; returns whether it did.
    fn revoke(&mut self) -> bool {
        match self.status {
            TicketStatus::Running { spent } => {
                self.settle(TicketStatus::Revoked { spent });
                true
            }
            _ => false,
        }
    }
}

#[derive(Default)]
struct SchedState {
    next_id: TicketId,
    tickets: FxHashMap<TicketId, TicketCell>,
    /// Runnable tickets in scheduling order.
    queue: BTreeSet<SchedKey>,
    /// Supersede index: the latest ticket submitted per `(session, viz)`.
    /// A dropped ticket removes its entry while it is still the latest.
    pending: FxHashMap<(SessionId, String), TicketId>,
}

impl SchedState {
    /// Revokes the unsettled pending ticket of `(session, viz)`, if any.
    fn revoke_pending(&mut self, session: SessionId, viz: &str) {
        if let Some(old) = self.pending.get(&(session, viz.to_string())) {
            if let Some(cell) = self.tickets.get_mut(old) {
                if cell.revoke() {
                    self.queue.remove(&cell.key);
                }
            }
        }
    }
}

/// The central deadline-aware scheduler behind a shared service.
///
/// All state lives under one mutex: grants are *virtual-time bookkeeping*
/// (the actual row work under a grant still fans out over the query
/// crate's shared scan pool), and a single lock keeps the grant sequence —
/// and therefore every report — a pure function of the submitted
/// `(deadline, session, ticket)` keys.
#[derive(Default)]
pub struct TicketScheduler {
    inner: Mutex<SchedState>,
}

impl TicketScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Arc<TicketScheduler> {
        Arc::new(TicketScheduler::default())
    }

    /// Admits a query handle, revoking any unsettled ticket of the same
    /// `(session, viz)` (the supersede rule). A zero deadline expires the
    /// ticket immediately — its snapshot (e.g. resumed progress from a
    /// reuse cache) is still captured.
    pub fn admit(
        self: &Arc<Self>,
        handle: Box<dyn QueryHandle>,
        viz: impl Into<String>,
        opts: QueryOptions,
    ) -> QueryTicket {
        self.admit_cell(Some(handle), None, viz.into(), opts)
    }

    /// Admits an already-settled ticket (e.g. a cache hit served at zero
    /// work-unit cost): it is born `Done` with `result` as its final
    /// snapshot (`Arc`-shared — no deep copy at admission), and still
    /// participates in the supersede rule.
    pub fn admit_settled(
        self: &Arc<Self>,
        result: Option<Arc<AggResult>>,
        viz: impl Into<String>,
        opts: QueryOptions,
    ) -> QueryTicket {
        self.admit_cell(None, result, viz.into(), opts)
    }

    /// Revokes the unsettled pending ticket for `(session, viz)`, if any —
    /// the supersede rule without a replacement (see
    /// [`EngineService::revoke_superseded`]).
    fn revoke_pending(&self, session: SessionId, viz: &str) {
        self.inner.lock().unwrap().revoke_pending(session, viz);
    }

    /// Admits a running ticket over `handle`, or — without one — a ticket
    /// born `Done` with `result` as its final snapshot.
    fn admit_cell(
        self: &Arc<Self>,
        handle: Option<Box<dyn QueryHandle>>,
        result: Option<Arc<AggResult>>,
        viz: String,
        opts: QueryOptions,
    ) -> QueryTicket {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        let key = (opts.deadline_units, opts.session, id);

        // Supersede: a newer query for the same viz revokes the old one.
        inner.revoke_pending(opts.session, &viz);
        inner.pending.insert((opts.session, viz.clone()), id);

        let status = match handle {
            Some(_) => TicketStatus::Running { spent: 0 },
            None => TicketStatus::Done { spent: 0 },
        };
        let mut cell = TicketCell {
            key,
            viz,
            quantum: opts.step_quantum.max(1),
            deadline: opts.deadline_units,
            status,
            handle,
            final_snapshot: result,
            hook: None,
        };
        // A born-settled ticket skips the queue entirely.
        if cell.handle.is_some() {
            if opts.deadline_units == 0 {
                cell.expire(0);
            } else {
                inner.queue.insert(key);
            }
        }
        inner.tickets.insert(id, cell);
        QueryTicket {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Grants one quantum to the schedulable ticket with the least
    /// `(deadline, session, ticket)` key. Returns `false` when nothing is
    /// runnable.
    ///
    /// A grant never exceeds the remaining deadline budget, and a step is
    /// charged at most its grant, even when the engine reports more;
    /// completion settles `Done`; spending the whole budget settles
    /// `Expired`; and a zero-unit step without completion is a stalled
    /// engine, charged the full budget and settled `Expired`.
    pub fn pump_one(&self) -> bool {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let Some(key) = inner.queue.pop_first() else {
            return false;
        };
        let cell = inner
            .tickets
            .get_mut(&key.2)
            .expect("queued ticket has a cell");
        // Every settlement leaves the queue, so a queued cell runs.
        let TicketStatus::Running { spent } = cell.status else {
            return true;
        };
        let grant = cell.quantum.min(cell.deadline - spent);
        let step = cell
            .handle
            .as_mut()
            .expect("running ticket has a handle")
            .step(grant);
        // An engine that reports more than its grant is charged the grant,
        // so `spent` never passes the deadline.
        let units = step.units().min(grant);
        let spent = spent + units;
        if step.is_done() {
            cell.settle(TicketStatus::Done { spent });
        } else if units == 0 || spent >= cell.deadline {
            // The budget is spent, or the engine yields without progress
            // and would never finish: stop granting instead of looping
            // forever.
            cell.expire(spent);
        } else {
            cell.status = TicketStatus::Running { spent };
            inner.queue.insert(key);
        }
        true
    }

    /// Number of tickets not yet released (running or settled-but-held).
    #[cfg(test)]
    fn live_tickets(&self) -> usize {
        self.inner.lock().unwrap().tickets.len()
    }

    /// Number of runnable tickets awaiting grants.
    #[cfg(test)]
    fn runnable(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Number of `(session, viz)` entries in the supersede index.
    #[cfg(test)]
    fn pending_vizs(&self) -> usize {
        self.inner.lock().unwrap().pending.len()
    }

    /// Revokes a dropped ticket's remaining work and releases its state.
    fn release(&self, id: TicketId) {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        if let Some(mut cell) = inner.tickets.remove(&id) {
            cell.revoke();
            inner.queue.remove(&cell.key);
            // Clean the supersede index if this ticket is still the viz's
            // latest, so `pending` never outgrows the live dashboards.
            let entry = (cell.key.1, cell.viz);
            if inner.pending.get(&entry) == Some(&id) {
                inner.pending.remove(&entry);
            }
        }
    }
}

/// A handle to one submitted query — the service-world replacement for the
/// exclusively-owned [`crate::QueryHandle`].
///
/// Dropping the ticket releases its scheduler state and cancels any
/// remaining work (a running ticket settles as revoked first).
pub struct QueryTicket {
    sched: Arc<TicketScheduler>,
    id: TicketId,
}

impl QueryTicket {
    /// Current status (phase + units consumed).
    pub fn status(&self) -> TicketStatus {
        self.sched.inner.lock().unwrap().tickets[&self.id].status
    }

    /// Work units charged to the query so far.
    pub fn spent_units(&self) -> u64 {
        self.status().spent()
    }

    /// Whether the ticket has reached a terminal state.
    pub fn is_settled(&self) -> bool {
        self.status().is_settled()
    }

    /// Whether the query ran to completion.
    pub fn is_done(&self) -> bool {
        self.status().is_done()
    }

    /// The best currently-available result: live engine snapshots while
    /// running (partial estimates for progressive engines), the final
    /// snapshot once done or expired, and `None` for revoked tickets —
    /// a superseded query never surfaces a stale snapshot.
    pub fn snapshot(&self) -> Option<AggResult> {
        let inner = self.sched.inner.lock().unwrap();
        let cell = &inner.tickets[&self.id];
        match cell.status {
            TicketStatus::Running { .. } => cell.handle.as_ref().and_then(|h| h.snapshot()),
            TicketStatus::Revoked { .. } => None,
            TicketStatus::Done { .. } | TicketStatus::Expired { .. } => {
                cell.final_snapshot.as_deref().cloned()
            }
        }
    }

    /// [`QueryTicket::snapshot`], consuming the ticket: a settled result
    /// moves out of the ticket instead of being copied, unless it is
    /// shared (a cache hit's), which is cloned. Dropping the ticket then
    /// revokes any remaining work.
    pub fn into_snapshot(self) -> Option<AggResult> {
        let mut inner = self.sched.inner.lock().unwrap();
        let cell = inner.tickets.get_mut(&self.id).expect("live ticket");
        match cell.status {
            TicketStatus::Running { .. } => cell.handle.as_ref().and_then(|h| h.snapshot()),
            TicketStatus::Revoked { .. } => None,
            TicketStatus::Done { .. } | TicketStatus::Expired { .. } => cell
                .final_snapshot
                .take()
                .map(|r| Arc::try_unwrap(r).unwrap_or_else(|shared| (*shared).clone())),
        }
    }

    /// Pumps the scheduler until this ticket settles, then returns its
    /// terminal status. Grants go to the globally most-urgent ticket each
    /// pump, so driving one ticket also advances more-urgent work from
    /// other sessions — cooperative multiplexing.
    pub fn drive(&self) -> TicketStatus {
        loop {
            let status = self.status();
            if status.is_settled() {
                return status;
            }
            if !self.sched.pump_one() {
                // Queue drained (e.g. self settled on the last pump).
                return self.status();
            }
        }
    }

    /// Grants exactly one scheduler pump (to the globally most-urgent
    /// ticket) and returns this ticket's status afterwards. Building block
    /// for wall-clock deadline loops.
    pub fn pump(&self) -> TicketStatus {
        self.sched.pump_one();
        self.status()
    }

    /// Deadline-cancels the ticket: it settles as expired and its last
    /// engine snapshot (partial results) stays fetchable. No-op once
    /// settled. Wall-clock drivers call this at the time requirement.
    pub fn expire(&self) {
        let mut guard = self.sched.inner.lock().unwrap();
        let inner = &mut *guard;
        if let Some(cell) = inner.tickets.get_mut(&self.id) {
            if let TicketStatus::Running { spent } = cell.status {
                cell.expire(spent);
                inner.queue.remove(&cell.key);
            }
        }
    }

    /// Registers a callback fired exactly once when the ticket settles
    /// (immediately, if it already has). Multiple registrations *chain*:
    /// hooks fire in registration order, so a layered service's hook (e.g.
    /// cache staging) survives a later caller's. Hooks run under the
    /// scheduler lock: they must not call back into the scheduler or
    /// ticket API.
    pub fn on_settle(&self, hook: impl FnOnce(TicketStatus, Option<&AggResult>) + Send + 'static) {
        let mut inner = self.sched.inner.lock().unwrap();
        let cell = inner.tickets.get_mut(&self.id).expect("live ticket");
        if cell.status.is_settled() {
            hook(cell.status, cell.final_snapshot.as_deref());
        } else {
            cell.hook = Some(match cell.hook.take() {
                None => Box::new(hook),
                Some(prev) => Box::new(move |status, snapshot| {
                    prev(status, snapshot);
                    hook(status, snapshot);
                }),
            });
        }
    }
}

impl Drop for QueryTicket {
    fn drop(&mut self) {
        // An engine panicked inside `step` while the scheduler lock was
        // held. This drop is then most likely part of that unwind, and
        // locking would panic again and abort the process.
        if self.sched.inner.is_poisoned() {
            return;
        }
        self.sched.release(self.id);
    }
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket")
            .field("id", &self.id)
            .field("status", &self.status())
            .finish()
    }
}

/// Proxy between the benchmark and a *shared* system under test — the
/// multi-session successor of [`SystemAdapter`] (see the module docs).
///
/// One `Arc<dyn EngineService>` serves every session of a run: sessions
/// are opened with their own settings, submit concurrently through
/// `&self`, and never own engine state.
pub trait EngineService: Send + Sync {
    /// Short engine name used in reports (e.g. `"exact"`).
    fn name(&self) -> &str;

    /// Makes the service ready to answer `session`'s queries over
    /// `dataset`: ingestion and offline preparation on first contact
    /// (idempotent per dataset), plus per-session state. Returns the
    /// preparation cost charged to this session.
    fn open_session(
        &self,
        session: SessionId,
        dataset: &Dataset,
        settings: &Settings,
    ) -> Result<PrepStats, CoreError>;

    /// Ends a session (the adapter's `workflow_end`). Engine-side session
    /// state may be retained so a later `open_session` resumes it.
    fn close_session(&self, _session: SessionId) {}

    /// Submits a query on behalf of `opts.session`, returning its ticket.
    /// An unsettled ticket for the same `(session, viz)` is revoked (the
    /// paper's supersede rule).
    fn submit(&self, query: &Query, opts: QueryOptions) -> QueryTicket;

    /// Revokes `session`'s unsettled pending ticket for `viz_name`, if
    /// any, *without* submitting a replacement through this service —
    /// layered services (result caches) call this when the superseding
    /// query is answered at their layer, so the supersede rule holds
    /// across layers.
    fn revoke_superseded(&self, _session: SessionId, _viz_name: &str) {}

    /// Speculation hint: the session linked two vizs (paper `link_vizs`).
    fn on_link(&self, _session: SessionId, _source_query: &Query, _target_query: &Query) {}

    /// Grants idle think-time work units to the session's engine state.
    fn on_think(&self, _session: SessionId, _budget_units: u64) {}

    /// The session discarded a viz (paper `delete_vizs`).
    fn on_discard(&self, _session: SessionId, _viz_name: &str) {}
}

/// Factory producing one [`SystemAdapter`] per session.
type AdapterFactory = Box<dyn FnMut(SessionId) -> Box<dyn SystemAdapter> + Send>;

/// How a [`ServiceCore`] maps sessions onto adapter instances.
enum Adapters {
    /// One adapter instance serves every session — correct for engines
    /// whose `submit` is stateless across sessions (exact, wander,
    /// stratified): shared dataset ingestion, shared samples, shared
    /// column statistics.
    Shared(Box<dyn SystemAdapter>),
    /// One adapter instance per session — engines with per-analyst state
    /// (the progressive engine's reuse/speculation stores, middleware
    /// result caches) keep exactly their single-analyst semantics.
    PerSession {
        factory: AdapterFactory,
        sessions: FxHashMap<SessionId, Box<dyn SystemAdapter>>,
    },
}

impl Adapters {
    /// The adapter serving `session`, created on first use.
    fn open(&mut self, session: SessionId) -> &mut dyn SystemAdapter {
        match self {
            Adapters::Shared(a) => a.as_mut(),
            Adapters::PerSession { factory, sessions } => sessions
                .entry(session)
                .or_insert_with(|| factory(session))
                .as_mut(),
        }
    }

    /// The adapter serving an opened `session`.
    fn get(&mut self, session: SessionId) -> &mut dyn SystemAdapter {
        match self {
            Adapters::Shared(a) => a.as_mut(),
            Adapters::PerSession { sessions, .. } => sessions
                .get_mut(&session)
                .expect("open_session must run before queries")
                .as_mut(),
        }
    }
}

/// The shared service host: one [`TicketScheduler`] in front of
/// unmodified [`SystemAdapter`] instances, implementing [`EngineService`]
/// for all of them.
///
/// `open_session` maps to `prepare` + `workflow_start`, `close_session`
/// to `workflow_end`, `submit` to the adapter's `submit` (its handle feeds
/// the scheduler), and the notification hooks forward directly — so an
/// adapter written against the paper's Listing-1 interface runs under the
/// shared service without changes. Every in-repo engine exposes a
/// constructor returning a `ServiceCore` (`ExactAdapter::into_service()`,
/// `ProgressiveAdapter::service(…)`, …); external adapters go through
/// [`ServiceCore::shared_adapter`] / [`ServiceCore::per_session_adapters`].
pub struct ServiceCore {
    name: String,
    adapters: Mutex<Adapters>,
    sched: Arc<TicketScheduler>,
}

impl ServiceCore {
    fn with_adapters(name: String, adapters: Adapters) -> ServiceCore {
        ServiceCore {
            name,
            adapters: Mutex::new(adapters),
            sched: TicketScheduler::new(),
        }
    }

    /// Hosts one shared adapter instance serving every session (stateless
    /// engines: dataset ingestion, samples and column statistics are
    /// shared fleet-wide instead of duplicated per analyst).
    pub fn shared_adapter(adapter: impl SystemAdapter + 'static) -> ServiceCore {
        let name = adapter.name().to_string();
        ServiceCore::with_adapters(name, Adapters::Shared(Box::new(adapter)))
    }

    /// Hosts one adapter instance per session, created lazily by
    /// `factory` at the session's `open_session` — the hosting mode for
    /// engines with per-analyst state.
    pub fn per_session_adapters(
        name: impl Into<String>,
        factory: impl FnMut(SessionId) -> Box<dyn SystemAdapter> + Send + 'static,
    ) -> ServiceCore {
        ServiceCore::with_adapters(
            name.into(),
            Adapters::PerSession {
                factory: Box::new(factory),
                sessions: FxHashMap::default(),
            },
        )
    }

    /// The service's scheduler (shared with every ticket it issued).
    #[cfg(test)]
    fn scheduler(&self) -> &Arc<TicketScheduler> {
        &self.sched
    }

    /// Boxes the core behind the trait object every harness consumes.
    pub fn into_shared(self) -> Arc<dyn EngineService> {
        Arc::new(self)
    }
}

impl EngineService for ServiceCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn open_session(
        &self,
        session: SessionId,
        dataset: &Dataset,
        settings: &Settings,
    ) -> Result<PrepStats, CoreError> {
        let mut adapters = self.adapters.lock().unwrap();
        let adapter = adapters.open(session);
        let prep = adapter.prepare(dataset, settings)?;
        adapter.workflow_start();
        Ok(prep)
    }

    fn close_session(&self, session: SessionId) {
        // Session state is retained, so a later `open_session` of the same
        // session resumes it (one adapter instance serving an analyst's
        // workflows back to back); only the lifecycle hook fires.
        match &mut *self.adapters.lock().unwrap() {
            Adapters::Shared(a) => a.workflow_end(),
            Adapters::PerSession { sessions, .. } => {
                if let Some(a) = sessions.get_mut(&session) {
                    a.workflow_end();
                }
            }
        }
    }

    fn submit(&self, query: &Query, opts: QueryOptions) -> QueryTicket {
        let handle = self
            .adapters
            .lock()
            .unwrap()
            .get(opts.session)
            .submit(query);
        self.sched.admit(handle, query.viz_name().to_string(), opts)
    }

    fn revoke_superseded(&self, session: SessionId, viz_name: &str) {
        self.sched.revoke_pending(session, viz_name);
    }

    fn on_link(&self, session: SessionId, source_query: &Query, target_query: &Query) {
        self.adapters
            .lock()
            .unwrap()
            .get(session)
            .on_link(source_query, target_query);
    }

    fn on_think(&self, session: SessionId, budget_units: u64) {
        self.adapters
            .lock()
            .unwrap()
            .get(session)
            .on_think(budget_units);
    }

    fn on_discard(&self, session: SessionId, viz_name: &str) {
        self.adapters
            .lock()
            .unwrap()
            .get(session)
            .on_discard(viz_name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::StepStatus;
    use crate::result::{BinCoord, BinKey, BinStats};
    use crate::spec::{AggregateSpec, BinDef, VizSpec};
    use idebench_storage::{DataType, TableBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A handle costing `remaining` units; progressive handles expose a
    /// partial snapshot as soon as any unit was consumed.
    struct ToyHandle {
        remaining: u64,
        progressed: u64,
        progressive: bool,
    }

    impl ToyHandle {
        fn result(units: u64) -> AggResult {
            let mut r = AggResult::empty_exact();
            r.insert(
                BinKey::d1(BinCoord::Cat(0)),
                BinStats::exact(vec![units as f64]),
            );
            r
        }
    }

    impl QueryHandle for ToyHandle {
        fn step(&mut self, granted: u64) -> StepStatus {
            let used = granted.min(self.remaining);
            self.remaining -= used;
            self.progressed += used;
            if self.remaining == 0 {
                StepStatus::Done { units: used }
            } else {
                StepStatus::Running { units: used }
            }
        }

        fn snapshot(&self) -> Option<AggResult> {
            if self.remaining == 0 || (self.progressive && self.progressed > 0) {
                Some(ToyHandle::result(self.progressed))
            } else {
                None
            }
        }

        fn is_done(&self) -> bool {
            self.remaining == 0
        }
    }

    struct ToyAdapter {
        cost: u64,
        progressive: bool,
        thinks: Vec<u64>,
        discards: Vec<String>,
    }

    impl ToyAdapter {
        fn new(cost: u64, progressive: bool) -> ToyAdapter {
            ToyAdapter {
                cost,
                progressive,
                thinks: Vec::new(),
                discards: Vec::new(),
            }
        }
    }

    impl SystemAdapter for ToyAdapter {
        fn name(&self) -> &str {
            "toy"
        }

        fn prepare(&mut self, _d: &Dataset, _s: &Settings) -> Result<PrepStats, CoreError> {
            Ok(PrepStats {
                load_units: 3,
                ..Default::default()
            })
        }

        fn submit(&mut self, _query: &Query) -> Box<dyn QueryHandle> {
            Box::new(ToyHandle {
                remaining: self.cost,
                progressed: 0,
                progressive: self.progressive,
            })
        }

        fn on_think(&mut self, budget_units: u64) {
            self.thinks.push(budget_units);
        }

        fn on_discard(&mut self, viz_name: &str) {
            self.discards.push(viz_name.to_string());
        }
    }

    fn dataset() -> Dataset {
        let mut b = TableBuilder::with_fields("flights", &[("carrier", DataType::Nominal)]);
        b.push_row(&["AA".into()]).unwrap();
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn query(viz: &str) -> Query {
        let spec = VizSpec::new(
            viz,
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        Query::for_viz(&spec, None)
    }

    fn service(cost: u64, progressive: bool) -> ServiceCore {
        let svc = ServiceCore::shared_adapter(ToyAdapter::new(cost, progressive));
        svc.open_session(0, &dataset(), &Settings::default())
            .unwrap();
        svc
    }

    fn opts(session: SessionId, deadline: u64) -> QueryOptions {
        QueryOptions::for_session(session)
            .with_deadline_units(deadline)
            .with_step_quantum(100)
    }

    #[test]
    fn ticket_completes_within_deadline() {
        let svc = service(250, false);
        let t = svc.submit(&query("v"), opts(0, 1_000));
        assert_eq!(t.status(), TicketStatus::Running { spent: 0 });
        let st = t.drive();
        assert_eq!(st, TicketStatus::Done { spent: 250 });
        assert_eq!(t.snapshot().unwrap(), ToyHandle::result(250));
    }

    #[test]
    fn ticket_expires_at_deadline_budget() {
        let svc = service(5_000, false);
        let t = svc.submit(&query("v"), opts(0, 300));
        let st = t.drive();
        assert_eq!(st, TicketStatus::Expired { spent: 300 });
        // Blocking engine: nothing fetchable at expiry.
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn expired_progressive_ticket_keeps_partial_snapshot() {
        let svc = service(5_000, true);
        let t = svc.submit(&query("v"), opts(0, 300));
        assert!(t.drive().is_expired());
        assert_eq!(t.snapshot().unwrap(), ToyHandle::result(300));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let svc = service(100, false);
        let t = svc.submit(&query("v"), opts(0, 0));
        assert_eq!(t.status(), TicketStatus::Expired { spent: 0 });
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn superseding_submit_revokes_the_pending_ticket() {
        let svc = service(10_000, true);
        let t1 = svc.submit(&query("v"), opts(0, 5_000));
        // Partially drive, then supersede with a fresh query on the viz.
        t1.pump();
        let spent_before = t1.spent_units();
        assert!(spent_before > 0 && !t1.is_settled());
        let t2 = svc.submit(&query("v"), opts(0, 5_000));
        // Revoked: no more units, and no stale snapshot.
        assert_eq!(
            t1.status(),
            TicketStatus::Revoked {
                spent: spent_before
            }
        );
        assert!(t1.snapshot().is_none());
        // Driving the new ticket never advances the revoked one.
        t2.pump();
        assert_eq!(t1.spent_units(), spent_before);
        assert!(t2.spent_units() > 0);
    }

    #[test]
    fn distinct_vizs_and_sessions_do_not_supersede() {
        let svc = service(10_000, false);
        svc.open_session(1, &dataset(), &Settings::default())
            .unwrap();
        let t1 = svc.submit(&query("v"), opts(0, 5_000));
        let t2 = svc.submit(&query("w"), opts(0, 5_000));
        let t3 = svc.submit(&query("v"), opts(1, 5_000));
        assert!(!t1.is_settled());
        assert!(!t2.is_settled());
        assert!(!t3.is_settled());
    }

    #[test]
    fn scheduler_grants_by_deadline_then_session_then_ticket() {
        // Each input submits two `(session, deadline, viz)` tickets in
        // order; the indexed one is funded until it settles.
        let inputs = [
            // Session 1 submits first but with a later effective deadline.
            ([(1, 10_000, "v"), (0, 2_000, "v")], 1),
            // Equal deadlines: the smaller session wins.
            ([(1, 5_000, "v"), (0, 5_000, "v")], 1),
            // Equal session and deadline on two vizs: submission order wins
            // (`WorkflowSession::step_service` funds an interaction's lanes
            // one after another this way).
            ([(0, 5_000, "a"), (0, 5_000, "b")], 0),
        ];
        for (submissions, first) in inputs {
            let svc = service(1_000, false);
            svc.open_session(1, &dataset(), &Settings::default())
                .unwrap();
            let tickets: Vec<_> = submissions
                .iter()
                .map(|&(session, deadline, viz)| svc.submit(&query(viz), opts(session, deadline)))
                .collect();
            let (funded, waiting) = (&tickets[first], &tickets[1 - first]);
            while !funded.is_settled() {
                funded.pump();
                assert_eq!(waiting.spent_units(), 0, "{submissions:?}");
            }
            assert!(funded.is_done());
            assert!(waiting.drive().is_done());
        }
    }

    #[test]
    fn drop_revokes_and_releases() {
        let svc = service(10_000, true);
        let t = svc.submit(&query("v"), opts(0, 5_000));
        t.pump();
        let settled = Arc::new(Mutex::new(None));
        let s = Arc::clone(&settled);
        t.on_settle(move |st, snap| *s.lock().unwrap() = Some((st, snap.is_some())));
        drop(t);
        // Revoked at the units spent so far, with no snapshot.
        assert_eq!(
            *settled.lock().unwrap(),
            Some((TicketStatus::Revoked { spent: 100 }, false))
        );
        assert_eq!(svc.scheduler().runnable(), 0);
        assert_eq!(svc.scheduler().live_tickets(), 0);
    }

    #[test]
    fn released_tickets_leave_no_supersede_entries() {
        let svc = service(1_000, true);
        svc.open_session(1, &dataset(), &Settings::default())
            .unwrap();
        let sched = Arc::clone(svc.scheduler());
        // Many distinct vizs, each ticket dropped running, part-run or done.
        for i in 0..64u64 {
            let t = svc.submit(&query(&format!("v{i}")), opts(i % 2, 5_000));
            if i % 3 == 1 {
                t.pump();
            } else if i % 3 == 2 {
                t.drive();
            }
        }
        assert_eq!(sched.pending_vizs(), 0);
        // A chain of superseded tickets on one viz: the stale ones drop
        // first and must leave the newest one's entry in place.
        let mut chain: Vec<_> = (0..16)
            .map(|_| svc.submit(&query("v"), opts(0, 5_000)))
            .collect();
        let newest = chain.pop().unwrap();
        drop(chain);
        assert_eq!(sched.pending_vizs(), 1);
        let next = svc.submit(&query("v"), opts(0, 5_000));
        assert!(newest.status().is_revoked(), "still superseded");
        drop(next);
        drop(newest);
        assert_eq!(
            (sched.live_tickets(), sched.runnable(), sched.pending_vizs()),
            (0, 0, 0)
        );
    }

    #[test]
    fn expire_preserves_partial_results() {
        let svc = service(10_000, true);
        let t = svc.submit(&query("v"), opts(0, u64::MAX));
        t.pump();
        t.expire();
        assert!(t.status().is_expired());
        assert!(t.snapshot().is_some());
    }

    #[test]
    fn on_settle_fires_once_with_final_result() {
        let fired = Arc::new(AtomicU64::new(0));
        let svc = service(250, false);
        let t = svc.submit(&query("v"), opts(0, 1_000));
        let f = Arc::clone(&fired);
        t.on_settle(move |st, snap| {
            assert!(st.is_done());
            assert!(snap.is_some());
            f.fetch_add(1, Ordering::SeqCst);
        });
        t.drive();
        t.drive();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Late registration on a settled ticket fires immediately.
        let f = Arc::clone(&fired);
        t.on_settle(move |_, _| {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn admit_settled_serves_instantly_at_zero_cost() {
        let sched = TicketScheduler::new();
        let result = ToyHandle::result(7);
        let t = sched.admit_settled(Some(Arc::new(result.clone())), "v", opts(0, 1_000));
        assert_eq!(t.status(), TicketStatus::Done { spent: 0 });
        assert_eq!(t.snapshot().unwrap(), result);
        assert_eq!(t.drive(), TicketStatus::Done { spent: 0 });
    }

    #[test]
    fn into_snapshot_moves_a_settled_result_and_copies_a_shared_one() {
        let svc = service(250, false);
        let t = svc.submit(&query("v"), opts(0, 1_000));
        t.drive();
        assert_eq!(t.into_snapshot().unwrap(), ToyHandle::result(250));
        assert_eq!(
            svc.scheduler().live_tickets(),
            0,
            "consumed tickets release"
        );

        let sched = TicketScheduler::new();
        let shared = Arc::new(ToyHandle::result(7));
        let t = sched.admit_settled(Some(Arc::clone(&shared)), "v", opts(0, 1_000));
        assert_eq!(t.into_snapshot().unwrap(), *shared);
        assert_eq!(Arc::strong_count(&shared), 1, "the shared result survives");

        let t = svc.submit(&query("w"), opts(0, 1_000));
        svc.revoke_superseded(0, "w");
        assert!(t.into_snapshot().is_none());
    }

    #[test]
    fn on_settle_hooks_chain_in_registration_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let svc = service(250, false);
        let t = svc.submit(&query("v"), opts(0, 1_000));
        for tag in ["layer", "caller"] {
            let o = Arc::clone(&order);
            t.on_settle(move |st, _| {
                assert!(st.is_done());
                o.lock().unwrap().push(tag);
            });
        }
        t.drive();
        assert_eq!(*order.lock().unwrap(), vec!["layer", "caller"]);
    }

    #[test]
    fn early_expire_charges_the_finite_budget() {
        let svc = service(10_000, true);
        // Finite deadline: expiring early still charges the full budget,
        // matching `pump_one`'s deadline-exhaustion accounting.
        let t = svc.submit(&query("v"), opts(0, 4_000));
        t.pump();
        t.expire();
        assert_eq!(t.status(), TicketStatus::Expired { spent: 4_000 });
        // No deadline (wall-clock callers): only consumed units charged.
        let t = svc.submit(&query("w"), opts(0, u64::MAX));
        t.pump();
        t.expire();
        assert_eq!(t.status(), TicketStatus::Expired { spent: 100 });
    }

    #[test]
    fn revoke_pending_supersedes_without_replacement() {
        let svc = service(10_000, true);
        let t = svc.submit(&query("v"), opts(0, 5_000));
        t.pump();
        svc.revoke_superseded(0, "v");
        assert!(t.status().is_revoked());
        assert!(t.snapshot().is_none());
        // Unknown viz / session: no-op.
        svc.revoke_superseded(0, "ghost");
        svc.revoke_superseded(9, "v");
    }

    #[test]
    fn per_session_bridge_isolates_adapter_state() {
        let svc =
            ServiceCore::per_session_adapters("toy", |_| Box::new(ToyAdapter::new(1_000, false)));
        let ds = dataset();
        svc.open_session(0, &ds, &Settings::default()).unwrap();
        svc.open_session(1, &ds, &Settings::default()).unwrap();
        // Think grants route to the owning session's adapter only; this
        // just must not panic and must not cross-talk (ToyAdapter records
        // per-instance state).
        svc.on_think(0, 42);
        svc.on_discard(1, "v");
        let t0 = svc.submit(&query("v"), opts(0, 2_000));
        let t1 = svc.submit(&query("v"), opts(1, 2_000));
        assert!(t0.drive().is_done());
        assert!(t1.drive().is_done());
    }

    #[test]
    fn stalled_engine_is_charged_the_full_budget() {
        /// Yields forever without progress.
        struct Stall;
        impl QueryHandle for Stall {
            fn step(&mut self, _granted: u64) -> StepStatus {
                StepStatus::Running { units: 0 }
            }
            fn snapshot(&self) -> Option<AggResult> {
                None
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let sched = TicketScheduler::new();
        let t = sched.admit(Box::new(Stall), "v", opts(0, 777));
        assert_eq!(t.drive(), TicketStatus::Expired { spent: 777 });
    }

    #[test]
    fn overdrawing_engine_is_charged_no_more_than_its_grants() {
        /// Reports ten units more than every grant.
        struct Overdraw;
        impl QueryHandle for Overdraw {
            fn step(&mut self, granted: u64) -> StepStatus {
                StepStatus::Running {
                    units: granted + 10,
                }
            }
            fn snapshot(&self) -> Option<AggResult> {
                None
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let sched = TicketScheduler::new();
        let t = sched.admit(Box::new(Overdraw), "v", opts(0, 777));
        assert_eq!(t.drive(), TicketStatus::Expired { spent: 777 });
    }
}
