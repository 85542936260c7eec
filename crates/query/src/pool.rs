//! The persistent, channel-fed scan worker pool.
//!
//! [`ScanPool`] owns a fixed set of long-lived worker threads fed from a
//! FIFO claim queue. Parallel scan spans no longer spawn and join an OS
//! thread per worker per span (the overhead the old `std::thread::scope`
//! design paid): a span publishes *claims* on its shared body closure, pool
//! workers pick claims up, run the body until the span's chunks are
//! exhausted, and the calling thread — always a full participant — revokes
//! whatever claims nobody got to. One process-wide pool
//! ([`global_pool`], sized to this machine's available parallelism) serves
//! every dispatcher, so intra-query parallelism and multi-session
//! concurrency compose without oversubscription: no matter how many
//! sessions scan at once, at most `threads + callers` OS threads do scan
//! work, and the FIFO claim queue arbitrates chunks fairly in span-arrival
//! order across sessions.
//!
//! # Execution model
//!
//! [`ScanPool::scope_run`] is a drop-in replacement for "spawn `n` scoped
//! threads over one closure and join them":
//!
//! 1. The caller enqueues `helpers` claims referencing `body` and wakes one
//!    parked worker per claim that the spinning worker (if any) will not
//!    take.
//! 2. The caller runs `body()` itself. The body is a work-*stealing* loop
//!    (workers pull chunk indices from a shared atomic), so the span makes
//!    full progress even when every pool thread is busy with other spans.
//! 3. On return the caller revokes its still-queued claims and waits only
//!    for claims already *running* — which terminate as soon as the chunk
//!    supply is dry.
//!
//! Stepped scans run spans of one or two chunks (≈100 µs of kernel work
//! each) back to back, so a futex wake per span and a sleep in every join
//! would cost a visible share of the span. Both ends therefore spin for
//! [`SPIN`] before they sleep:
//!
//! - A worker that finds the queue empty spins for [`SPIN`], watching an
//!   atomic count of queued claims, and then parks on the queue's condvar.
//!   At most one worker spins at a time, so an idle pool holds at most one
//!   core busy, and only for [`SPIN`] after its last claim: the threads
//!   running at once never exceed the span's participants plus one spinner.
//! - The caller's join spins for [`SPIN`] on the span's count of
//!   unfinished claims before it waits on the span's condvar.
//!
//! The parked count changes only under the queue lock, and `scope_run`
//! reads it (and whether a worker spins) under the same lock after it has
//! queued its claims, so a claim is never left to a worker that already
//! stopped spinning and never wakes a worker that is not parked. Even a
//! lost wakeup would cost only parallelism: the caller runs the body to
//! completion itself.
//!
//! [`ScanPool::stats`] counts spans, helper claims run, claims revoked and
//! parks, per pool and per span, never per row.
//!
//! # Safety
//!
//! The body reference is lifetime-erased to cross the `'static` boundary of
//! the persistent worker threads. This is sound because `scope_run` does
//! not return — by normal exit *or by unwind* — until every claim is either
//! revoked (still queued, never ran) or finished running: the revoke-and-
//! wait step lives in a drop guard, so a panic inside the caller's own
//! `body()` pass still waits out in-flight workers before the borrowed
//! state unwinds. Workers run the body under `catch_unwind`, always retire
//! their claim, and a worker-side panic is re-raised in the caller after
//! the wait — the same propagation `std::thread::scope` performed at join.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker spins for a claim before it parks, and how long
/// a span's caller spins for its helpers before it sleeps. A constant, not
/// a setting: it only has to outlast the caller's work between the
/// back-to-back spans of a stepped scan.
pub const SPIN: Duration = Duration::from_micros(50);

/// A worker panic's payload, carried back to the span's caller.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Locks a mutex, transparently recovering from poisoning (a panicking
/// participant must not wedge the pool's bookkeeping).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spins until `stop()` holds or [`SPIN`] has passed; returns whether
/// `stop()` held.
fn spin_until(stop: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if stop() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return stop();
        }
    }
}

/// A lifetime-erased pointer to a span body. Only dereferenced while the
/// originating [`ScanPool::scope_run`] call is still blocked (see module
/// docs), which is what makes the `Send + Sync` claims sound.
#[derive(Clone, Copy)]
struct BodyPtr(*const (dyn Fn() + Sync + 'static));

unsafe impl Send for BodyPtr {}
unsafe impl Sync for BodyPtr {}

/// One span's shared handle: the body plus its claim accounting.
struct SpanTask {
    body: BodyPtr,
    /// Claims not yet retired: still queued, or popped and running. The
    /// caller's join waits for it to reach zero.
    unfinished: AtomicUsize,
    /// Set once the caller's own pass is done: a claim popped later retires
    /// without running the body.
    revoked: AtomicBool,
    /// The first worker panic's payload, re-raised in the caller
    /// (preserving the original message, as `std::thread::scope` did).
    panic: Mutex<Option<PanicPayload>>,
    /// Set by the caller, under `join`, before it sleeps on `done`; the
    /// last claim signals `done` only then.
    asleep: AtomicBool,
    join: Mutex<()>,
    done: Condvar,
}

impl SpanTask {
    /// Retires `n` claims; the last one wakes a caller asleep in its join.
    fn retire(&self, n: usize) {
        if n > 0
            && self.unfinished.fetch_sub(n, Ordering::SeqCst) == n
            && self.asleep.load(Ordering::SeqCst)
        {
            // Under the join lock, so the wakeup cannot fall between the
            // caller's check and its wait.
            let _join = lock(&self.join);
            self.done.notify_all();
        }
    }
}

/// The claim queue, the count of parked workers and the shutdown latch,
/// under one lock.
struct QueueState {
    claims: VecDeque<Arc<SpanTask>>,
    /// Workers waiting on `ready`; changes only under this lock.
    parked: usize,
    shutdown: bool,
}

struct PoolShared {
    /// FIFO claim queue — one entry per outstanding helper claim. FIFO
    /// order is what arbitrates chunks fairly across concurrent sessions.
    queue: Mutex<QueueState>,
    ready: Condvar,
    /// `claims.len()`, published for the spinning worker, which watches it
    /// without taking the lock.
    queued: AtomicUsize,
    /// Whether a worker is spinning; at most one does at a time.
    spinning: AtomicBool,
    spans: AtomicU64,
    helper_runs: AtomicU64,
    revoked: AtomicU64,
    parks: AtomicU64,
}

/// Counters of one pool since its creation (see [`ScanPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `scope_run` calls that published at least one helper claim.
    pub spans: u64,
    /// Helper claims a pool worker ran the body for.
    pub helper_runs: u64,
    /// Helper claims retired without running: still queued when the
    /// caller's own pass finished, or popped after it.
    pub revoked: u64,
    /// Times a worker parked on the claim queue after its spin.
    pub parks: u64,
}

/// A persistent scan worker pool (see module docs).
pub struct ScanPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScanPool {
    /// Creates a pool with `threads` persistent workers. Idle workers spin
    /// for [`SPIN`] (one at a time) and then park on the claim queue; they
    /// live until the pool is dropped.
    pub fn new(threads: usize) -> ScanPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                claims: VecDeque::new(),
                parked: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            queued: AtomicUsize::new(0),
            spinning: AtomicBool::new(false),
            spans: AtomicU64::new(0),
            helper_runs: AtomicU64::new(0),
            revoked: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("idebench-scan-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn scan pool worker")
            })
            .collect();
        ScanPool { shared, workers }
    }

    /// Number of persistent worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The pool's counters so far (relaxed reads: exact once the pool is
    /// quiet).
    pub fn stats(&self) -> PoolStats {
        let sh = &self.shared;
        PoolStats {
            spans: sh.spans.load(Ordering::Relaxed),
            helper_runs: sh.helper_runs.load(Ordering::Relaxed),
            revoked: sh.revoked.load(Ordering::Relaxed),
            parks: sh.parks.load(Ordering::Relaxed),
        }
    }

    /// Runs `body` on the calling thread *and* on up to `helpers` pool
    /// workers concurrently, returning once every participant is done.
    ///
    /// Equivalent to spawning `helpers + 1` scoped threads over `body` and
    /// joining them — minus the per-call spawn/join round-trips, and with
    /// the same panic discipline (a panic in any participant is propagated
    /// to the caller, after all participants have stopped). Claims the pool
    /// cannot service promptly are revoked when the caller's own pass
    /// finishes, so a saturated (or zero-thread) pool degrades to the
    /// caller simply doing all the work; the call never deadlocks, even
    /// when invoked from a pool worker itself.
    pub fn scope_run(&self, helpers: usize, body: &(dyn Fn() + Sync)) {
        if helpers == 0 || self.workers.is_empty() {
            body();
            return;
        }
        // Lifetime erasure — sound per the module-level safety argument.
        let body_static: &'static (dyn Fn() + Sync + 'static) = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync + 'static)>(body)
        };
        let task = Arc::new(SpanTask {
            body: BodyPtr(body_static as *const _),
            unfinished: AtomicUsize::new(helpers),
            revoked: AtomicBool::new(false),
            panic: Mutex::new(None),
            asleep: AtomicBool::new(false),
            join: Mutex::new(()),
            done: Condvar::new(),
        });
        let wake = {
            let mut q = lock(&self.shared.queue);
            for _ in 0..helpers {
                q.claims.push_back(Arc::clone(&task));
            }
            self.shared.queued.store(q.claims.len(), Ordering::SeqCst);
            // A spinner that stops spinning re-checks the queue under this
            // lock, so it takes one claim whether or not it still spins.
            let spinner = usize::from(self.shared.spinning.load(Ordering::SeqCst));
            helpers.saturating_sub(spinner).min(q.parked)
        };
        for _ in 0..wake {
            self.shared.ready.notify_one();
        }
        self.shared.spans.fetch_add(1, Ordering::Relaxed);

        {
            // The revoke-and-wait lives in a drop guard so that even a
            // panic in the caller's own pass cannot return control (and
            // unwind the borrowed span state) while a worker still runs.
            let _guard = ScopeGuard {
                shared: &self.shared,
                task: &task,
            };
            // The caller is a full participant: the span progresses even
            // if no pool worker ever picks a claim up.
            body();
        }

        let worker_panic = lock(&task.panic).take();
        if let Some(payload) = worker_panic {
            // Re-raise the worker's original panic, payload intact — the
            // propagation std::thread::scope performed at join.
            std::panic::resume_unwind(payload);
        }
    }

    /// Workers currently parked on the claim queue.
    #[cfg(test)]
    fn parked(&self) -> usize {
        lock(&self.shared.queue).parked
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        // `&mut self` proves no scope_run is in flight; claims can only be
        // leftovers of already-completed (revoked) spans. A spinning worker
        // sees the latch when its spin ends.
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Revokes a span's unclaimed queue entries and waits out every in-flight
/// worker. Runs on normal exit *and* on unwind, which is what upholds the
/// lifetime-erasure safety contract.
struct ScopeGuard<'a> {
    shared: &'a PoolShared,
    task: &'a Arc<SpanTask>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let task = &**self.task;
        task.revoked.store(true, Ordering::Relaxed);
        let revoked = {
            let mut q = lock(&self.shared.queue);
            let before = q.claims.len();
            q.claims.retain(|t| !Arc::ptr_eq(t, self.task));
            self.shared.queued.store(q.claims.len(), Ordering::SeqCst);
            before - q.claims.len()
        };
        self.shared
            .revoked
            .fetch_add(revoked as u64, Ordering::Relaxed);
        task.retire(revoked);
        let finished = || task.unfinished.load(Ordering::SeqCst) == 0;
        if !spin_until(finished) {
            let mut join = lock(&task.join);
            task.asleep.store(true, Ordering::SeqCst);
            while !finished() {
                join = task.done.wait(join).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// Takes the next claim: pops it if one is queued, else spins for one if
/// no other worker spins, else parks. `None` once the pool shuts down.
fn next_claim(shared: &PoolShared) -> Option<Arc<SpanTask>> {
    let mut q = lock(&shared.queue);
    let mut may_spin = true;
    loop {
        if q.shutdown {
            return None;
        }
        if let Some(task) = q.claims.pop_front() {
            shared.queued.store(q.claims.len(), Ordering::SeqCst);
            return Some(task);
        }
        if may_spin
            && shared
                .spinning
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            drop(q);
            spin_until(|| shared.queued.load(Ordering::Relaxed) > 0);
            // Cleared before re-locking: a span queued from here on sees
            // no spinner and wakes a parked worker instead, while one
            // queued during the spin is found under the lock below.
            shared.spinning.store(false, Ordering::SeqCst);
            q = lock(&shared.queue);
            may_spin = false;
            continue;
        }
        q.parked += 1;
        shared.parks.fetch_add(1, Ordering::Relaxed);
        q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        q.parked -= 1;
        may_spin = true;
    }
}

fn worker_loop(shared: &PoolShared) {
    while let Some(task) = next_claim(shared) {
        // A claim popped after the caller's own pass finished is a no-op.
        if !task.revoked.load(Ordering::Relaxed) {
            shared.helper_runs.fetch_add(1, Ordering::Relaxed);
            // A panicking body must still retire its claim (or the span's
            // caller waits forever); the panic itself is recorded and
            // re-raised by the caller.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                (unsafe { &*task.body.0 })();
            }));
            if let Err(payload) = outcome {
                // Keep the first panic; the caller re-raises it.
                lock(&task.panic).get_or_insert(payload);
            }
        } else {
            shared.revoked.fetch_add(1, Ordering::Relaxed);
        }
        task.retire(1);
    }
}

/// The process-wide scan pool every [`crate::MorselDispatcher`] fans out
/// over, sized to this machine's available parallelism. Created on first
/// use; its workers park when no scan is in flight.
pub fn global_pool() -> &'static ScanPool {
    static POOL: OnceLock<ScanPool> = OnceLock::new();
    POOL.get_or_init(|| ScanPool::new(crate::dispatch::available_workers()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_run_executes_body_at_least_once() {
        let pool = ScanPool::new(2);
        let calls = AtomicUsize::new(0);
        let body = || {
            calls.fetch_add(1, Ordering::Relaxed);
        };
        pool.scope_run(3, &body);
        let n = calls.load(Ordering::Relaxed);
        assert!((1..=4).contains(&n), "1..=4 participants ran, got {n}");
    }

    #[test]
    fn zero_helpers_runs_inline() {
        let pool = ScanPool::new(1);
        let calls = AtomicUsize::new(0);
        pool.scope_run(0, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_thread_pool_degrades_to_caller() {
        let pool = ScanPool::new(0);
        let calls = AtomicUsize::new(0);
        pool.scope_run(7, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn work_stealing_loop_completes_all_items() {
        // A realistic span body: participants pull indices from a shared
        // atomic until the supply is dry; every index is processed exactly
        // once no matter how many participants show up.
        let pool = ScanPool::new(4);
        const ITEMS: usize = 1_000;
        for _ in 0..20 {
            let next = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
            let body = || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ITEMS {
                    break;
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            };
            pool.scope_run(3, &body);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn concurrent_spans_share_the_pool_without_deadlock() {
        let pool = Arc::new(ScanPool::new(2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..50 {
                        let next = AtomicUsize::new(0);
                        let sum = AtomicUsize::new(0);
                        let body = || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= 100 {
                                break;
                            }
                            sum.fetch_add(i, Ordering::Relaxed);
                        };
                        pool.scope_run(2, &body);
                        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
                    }
                });
            }
        });
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ScanPool::new(3);
        let calls = AtomicUsize::new(0);
        pool.scope_run(2, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // joins; would hang forever if shutdown were broken
    }

    #[test]
    fn panicking_body_propagates_after_all_participants_stop() {
        let pool = ScanPool::new(2);
        let entered = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let body = || {
                entered.fetch_add(1, Ordering::Relaxed);
                panic!("span body exploded");
            };
            pool.scope_run(2, &body);
        }));
        let payload = result.expect_err("the panic must reach the caller");
        // The original payload survives, whichever participant panicked.
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "span body exploded");
        // The pool survives a panicked span: later spans still work.
        let ok = AtomicUsize::new(0);
        pool.scope_run(2, &|| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }

    /// Busy-waits `d` (a sleep cannot resolve gaps inside [`SPIN`]).
    fn gap(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn many_spans_with_gaps_around_the_spin_window_all_complete() {
        // Gaps shorter than the spin window meet a spinning worker, longer
        // ones a parked worker that must be woken.
        let pool = ScanPool::new(2);
        let gaps = [0, 10, 40, 80, 200].map(Duration::from_micros);
        for i in 0..10_000 {
            let next = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            let body = || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= 8 {
                    break;
                }
                gap(Duration::from_micros(1));
                sum.fetch_add(k, Ordering::Relaxed);
            };
            pool.scope_run(1 + i % 2, &body);
            assert_eq!(sum.load(Ordering::Relaxed), 28, "span {i}");
            gap(gaps[i % gaps.len()]);
        }
        let stats = pool.stats();
        assert_eq!(stats.spans, 10_000);
        assert!(stats.helper_runs > 0, "{stats:?}");
        assert_eq!(stats.helper_runs + stats.revoked, 15_000, "{stats:?}");
    }

    #[test]
    fn an_idle_pool_parks_every_worker() {
        let pool = ScanPool::new(3);
        for _ in 0..100 {
            pool.scope_run(3, &|| gap(Duration::from_micros(5)));
        }
        // Every worker parks once the spin window has passed; the margin
        // covers a test host too busy to schedule them at once.
        std::thread::sleep(SPIN);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.parked() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.parked(), 3);
        // Parked for good: no worker spins or wakes without a claim.
        let parks = pool.stats().parks;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.stats().parks, parks);
        assert_eq!(pool.parked(), 3);
    }

    #[test]
    fn drop_during_a_spin_joins_promptly() {
        let pool = ScanPool::new(2);
        pool.scope_run(2, &|| gap(Duration::from_micros(5)));
        // A worker is (most likely) still inside its spin window.
        let start = Instant::now();
        drop(pool);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_machine() {
        let p1 = global_pool() as *const ScanPool;
        let p2 = global_pool() as *const ScanPool;
        assert_eq!(p1, p2);
        assert_eq!(global_pool().threads(), crate::available_workers());
    }
}
