//! The cross-session semantic result cache — a *shared service* of the
//! fleet harness.
//!
//! Distinct from `idebench-engine-cache`'s per-adapter middleware cache
//! (which models a System-Y-class IDE's private result store and charges
//! its rendering overhead): this cache is shared by **every** session of a
//! fleet, keys are the canonical query *semantics*
//! ([`Query::canonical_key`] — independent of which viz, interaction, or
//! session issued the query; memoized per query, so a lookup never
//! re-serializes), hits are served instantly (an in-memory lookup costs no
//! benchmark work units), and hit/miss/insert traffic is accounted **per
//! session** for the fleet report.
//!
//! Since the shared-service redesign the cache is an [`EngineService`]
//! layer: [`SemanticCache::wrap_service`] fronts any engine service with
//! [`CachedEngineService`], whose `submit` intercepts hits (instantly-done
//! tickets at zero work-unit cost) and stages exact completed results via
//! the miss ticket's settle hook.
//!
//! # Virtual-time causality
//!
//! Cache visibility respects the fleet's virtual timeline. Every entry
//! carries the virtual time its producing query *completed*; a lookup made
//! by a session whose current virtual time is `now` only hits entries with
//! `completed_at <= now` — a result that will only exist in the future
//! cannot be served, exactly as in a real deployment where two analysts
//! issuing the same query simultaneously both execute it. The harness
//! drives this protocol: [`SemanticCache::begin_event`] stamps the
//! session's `now` before each interaction, completed results are *staged*
//! during the interaction, and [`SemanticCache::commit_staged`] publishes
//! them with the interaction's completion time once it finishes.
//!
//! Only *exact, completed* results are admitted, so a hit is always
//! bit-identical to re-executing the query — which is what lets a fleet
//! run's report stay deterministic while sharing results across sessions.

use idebench_core::service::{
    EngineService, QueryOptions, QueryTicket, SessionId, TicketScheduler,
};
use idebench_core::{AggResult, CoreError, PrepStats, Query, Settings};
use idebench_storage::Dataset;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Hit/miss/insert counters, kept per session and fleet-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Queries answered from the shared cache.
    pub hits: u64,
    /// Queries that had to execute on the engine.
    pub misses: u64,
    /// Exact completed results admitted to the cache.
    pub insertions: u64,
}

impl CacheStats {
    /// Hits as a fraction of lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
    }
}

/// A published result and the virtual time it became available. Results
/// are shared by `Arc`: a hit hands out a reference, not a deep copy.
struct Entry {
    result: Arc<AggResult>,
    completed_at: f64,
}

/// Per-session protocol state: the session's current virtual time and the
/// results completed during its in-flight interaction, awaiting commit.
struct SessionState {
    now_ms: f64,
    staged: Vec<(Arc<str>, Arc<AggResult>)>,
    stats: CacheStats,
}

/// The shared cross-session result cache (see module docs).
pub struct SemanticCache {
    entries: Mutex<FxHashMap<Arc<str>, Entry>>,
    sessions: Mutex<Vec<SessionState>>,
}

impl SemanticCache {
    /// An empty cache serving `sessions` sessions, all at virtual time 0.
    pub fn new(sessions: usize) -> Arc<SemanticCache> {
        Arc::new(SemanticCache {
            entries: Mutex::new(FxHashMap::default()),
            sessions: Mutex::new(
                (0..sessions)
                    .map(|_| SessionState {
                        now_ms: 0.0,
                        staged: Vec::new(),
                        stats: CacheStats::default(),
                    })
                    .collect(),
            ),
        })
    }

    /// Stamps `session`'s current virtual time; subsequent lookups by the
    /// session only hit entries completed at or before this instant.
    pub fn begin_event(&self, session: usize, now_ms: f64) {
        self.sessions.lock().unwrap()[session].now_ms = now_ms;
    }

    /// Looks `query` up on behalf of `session`, recording a hit or miss.
    /// An entry whose producing query completes later on the virtual
    /// timeline than the session's stamped `now` is invisible (a miss).
    /// A hit is an `Arc` share of the stored result, not a deep copy.
    pub fn lookup(&self, session: usize, query: &Query) -> Option<Arc<AggResult>> {
        let key = query.canonical_key();
        // Lock order sessions → entries, matching commit_staged.
        let mut sessions = self.sessions.lock().unwrap();
        let now = sessions[session].now_ms;
        let hit = self
            .entries
            .lock()
            .unwrap()
            .get(&key)
            .filter(|e| e.completed_at <= now)
            .map(|e| Arc::clone(&e.result));
        match hit {
            Some(r) => {
                sessions[session].stats.hits += 1;
                Some(r)
            }
            None => {
                sessions[session].stats.misses += 1;
                None
            }
        }
    }

    /// Stages an exact result completed by `session`'s in-flight
    /// interaction; it becomes visible to lookups only once
    /// [`SemanticCache::commit_staged`] publishes it with a completion
    /// time. Non-exact results (estimates, partials) are rejected —
    /// serving them to another session would not be bit-identical to
    /// re-execution.
    pub fn stage(&self, session: usize, key: Arc<str>, result: &AggResult) {
        if !result.exact {
            return;
        }
        self.sessions.lock().unwrap()[session]
            .staged
            .push((key, Arc::new(result.clone())));
    }

    /// Publishes `session`'s staged results as available from virtual time
    /// `completed_at_ms`. A key published earlier keeps its earlier
    /// availability time.
    pub fn commit_staged(&self, session: usize, completed_at_ms: f64) {
        let mut sessions = self.sessions.lock().unwrap();
        let staged = std::mem::take(&mut sessions[session].staged);
        if staged.is_empty() {
            return;
        }
        let mut entries = self.entries.lock().unwrap();
        for (key, result) in staged {
            sessions[session].stats.insertions += 1;
            entries
                .entry(key)
                .and_modify(|e| e.completed_at = e.completed_at.min(completed_at_ms))
                .or_insert(Entry {
                    result,
                    completed_at: completed_at_ms,
                });
        }
    }

    /// Number of distinct published query results.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the cache holds no published results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One session's counters.
    pub fn session_stats(&self, session: usize) -> CacheStats {
        self.sessions.lock().unwrap()[session].stats
    }

    /// Fleet-wide counters (sum over sessions).
    pub fn totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.sessions.lock().unwrap().iter() {
            total.merge(&s.stats);
        }
        total
    }

    /// Fronts a shared engine service with this cache: `submit` intercepts
    /// hits, exact completed results are staged on the way out. Reports
    /// keep the inner engine's name so fleet summaries group by engine,
    /// not by cache layer.
    pub fn wrap_service(
        self: &Arc<Self>,
        inner: Arc<dyn EngineService>,
    ) -> Arc<CachedEngineService> {
        Arc::new(CachedEngineService {
            inner,
            cache: Arc::clone(self),
            hits: TicketScheduler::new(),
        })
    }
}

/// A shared engine service fronted by the [`SemanticCache`] (see
/// [`SemanticCache::wrap_service`]).
pub struct CachedEngineService {
    inner: Arc<dyn EngineService>,
    cache: Arc<SemanticCache>,
    /// Mints the instantly-done tickets that serve cache hits (hits never
    /// touch the engine's scheduler — they cost zero work units).
    hits: Arc<TicketScheduler>,
}

impl EngineService for CachedEngineService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open_session(
        &self,
        session: SessionId,
        dataset: &Dataset,
        settings: &Settings,
    ) -> Result<PrepStats, CoreError> {
        // Deliberately does NOT clear the shared cache: other sessions'
        // results stay valid because every session shares one immutable
        // dataset.
        self.inner.open_session(session, dataset, settings)
    }

    fn close_session(&self, session: SessionId) {
        self.inner.close_session(session);
    }

    fn submit(&self, query: &Query, opts: QueryOptions) -> QueryTicket {
        let session = opts.session as usize;
        if let Some(hit) = self.cache.lookup(session, query) {
            // The supersede rule holds across layers: a hit answered here
            // still revokes any in-flight engine ticket for the same viz.
            self.inner.revoke_superseded(opts.session, query.viz_name());
            // Served instantly at zero work-unit cost, bit-identical to
            // re-execution (only exact completed results are admitted; the
            // `Arc` share defers the one deep copy to `snapshot()`).
            return self
                .hits
                .admit_settled(Some(hit), query.viz_name().to_string(), opts);
        }
        let ticket = self.inner.submit(query, opts);
        let cache = Arc::clone(&self.cache);
        let key = query.canonical_key();
        ticket.on_settle(move |status, snapshot| {
            // Stage only completed queries (expired/revoked tickets have
            // nothing exact to share); `stage` rejects non-exact results.
            if status.is_done() {
                if let Some(result) = snapshot {
                    cache.stage(session, key, result);
                }
            }
        });
        ticket
    }

    fn revoke_superseded(&self, session: SessionId, viz_name: &str) {
        // Hit tickets are born settled (nothing pending on `hits`), so
        // only the engine layer can hold a superseded ticket.
        self.inner.revoke_superseded(session, viz_name);
    }

    fn on_link(&self, session: SessionId, source_query: &Query, target_query: &Query) {
        self.inner.on_link(session, source_query, target_query);
    }

    fn on_think(&self, session: SessionId, budget_units: u64) {
        self.inner.on_think(session, budget_units);
    }

    fn on_discard(&self, session: SessionId, viz_name: &str) {
        self.inner.on_discard(session, viz_name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::spec::{AggregateSpec, BinDef};
    use idebench_core::{ServiceCore, TicketStatus, VizSpec};
    use idebench_engine_exact::ExactAdapter;
    use idebench_query::execute_exact;
    use idebench_storage::{DataType, TableBuilder};

    fn dataset(n: usize) -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for i in 0..n {
            let c = if i % 2 == 0 { "AA" } else { "DL" };
            b.push_row(&[c.into(), (i as f64).into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        Query::for_viz(&spec, None)
    }

    fn service(
        cache: &Arc<SemanticCache>,
        sessions: usize,
        ds: &Dataset,
    ) -> Arc<CachedEngineService> {
        let svc = cache
            .wrap_service(ServiceCore::shared_adapter(ExactAdapter::with_defaults()).into_shared());
        for s in 0..sessions as u64 {
            svc.open_session(s, ds, &Settings::default()).unwrap();
        }
        svc
    }

    fn opts(session: SessionId) -> QueryOptions {
        QueryOptions::for_session(session).with_step_quantum(1_000_000)
    }

    #[test]
    fn repeated_query_from_second_session_is_a_cross_session_hit() {
        let ds = dataset(10_000);
        let cache = SemanticCache::new(2);
        let svc = service(&cache, 2, &ds);

        // Session 0's interaction at t = 0 executes and completes the
        // query, which the harness commits at the interaction's end
        // (t = 800): a recorded miss + insertion, no hits anywhere yet.
        cache.begin_event(0, 0.0);
        let t = svc.submit(&query(), opts(0));
        assert!(t.drive().is_done());
        drop(t);
        cache.commit_staged(0, 800.0);
        assert_eq!(
            cache.session_stats(0),
            CacheStats {
                hits: 0,
                misses: 1,
                insertions: 1
            }
        );
        assert_eq!(cache.len(), 1);

        // The identical query from *session 1*, issued after session 0's
        // completed (t = 900 > 800), is a recorded cross-session hit:
        // instantly done, zero units, bit-identical result.
        cache.begin_event(1, 900.0);
        let t = svc.submit(&query(), opts(1));
        assert_eq!(t.status(), TicketStatus::Done { spent: 0 });
        assert_eq!(t.snapshot().unwrap(), execute_exact(&ds, &query()).unwrap());
        assert_eq!(
            cache.session_stats(1),
            CacheStats {
                hits: 1,
                misses: 0,
                insertions: 0
            }
        );
        assert_eq!(cache.totals().hits, 1);
        assert_eq!(cache.totals().misses, 1);
    }

    #[test]
    fn future_results_are_invisible_on_the_virtual_timeline() {
        let ds = dataset(10_000);
        let cache = SemanticCache::new(2);
        let svc = service(&cache, 2, &ds);

        // Session 0 completes the query during [0, 800].
        cache.begin_event(0, 0.0);
        let t = svc.submit(&query(), opts(0));
        t.drive();
        drop(t);
        cache.commit_staged(0, 800.0);

        // Session 1 issues the same query at t = 100 — before session 0's
        // completion on the virtual timeline — and must therefore miss and
        // execute it itself, as in a real concurrent deployment.
        cache.begin_event(1, 100.0);
        let t = svc.submit(&query(), opts(1).with_step_quantum(10));
        assert!(!t.pump().is_settled(), "causal miss must execute the scan");
        assert_eq!(cache.session_stats(1).misses, 1);
        assert_eq!(cache.session_stats(1).hits, 0);
    }

    #[test]
    fn uncommitted_results_stay_invisible_within_an_interaction() {
        let ds = dataset(10_000);
        let cache = SemanticCache::new(1);
        let svc = service(&cache, 1, &ds);
        cache.begin_event(0, 0.0);
        let t = svc.submit(&query(), opts(0));
        t.drive();
        drop(t);
        // Completed but not yet committed: a concurrent lane of the same
        // interaction would not see it.
        assert!(cache.is_empty());
        assert!(cache.lookup(0, &query()).is_none());
        cache.commit_staged(0, 500.0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cancelled_query_is_not_staged() {
        let ds = dataset(100_000);
        let cache = SemanticCache::new(1);
        let svc = service(&cache, 1, &ds);
        cache.begin_event(0, 0.0);
        let t = svc.submit(&query(), opts(0).with_step_quantum(50));
        t.pump(); // far from completion
        drop(t); // cancelled (revoked)
        cache.commit_staged(0, 500.0);
        assert!(cache.is_empty());
        assert_eq!(cache.session_stats(0).insertions, 0);
        assert_eq!(cache.session_stats(0).misses, 1);
    }

    #[test]
    fn cache_hit_supersedes_an_in_flight_engine_miss() {
        let ds = dataset(100_000);
        let cache = SemanticCache::new(2);
        let svc = service(&cache, 2, &ds);
        // Session 1 computes the result and commits it at t = 100.
        cache.begin_event(1, 0.0);
        let t = svc.submit(&query(), opts(1));
        t.drive();
        drop(t);
        cache.commit_staged(1, 100.0);

        // Session 0's first refresh at t = 50 — before session 1's result
        // exists on the virtual timeline — misses and stays in flight...
        cache.begin_event(0, 50.0);
        let miss = svc.submit(&query(), opts(0).with_step_quantum(50));
        miss.pump();
        assert!(!miss.is_settled());
        // ...then the viz re-queries at t = 200 and hits the cache: the
        // supersede rule must reach through the cache layer and revoke the
        // engine ticket — no further units, no stale snapshot.
        let spent = miss.spent_units();
        cache.begin_event(0, 200.0);
        let hit = svc.submit(&query(), opts(0));
        assert_eq!(hit.status(), TicketStatus::Done { spent: 0 });
        assert!(miss.status().is_revoked());
        assert!(miss.snapshot().is_none());
        hit.drive();
        assert_eq!(miss.spent_units(), spent);
    }

    #[test]
    fn superseded_query_is_neither_staged_nor_served_stale() {
        let ds = dataset(100_000);
        let cache = SemanticCache::new(1);
        let svc = service(&cache, 1, &ds);
        cache.begin_event(0, 0.0);
        let t1 = svc.submit(&query(), opts(0).with_step_quantum(50));
        t1.pump();
        // A new interaction re-queries the same viz: t1 is revoked.
        let t2 = svc.submit(&query(), opts(0).with_step_quantum(50));
        assert!(t1.status().is_revoked());
        assert!(t1.snapshot().is_none(), "no stale snapshot");
        drop(t1);
        drop(t2);
        cache.commit_staged(0, 500.0);
        assert!(cache.is_empty(), "revoked queries stage nothing");
    }

    #[test]
    fn non_exact_results_are_rejected() {
        let cache = SemanticCache::new(1);
        let mut estimate = AggResult::empty_exact();
        estimate.exact = false;
        cache.stage(0, "k".into(), &estimate);
        cache.commit_staged(0, 100.0);
        assert!(cache.is_empty());
        assert_eq!(cache.session_stats(0).insertions, 0);
    }

    #[test]
    fn recommit_keeps_the_earlier_availability() {
        let cache = SemanticCache::new(2);
        let q = query();
        let r = AggResult::empty_exact();
        cache.stage(0, q.canonical_key(), &r);
        cache.commit_staged(0, 700.0);
        cache.stage(1, q.canonical_key(), &r);
        cache.commit_staged(1, 300.0); // earlier completion published later
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.totals().insertions, 2);
        cache.begin_event(0, 400.0);
        assert!(
            cache.lookup(0, &q).is_some(),
            "the earlier availability (300 ms) must win at now = 400 ms"
        );
    }

    #[test]
    fn hit_rate_arithmetic() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let mut t = CacheStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.hits, 6);
    }

    #[test]
    fn wrapper_keeps_engine_name_and_forwards_open_session() {
        let ds = dataset(100);
        let cache = SemanticCache::new(1);
        let svc = cache
            .wrap_service(ServiceCore::shared_adapter(ExactAdapter::with_defaults()).into_shared());
        assert_eq!(svc.name(), "exact");
        let prep = svc.open_session(0, &ds, &Settings::default()).unwrap();
        assert!(prep.load_units > 0);
    }
}
