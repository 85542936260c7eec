//! Earliest-deadline-first submission: two sessions share one engine
//! service, and the scheduler funds the tighter deadline first.
//!
//! ```sh
//! cargo run --release --example deadline_scheduling
//! ```
//!
//! This drives the `EngineService` API directly (no benchmark driver):
//!
//! 1. A *dashboard* session submits a query with a relaxed deadline —
//!    background-quality work.
//! 2. An *interactive* session submits the same scan with a tight
//!    deadline — a user is waiting.
//! 3. Pumping the scheduler shows earliest-deadline-first multiplexing:
//!    the scheduling key is `(deadline, session, ticket)`, so the
//!    interactive ticket absorbs the grants until it completes, then the
//!    background ticket proceeds.
//! 4. The dashboard's viz re-queries (the analyst changed a filter): the
//!    superseded pending ticket is revoked — it consumes no further work
//!    and never surfaces a stale snapshot.

use idebench::core::{QueryOptions, Settings};
use idebench::prelude::*;
use idebench::query::execute_exact;
use idebench_core::spec::{AggregateSpec, BinDef, VizSpec};
use idebench_core::Query;
use std::sync::Arc;

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

fn main() {
    let table = idebench::datagen::flights::generate(200_000, 42);
    let dataset = Dataset::Denormalized(Arc::new(table));

    // One shared exact-engine service; two sessions open on it.
    let service = idebench::engine_exact::ExactAdapter::with_defaults()
        .into_service()
        .into_shared();
    let settings = Settings::default();
    const DASHBOARD: u64 = 0;
    const INTERACTIVE: u64 = 1;
    for s in [DASHBOARD, INTERACTIVE] {
        service.open_session(s, &dataset, &settings).unwrap();
    }

    // The dashboard refreshes with a relaxed 5M-unit deadline; then a user
    // interaction arrives needing an answer within 1M units.
    let relaxed = service.submit(
        &query("dashboard_viz"),
        QueryOptions::for_session(DASHBOARD).with_deadline_units(5_000_000),
    );
    let urgent = service.submit(
        &query("drilldown_viz"),
        QueryOptions::for_session(INTERACTIVE).with_deadline_units(1_000_000),
    );

    // Drive the *relaxed* ticket: every pump goes to the globally most
    // urgent work, so the interactive query finishes first anyway.
    let mut pumps_until_urgent_done = 0u64;
    while !urgent.is_settled() {
        relaxed.pump();
        pumps_until_urgent_done += 1;
    }
    println!(
        "interactive query finished first after {pumps_until_urgent_done} grants \
         (spent {} units); dashboard had received {} units so far",
        urgent.spent_units(),
        relaxed.spent_units(),
    );
    assert!(urgent.is_done());
    assert_eq!(
        urgent.snapshot().unwrap(),
        execute_exact(&dataset, &query("drilldown_viz")).unwrap()
    );

    // The analyst tweaks the dashboard filter before its refresh finished:
    // re-submitting on the same viz revokes the superseded ticket.
    let refreshed = service.submit(
        &query("dashboard_viz"),
        QueryOptions::for_session(DASHBOARD).with_deadline_units(5_000_000),
    );
    println!(
        "superseded dashboard ticket: {:?} (stale snapshot suppressed: {})",
        relaxed.status(),
        relaxed.snapshot().is_none(),
    );
    assert!(relaxed.status().is_revoked());
    assert!(relaxed.snapshot().is_none());

    let status = refreshed.drive();
    println!(
        "refreshed dashboard query completed: {status:?}, {} result bins",
        refreshed.snapshot().map_or(0, |r| r.bins.len()),
    );
}
