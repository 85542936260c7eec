//! Shared-service semantics: reports are pinned to golden hashes, and the
//! service's cooperative cancellation holds under real engines.
//!
//! - A golden-report test runs one fixed mixed workflow on all five
//!   engines over both the denormalized table and its star schema, and
//!   pins an FNV-1a hash of everything each run measured. The hashes were
//!   recorded when the driver still stepped bare `SystemAdapter`s itself,
//!   so they carry that path's reports forward; every case must also be
//!   identical at scan worker counts {1, 2, 8}.
//! - Cancellation tests pin the supersede rule end to end: a superseded
//!   viz query is revoked before completion, consumes no further work
//!   units, and never surfaces a stale snapshot.

use idebench::core::{BenchmarkDriver, EngineService, QueryOptions, ServiceCore, Settings};
use idebench::engine_cache::{CacheConfig, CachingAdapter};
use idebench::engine_exact::ExactAdapter;
use idebench::engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench::engine_stratified::StratifiedAdapter;
use idebench::engine_wander::WanderAdapter;
use idebench::prelude::*;
use idebench::workflow::{WorkflowGenerator, WorkflowType};
use idebench_core::spec::{AggregateSpec, BinDef, VizSpec};
use idebench_core::{ExecutionMode, Query, WorkflowOutcome};
use std::sync::Arc;

fn dataset() -> Dataset {
    Dataset::Denormalized(Arc::new(idebench::datagen::flights::generate(20_000, 42)))
}

/// A fresh shared service hosting `engine`.
fn service(engine: &str) -> Arc<dyn EngineService> {
    match engine {
        "exact" => ExactAdapter::with_defaults().into_service().into_shared(),
        "wander" => WanderAdapter::with_defaults().into_service().into_shared(),
        "stratified" => StratifiedAdapter::with_defaults()
            .into_service()
            .into_shared(),
        // Speculation on, so the link and think-time hooks shape results.
        "progressive" => Arc::new(ProgressiveAdapter::service(ProgressiveConfig {
            enable_speculation: true,
            ..ProgressiveConfig::default()
        })),
        "cache+exact" => Arc::new(CachingAdapter::service(CacheConfig::default(), |_| {
            ExactAdapter::with_defaults()
        })),
        other => panic!("unknown engine {other}"),
    }
}

/// A bit-exact fingerprint of everything a run measured: timing, TR
/// verdicts, and the full result payloads (serialized, so every bin and
/// every float participates).
fn fingerprint(outcome: &WorkflowOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "total={} prep={:?}", outcome.total_ms, outcome.prep);
    for m in &outcome.query_results {
        let result = m
            .result
            .as_ref()
            .map(|r| serde_json::to_string(r).expect("results serialize"))
            .unwrap_or_else(|| "none".into());
        let _ = writeln!(
            out,
            "{}|{}|{}|{}|{}|{}|{}|{}",
            m.query_id,
            m.interaction_id,
            m.viz_name,
            m.start_ms,
            m.end_ms,
            m.tr_violated,
            m.concurrent,
            result
        );
    }
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the golden workflow on a fresh instance of `engine` and hashes the
/// outcome's fingerprint. The 100 ms TR at 1e5 units/s (10k units against
/// 20k-row scans) puts queries on both sides of the deadline; the
/// contention penalty makes concurrent lanes' budgets fractional before
/// rounding; the quantum splits a budget into several grants; the think
/// time funds speculation.
fn golden_hash(engine: &str, dataset: &Dataset, workers: usize) -> u64 {
    let mut settings = Settings::default()
        .with_time_requirement_ms(100)
        .with_think_time_ms(500)
        .with_seed(7)
        .with_workers(workers)
        .with_execution(ExecutionMode::Virtual { work_rate: 1e5 });
    settings.concurrency_penalty = 0.3;
    settings.step_quantum = 3_000;
    let workflow = WorkflowGenerator::new(WorkflowType::Mixed, 12).generate(16);
    let outcome = BenchmarkDriver::new(settings)
        .run_workflow(service(engine).as_ref(), dataset, &workflow)
        .expect("golden workflow runs");
    fnv1a(fingerprint(&outcome).as_bytes())
}

/// `(engine, denormalized hash, star hash)`.
const GOLDEN: [(&str, u64, u64); 5] = [
    ("exact", 0x352b_0ec0_f81b_7d60, 0xc075_a609_76f2_d87a),
    ("wander", 0xfc5a_92d6_d4a3_6443, 0xba38_03c4_29c2_977f),
    ("stratified", 0x4347_5397_4393_beec, 0xb0cc_92ba_da49_d47a),
    ("progressive", 0xd892_59d1_c5a6_f2c3, 0xf6e6_5e77_f426_ea54),
    ("cache+exact", 0x27b2_d07c_e28e_4208, 0x1858_6836_b828_b734),
];

/// Every engine × schema reproduces its recorded report bit for bit, at
/// every scan worker count.
#[test]
fn reports_match_golden_hashes_at_every_worker_count() {
    let table = idebench::datagen::flights::generate(20_000, 42);
    let star = idebench::datagen::normalize_flights(&table).expect("normalizes");
    let schemas = [
        ("denormalized", Dataset::Denormalized(Arc::new(table))),
        ("star", star),
    ];
    for (engine, denormalized, star) in GOLDEN {
        for ((schema, ds), golden) in schemas.iter().zip([denormalized, star]) {
            let reference = golden_hash(engine, ds, 1);
            for workers in [2usize, 8] {
                assert_eq!(
                    golden_hash(engine, ds, workers),
                    reference,
                    "{engine} on {schema} diverged across worker counts at workers={workers}"
                );
            }
            assert_eq!(
                reference, golden,
                "{engine} on {schema}: report hash {reference:#018x} != golden {golden:#018x}"
            );
        }
    }
}

fn carrier_query(viz: &str) -> Query {
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

/// The supersede rule, end to end over a real progressive engine: the
/// revoked ticket stops consuming units and suppresses its (partial, would-
/// be-stale) snapshot, while the superseding query runs to completion.
#[test]
fn superseded_query_is_revoked_without_stale_snapshot() {
    let ds = dataset();
    let svc = ProgressiveAdapter::service(ProgressiveConfig {
        first_query_warmup_s: 0.0,
        enable_reuse: false,
        ..ProgressiveConfig::default()
    });
    svc.open_session(0, &ds, &Settings::default()).unwrap();

    let stale = svc.submit(
        &carrier_query("viz_a"),
        QueryOptions::for_session(0).with_step_quantum(2_000),
    );
    stale.pump();
    let spent_at_revocation = stale.spent_units();
    assert!(spent_at_revocation > 0, "made real progress");
    assert!(!stale.is_settled(), "still mid-flight");
    assert!(
        stale.snapshot().is_some(),
        "a live progressive run has a partial snapshot"
    );

    // The analyst changes the filter on the same viz: new query supersedes.
    let fresh = svc.submit(
        &carrier_query("viz_a"),
        QueryOptions::for_session(0).with_step_quantum(2_000),
    );

    // Revoked before completion...
    assert!(stale.status().is_revoked());
    // ...never surfaces a stale snapshot...
    assert!(stale.snapshot().is_none());
    // ...and consumes no further units while the replacement runs.
    assert!(fresh.drive().is_done());
    assert_eq!(stale.spent_units(), spent_at_revocation);
    assert!(fresh.snapshot().is_some());
}

/// Revocation scopes: only the same (session, viz) pair supersedes — other
/// vizs and other sessions are untouched.
#[test]
fn revocation_is_scoped_to_session_and_viz() {
    let ds = dataset();
    let svc = ServiceCore::shared_adapter(ExactAdapter::with_defaults()).into_shared();
    svc.open_session(0, &ds, &Settings::default()).unwrap();
    svc.open_session(1, &ds, &Settings::default()).unwrap();

    let q = |viz: &str| carrier_query(viz);
    let o = |s: u64| QueryOptions::for_session(s).with_step_quantum(1_000);
    let s0_a = svc.submit(&q("viz_a"), o(0));
    let s0_b = svc.submit(&q("viz_b"), o(0));
    let s1_a = svc.submit(&q("viz_a"), o(1));
    let replacement = svc.submit(&q("viz_a"), o(0));

    assert!(s0_a.status().is_revoked(), "same session+viz superseded");
    assert!(!s0_b.is_settled(), "other viz untouched");
    assert!(!s1_a.is_settled(), "other session untouched");
    assert!(replacement.drive().is_done());
    assert!(s0_b.drive().is_done());
    assert!(s1_a.drive().is_done());
}
