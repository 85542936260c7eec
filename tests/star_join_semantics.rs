//! Exp-2 join semantics, end to end: every engine must produce
//! **bit-identical** results on a normalized (star-schema) dataset and its
//! de-normalized twin, across scan worker counts, through both the legacy
//! `SystemAdapter` path and the shared `EngineService` path.
//!
//! This is the acceptance gate of the join-devirtualization layer: the
//! shared fact-ordered materialization cache and the per-plan staged-FK
//! fallback may change *wall-clock* cost only — never a result bit. It also
//! pins the new star-schema support of the progressive and stratified
//! engines (the paper's IDEA and System X rejected normalized data; this
//! reproduction runs them on it).

use idebench::core::spec::{AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate};
use idebench::core::{AggResult, Query, VizSpec};
use idebench::core::{EngineService, QueryOptions, Settings, SystemAdapter};
use idebench::engine_cache::CachingAdapter;
use idebench::engine_exact::ExactAdapter;
use idebench::engine_progressive::{ProgressiveAdapter, ProgressiveConfig};
use idebench::engine_stratified::StratifiedAdapter;
use idebench::engine_wander::WanderAdapter;
use idebench::storage::Dataset;
use std::sync::Arc;

const ROWS: usize = 12_000;

fn datasets() -> (Dataset, Dataset) {
    let table = idebench::datagen::flights::generate(ROWS, 42);
    let denorm = Dataset::Denormalized(Arc::new(table.clone()));
    let star = idebench::datagen::normalize_flights(&table).expect("normalization succeeds");
    (denorm, star)
}

/// Query shapes chosen to exercise every join site: joined binning dims
/// (1D and 2D joined×joined dense), joined filter leaves, measures next to
/// joins, and the wander engine's online-eligible single-COUNT shape.
fn queries() -> Vec<(&'static str, Query)> {
    let nominal_1d = VizSpec::new(
        "v",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "dep_delay"),
        ],
    );
    let joined_2d = VizSpec::new(
        "v",
        "flights",
        vec![
            BinDef::Nominal {
                dimension: "carrier".into(),
            },
            BinDef::Nominal {
                dimension: "origin_state".into(),
            },
        ],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Sum, "distance"),
        ],
    );
    let filtered_width = VizSpec::new(
        "v",
        "flights",
        vec![BinDef::Width {
            dimension: "dep_delay".into(),
            width: 15.0,
            anchor: 0.0,
        }],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Max, "arr_delay"),
        ],
    );
    let online_count = VizSpec::new(
        "v",
        "flights",
        vec![BinDef::Nominal {
            dimension: "origin_state".into(),
        }],
        vec![AggregateSpec::count()],
    );
    vec![
        ("nominal_1d", Query::for_viz(&nominal_1d, None)),
        ("joined_2d", Query::for_viz(&joined_2d, None)),
        (
            "joined_filter",
            Query::for_viz(
                &filtered_width,
                Some(
                    FilterExpr::Pred(Predicate::In {
                        column: "carrier".into(),
                        values: vec!["C00".into(), "C03".into(), "C07".into()],
                    })
                    .and(FilterExpr::Pred(Predicate::Range {
                        column: "distance".into(),
                        min: 100.0,
                        max: 1_800.0,
                    })),
                ),
            ),
        ),
        ("online_count", Query::for_viz(&online_count, None)),
    ]
}

const ENGINES: [&str; 5] = [
    "exact",
    "wander",
    "progressive",
    "stratified",
    "cache+exact",
];

fn fresh_adapter(name: &str) -> Box<dyn SystemAdapter> {
    match name {
        "exact" => Box::new(ExactAdapter::with_defaults()),
        "wander" => Box::new(WanderAdapter::with_defaults()),
        "progressive" => Box::new(ProgressiveAdapter::with_defaults()),
        "stratified" => Box::new(StratifiedAdapter::with_defaults()),
        "cache+exact" => Box::new(CachingAdapter::with_defaults(ExactAdapter::with_defaults())),
        other => panic!("unknown engine {other}"),
    }
}

fn fresh_service(name: &str) -> Arc<dyn EngineService> {
    match name {
        "exact" => ExactAdapter::with_defaults().into_service().into_shared(),
        "wander" => WanderAdapter::with_defaults().into_service().into_shared(),
        "progressive" => Arc::new(ProgressiveAdapter::service(ProgressiveConfig::default())),
        "stratified" => StratifiedAdapter::with_defaults()
            .into_service()
            .into_shared(),
        "cache+exact" => Arc::new(CachingAdapter::service(
            idebench::engine_cache::CacheConfig::default(),
            |_| ExactAdapter::with_defaults(),
        )),
        other => panic!("unknown engine {other}"),
    }
}

/// Runs every query to completion on the legacy adapter path.
fn run_legacy(name: &str, ds: &Dataset, settings: &Settings) -> Vec<AggResult> {
    let mut adapter = fresh_adapter(name);
    adapter
        .prepare(ds, settings)
        .unwrap_or_else(|e| panic!("{name}: prepare failed on {ds:?}: {e}"));
    queries()
        .into_iter()
        .map(|(label, q)| {
            let mut h = adapter.submit(&q);
            let mut guard = 0;
            while !h.step(u64::MAX / 4).is_done() {
                guard += 1;
                assert!(guard < 1_000, "{name}/{label}: query never completed");
            }
            h.snapshot()
                .unwrap_or_else(|| panic!("{name}/{label}: completed query has no snapshot"))
        })
        .collect()
}

/// Runs every query to completion through a shared `EngineService`.
fn run_service(name: &str, ds: &Dataset, settings: &Settings) -> Vec<AggResult> {
    let svc = fresh_service(name);
    svc.open_session(0, ds, settings)
        .unwrap_or_else(|e| panic!("{name}: open_session failed: {e}"));
    queries()
        .into_iter()
        .map(|(label, q)| {
            let t = svc.submit(
                &q,
                QueryOptions::for_session(0).with_step_quantum(u64::MAX / 4),
            );
            assert!(t.drive().is_done(), "{name}/{label}: service query stuck");
            t.snapshot()
                .unwrap_or_else(|| panic!("{name}/{label}: completed ticket has no snapshot"))
        })
        .collect()
}

/// The satellite gate: normalized results are bit-identical to
/// de-normalized for all five engines × workers {1, 2, 8}, through both
/// execution paths.
#[test]
fn normalized_results_bit_identical_across_engines_workers_and_paths() {
    let (denorm, star) = datasets();
    for workers in [1usize, 2, 8] {
        let settings = Settings::default().with_seed(42).with_workers(workers);
        for name in ENGINES {
            let flat_legacy = run_legacy(name, &denorm, &settings);
            let star_legacy = run_legacy(name, &star, &settings);
            let flat_service = run_service(name, &denorm, &settings);
            let star_service = run_service(name, &star, &settings);
            for (i, (label, _)) in queries().iter().enumerate() {
                assert_eq!(
                    flat_legacy[i], star_legacy[i],
                    "{name}/{label}, {workers} workers: legacy star != denorm"
                );
                assert_eq!(
                    flat_service[i], star_service[i],
                    "{name}/{label}, {workers} workers: service star != denorm"
                );
                assert_eq!(
                    flat_legacy[i], flat_service[i],
                    "{name}/{label}, {workers} workers: service != legacy"
                );
            }
        }
    }
}

/// The shared join cache materializes each dimension attribute once per
/// dataset and is reused across engines, sessions, and repeated queries —
/// the fleet-sharing property of the devirtualization layer.
#[test]
fn join_cache_is_shared_across_sessions_and_queries() {
    let (_, star) = datasets();
    let settings = Settings::default().with_seed(7);
    let schema = star.as_star().unwrap();

    let svc = fresh_service("exact");
    svc.open_session(0, &star, &settings).unwrap();
    svc.open_session(1, &star, &settings).unwrap();
    for session in [0u64, 1, 0, 1] {
        let (_, q) = &queries()[0]; // carrier (joined) × avg(dep_delay)
        let t = svc.submit(
            q,
            QueryOptions::for_session(session).with_step_quantum(u64::MAX / 4),
        );
        assert!(t.drive().is_done());
    }
    let stats = schema.join_cache_stats();
    assert_eq!(
        stats.entries, 1,
        "one joined attribute → one materialization: {stats:?}"
    );
    assert!(
        stats.hits >= 3,
        "repeated queries across sessions hit the shared memo: {stats:?}"
    );

    // A second engine over the *same* dataset handle reuses the cache too.
    let before = schema.join_cache_stats();
    let mut adapter = fresh_adapter("wander");
    adapter.prepare(&star, &settings).unwrap();
    let (_, q) = &queries()[0];
    let mut h = adapter.submit(q);
    while !h.step(u64::MAX / 4).is_done() {}
    let after = schema.join_cache_stats();
    assert_eq!(
        after.entries, before.entries,
        "no duplicate materialization"
    );
    assert!(after.hits > before.hits, "cross-engine reuse recorded");
}
