//! Scan-throughput benchmark: emits `BENCH_scan.json` with rows/sec for the
//! vectorized execution core on the paper's canonical scan shapes and on
//! star-schema join cases, each against the scalar oracle for the speedup
//! ratio, plus per-worker-count scaling rows for the parallel morsel
//! dispatcher.
//!
//! Doubles as the CI regression gate: the process exits non-zero if any
//! case, de-normalized or star, drops below 1× the scalar oracle (set
//! `IDEBENCH_BENCH_NO_GATE=1` to disable when exploring).

use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
use idebench_core::{FilterExpr, Predicate, Query, VizSpec};
use idebench_query::{
    available_workers, execute_exact, execute_exact_parallel, execute_exact_scalar, AccMode,
    CompiledPlan,
};
use idebench_storage::Dataset;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 500_000;
/// Larger table for the worker-scaling rows, so per-chunk work dominates
/// thread-pool overhead.
const SCALING_ROWS: usize = 2_000_000;

fn time_rows_per_sec(rows: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up, then best of several measured repetitions.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    rows as f64 / best
}

fn filtered_1d_nominal() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
    );
    Query::for_viz(
        &spec,
        Some(
            FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["C00".into(), "C01".into(), "C02".into()],
            })
            .and(FilterExpr::Pred(Predicate::Range {
                column: "dep_delay".into(),
                min: 0.0,
                max: 60.0,
            })),
        ),
    )
}

fn exact_scan() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::count()],
    );
    Query::for_viz(&spec, None)
}

/// Bucketed × bucketed 2D aggregation. The delay columns' min/max stats
/// bound both bucket spaces, so this lowers to the dense flat-array store.
fn binned_2d() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            },
            BinDef::Width {
                dimension: "arr_delay".into(),
                width: 10.0,
                anchor: 0.0,
            },
        ],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "arr_delay"),
        ],
    );
    Query::for_viz(&spec, None)
}

/// Nominal × bucketed 2D aggregation — the mixed shape the dense bucketed
/// lowering targets (heatmap of carrier × delay band).
fn dense_bucketed_2d() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![
            BinDef::Nominal {
                dimension: "carrier".into(),
            },
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 5.0,
                anchor: 0.0,
            },
        ],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "arr_delay"),
        ],
    );
    Query::for_viz(&spec, None)
}

/// 1D nominal binning reached through a foreign key (star schema).
fn star_1d_nominal_via_fk() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
    );
    Query::for_viz(&spec, None)
}

/// 2D joined×joined dense aggregation: both binning dimensions live in
/// dimension tables, so a per-row join pays the FK indirection twice per
/// row — the shape the join-devirtualization layer targets. COUNT keeps
/// the case join-bound (the 1D case covers measures next to joins).
fn star_joined_2d_agg() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![
            BinDef::Nominal {
                dimension: "carrier".into(),
            },
            BinDef::Nominal {
                dimension: "origin_state".into(),
            },
        ],
        vec![AggregateSpec::count()],
    );
    Query::for_viz(&spec, None)
}

fn main() {
    let table = idebench_datagen::flights::generate(ROWS, 42);
    let ds = Dataset::Denormalized(Arc::new(table.clone()));
    let star = idebench_datagen::normalize_flights(&table).expect("flights normalize");

    // The star cases run the devirtualized join layer (shared fact-ordered
    // materializations) against the scalar oracle, which follows the
    // foreign key per row, on the normalized twin of the same data.
    let cases: [(&str, &Dataset, Query); 6] = [
        ("exact_scan_1d_nominal_count", &ds, exact_scan()),
        ("filtered_scan_1d_nominal_avg", &ds, filtered_1d_nominal()),
        ("binned_2d_agg", &ds, binned_2d()),
        ("dense_bucketed_2d_agg", &ds, dense_bucketed_2d()),
        ("star_1d_nominal_via_fk", &star, star_1d_nominal_via_fk()),
        ("star_joined_2d_agg", &star, star_joined_2d_agg()),
    ];

    let mut entries = Vec::new();
    let mut regressions = Vec::new();
    for (name, data, q) in &cases {
        let plan = CompiledPlan::compile(data, q).expect("bench query compiles");
        let dense = matches!(plan.acc_mode(), AccMode::Dense(_));
        assert_eq!(
            execute_exact(data, q).unwrap(),
            execute_exact_scalar(data, q).unwrap(),
            "vectorized and scalar paths must agree on {name}"
        );
        let vec_rps = time_rows_per_sec(ROWS, || {
            let _ = execute_exact(data, q).unwrap();
        });
        let scalar_rps = time_rows_per_sec(ROWS, || {
            let _ = execute_exact_scalar(data, q).unwrap();
        });
        let speedup = vec_rps / scalar_rps;
        println!(
            "{name:<32} vectorized {vec_rps:>12.0} rows/s   scalar {scalar_rps:>12.0} rows/s   speedup {speedup:.2}x   {}",
            if dense { "dense" } else { "sparse" }
        );
        if speedup < 1.0 {
            regressions.push(format!("{name}: {speedup:.2}x"));
        }
        entries.push(serde_json::json!({
            "case": name,
            "rows": ROWS,
            "dense": dense,
            "joined": data.as_star().is_some(),
            "vectorized_rows_per_sec": vec_rps,
            "scalar_rows_per_sec": scalar_rps,
            "speedup": speedup,
        }));
    }
    let join_stats = star.as_star().unwrap().join_cache_stats();
    println!(
        "join cache: {} materializations, {} bytes, {} hits",
        join_stats.entries, join_stats.bytes, join_stats.hits
    );

    // Worker-scaling rows on the unfiltered count scan: rows/sec per worker
    // count, speedups relative to the single-worker vectorized baseline
    // (PR 1's path) and to the scalar reference. Results are asserted
    // bit-identical across worker counts before timing.
    let cores = available_workers();
    let scaling_ds = Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(
        SCALING_ROWS,
        42,
    )));
    let scan = exact_scan();
    let scalar_ref = execute_exact_scalar(&scaling_ds, &scan).unwrap();
    let scalar_rps = time_rows_per_sec(SCALING_ROWS, || {
        let _ = execute_exact_scalar(&scaling_ds, &scan).unwrap();
    });
    let mut worker_counts = vec![1usize, 2, 4];
    if !worker_counts.contains(&cores) {
        worker_counts.push(cores);
    }
    let mut scaling = Vec::new();
    let mut baseline_rps = f64::NAN;
    for &workers in &worker_counts {
        assert_eq!(
            execute_exact_parallel(&scaling_ds, &scan, workers).unwrap(),
            scalar_ref,
            "parallel scan ({workers} workers) must stay bit-identical to scalar"
        );
        let rps = time_rows_per_sec(SCALING_ROWS, || {
            let _ = execute_exact_parallel(&scaling_ds, &scan, workers).unwrap();
        });
        if workers == 1 {
            baseline_rps = rps;
        }
        println!(
            "count_scan_workers_{workers:<2}           parallel   {rps:>12.0} rows/s   vs 1-worker {:.2}x   vs scalar {:.2}x",
            rps / baseline_rps,
            rps / scalar_rps,
        );
        scaling.push(serde_json::json!({
            "case": "exact_scan_1d_nominal_count",
            "rows": SCALING_ROWS,
            "workers": workers,
            "rows_per_sec": rps,
            "speedup_vs_single_worker": rps / baseline_rps,
            "speedup_vs_scalar": rps / scalar_rps,
        }));
    }

    // Multi-worker rows on a 1-core machine only measure pool overhead;
    // flag them so nobody reads ~1.0x as the dispatcher's ceiling.
    let scaling_note = if cores == 1 {
        "machine has 1 core: scaling rows are non-evidentiary (they measure \
         dispatch overhead, not parallel speedup); regenerate on a \
         multi-core host"
    } else {
        ""
    };
    let report = serde_json::json!({
        "benchmark": "scan",
        "available_cores": cores,
        "scaling_note": scaling_note,
        "join_cache": {
            "materializations": join_stats.entries,
            "bytes": join_stats.bytes,
            "hits": join_stats.hits,
        },
        "cases": entries,
        "scaling": scaling,
    });
    std::fs::write(
        "BENCH_scan.json",
        serde_json::to_string_pretty(&report).unwrap(),
    )
    .expect("write BENCH_scan.json");
    println!("wrote BENCH_scan.json (available cores: {cores})");

    if !regressions.is_empty() && std::env::var_os("IDEBENCH_BENCH_NO_GATE").is_none() {
        eprintln!("cases regressed below 1x vs scalar: {regressions:?}");
        std::process::exit(1);
    }
}
