//! Criterion micro-benchmarks of the substrates: data generation, copula
//! scaling, normalization, filtering, binning and ground-truth execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
use idebench_core::{FilterExpr, Predicate, Query, VizSpec};
use idebench_datagen::{normalize_flights, CopulaScaler};
use idebench_query::{execute_exact, execute_exact_scalar};
use idebench_storage::Dataset;
use std::sync::Arc;

fn bench_datagen(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("flights_generate_100k", |b| {
        b.iter(|| idebench_datagen::flights::generate(100_000, 7))
    });

    let seed = idebench_datagen::flights::generate(20_000, 7);
    group.bench_function("copula_fit_20k", |b| {
        b.iter(|| CopulaScaler::fit(&seed, 20_000, 9))
    });
    let scaler = CopulaScaler::fit(&seed, 20_000, 9);
    group.throughput(Throughput::Elements(50_000));
    group.bench_function("copula_generate_50k", |b| {
        b.iter(|| scaler.generate(50_000, 11))
    });

    let table = idebench_datagen::flights::generate(100_000, 7);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("normalize_flights_100k", |b| {
        b.iter(|| normalize_flights(&table).unwrap())
    });
    group.finish();
}

fn bench_query_eval(c: &mut Criterion) {
    let rows = 500_000usize;
    let ds = Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(rows, 42)));
    let mut group = c.benchmark_group("query_eval");
    group.throughput(Throughput::Elements(rows as u64));

    let filter = FilterExpr::Pred(Predicate::In {
        column: "carrier".into(),
        values: vec!["C00".into(), "C01".into()],
    })
    .and(FilterExpr::Pred(Predicate::Range {
        column: "dep_delay".into(),
        min: 0.0,
        max: 60.0,
    }));
    let q1 = Query::for_viz(
        &VizSpec::new(
            "b",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "arr_delay")],
        ),
        None,
    );
    group.bench_function("exact_1d_avg_500k", |b| {
        b.iter(|| execute_exact(&ds, &q1).unwrap())
    });

    let q2 = Query::for_viz(
        &VizSpec::new(
            "b2",
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
            vec![AggregateSpec::count()],
        ),
        Some(filter.clone()),
    );
    group.bench_function("exact_2d_filtered_count_500k", |b| {
        b.iter(|| execute_exact(&ds, &q2).unwrap())
    });
    group.finish();
}

/// Vectorized morsel path vs the retained scalar reference path on the
/// canonical filtered 1D-nominal aggregation — the microbenchmark that pins
/// the batch-execution speedup (expected ≥ 3×; see BENCH_scan.json).
fn bench_vectorized_vs_scalar(c: &mut Criterion) {
    let rows = 500_000usize;
    let ds = Dataset::Denormalized(Arc::new(idebench_datagen::flights::generate(rows, 42)));
    let q = Query::for_viz(
        &VizSpec::new(
            "b",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        ),
        Some(FilterExpr::Pred(Predicate::In {
            column: "carrier".into(),
            values: vec!["C00".into(), "C01".into(), "C02".into()],
        })),
    );
    assert_eq!(
        execute_exact(&ds, &q).unwrap(),
        execute_exact_scalar(&ds, &q).unwrap(),
        "paths must agree before comparing their speed"
    );
    let mut group = c.benchmark_group("scan_paths");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function(
        BenchmarkId::new("vectorized", "filtered_1d_nominal_avg"),
        |b| b.iter(|| execute_exact(&ds, &q).unwrap()),
    );
    group.bench_function(BenchmarkId::new("scalar", "filtered_1d_nominal_avg"), |b| {
        b.iter(|| execute_exact_scalar(&ds, &q).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_datagen,
    bench_query_eval,
    bench_vectorized_vs_scalar
);
criterion_main!(benches);
