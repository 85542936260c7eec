//! Scan-throughput benchmark: emits `BENCH_scan.json` with rows/sec for the
//! vectorized execution core on the paper's canonical scan shapes, on the
//! brush filters linked selections compile to (an OR of ranges, ANDed with
//! an IN list), on a nullable column and a decimal too wide for a decode
//! table (both read in place), and on star-schema join cases, each against
//! the scalar oracle for the speedup ratio, plus per-worker-count scaling
//! rows for the parallel morsel
//! dispatcher: a one-shot count scan, and a shuffled scan stepped in
//! `step_quantum`-sized grants the way the progressive engine drives it,
//! and the cost of handing one span to the scan pool (`pool_handoff`),
//! and the wall time of building the benchmark's dataset (`datagen`):
//! generating 1M flights rows and normalizing them into the star schema.
//!
//! Doubles as the CI regression gate: the process exits non-zero if any
//! case — de-normalized, nullable, wide-decimal or star — drops below 1×
//! the scalar oracle (set
//! `IDEBENCH_BENCH_NO_GATE=1` to disable when exploring), and panics if a
//! worker count changes a result — the stepped scan's hash covers every
//! grant's rows and billed units as well as the final snapshot.
//!
//! Each reading repeats its scan until it has run at least ten times and
//! for at least 200 ms, after one warm-up run, and records the best run's
//! rows/s (which the gates compare) next to the median and interquartile
//! range of all runs.
//!
//! To make runs on a shared host comparable, a fixed streaming reference
//! kernel is timed before every case; the report records each case's
//! reading and the fastest and slowest over the run. Each case also records
//! the physical bytes per row its kernels read (narrow encodings as
//! stored, see `CompiledPlan::bytes_per_row`) and the bandwidth its best
//! run achieved. A roofline row — a streaming sum over one `u16` column of
//! the same length — gives the bandwidth the host reaches on the simplest
//! scan there is, and each case records its bandwidth as a fraction of it.

use idebench_core::metrics::{median, percentiles};
use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
use idebench_core::{AggResult, FilterExpr, Predicate, Query, Settings, VizSpec};
use idebench_engine_progressive::ProgressiveConfig;
use idebench_query::{
    available_workers, execute_exact, execute_exact_parallel, execute_exact_scalar, global_pool,
    AccMode, ChunkedRun, CompiledPlan, Shuffle, SnapshotMode,
};
use idebench_storage::{Column, ColumnData, DataType, Dataset, Field, Schema, SelVec, Table};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 500_000;
/// Larger table for the worker-scaling rows, so per-chunk work dominates
/// thread-pool overhead.
const SCALING_ROWS: usize = 2_000_000;

/// Fewest timed runs per reading.
const MIN_RUNS: usize = 10;
/// Shortest timed span per reading: a scan takes a few milliseconds, so a
/// handful of runs lets one scheduler stall or one quiet moment decide it.
const MIN_SPAN: Duration = Duration::from_millis(200);

/// A result's bins, in key order, each with its values' and margins' bit
/// patterns.
type BinBits = Vec<(String, Vec<u64>, Vec<u64>)>;

/// `r` as bit patterns — so `-0.0` and `0.0` differ and a NaN equals
/// itself: its bins in key order, then its processed fraction's bits and
/// its exactness flag. The agreement checks compare these, not `f64 ==`.
fn bits(r: &AggResult) -> (BinBits, u64, bool) {
    let mut bins: BinBits = r
        .bins
        .iter()
        .map(|(k, s)| {
            (
                format!("{k:?}"),
                s.values.iter().map(|v| v.to_bits()).collect(),
                s.margins.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    bins.sort();
    (bins, r.processed_fraction.to_bits(), r.exact)
}

/// Rows/s over the timed runs of one reading.
struct Throughput {
    /// The fastest run.
    best: f64,
    median: f64,
    p25: f64,
    p75: f64,
}

impl Throughput {
    /// Interquartile range.
    fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

/// Milliseconds of a fixed reference kernel — streaming sums over 8 MiB of
/// `f64`s and FNV-1a over 4 MiB of bytes — read to tell how fast the host
/// runs at the moment.
fn reference_kernel_ms() -> f64 {
    let floats: Vec<f64> = (0..1u32 << 20).map(f64::from).collect();
    let bytes: Vec<u8> = (0..1u32 << 22).map(|i| i as u8).collect();
    let start = Instant::now();
    let mut sum = 0.0;
    for _ in 0..20 {
        sum += std::hint::black_box(&floats).iter().sum::<f64>();
    }
    let h = fnv1a(0xcbf2_9ce4_8422_2325, std::hint::black_box(&bytes));
    std::hint::black_box((sum, h));
    start.elapsed().as_secs_f64() * 1e3
}

/// Reference-kernel readings taken before each case.
#[derive(Default)]
struct HostReadings(Vec<f64>);

impl HostReadings {
    /// Times the reference kernel once and returns the reading.
    fn read(&mut self) -> f64 {
        let ms = reference_kernel_ms();
        self.0.push(ms);
        ms
    }

    fn summary(&self) -> serde_json::Value {
        serde_json::json!({
            "fastest": self.0.iter().copied().fold(f64::INFINITY, f64::min),
            "slowest": self.0.iter().copied().fold(0.0, f64::max),
            "readings": self.0.len(),
        })
    }
}

/// Achieved bandwidth of a scan reading `bytes_per_row` at `rows_per_sec`.
fn gb_per_sec(rows_per_sec: f64, bytes_per_row: f64) -> f64 {
    rows_per_sec * bytes_per_row / 1e9
}

/// Seconds per run of `f`, after one warm-up run, over at least
/// [`MIN_RUNS`] runs and [`MIN_SPAN`]; what `f` returns is dropped outside
/// the timed span.
fn time_runs<T>(mut f: impl FnMut() -> T) -> Vec<f64> {
    drop(f()); // warm-up
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_RUNS || start.elapsed() < MIN_SPAN {
        let run = Instant::now();
        let out = f();
        samples.push(run.elapsed().as_secs_f64());
        drop(out);
    }
    samples
}

fn time_rows_per_sec(rows: usize, f: impl FnMut()) -> Throughput {
    let samples: Vec<f64> = time_runs(f).iter().map(|s| rows as f64 / s).collect();
    let q: Vec<f64> = percentiles(&samples, &[25.0, 75.0])
        .into_iter()
        .flatten()
        .collect();
    Throughput {
        best: samples.iter().copied().fold(0.0, f64::max),
        median: median(&samples).expect("at least one run"),
        p25: q[0],
        p75: q[1],
    }
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

/// MIN and MAX of one measure over a dense nominal × nominal space of
/// 120 × 48 = 5 760 bins (origin × destination state): rows spread over
/// thousands of bins, where a conditional min/max store mispredicts.
fn dense_2d_min_max() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![
            BinDef::Nominal {
                dimension: "origin".into(),
            },
            BinDef::Nominal {
                dimension: "dest_state".into(),
            },
        ],
        vec![
            AggregateSpec::over(AggFunc::Min, "arr_delay"),
            AggregateSpec::over(AggFunc::Max, "arr_delay"),
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

/// Origin counts under a brush of three `dep_time` buckets — the OR of
/// ranges a linked selection on a departure-time histogram compiles to.
fn nom_count_or_ranges() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "origin".into(),
        }],
        vec![AggregateSpec::count()],
    );
    let bucket = |min: f64| {
        FilterExpr::Pred(Predicate::Range {
            column: "dep_time".into(),
            min,
            max: min + 2.0,
        })
    };
    Query::for_viz(
        &spec,
        Some(FilterExpr::Or(vec![
            bucket(6.0),
            bucket(12.0),
            bucket(18.0),
        ])),
    )
}

/// [`nom_count_or_ranges`] further brushed on a destination-state map: the
/// OR of ranges ANDed with an IN list.
fn nom_count_in_and_or() -> Query {
    let mut q = nom_count_or_ranges();
    q.compose_filter(FilterExpr::Pred(Predicate::In {
        column: "dest_state".into(),
        values: vec!["S00".into(), "S03".into(), "S07".into()],
    }));
    q
}

/// The flights table plus two columns its generator does not produce:
/// `dep_delay_n`, a copy of `dep_delay` with every tenth row null, and
/// `dep_time_fine`, departure times at 1/10 000 h, whose codes span too many
/// values for a decode table.
fn with_nulls_and_wide_decimals(t: &Table) -> Dataset {
    let n = t.num_rows();
    let nullable = t
        .column("dep_delay")
        .expect("flights has dep_delay")
        .clone()
        .with_validity(SelVec::from_bools(n, (0..n).map(|r| r % 10 != 3)));
    let dep_time = t
        .column("dep_time")
        .expect("flights has dep_time")
        .as_float()
        .expect("dep_time is numeric");
    let fine = Column::float(
        dep_time
            .iter()
            .enumerate()
            .map(|(r, &v)| ((v * 100.0).round() as i64 * 100 + (r * 37 % 100) as i64) as f64 / 1e4)
            .collect(),
    );
    let mut fields = t.schema().fields().to_vec();
    fields.push(Field::new("dep_delay_n", DataType::Float));
    fields.push(Field::new("dep_time_fine", DataType::Float));
    let mut columns = t.columns().to_vec();
    columns.extend([nullable, fine]);
    let table = Table::new(t.name(), Schema::new(fields), columns).expect("aligned columns");
    let wide = table.column("dep_time_fine").unwrap();
    assert!(
        matches!(wide.data(), ColumnData::Decimal(..)) && wide.decode_table().is_none(),
        "dep_time_fine is a decimal too wide for a decode table"
    );
    Dataset::Denormalized(Arc::new(table))
}

/// Carrier averages of the nullable `dep_delay_n` under a range over it:
/// the range compares codes and ANDs the validity bitmap, and the measure
/// skips null rows.
fn nullable_filtered_1d_nominal_avg() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Nominal {
            dimension: "carrier".into(),
        }],
        vec![AggregateSpec::over(AggFunc::Avg, "dep_delay_n")],
    );
    Query::for_viz(
        &spec,
        Some(FilterExpr::Pred(Predicate::Range {
            column: "dep_delay_n".into(),
            min: 0.0,
            max: 60.0,
        })),
    )
}

/// Hourly averages of the wide decimal `dep_time_fine` under a range over
/// it: filter, dense bucketing and measure all decode its codes by
/// division.
fn wide_decimal_filtered_avg() -> Query {
    let spec = VizSpec::new(
        "bench",
        "flights",
        vec![BinDef::Width {
            dimension: "dep_time_fine".into(),
            width: 1.0,
            anchor: 0.0,
        }],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "dep_time_fine"),
        ],
    );
    Query::for_viz(
        &spec,
        Some(FilterExpr::Pred(Predicate::Range {
            column: "dep_time_fine".into(),
            min: 6.0,
            max: 18.0,
        })),
    )
}

/// Rows/s of a streaming sum over `ROWS` `u16` values: the bandwidth
/// ceiling the cases' GB/s are read against.
fn roofline_sum_u16() -> Throughput {
    let col: Vec<u16> = (0..ROWS).map(|i| (i * 7) as u16).collect();
    time_rows_per_sec(ROWS, || {
        let sum: u64 = std::hint::black_box(&col)
            .iter()
            .map(|&k| u64::from(k))
            .sum();
        std::hint::black_box(sum);
    })
}

/// A shuffled visit order of `n` positions (Fisher–Yates over splitmix64).
fn shuffled(n: usize, seed: u64) -> Arc<Vec<u32>> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    Arc::new(order)
}

/// 64-bit FNV-1a.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `q` in `shuffle`'s order as the progressive engine does — its cost
/// model, the shuffle's shared permuted copies, estimate snapshots, one
/// `step_quantum` grant per call — and hashes every grant's rows done and
/// units billed, then the final snapshot.
fn stepped_scan(data: &Dataset, q: &Query, shuffle: &Shuffle, workers: usize) -> u64 {
    let config = ProgressiveConfig::default();
    let plan = CompiledPlan::compile(data, q).expect("bench query compiles");
    let row_cost = config.row_cost(&plan);
    let population = plan.num_rows() as u64;
    let mode = SnapshotMode::Estimate {
        z: 1.96,
        population,
    };
    let mut run = ChunkedRun::from_shuffle(plan, shuffle, mode);
    run.set_row_cost(row_cost);
    run.set_match_cost(config.match_cost);
    run.set_workers(workers);
    let grant = Settings::default().step_quantum;
    let mut h = 0xcbf2_9ce4_8422_2325;
    while !run.is_done() {
        let used = run.advance(grant);
        h = fnv1a(
            h,
            &[run.rows_done() as u64, used]
                .map(u64::to_le_bytes)
                .concat(),
        );
    }
    fnv1a(
        h,
        serde_json::to_string(&run.snapshot()).unwrap().as_bytes(),
    )
}

/// Busy-waits `d`, keeping the thread on its core as a scan does.
fn busy(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Spans per `pool_handoff` reading, after as many warm-up spans.
const HANDOFF_SPANS: usize = 2_000;

/// Wall µs of `global_pool().scope_run(1, body)` over a fixed 1 µs body,
/// each span followed by `gap` of caller work: what a dispatcher's
/// read-ahead pays to hand a chunk to a pool worker and join it. A gap
/// inside the pool's spin window meets a spinning worker; a longer one
/// meets a parked worker that must be woken.
fn pool_handoff(gap: Duration, reference_ms: f64) -> serde_json::Value {
    let body = || busy(Duration::from_micros(1));
    let pool = global_pool();
    for _ in 0..HANDOFF_SPANS {
        pool.scope_run(1, &body);
        busy(gap);
    }
    let before = pool.stats();
    let samples: Vec<f64> = (0..HANDOFF_SPANS)
        .map(|_| {
            let run = Instant::now();
            pool.scope_run(1, &body);
            let us = run.elapsed().as_secs_f64() * 1e6;
            busy(gap);
            us
        })
        .collect();
    let after = pool.stats();
    let q: Vec<f64> = percentiles(&samples, &[25.0, 75.0])
        .into_iter()
        .flatten()
        .collect();
    let median_us = median(&samples).expect("at least one span");
    let helper_run_frac =
        (after.helper_runs - before.helper_runs) as f64 / (after.spans - before.spans) as f64;
    let gap_us = gap.as_secs_f64() * 1e6;
    let name = format!("pool_handoff_gap_{gap_us:.0}us");
    println!(
        "{name:<32} handoff    median {median_us:>6.2} µs (IQR {:.2}–{:.2})   helper ran {:.0}% of spans   ref {reference_ms:.1} ms",
        q[0],
        q[1],
        100.0 * helper_run_frac,
    );
    serde_json::json!({
        "gap_us": gap_us,
        "spans": HANDOFF_SPANS,
        "median_us": median_us,
        "iqr_us": q[1] - q[0],
        "p25_us": q[0],
        "p75_us": q[1],
        "helper_run_frac": helper_run_frac,
        "reference_kernel_ms": reference_ms,
    })
}

/// Rows generated for the `datagen` rows: the benchmark's default dataset
/// size.
const DATAGEN_ROWS: usize = 1_000_000;

/// One `datagen` row: the wall milliseconds of `f`, which builds
/// [`DATAGEN_ROWS`] rows, as median and interquartile range, and the
/// median's rows per second.
fn datagen_reading<T>(name: &str, reference_ms: f64, f: impl FnMut() -> T) -> serde_json::Value {
    let ms: Vec<f64> = time_runs(f).iter().map(|s| s * 1e3).collect();
    let q: Vec<f64> = percentiles(&ms, &[25.0, 75.0])
        .into_iter()
        .flatten()
        .collect();
    let median_ms = median(&ms).expect("at least one run");
    let mrows_per_sec = DATAGEN_ROWS as f64 / median_ms / 1e3;
    println!(
        "{name:<32} datagen    median {median_ms:>8.1} ms (IQR {:.1}–{:.1})   {mrows_per_sec:.2} Mrows/s   ref {reference_ms:.1} ms",
        q[0], q[1],
    );
    serde_json::json!({
        "case": name,
        "rows": DATAGEN_ROWS,
        "runs": ms.len(),
        "median_ms": median_ms,
        "iqr_ms": q[1] - q[0],
        "p25_ms": q[0],
        "p75_ms": q[1],
        "min_ms": ms.iter().copied().fold(f64::INFINITY, f64::min),
        "median_mrows_per_sec": mrows_per_sec,
        "reference_kernel_ms": reference_ms,
    })
}

fn main() {
    let table = idebench_datagen::flights::generate(ROWS, 42);
    let ds = Dataset::Denormalized(Arc::new(table.clone()));
    let star = idebench_datagen::normalize_flights(&table).expect("flights normalize");
    let extra = with_nulls_and_wide_decimals(&table);

    // The star cases run the devirtualized join layer (shared fact-ordered
    // materializations) against the scalar oracle, which follows the
    // foreign key per row, on the normalized twin of the same data.
    let cases: [(&str, &Dataset, Query); 11] = [
        ("exact_scan_1d_nominal_count", &ds, exact_scan()),
        ("filtered_scan_1d_nominal_avg", &ds, filtered_1d_nominal()),
        ("nom_count_or_ranges", &ds, nom_count_or_ranges()),
        ("nom_count_in_and_or", &ds, nom_count_in_and_or()),
        ("binned_2d_agg", &ds, binned_2d()),
        ("dense_bucketed_2d_agg", &ds, dense_bucketed_2d()),
        ("dense_2d_min_max", &ds, dense_2d_min_max()),
        (
            "nullable_filtered_1d_nominal_avg",
            &extra,
            nullable_filtered_1d_nominal_avg(),
        ),
        (
            "wide_decimal_filtered_avg",
            &extra,
            wide_decimal_filtered_avg(),
        ),
        ("star_1d_nominal_via_fk", &star, star_1d_nominal_via_fk()),
        ("star_joined_2d_agg", &star, star_joined_2d_agg()),
    ];

    let mut host = HostReadings::default();
    let roofline_ref_ms = host.read();
    let roofline = roofline_sum_u16();
    let roofline_gbps = gb_per_sec(roofline.best, 2.0);
    println!(
        "{:<32} streaming  {:>12.0} rows/s (median {:>12.0}, IQR {:.0}–{:.0})   2.0 B/row {roofline_gbps:.2} GB/s   ref {roofline_ref_ms:.1} ms",
        "roofline_sum_u16", roofline.best, roofline.median, roofline.p25, roofline.p75,
    );
    let mut entries = Vec::new();
    let mut regressions = Vec::new();
    for (name, data, q) in &cases {
        let reference_ms = host.read();
        let plan = CompiledPlan::compile(data, q).expect("bench query compiles");
        let dense = matches!(plan.acc_mode(), AccMode::Dense(_));
        let bytes_per_row = plan.bytes_per_row();
        assert_eq!(
            bits(&execute_exact(data, q).unwrap()),
            bits(&execute_exact_scalar(data, q).unwrap()),
            "vectorized and scalar paths must agree bit for bit on {name}"
        );
        let vec = time_rows_per_sec(ROWS, || {
            let _ = execute_exact(data, q).unwrap();
        });
        let scalar = time_rows_per_sec(ROWS, || {
            let _ = execute_exact_scalar(data, q).unwrap();
        });
        let speedup = vec.best / scalar.best;
        let gbps = gb_per_sec(vec.best, bytes_per_row);
        println!(
            "{name:<32} vectorized {:>12.0} rows/s (median {:>12.0}, IQR {:.0}–{:.0})   scalar {:>12.0} rows/s   speedup {speedup:.2}x   {}   {bytes_per_row:.1} B/row {gbps:.2} GB/s ({:.0}% of roofline)   ref {reference_ms:.1} ms",
            vec.best,
            vec.median,
            vec.p25,
            vec.p75,
            scalar.best,
            if dense { "dense" } else { "sparse" },
            100.0 * gbps / roofline_gbps,
        );
        if speedup < 1.0 {
            regressions.push(format!("{name}: {speedup:.2}x"));
        }
        entries.push(serde_json::json!({
            "case": name,
            "rows": ROWS,
            "dense": dense,
            "joined": data.as_star().is_some(),
            "vectorized_rows_per_sec": vec.best,
            "vectorized_median_rows_per_sec": vec.median,
            "vectorized_iqr_rows_per_sec": vec.iqr(),
            "scalar_rows_per_sec": scalar.best,
            "scalar_median_rows_per_sec": scalar.median,
            "scalar_iqr_rows_per_sec": scalar.iqr(),
            "speedup": speedup,
            "bytes_per_row": bytes_per_row,
            "vectorized_gb_per_sec": gbps,
            "roofline_frac": gbps / roofline_gbps,
            "reference_kernel_ms": reference_ms,
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
    let scan_bytes_per_row = CompiledPlan::compile(&scaling_ds, &scan)
        .expect("bench query compiles")
        .bytes_per_row();
    let scalar_ref = execute_exact_scalar(&scaling_ds, &scan).unwrap();
    let scalar_rps = time_rows_per_sec(SCALING_ROWS, || {
        let _ = execute_exact_scalar(&scaling_ds, &scan).unwrap();
    })
    .best;
    let mut worker_counts = vec![1usize, 2, 4];
    if !worker_counts.contains(&cores) {
        worker_counts.push(cores);
    }
    let mut scaling = Vec::new();
    let mut baseline_rps = f64::NAN;
    for &workers in &worker_counts {
        let reference_ms = host.read();
        assert_eq!(
            bits(&execute_exact_parallel(&scaling_ds, &scan, workers).unwrap()),
            bits(&scalar_ref),
            "parallel scan ({workers} workers) must stay bit-identical to scalar"
        );
        let t = time_rows_per_sec(SCALING_ROWS, || {
            let _ = execute_exact_parallel(&scaling_ds, &scan, workers).unwrap();
        });
        let rps = t.best;
        if workers == 1 {
            baseline_rps = rps;
        }
        println!(
            "count_scan_workers_{workers:<2}           parallel   {rps:>12.0} rows/s (median {:>12.0}, IQR {:.0}–{:.0})   vs 1-worker {:.2}x   vs scalar {:.2}x",
            t.median,
            t.p25,
            t.p75,
            rps / baseline_rps,
            rps / scalar_rps,
        );
        scaling.push(serde_json::json!({
            "case": "exact_scan_1d_nominal_count",
            "rows": SCALING_ROWS,
            "workers": workers,
            "rows_per_sec": rps,
            "median_rows_per_sec": t.median,
            "iqr_rows_per_sec": t.iqr(),
            "speedup_vs_single_worker": rps / baseline_rps,
            "speedup_vs_scalar": rps / scalar_rps,
            "bytes_per_row": scan_bytes_per_row,
            "gb_per_sec": gb_per_sec(rps, scan_bytes_per_row),
            "reference_kernel_ms": reference_ms,
        }));
    }

    // Stepped-scan rows: the nominal × bucketed 2D query, filtered, over a
    // shuffled order in step-sized grants. Every grant's rows and billed
    // units must be identical across worker counts; only wall time moves.
    let mut stepped_q = dense_bucketed_2d();
    stepped_q.compose_filter(FilterExpr::Pred(Predicate::Range {
        column: "dep_delay".into(),
        min: 0.0,
        max: 60.0,
    }));
    let shuffle = Shuffle::from_order(&ds, shuffled(ROWS, 7));
    let stepped_bytes_per_row = CompiledPlan::compile(&ds, &stepped_q)
        .expect("bench query compiles")
        .bytes_per_row();
    let reference_hash = stepped_scan(&ds, &stepped_q, &shuffle, 1);
    let mut stepped = Vec::new();
    let mut single_rps = f64::NAN;
    for workers in [1, cores] {
        let reference_ms = host.read();
        let hash = stepped_scan(&ds, &stepped_q, &shuffle, workers);
        assert_eq!(
            hash, reference_hash,
            "stepped scan ({workers} workers) must bill and answer exactly as 1 worker"
        );
        let t = time_rows_per_sec(ROWS, || {
            let _ = stepped_scan(&ds, &stepped_q, &shuffle, workers);
        });
        let rps = t.best;
        if workers == 1 {
            single_rps = rps;
        }
        println!(
            "stepped_shuffled_2d_workers_{workers:<2}     stepped    {rps:>12.0} rows/s (median {:>12.0}, IQR {:.0}–{:.0})   vs 1-worker {:.2}x",
            t.median,
            t.p25,
            t.p75,
            rps / single_rps,
        );
        stepped.push(serde_json::json!({
            "case": "stepped_shuffled_2d_filtered",
            "rows": ROWS,
            "grant_units": Settings::default().step_quantum,
            "workers": workers,
            "rows_per_sec": rps,
            "median_rows_per_sec": t.median,
            "iqr_rows_per_sec": t.iqr(),
            "speedup_vs_single_worker": rps / single_rps,
            "result_hash": format!("{hash:#018x}"),
            "bytes_per_row": stepped_bytes_per_row,
            "gb_per_sec": gb_per_sec(rps, stepped_bytes_per_row),
            "reference_kernel_ms": reference_ms,
        }));
    }

    // Pool handoff rows: one gap inside the pool's spin window, one past it.
    let handoff: Vec<serde_json::Value> = [20, 500]
        .map(|gap_us| pool_handoff(Duration::from_micros(gap_us), host.read()))
        .into();

    // Datagen rows: the dataset every benchmark rep builds first.
    let generate = datagen_reading("flights_generate", host.read(), || {
        idebench_datagen::flights::generate(DATAGEN_ROWS, 42)
    });
    let flights = idebench_datagen::flights::generate(DATAGEN_ROWS, 42);
    let normalize = datagen_reading("normalize_flights", host.read(), || {
        idebench_datagen::normalize_flights(&flights).expect("flights normalize")
    });
    drop(flights);

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
        "reference_kernel_ms": host.summary(),
        "roofline": {
            "case": "roofline_sum_u16",
            "rows": ROWS,
            "rows_per_sec": roofline.best,
            "median_rows_per_sec": roofline.median,
            "iqr_rows_per_sec": roofline.iqr(),
            "bytes_per_row": 2.0,
            "gb_per_sec": roofline_gbps,
            "reference_kernel_ms": roofline_ref_ms,
        },
        "join_cache": {
            "materializations": join_stats.entries,
            "bytes": join_stats.bytes,
            "hits": join_stats.hits,
        },
        "cases": entries,
        "scaling": scaling,
        "stepped": stepped,
        "pool_handoff": handoff,
        "datagen": [generate, normalize],
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
