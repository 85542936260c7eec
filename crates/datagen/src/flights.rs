//! Synthetic seed generator for the default IDEBench dataset: U.S. domestic
//! flights (paper §4.2, Figure 2).
//!
//! The original benchmark seeds its scaler with real Bureau of
//! Transportation Statistics data. That data is not redistributable here,
//! so this module synthesizes a seed with the same schema and — critically
//! for AQP benchmarking — the same *distribution classes*:
//!
//! - Zipf-skewed carrier and airport popularity (a few hubs dominate).
//! - Bimodal departure times (morning and evening banks).
//! - Heavy-tailed departure delays (mostly on time, occasionally very late),
//!   with carrier-, airport- and rush-hour-dependent shifts.
//! - Strong correlations: arrival delay tracks departure delay; air time
//!   tracks route distance; states follow airports.

use crate::encode::first_seen_column;
use crate::stats::{sample_cumulative, zipf_cumulative};
use idebench_storage::encoding::Code;
use idebench_storage::{Column, ColumnData, DataType, Ints, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Mutex;

/// Name of the generated fact table.
pub const FLIGHTS_TABLE: &str = "flights";

/// Number of distinct carriers in the seed.
pub const NUM_CARRIERS: usize = 14;
/// Number of distinct airports in the seed.
pub const NUM_AIRPORTS: usize = 120;
/// Number of distinct states airports are spread over.
pub const NUM_STATES: usize = 48;

/// The flights schema: `(name, type)` pairs, mirroring paper Figure 2.
pub const SCHEMA: &[(&str, DataType)] = &[
    ("carrier", DataType::Nominal),
    ("origin", DataType::Nominal),
    ("origin_state", DataType::Nominal),
    ("dest", DataType::Nominal),
    ("dest_state", DataType::Nominal),
    ("month", DataType::Int),
    ("day_of_week", DataType::Int),
    ("dep_time", DataType::Float),
    ("dep_delay", DataType::Float),
    ("arr_time", DataType::Float),
    ("arr_delay", DataType::Float),
    ("distance", DataType::Float),
    ("air_time", DataType::Float),
];

struct Airport {
    code: String,
    state: usize,
    x: f64,
    y: f64,
    congestion: f64,
}

struct World {
    airports: Vec<Airport>,
    airport_cum: Vec<f64>,
    carrier_cum: Vec<f64>,
    carrier_delay_offset: Vec<f64>,
    month_cum: Vec<f64>,
}

fn build_world(rng: &mut StdRng) -> World {
    let airports = (0..NUM_AIRPORTS)
        .map(|i| Airport {
            code: format!("A{i:03}"),
            state: i % NUM_STATES,
            x: rng.random::<f64>() * 2400.0,
            y: rng.random::<f64>() * 1400.0,
            // Hubs (low ranks) are more congested.
            congestion: 6.0 / (1.0 + i as f64 * 0.15) + rng.random::<f64>() * 2.0,
        })
        .collect();
    let carrier_delay_offset = (0..NUM_CARRIERS)
        .map(|_| rng.random::<f64>() * 8.0 - 3.0)
        .collect();
    // Mild seasonality: summer (6–8) and December are busier.
    let month_weight = |m: usize| match m {
        6..=8 => 1.35,
        12 => 1.25,
        1 | 2 => 0.85,
        _ => 1.0,
    };
    let total: f64 = (1..=12).map(month_weight).sum();
    let mut cum = 0.0;
    let month_cum = (1..=12)
        .map(|m| {
            cum += month_weight(m) / total;
            cum
        })
        .collect();
    World {
        airports,
        airport_cum: zipf_cumulative(NUM_AIRPORTS, 1.05),
        carrier_cum: zipf_cumulative(NUM_CARRIERS, 0.8),
        carrier_delay_offset,
        month_cum,
    }
}

/// One standard-normal draw (Box–Muller, using two uniforms).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Exponential draw with the given mean.
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    -rng.random::<f64>().max(1e-12).ln() * mean
}

/// Rows per fill block of [`generate`]. The grid depends only on `n`, never
/// on the worker count.
pub(crate) const BLOCK_ROWS: usize = 1 << 16;

/// One row as drawn, before dictionary encoding: nominal attributes are
/// category indexes, and each float value is held as its rounded scaled
/// integer `k` (an integral `f64`; the stored value is `k / 10^e`, with
/// `e` = 2 for times, 1 for delays and 0 for distance and air time).
struct Row {
    carrier: usize,
    origin: usize,
    dest: usize,
    month: i64,
    dow: i64,
    dep_time: f64,
    dep_delay: f64,
    arr_time: f64,
    arr_delay: f64,
    distance: f64,
    air_time: f64,
}

/// The departure-delay regime below which [`draw_row`] takes the two-draw
/// normal branch.
const DELAY_NORMAL_BRANCH: f64 = 0.62;

/// Draws one row. The draw order is the generation contract (see
/// [`generate`]); [`skip_row`] must advance the stream by the same count.
fn draw_row(world: &World, rng: &mut StdRng) -> Row {
    let carrier = sample_cumulative(&world.carrier_cum, rng.random());
    let origin = sample_cumulative(&world.airport_cum, rng.random());
    let mut dest = sample_cumulative(&world.airport_cum, rng.random());
    if dest == origin {
        dest = (dest + 1) % NUM_AIRPORTS;
    }
    let (o, d) = (&world.airports[origin], &world.airports[dest]);

    let month = sample_cumulative(&world.month_cum, rng.random()) as i64 + 1;
    // Weekdays are ~20% busier than weekend days.
    let dow = {
        let u: f64 = rng.random();
        if u < 0.78 {
            1 + (rng.random::<f64>() * 5.0) as i64
        } else {
            6 + (rng.random::<f64>() * 2.0) as i64
        }
    };

    // Bimodal departure times: morning bank (8±1.8h) and evening bank
    // (17±2.2h), clamped to the day.
    let dep_time = if rng.random::<f64>() < 0.55 {
        (8.0 + normal(rng) * 1.8).clamp(0.0, 23.99)
    } else {
        (17.0 + normal(rng) * 2.2).clamp(0.0, 23.99)
    };

    // Departure delay: carrier + origin congestion + evening rush, with
    // a heavy late tail.
    let rush = if (15.5..20.5).contains(&dep_time) {
        4.0
    } else {
        0.0
    };
    let base = world.carrier_delay_offset[carrier] + o.congestion * 0.6 + rush;
    let u: f64 = rng.random();
    let dep_delay = if u < DELAY_NORMAL_BRANCH {
        base - 4.0 + normal(rng) * 4.5
    } else if u < 0.92 {
        base + exponential(rng, 14.0)
    } else {
        base + 20.0 + exponential(rng, 55.0)
    };
    let dep_delay_k = (dep_delay * 10.0).round();
    let dep_delay = dep_delay_k / 10.0;

    let distance = {
        let dx = o.x - d.x;
        let dy = o.y - d.y;
        ((dx * dx + dy * dy).sqrt() + 60.0 + rng.random::<f64>() * 30.0).max(80.0)
    };
    // ~7.6 miles/minute cruise plus taxi/approach overhead.
    let air_time = distance / 7.6 + 18.0 + normal(rng) * 6.0;
    let air_time = air_time.max(20.0);

    // Arrival delay strongly tracks departure delay, with en-route
    // recovery and noise.
    let arr_delay = dep_delay * 0.92 - 4.0 + normal(rng) * 9.0;
    let arr_delay_k = (arr_delay * 10.0).round();
    let arr_delay = arr_delay_k / 10.0;

    let arr_time = (dep_time + air_time / 60.0 + arr_delay.max(0.0) / 60.0).rem_euclid(24.0);

    Row {
        carrier,
        origin,
        dest,
        month,
        dow,
        dep_time: (dep_time * 100.0).round(),
        dep_delay: dep_delay_k,
        arr_time: (arr_time * 100.0).round(),
        arr_delay: arr_delay_k,
        distance: distance.round(),
        air_time: air_time.round(),
    }
}

/// Advances `rng` past one row exactly as [`draw_row`] does, without
/// computing it. Only the delay regime — the row's 10th draw — decides the
/// count: 17 draws on the normal branch, 16 otherwise.
fn skip_row(rng: &mut StdRng) {
    for _ in 0..9 {
        rng.next_u64();
    }
    let u: f64 = rng.random();
    let rest = if u < DELAY_NORMAL_BRANCH { 7 } else { 6 };
    for _ in 0..rest {
        rng.next_u64();
    }
}

/// Output buffers, each at the width the column is stored in, so the
/// table is never held in a wider form: the five nominal columns (category
/// indexes, all below 256, until the recode pass), the two int columns
/// (`month`, `day_of_week`), and the float columns as scaled decimal codes
/// (see [`idebench_storage::encoding`]) — departure and arrival times with
/// two decimals, the two delays with one, distance and air time whole.
struct Buffers {
    cats: [Vec<u8>; 5],
    ints: [Vec<u8>; 2],
    times: [Vec<u16>; 2],
    delays: [Vec<i16>; 2],
    whole: [Vec<u16>; 2],
}

/// One block's rows of every [`Buffers`] column.
struct Block<'a> {
    cats: [&'a mut [u8]; 5],
    ints: [&'a mut [u8]; 2],
    times: [&'a mut [u16]; 2],
    delays: [&'a mut [i16]; 2],
    whole: [&'a mut [u16]; 2],
}

/// The decimal code of a drawn value's scaled integer `k` (see [`Row`]):
/// `k` itself, or the reserved code when `k` is `-0.0`. The code decodes to
/// `k / 10^e`, exactly the value the row stores. Every column's range fits
/// its code type by construction (times in `[0, 24]`, delays within ±3 000
/// minutes, distances and air times below 3 000).
fn code<T: Code>(k: f64) -> T {
    if k == 0.0 && k.is_sign_negative() {
        T::NEG_ZERO
    } else {
        T::try_from(k as i64)
            .ok()
            .filter(|&c| c != T::NEG_ZERO)
            .expect("drawn value fits its decimal code")
    }
}

impl Buffers {
    fn zeroed(n: usize) -> Self {
        Buffers {
            cats: std::array::from_fn(|_| vec![0; n]),
            ints: std::array::from_fn(|_| vec![0; n]),
            times: std::array::from_fn(|_| vec![0; n]),
            delays: std::array::from_fn(|_| vec![0; n]),
            whole: std::array::from_fn(|_| vec![0; n]),
        }
    }

    /// The buffers cut into [`BLOCK_ROWS`]-row blocks, in row order.
    fn blocks(&mut self) -> Vec<Block<'_>> {
        let n = self.cats[0].len();
        let mut cats = self.cats.each_mut().map(|c| c.chunks_mut(BLOCK_ROWS));
        let mut ints = self.ints.each_mut().map(|c| c.chunks_mut(BLOCK_ROWS));
        let mut times = self.times.each_mut().map(|c| c.chunks_mut(BLOCK_ROWS));
        let mut delays = self.delays.each_mut().map(|c| c.chunks_mut(BLOCK_ROWS));
        let mut whole = self.whole.each_mut().map(|c| c.chunks_mut(BLOCK_ROWS));
        (0..n.div_ceil(BLOCK_ROWS))
            .map(|_| Block {
                cats: cats.each_mut().map(|c| c.next().expect("block in range")),
                ints: ints.each_mut().map(|c| c.next().expect("block in range")),
                times: times.each_mut().map(|c| c.next().expect("block in range")),
                delays: delays.each_mut().map(|c| c.next().expect("block in range")),
                whole: whole.each_mut().map(|c| c.next().expect("block in range")),
            })
            .collect()
    }
}

impl Block<'_> {
    fn rows(&self) -> usize {
        self.cats[0].len()
    }

    /// Draws the block's rows from `rng`, in row order.
    fn fill(self, world: &World, rng: &mut StdRng) {
        let Block {
            mut cats,
            mut ints,
            mut times,
            mut delays,
            mut whole,
        } = self;
        for i in 0..cats[0].len() {
            let r = draw_row(world, rng);
            let (o, d) = (&world.airports[r.origin], &world.airports[r.dest]);
            let row_cats = [r.carrier, r.origin, o.state, r.dest, d.state];
            for (col, v) in cats.iter_mut().zip(row_cats) {
                col[i] = v as u8;
            }
            for (col, v) in ints.iter_mut().zip([r.month, r.dow]) {
                col[i] = v as u8;
            }
            for (col, v) in times.iter_mut().zip([r.dep_time, r.arr_time]) {
                col[i] = code(v);
            }
            for (col, v) in delays.iter_mut().zip([r.dep_delay, r.arr_delay]) {
                col[i] = code(v);
            }
            for (col, v) in whole.iter_mut().zip([r.distance, r.air_time]) {
                col[i] = code(v);
            }
        }
    }
}

/// Generates `n` rows of synthetic flights with the given RNG seed.
///
/// Deterministic: equal `(n, seed)` always produces an identical table,
/// whatever the number of cores.
///
/// Generation contract (pinned by the crate's golden-content tests):
/// - one RNG stream, seeded with `seed`, first draws the world (airport
///   positions and congestion, carrier delay offsets) and then every row;
/// - each row makes its draws in a fixed order — carrier, origin, dest,
///   month, day of week, departure time, departure delay, distance jitter,
///   air time, arrival delay — so `generate(m, seed)` holds the first `m`
///   rows of `generate(n, seed)` for any `m <= n`;
/// - nominal dictionaries list their values in first-seen order.
///
/// Rows are filled in parallel blocks; see the crate docs ("Block-parallel
/// generation") for how that keeps the single-stream contract.
pub fn generate(n: usize, seed: u64) -> Table {
    generate_with_workers(n, seed, idebench_core::settings::available_parallelism())
}

/// [`generate`] with an explicit worker count (at least one worker is
/// used, and never more than there are blocks). The output does not
/// depend on `workers`.
pub(crate) fn generate_with_workers(n: usize, seed: u64, workers: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let world = build_world(&mut rng);

    let mut buffers = Buffers::zeroed(n);
    let blocks = buffers.blocks();
    let workers = workers.clamp(1, blocks.len().max(1));
    if workers == 1 {
        for block in blocks {
            block.fill(&world, &mut rng);
        }
    } else {
        // Skip pass: `checkpoints[b]` is the stream state at block `b`'s
        // first row; the last entry is the state after the final row.
        let mut checkpoints = Vec::with_capacity(blocks.len() + 1);
        checkpoints.push(rng.clone());
        for block in &blocks {
            for _ in 0..block.rows() {
                skip_row(&mut rng);
            }
            checkpoints.push(rng.clone());
        }
        let queue = Mutex::new(blocks.into_iter().enumerate());
        let work = || loop {
            let next = queue
                .lock()
                .expect("no worker panics while holding the block queue")
                .next();
            let Some((b, block)) = next else {
                break;
            };
            let mut stream = checkpoints[b].clone();
            block.fill(&world, &mut stream);
            assert!(
                stream == checkpoints[b + 1],
                "flights block {b} drew a different number of values than the skip pass counted"
            );
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
    }

    // Recode pass, in row order: category indexes → first-seen codes.
    let Buffers {
        cats: [carrier, origin, origin_state, dest, dest_state],
        ints: [month, dow],
        times: [dep_time, arr_time],
        delays: [dep_delay, arr_delay],
        whole: [distance, air_time],
    } = buffers;
    let airport = |a: usize| world.airports[a].code.clone();
    let state = |s: usize| format!("S{s:02}");
    let int = |v| Column::new(ColumnData::Int(Ints::Narrow(v)));
    let decimal = |codes, exp| Column::new(ColumnData::Decimal(codes, exp));
    let columns = vec![
        first_seen_column(carrier, NUM_CARRIERS, |c| format!("C{c:02}")),
        first_seen_column(origin, NUM_AIRPORTS, airport),
        first_seen_column(origin_state, NUM_STATES, state),
        first_seen_column(dest, NUM_AIRPORTS, airport),
        first_seen_column(dest_state, NUM_STATES, state),
        int(month),
        int(dow),
        decimal(Ints::Narrow(dep_time), 2),
        decimal(Ints::Mid(dep_delay), 1),
        decimal(Ints::Narrow(arr_time), 2),
        decimal(Ints::Mid(arr_delay), 1),
        decimal(Ints::Narrow(distance), 0),
        decimal(Ints::Narrow(air_time), 0),
    ];
    Table::new(FLIGHTS_TABLE, Schema::from_pairs(SCHEMA), columns)
        .expect("flights columns have equal lengths")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for i in 0..a.len() {
            cov += (a[i] - ma) * (b[i] - mb);
            va += (a[i] - ma) * (a[i] - ma);
            vb += (b[i] - mb) * (b[i] - mb);
        }
        cov / (va.sqrt() * vb.sqrt())
    }

    #[test]
    fn output_does_not_depend_on_the_worker_count() {
        use crate::golden::{content_hash, FLIGHTS_GOLDEN};
        for &(n, seed, want) in FLIGHTS_GOLDEN {
            for workers in [1, 2, 3, 8] {
                let got = content_hash(&generate_with_workers(n, seed, workers));
                assert_eq!(got, want, "n {n}, seed {seed}, {workers} workers");
            }
        }
        // The golden sizes must cover an empty table, a partial block, whole
        // blocks, and a partial block after several whole ones.
        let sizes: Vec<usize> = FLIGHTS_GOLDEN.iter().map(|c| c.0).collect();
        for n in [
            0,
            1,
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            3 * BLOCK_ROWS + 17,
        ] {
            assert!(sizes.contains(&n), "no golden case for n = {n}");
        }
    }

    #[test]
    fn skip_row_advances_like_draw_row() {
        let mut rng = StdRng::seed_from_u64(3);
        let world = build_world(&mut rng);
        let mut skipped = rng.clone();
        for _ in 0..10_000 {
            draw_row(&world, &mut rng);
            skip_row(&mut skipped);
            assert!(rng == skipped);
        }
    }

    #[test]
    fn schema_matches_figure2() {
        let t = generate(10, 1);
        assert_eq!(t.num_columns(), SCHEMA.len());
        assert_eq!(t.name(), FLIGHTS_TABLE);
        for (f, (name, dtype)) in t.schema().fields().iter().zip(SCHEMA) {
            assert_eq!(f.name, *name);
            assert_eq!(f.dtype, *dtype);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(500, 42);
        let b = generate(500, 42);
        assert_eq!(a, b);
        let c = generate(500, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn shorter_tables_are_prefixes() {
        let short = generate(300, 5);
        let long = generate(1_000, 5);
        for col in 0..SCHEMA.len() {
            for row in 0..short.num_rows() {
                assert_eq!(short.value_at(col, row), long.value_at(col, row));
            }
        }
    }

    #[test]
    fn delays_are_correlated() {
        let t = generate(20_000, 7);
        let dep = t.column("dep_delay").unwrap().as_float().unwrap();
        let arr = t.column("arr_delay").unwrap().as_float().unwrap();
        let r = pearson(&dep, &arr);
        assert!(r > 0.6, "dep/arr delay correlation too weak: {r}");
    }

    #[test]
    fn distance_and_airtime_correlated() {
        let t = generate(20_000, 7);
        let d = t.column("distance").unwrap().as_float().unwrap();
        let a = t.column("air_time").unwrap().as_float().unwrap();
        let r = pearson(&d, &a);
        assert!(r > 0.95, "distance/air_time correlation too weak: {r}");
    }

    #[test]
    fn carriers_are_skewed() {
        let t = generate(20_000, 7);
        let (codes, dict) = t.column("carrier").unwrap().as_nominal().unwrap();
        let mut counts = vec![0usize; dict.len()];
        for &c in codes.iter() {
            counts[c as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > 3 * min.max(1),
            "carrier skew too flat: {max} vs {min}"
        );
    }

    #[test]
    fn departure_times_are_bimodal() {
        let t = generate(20_000, 7);
        let dep = t.column("dep_time").unwrap().as_float().unwrap();
        let morning = dep.iter().filter(|&&x| (6.0..10.0).contains(&x)).count();
        let evening = dep.iter().filter(|&&x| (15.0..19.0).contains(&x)).count();
        let midday = dep.iter().filter(|&&x| (11.0..13.0).contains(&x)).count();
        assert!(morning > midday, "no morning peak");
        assert!(evening > midday, "no evening peak");
    }

    #[test]
    fn delays_have_heavy_right_tail() {
        let t = generate(20_000, 7);
        let dep = t.column("dep_delay").unwrap().as_float().unwrap();
        let late_60 = dep.iter().filter(|&&x| x > 60.0).count() as f64 / dep.len() as f64;
        let early = dep.iter().filter(|&&x| x < 0.0).count() as f64 / dep.len() as f64;
        assert!(late_60 > 0.01, "no heavy late tail: {late_60}");
        assert!(early > 0.2, "too few early departures: {early}");
    }

    #[test]
    fn states_follow_airports() {
        let t = generate(1_000, 7);
        let (origins, odict) = t.column("origin").unwrap().as_nominal().unwrap();
        let (states, sdict) = t.column("origin_state").unwrap().as_nominal().unwrap();
        // Same airport code must always map to the same state.
        let mut seen: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (&o, &s) in origins.iter().zip(states.iter()) {
            let prev = seen.insert(o, s);
            if let Some(p) = prev {
                assert_eq!(p, s, "airport {:?} maps to two states", odict.value(o));
            }
        }
        assert!(sdict.len() <= NUM_STATES);
    }

    #[test]
    fn origin_never_equals_dest() {
        let t = generate(2_000, 9);
        let (origins, _) = t.column("origin").unwrap().as_nominal().unwrap();
        let (dests, _) = t.column("dest").unwrap().as_nominal().unwrap();
        // Codes come from separate dictionaries; compare resolved strings.
        for row in 0..t.num_rows() {
            let o = t.value_at(1, row);
            let d = t.value_at(3, row);
            assert_ne!(o, d, "row {row} flies to its origin");
        }
        let _ = (origins, dests);
    }

    #[test]
    fn value_ranges_are_sane() {
        let t = generate(5_000, 11);
        let dep_time = t.column("dep_time").unwrap().as_float().unwrap();
        assert!(dep_time.iter().all(|&x| (0.0..24.0).contains(&x)));
        let months = t.column("month").unwrap().as_int().unwrap();
        assert!(months.iter().all(|&m| (1..=12).contains(&m)));
        let dow = t.column("day_of_week").unwrap().as_int().unwrap();
        assert!(dow.iter().all(|&d| (1..=7).contains(&d)));
        let dist = t.column("distance").unwrap().as_float().unwrap();
        assert!(dist.iter().all(|&x| x >= 80.0));
    }
}
