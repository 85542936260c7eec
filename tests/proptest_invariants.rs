//! Property-based tests of core invariants, spanning storage, metrics,
//! estimators, the workload generator, and the driver.

use idebench::core::spec::{AggFunc, AggregateSpec, BinDef, FilterExpr, Predicate};
use idebench::core::{AggResult, BinCoord, BinKey, BinStats, Metrics, Query, VizSpec};
use idebench::query::{execute_exact, ChunkedRun, SnapshotMode};
use idebench::storage::{DataType, Dataset, SelVec, TableBuilder, Value};
use idebench::workflow::{WorkflowGenerator, WorkflowType};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::bits;

// ---------------------------------------------------------------- storage

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SelVec membership and popcount agree with a naive Vec<bool> model.
    #[test]
    fn selvec_matches_bool_model(bits in prop::collection::vec(any::<bool>(), 1..200)) {
        let n = bits.len();
        let sel = SelVec::from_bools(n, bits.iter().copied());
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(sel.contains(i), bit);
        }
        prop_assert_eq!(sel.count(), bits.iter().filter(|&&x| x).count());
    }

    /// CSV serialization round-trips arbitrary typed tables.
    #[test]
    fn csv_roundtrip(rows in prop::collection::vec(
        (any::<i32>(), -1000.0f64..1000.0, "[a-z]{1,6}", any::<bool>()), 1..40)) {
        let mut b = TableBuilder::with_fields(
            "t",
            &[("i", DataType::Int), ("f", DataType::Float), ("s", DataType::Nominal)],
        );
        for (i, f, s, null_f) in &rows {
            let fval = if *null_f { Value::Null } else { Value::Float(*f) };
            b.push_row(&[Value::Int(i64::from(*i)), fval, Value::Str(s.clone())]).unwrap();
        }
        let t = b.finish();
        let mut buf = Vec::new();
        idebench::storage::write_csv(&t, &mut buf).unwrap();
        let back = idebench::storage::read_csv("t", buf.as_slice()).unwrap();
        prop_assert_eq!(back.num_rows(), t.num_rows());
        for row in 0..t.num_rows() {
            for col in 0..t.num_columns() {
                prop_assert_eq!(t.value_at(col, row), back.value_at(col, row));
            }
        }
    }
}

// ---------------------------------------------------------------- metrics

fn arb_result(max_bins: usize) -> impl Strategy<Value = AggResult> {
    prop::collection::btree_map(
        0i64..max_bins as i64,
        (0.1f64..1e4, 0.0f64..10.0),
        1..max_bins,
    )
    .prop_map(|bins| {
        let mut r = AggResult {
            processed_fraction: 0.5,
            ..AggResult::default()
        };
        for (k, (v, m)) in bins {
            r.insert(
                BinKey::d1(BinCoord::Bucket(k)),
                BinStats::approximate(vec![v], vec![m]),
            );
        }
        r
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Metric ranges hold for arbitrary result/ground-truth pairs.
    #[test]
    fn metric_ranges(result in arb_result(20), mut gt in arb_result(20)) {
        gt.exact = true;
        gt.processed_fraction = 1.0;
        let m = Metrics::evaluate(&result, &gt);
        prop_assert!((0.0..=1.0).contains(&m.missing_bins));
        if let Some(c) = m.cosine_distance {
            prop_assert!((0.0..=1.0).contains(&c), "cosine {c}");
        }
        if let Some(s) = m.smape {
            prop_assert!((0.0..=1.0).contains(&s), "smape {s}");
        }
        if let Some(e) = m.rel_error_avg {
            prop_assert!(e >= 0.0);
        }
        prop_assert!(m.bins_delivered == result.bins_delivered());
        prop_assert!(m.bins_out_of_margin <= m.bins_delivered);
    }

    /// A result compared against itself is perfect.
    #[test]
    fn self_comparison_is_perfect(mut r in arb_result(20)) {
        r.exact = true;
        let m = Metrics::evaluate(&r, &r);
        prop_assert_eq!(m.missing_bins, 0.0);
        prop_assert_eq!(m.rel_error_avg, Some(0.0));
        prop_assert!(m.cosine_distance.unwrap() < 1e-9);
        prop_assert_eq!(m.bins_out_of_margin, 0);
    }
}

// ------------------------------------------------------------- estimators

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A completed chunked scan equals the one-shot exact executor no
    /// matter how the budget is sliced.
    #[test]
    fn chunked_equals_oneshot(budget in 1u64..5_000, rows in 100usize..2_000) {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[("carrier", DataType::Nominal), ("dep_delay", DataType::Float)],
        );
        for i in 0..rows {
            let c = if i % 7 < 3 { "AA" } else { "DL" };
            b.push_row(&[c.into(), ((i % 101) as f64).into()]).unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width { dimension: "dep_delay".into(), width: 20.0, anchor: 0.0 }],
            vec![AggregateSpec::count(), AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        let q = Query::for_viz(&spec, Some(FilterExpr::Pred(Predicate::In {
            column: "carrier".into(),
            values: vec!["AA".into()],
        })));
        let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
        while !run.is_done() {
            let used = run.advance(budget);
            if used == 0 && !run.is_done() {
                // Budget below row cost cannot progress; top it up.
                run.advance(budget + 8);
            }
        }
        prop_assert_eq!(bits(&run.snapshot().unwrap()), bits(&execute_exact(&ds, &q).unwrap()));
    }

    /// Count estimates from a shuffled prefix hit the truth within a few
    /// margins (CLT sanity at fixed seeds).
    #[test]
    fn estimates_within_margins(seed in 0u64..30) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let rows = 8_000usize;
        let t = idebench::datagen::flights::generate(rows, seed);
        let ds = Dataset::Denormalized(Arc::new(t));
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal { dimension: "carrier".into() }],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(&spec, None);
        let mut order: Vec<u32> = (0..rows as u32).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut run = ChunkedRun::with_order(
            ds.clone(),
            q.clone(),
            Some(Arc::new(order)),
            SnapshotMode::Estimate { z: 1.96, population: rows as u64 },
        ).unwrap();
        run.advance(rows as u64 / 5); // 20% sample
        let est = run.snapshot().unwrap();
        let gt = execute_exact(&ds, &q).unwrap();
        let mut inside = 0usize;
        let mut total = 0usize;
        for (key, stats) in &gt.bins {
            let Some(bin) = est.bins.get(key) else { continue };
            total += 1;
            // Allow 2 margins of slack: the margin itself is estimated.
            if (bin.values[0] - stats.values[0]).abs() <= 2.0 * bin.margins[0] + 1e-9 {
                inside += 1;
            }
        }
        prop_assert!(total > 0);
        prop_assert!(
            inside as f64 >= total as f64 * 0.9,
            "{inside}/{total} bins within 2 margins"
        );
    }
}

// -------------------------------------------------------------- generator

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any generated workflow replays through the viz graph without error
    /// and composes valid queries.
    #[test]
    fn generated_workflows_always_valid(seed in any::<u64>(), kind_idx in 0usize..5,
                                        len in 1usize..30) {
        let kind = WorkflowType::ALL[kind_idx];
        let wf = WorkflowGenerator::new(kind, seed).generate(len);
        prop_assert_eq!(wf.interactions.len(), len);
        let mut graph = idebench::core::VizGraph::new();
        for interaction in &wf.interactions {
            let affected = graph.apply(interaction)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            for viz in affected {
                graph.query_for(&viz)
                    .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            }
        }
    }

    /// Workflow JSON round-trips for arbitrary generated workflows.
    #[test]
    fn workflow_json_roundtrip(seed in any::<u64>(), kind_idx in 0usize..5) {
        let kind = WorkflowType::ALL[kind_idx];
        let wf = WorkflowGenerator::new(kind, seed).generate(10);
        let back = idebench::workflow::Workflow::from_json(&wf.to_json())
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(wf, back);
    }
}

// ------------------------------------------------------- binning semantics

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Selecting a bin of a 1D count histogram and re-querying with the
    /// derived filter returns exactly that bin's count: the graph's
    /// selection→filter translation agrees with the binning semantics.
    #[test]
    fn bin_selection_filter_roundtrip(seed in 0u64..40, width in 1u32..40) {
        use idebench::core::spec::{SelCoord, Selection};
        use idebench::core::VizGraph;
        use idebench::core::Interaction;

        let width = f64::from(width);
        let t = idebench::datagen::flights::generate(2_000, seed);
        let ds = Dataset::Denormalized(Arc::new(t));
        let source = VizSpec::new(
            "src",
            "flights",
            vec![BinDef::Width { dimension: "dep_delay".into(), width, anchor: 0.0 }],
            vec![AggregateSpec::count()],
        );
        let target = VizSpec::new(
            "tgt",
            "flights",
            vec![BinDef::Nominal { dimension: "carrier".into() }],
            vec![AggregateSpec::count()],
        );
        let sq = Query::for_viz(&source, None);
        let hist = execute_exact(&ds, &sq).unwrap();
        // Pick the lexicographically smallest populated bin.
        let (key, stats) = hist.sorted_bins().into_iter().next().unwrap();
        let BinCoord::Bucket(bucket) = key.coords()[0] else {
            return Err(TestCaseError::fail("width binning yields buckets"));
        };

        let mut graph = VizGraph::new();
        graph.apply(&Interaction::CreateViz { viz: source.clone() }).unwrap();
        graph.apply(&Interaction::CreateViz { viz: target }).unwrap();
        graph.apply(&Interaction::Link { source: "src".into(), target: "tgt".into() }).unwrap();
        graph.apply(&Interaction::Select {
            viz: "src".into(),
            selection: Some(Selection { bins: vec![vec![SelCoord::Bucket(bucket)]] }),
        }).unwrap();
        let tq = graph.query_for("tgt").unwrap();
        let filtered = execute_exact(&ds, &tq).unwrap();
        let total: f64 = filtered.bins.values().map(|b| b.values[0]).sum();
        prop_assert!(
            (total - stats.values[0]).abs() < 1e-9,
            "selected-bin count {} vs filtered total {total}", stats.values[0]
        );
    }
}

// ------------------------------------- vectorized/scalar differential

/// Builds a random-but-seeded filter over the flights columns.
fn arb_filter(which: u8, lo: f64, hi: f64) -> FilterExpr {
    let range = |column: &str, lo: f64, hi: f64| {
        FilterExpr::Pred(Predicate::Range {
            column: column.into(),
            min: lo.min(hi),
            max: lo.max(hi) + 1.0,
        })
    };
    let isin = |values: &[&str]| {
        FilterExpr::Pred(Predicate::In {
            column: "carrier".into(),
            values: values.iter().map(|s| s.to_string()).collect(),
        })
    };
    match which % 5 {
        0 => range("dep_delay", lo, hi),
        1 => isin(&["C00", "C02", "C05"]),
        2 => isin(&["C01"]).and(range("distance", lo.abs() * 20.0, hi.abs() * 30.0)),
        3 => FilterExpr::Or(vec![
            isin(&["C03", "ZZ_MISSING"]),
            range("arr_delay", lo, hi),
        ]),
        _ => FilterExpr::And(vec![]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The vectorized batch path (dense and sparse stores, natural and
    /// shuffled orders, arbitrary budget slicing, star and denormalized
    /// datasets) and the parallel morsel dispatcher (workers ∈ {2, 3, 8})
    /// produce bit-identical results to the retained scalar reference path.
    #[test]
    fn vectorized_matches_scalar_differentially(
        seed in 0u64..25,
        rows in 200usize..3_000,
        which_filter in any::<u8>(),
        lo in -50.0f64..50.0,
        hi in -50.0f64..120.0,
        width in 1u32..50,
        budget in 16u64..4_000,
        shuffle in any::<bool>(),
        two_d in any::<bool>(),
        nominal in any::<bool>(),
        workers_pick in 0usize..3,
    ) {
        use idebench::query::{execute_exact_parallel, execute_exact_scalar};
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let workers = [2usize, 3, 8][workers_pick];

        let table = idebench::datagen::flights::generate(rows, seed);
        let denorm = Dataset::Denormalized(Arc::new(table.clone()));
        let star = idebench::datagen::normalize_flights(&table)
            .map_err(TestCaseError::fail)?;

        let mut binning = vec![if nominal {
            BinDef::Nominal { dimension: "carrier".into() }
        } else {
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: f64::from(width),
                anchor: lo,
            }
        }];
        if two_d {
            binning.push(BinDef::Nominal { dimension: "origin_state".into() });
        }
        let spec = VizSpec::new(
            "v",
            "flights",
            binning,
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "arr_delay"),
                AggregateSpec::over(AggFunc::Sum, "distance"),
                AggregateSpec::over(AggFunc::Min, "dep_delay"),
                AggregateSpec::over(AggFunc::Max, "dep_delay"),
            ],
        );
        let q = Query::for_viz(&spec, Some(arb_filter(which_filter, lo, hi)));

        // Bit-identical f64 accumulation requires the reference to visit
        // rows in the same order as the run under test; the chunk-folded
        // scalar reference lives in the query crate so the grid can never
        // drift from the dispatcher's.
        let scalar_with_order = |ds: &Dataset, order: Option<&[u32]>| {
            idebench::query::execute_exact_scalar_with_order(ds, &q, order)
                .map_err(|e| TestCaseError::fail(format!("{e}")))
        };
        let order = shuffle.then(|| {
            let mut o: Vec<u32> = (0..rows as u32).collect();
            o.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xff));
            Arc::new(o)
        });

        for ds in [&denorm, &star] {
            let scalar = execute_exact_scalar(ds, &q)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            // One-shot vectorized scan.
            let vectorized = execute_exact(ds, &q)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            prop_assert_eq!(bits(&vectorized), bits(&scalar), "one-shot vs scalar");

            // Parallel morsel dispatch: every worker count is bit-identical
            // to the scalar reference.
            let parallel = execute_exact_parallel(ds, &q, workers)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            prop_assert_eq!(
                bits(&parallel), bits(&scalar), "parallel ({} workers) vs scalar", workers
            );

            // Budget-sliced chunked scan, optionally over a shuffled order,
            // stepped under the parallel dispatcher.
            let ordered_scalar = scalar_with_order(ds, order.as_deref().map(|o| &o[..]))?;
            let mut run = ChunkedRun::with_order(
                ds.clone(), q.clone(), order.clone(), SnapshotMode::Exact,
            ).map_err(|e| TestCaseError::fail(format!("{e}")))?;
            run.set_workers(workers);
            while !run.is_done() {
                if run.advance(budget) == 0 && !run.is_done() {
                    run.advance(budget + 64);
                }
            }
            let chunked = run.snapshot().unwrap();
            prop_assert_eq!(bits(&chunked), bits(&ordered_scalar), "chunked vs ordered scalar");
        }
    }
}

// --------------------------------------- dense bucket-boundary semantics

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dense arithmetic slot kernel's branchless trunc-adjust floor
    /// (`t = q as i64 as f64; fl = if t > q { t - 1 } else { t }`) is
    /// bit-identical to the scalar reference's `f64::floor` on the worst
    /// inputs for a floor: values *exactly on bucket edges*, negative
    /// anchors, negative values, and non-representable widths — and the
    /// dense slot decode (`lo + slot`) reproduces the hashed path's bucket
    /// indices exactly.
    #[test]
    fn dense_width_slots_agree_on_bucket_edges(
        anchor in -1_000.0f64..1_000.0,
        width_pick in 0usize..6,
        ks in prop::collection::vec(-200i64..200, 1..150),
        offs in prop::collection::vec(0.0f64..1.0, 1..50),
    ) {
        let width = [0.1, 0.25, 1.0, 3.0, 7.5, 1e-3][width_pick];
        // Edge values anchor + k·width (exact bucket boundaries whenever
        // representable, negative k included) plus interior offsets.
        let mut vals: Vec<f64> = ks.iter().map(|&k| anchor + k as f64 * width).collect();
        for (i, o) in offs.iter().enumerate() {
            let k = ks[i % ks.len()];
            vals.push(anchor + (k as f64 + o) * width);
        }
        let mut b = TableBuilder::with_fields("t", &[("x", DataType::Float)]);
        for &v in &vals {
            b.push_row(&[v.into()]).unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let spec = VizSpec::new(
            "v",
            "t",
            vec![BinDef::Width { dimension: "x".into(), width, anchor }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Sum, "x"),
                AggregateSpec::over(AggFunc::Min, "x"),
                AggregateSpec::over(AggFunc::Max, "x"),
            ],
        );
        let q = Query::for_viz(&spec, None);
        // The bounded value range (|k| ≤ 200) must actually lower to the
        // dense arithmetic path, or this test pins nothing.
        let plan = idebench::query::CompiledPlan::compile(&ds, &q)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(
            matches!(plan.acc_mode(), idebench::query::AccMode::Dense(_)),
            "bounded bucket space must be dense, got {:?}", plan.acc_mode()
        );
        let vectorized = execute_exact(&ds, &q)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let scalar = idebench::query::execute_exact_scalar(&ds, &q)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(bits(&vectorized), bits(&scalar), "dense slots vs scalar floor");
    }
}

/// Deterministic bucket-edge audit: negative anchor, negative values, and
/// values landing exactly on representable bucket boundaries.
#[test]
fn dense_width_exact_boundaries_match_scalar() {
    for (anchor, width) in [(0.0, 1.0), (-17.5, 2.5), (3.0, 0.25), (-400.0, 7.5)] {
        let mut b = TableBuilder::with_fields("t", &[("x", DataType::Float)]);
        for k in -40i64..=40 {
            // One value exactly on each edge, one just inside, one just
            // below the edge (previous bucket).
            let edge = anchor + k as f64 * width;
            // The next f64 strictly below the edge (previous bucket).
            let below = if edge == 0.0 {
                -f64::MIN_POSITIVE
            } else if edge > 0.0 {
                f64::from_bits(edge.to_bits() - 1)
            } else {
                f64::from_bits(edge.to_bits() + 1)
            };
            b.push_row(&[edge.into()]).unwrap();
            b.push_row(&[(edge + width * 0.5).into()]).unwrap();
            b.push_row(&[below.into()]).unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let spec = VizSpec::new(
            "v",
            "t",
            vec![BinDef::Width {
                dimension: "x".into(),
                width,
                anchor,
            }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Sum, "x"),
            ],
        );
        let q = Query::for_viz(&spec, None);
        assert_eq!(
            bits(&execute_exact(&ds, &q).unwrap()),
            bits(&idebench::query::execute_exact_scalar(&ds, &q).unwrap()),
            "anchor {anchor}, width {width}"
        );
    }
}

/// Worker-count determinism on data that genuinely spans several dispatch
/// chunks: runs with different worker counts must produce *identical*
/// `AggResult`s (every f64 bit included), and match the scalar reference.
#[test]
fn worker_counts_are_interchangeable_across_chunks() {
    use idebench::query::{execute_exact_parallel, execute_exact_scalar, CHUNK_ROWS};

    let rows = 2 * CHUNK_ROWS + 4_321;
    let table = idebench::datagen::flights::generate(rows, 11);
    let ds = Dataset::Denormalized(Arc::new(table));
    let spec = VizSpec::new(
        "v",
        "flights",
        vec![
            BinDef::Nominal {
                dimension: "carrier".into(),
            },
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 15.0,
                anchor: 0.0,
            },
        ],
        vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Avg, "arr_delay"),
            AggregateSpec::over(AggFunc::Sum, "distance"),
        ],
    );
    let q = Query::for_viz(
        &spec,
        Some(FilterExpr::Pred(Predicate::Range {
            column: "dep_delay".into(),
            min: -30.0,
            max: 90.0,
        })),
    );
    let scalar = bits(&execute_exact_scalar(&ds, &q).unwrap());
    for workers in [1usize, 2, 3, 5, 8] {
        let result = execute_exact_parallel(&ds, &q, workers).unwrap();
        assert_eq!(bits(&result), scalar, "workers = {workers}");
    }
}

// ------------------------------------------------- star/denorm equivalence

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every query of a generated workflow returns identical exact results
    /// on the de-normalized table and its star-schema normalization (join
    /// correctness over the full query space the generator can produce).
    #[test]
    fn star_schema_preserves_exact_results(seed in 0u64..40) {
        let table = idebench::datagen::flights::generate(3_000, seed);
        let denorm = Dataset::Denormalized(Arc::new(table.clone()));
        let star = idebench::datagen::normalize_flights(&table)
            .map_err(TestCaseError::fail)?;
        let wf = WorkflowGenerator::new(WorkflowType::Mixed, seed).generate(12);
        let slices = [wf.interactions.as_slice()];
        let queries = idebench::query::enumerate_workload_queries(&denorm, &slices)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        for q in &queries {
            let flat = execute_exact(&denorm, q)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            let starred = execute_exact(&star, q)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            // Dictionaries are built in identical first-seen order on both
            // paths, so results must be bit-identical.
            prop_assert_eq!(bits(&flat), bits(&starred), "query {:?}", q.canonical_key());
        }
    }
}

// ------------------------------------------------------------------ datagen

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Copula-scaled data never exceeds the seed's per-column value range
    /// and preserves row count exactly.
    #[test]
    fn copula_respects_seed_ranges(n in 20usize..200, seed in 0u64..50) {
        let seed_table = idebench::datagen::flights::generate(500, seed);
        let scaled = idebench::datagen::CopulaScaler::scale(&seed_table, 400, n, seed + 1);
        prop_assert_eq!(scaled.num_rows(), n);
        for col in ["dep_delay", "distance", "air_time"] {
            let s = seed_table.column(col).unwrap().as_float().unwrap();
            let g = scaled.column(col).unwrap().as_float().unwrap();
            let (smin, smax) = s.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            for &v in g.iter() {
                prop_assert!(v >= smin - 1e-9 && v <= smax + 1e-9, "{col}: {v} outside [{smin}, {smax}]");
            }
        }
    }
}
