//! Chunked query execution — the building block engines step.
//!
//! A [`ChunkedRun`] compiles its query into an owned [`CompiledPlan`]
//! **once** at construction and then advances through the data in
//! [`crate::batch::MORSEL`]-sized batches, evaluating filters into bitmasks,
//! computing bin slots per batch, and accumulating matches in bulk.
//! Accumulation runs through the [`crate::dispatch::MorselDispatcher`]:
//! whole [`crate::dispatch::CHUNK_ROWS`]-sized chunks, each with its own
//! accumulator, computed ahead of the cursor over the persistent
//! [`crate::pool::ScanPool`] when [`ChunkedRun::set_workers`] grants more
//! than one worker and merged back in chunk order so results are
//! bit-identical for every worker count. A run over a shuffled order reads
//! its [`Shuffle`]'s permuted column copies, so every run walks contiguous
//! positions.
//! The scalar oracle ([`execute_exact_scalar`]) interprets the query one row
//! at a time (folded over the same chunk grid), following an explicit
//! order row by row in [`execute_exact_scalar_with_order`]; differential
//! tests and benchmarks pin the vectorized path against it.

use crate::aggregate::GroupedAcc;
use crate::dispatch::{MorselDispatcher, CHUNK_ROWS};
use crate::plan::CompiledPlan;
use crate::resolve::ResolvedQuery;
use crate::shuffle::Shuffle;
use idebench_core::{AggResult, CoreError, Query, QueryHandle, StepStatus};
use idebench_storage::Dataset;
use std::sync::Arc;

/// How a [`ChunkedRun`] snapshot turns accumulated state into a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotMode {
    /// Values are exact once the scan completes (blocking engines).
    Exact,
    /// Values are scale-up estimates of a uniform sample of the rows
    /// processed so far; `z` is the confidence z-value, `population` the
    /// total row count estimates are scaled to. Snapshots are available as
    /// soon as any row has been processed (progressive engines).
    Estimate {
        /// z-value for the configured confidence level.
        z: f64,
        /// Population size estimates scale up to.
        population: u64,
    },
    /// Like `Estimate`, but the snapshot only becomes available once the
    /// scan completes (blocking engines over offline sample tables).
    EstimateAtEnd {
        /// z-value for the configured confidence level.
        z: f64,
        /// Population size estimates scale up to.
        population: u64,
    },
}

/// A query scan that can be advanced in work-unit-bounded chunks.
///
/// The run owns its compiled plan (which owns the dataset handle). A run
/// over a shuffled order (progressive engines scan one so any prefix is a
/// uniform sample) binds its plan to the order's permuted column copies
/// (see [`Shuffle`]), so every run scans positions `0..n` in natural
/// order. A run is itself a [`QueryHandle`]: engines return it boxed,
/// behind [`idebench_core::Overhead`] when the system pays a fixed cost
/// before the scan starts.
pub struct ChunkedRun {
    plan: CompiledPlan,
    /// Chunk-partitioned accumulation state + worker pool.
    dispatcher: MorselDispatcher,
    cursor: usize,
    num_rows: usize,
    row_cost: f64,
    /// Extra cost per row that passes the filter (aggregation work scales
    /// with qualifying tuples, which is what makes filter selectivity the
    /// dominant cost factor — the paper's Exp-4 finding).
    match_cost: f64,
    mode: SnapshotMode,
    /// Total fractional row work performed (monotone).
    row_work: f64,
    /// Total row work billed to callers, in integer units (monotone,
    /// `row_billed == ceil(row_work)` up to per-call budget clamping).
    row_billed: u64,
}

impl ChunkedRun {
    /// Creates a run over the natural row order.
    pub fn new(dataset: Dataset, query: Query, mode: SnapshotMode) -> Result<Self, CoreError> {
        Self::with_order(dataset, query, None, mode)
    }

    /// Creates a run visiting rows in the given order: position `i`
    /// processes row `order[i]` (see [`ChunkedRun::from_plan`]).
    pub fn with_order(
        dataset: Dataset,
        query: Query,
        order: Option<Arc<Vec<u32>>>,
        mode: SnapshotMode,
    ) -> Result<Self, CoreError> {
        let plan = CompiledPlan::compile(&dataset, &query)?;
        Ok(Self::from_plan(plan, order, mode))
    }

    /// Creates a run from an already-compiled plan (engines compile once
    /// for cost modelling and hand the same plan to the run — the query is
    /// never compiled twice), visiting rows in `order` when given.
    ///
    /// An explicit order gets a private [`Shuffle`]: the run builds its own
    /// permuted copies of the columns it reads. Engines that scan one order
    /// many times share copies through [`ChunkedRun::from_shuffle`].
    pub fn from_plan(plan: CompiledPlan, order: Option<Arc<Vec<u32>>>, mode: SnapshotMode) -> Self {
        match order {
            Some(order) => {
                let shuffle = Shuffle::from_order(plan.dataset(), order);
                Self::from_shuffle(plan, &shuffle, mode)
            }
            None => Self::natural(plan, mode),
        }
    }

    /// Creates a run visiting rows in `shuffle`'s order, reading (and, on
    /// first use, building) its shared permuted column copies.
    pub fn from_shuffle(mut plan: CompiledPlan, shuffle: &Shuffle, mode: SnapshotMode) -> Self {
        plan.permute(shuffle);
        Self::natural(plan, mode)
    }

    fn natural(plan: CompiledPlan, mode: SnapshotMode) -> Self {
        let num_rows = plan.num_rows();
        let row_cost = plan.row_cost() as f64;
        let dispatcher = MorselDispatcher::new(&plan);
        ChunkedRun {
            plan,
            dispatcher,
            cursor: 0,
            num_rows,
            row_cost,
            match_cost: 0.0,
            mode,
            row_work: 0.0,
            row_billed: 0,
        }
    }

    /// Overrides the per-row work-unit cost (engine cost models).
    pub fn set_row_cost(&mut self, cost: f64) {
        assert!(cost > 0.0 && cost.is_finite(), "row cost must be positive");
        self.row_cost = cost;
    }

    /// Sets the extra cost charged per filter-matching row.
    pub fn set_match_cost(&mut self, cost: f64) {
        assert!(cost >= 0.0 && cost.is_finite(), "match cost must be >= 0");
        self.match_cost = cost;
    }

    /// Sets the scan's worker-pool size (clamped to ≥ 1; `1` computes one
    /// chunk at a time on the calling thread). Thanks to the dispatcher's
    /// fixed chunk grid and in-order partial merge, the result is
    /// bit-identical for every value.
    pub fn set_workers(&mut self, workers: usize) {
        self.dispatcher.set_workers(workers);
    }

    /// The scan's worker-pool size.
    pub fn workers(&self) -> usize {
        self.dispatcher.workers()
    }

    /// Per-row work-unit cost.
    pub fn row_cost(&self) -> f64 {
        self.row_cost
    }

    /// Rows processed so far.
    pub fn rows_done(&self) -> usize {
        self.cursor
    }

    /// Total rows to process.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Whether the scan is complete.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.num_rows
    }

    /// Processes rows until `budget_units` is exhausted or the scan ends.
    /// Returns the units actually consumed.
    ///
    /// # Budget accounting
    ///
    /// Accounting is *monotone and exactly budget-capped*: fractional work
    /// (and the matched-row surcharge, which is only known after a row is
    /// processed) is carried across calls — a call never reports more than
    /// `budget_units`, and the total reported over a scan equals the total
    /// work rounded up, no matter how the budget is sliced.
    ///
    /// # Parallel dispatch
    ///
    /// The budget governs *how many rows* this call may process; the
    /// dispatcher decides *who processes them*. Each iteration sizes a span
    /// conservatively (so even all-matching rows fit the remaining room),
    /// asks the [`MorselDispatcher`] how many of its rows match, folds the
    /// surcharge into `row_work`, and re-fits. A grant too small for even
    /// one worst-case row still takes a single row, so *any* positive
    /// budget makes forward progress — no starvation at tiny quanta — with
    /// the overdraw carried (never forgiven) into later calls' billing.
    ///
    /// The dispatcher computes whole chunks, reading ahead up to
    /// `workers − 1` chunks past the one the walk enters, and answers each
    /// span by popcount over the computed chunks' filter bitmaps. Even a
    /// `step_quantum` grant of a few thousand rows therefore keeps every
    /// worker busy, while the walk — cursor positions, billed units,
    /// snapshots — is bit-identical to a row-by-row scan. The price is
    /// bounded: a scan abandoned mid-way has computed at most `workers − 1`
    /// chunks plus the current chunk's remainder that it never used, and
    /// each [`ChunkedRun::snapshot`] taken mid-chunk replays the chunk's
    /// prefix (under one chunk).
    pub fn advance(&mut self, budget_units: u64) -> u64 {
        if budget_units == 0 {
            return 0;
        }

        const EPS: f64 = 1e-9;
        // Allowed total row work after this call: everything already billed
        // plus this call's budget. Unbilled overdraw from previous calls
        // (row_work > row_billed) shrinks the remaining room automatically —
        // and is still billed below once the scan itself is complete.
        let cap = self.row_billed as f64 + budget_units as f64;
        let worst_row = self.row_cost + self.match_cost;
        while self.cursor < self.num_rows && self.row_work + self.row_cost <= cap + EPS {
            let room = cap + EPS - self.row_work;
            // Size the span so even all-matching rows stay within budget;
            // when not even one worst-case row fits, take a single row (the
            // surcharge overdraw is carried to the next call).
            let fit = (room / worst_row) as usize;
            let take = (self.num_rows - self.cursor).min(fit.max(1));
            let matched = self
                .dispatcher
                .scan_span(&self.plan, self.cursor, take, self.num_rows);
            self.row_work += take as f64 * self.row_cost + matched as f64 * self.match_cost;
            self.cursor += take;
        }

        // Bill the newly performed work, rounded up, capped by the budget.
        let billed_target = (self.row_work - EPS).ceil().max(0.0) as u64;
        let delta = billed_target
            .saturating_sub(self.row_billed)
            .min(budget_units);
        self.row_billed += delta;
        delta
    }

    /// The current result under the run's snapshot mode.
    ///
    /// In `Exact` mode this returns `None` until the scan completes; in
    /// `Estimate` mode it returns an estimate as soon as at least one row
    /// has been processed.
    pub fn snapshot(&self) -> Option<AggResult> {
        match self.mode {
            SnapshotMode::Exact => {
                if self.is_done() {
                    Some(self.grouped().finish_exact())
                } else {
                    None
                }
            }
            SnapshotMode::Estimate { z, population } => {
                if self.cursor == 0 && self.num_rows > 0 {
                    None
                } else if self.is_done() && population as usize == self.num_rows {
                    // A completed full-population scan is exact.
                    Some(self.grouped().finish_exact())
                } else {
                    Some(self.grouped().finish_estimate(population, z))
                }
            }
            SnapshotMode::EstimateAtEnd { z, population } => {
                if !self.is_done() {
                    None
                } else if population as usize == self.num_rows {
                    Some(self.grouped().finish_exact())
                } else {
                    Some(self.grouped().finish_estimate(population, z))
                }
            }
        }
    }

    /// The accumulated state, materialized into the canonical grouped
    /// representation (engines use this for result reuse).
    pub fn accumulator(&self) -> GroupedAcc {
        self.grouped()
    }

    fn grouped(&self) -> GroupedAcc {
        self.dispatcher.grouped(&self.plan, self.cursor)
    }

    /// The query this run executes.
    pub fn query(&self) -> &Query {
        self.plan.query()
    }

    /// The compiled plan driving this run.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }
}

/// The driver's view of a run: `step` is [`ChunkedRun::advance`] plus the
/// done check.
impl QueryHandle for ChunkedRun {
    fn step(&mut self, granted: u64) -> StepStatus {
        let units = self.advance(granted);
        if ChunkedRun::is_done(self) {
            StepStatus::Done { units }
        } else {
            StepStatus::Running { units }
        }
    }

    fn snapshot(&self) -> Option<AggResult> {
        ChunkedRun::snapshot(self)
    }

    fn is_done(&self) -> bool {
        ChunkedRun::is_done(self)
    }
}

/// Runs a query to completion on the vectorized single-worker path,
/// returning the exact result.
///
/// This is both the ground-truth oracle and the execution path of the
/// blocking exact engine. [`execute_exact_parallel`] produces bit-identical
/// results on more workers.
pub fn execute_exact(dataset: &Dataset, query: &Query) -> Result<AggResult, CoreError> {
    execute_exact_parallel(dataset, query, 1)
}

/// Runs a query to completion on the vectorized path with the given worker
/// count, returning the exact result.
///
/// Results are bit-identical to [`execute_exact`] and
/// [`execute_exact_scalar`] for every `workers` value: the dispatcher's
/// chunk grid and in-order partial merge fix the floating-point
/// accumulation sequence independently of scheduling.
pub fn execute_exact_parallel(
    dataset: &Dataset,
    query: &Query,
    workers: usize,
) -> Result<AggResult, CoreError> {
    let plan = CompiledPlan::compile(dataset, query)?;
    let mut run = ChunkedRun::from_plan(plan, None, SnapshotMode::Exact);
    run.set_workers(workers);
    while !run.is_done() {
        run.advance(u64::MAX);
    }
    Ok(run.snapshot().expect("completed exact scan has a result"))
}

/// Runs a query to completion on the scalar oracle: a plain row-at-a-time
/// interpreter that differential tests and benchmarks pin the vectorized
/// path against bit for bit. Evaluation (filter, binning, measure updates) is
/// strictly row-at-a-time; the per-bin accumulators fold over the same
/// [`CHUNK_ROWS`] grid as the dispatcher, so the floating-point merge
/// sequence — and therefore every output bit — matches the vectorized path
/// at any worker count.
pub fn execute_exact_scalar(dataset: &Dataset, query: &Query) -> Result<AggResult, CoreError> {
    execute_exact_scalar_with_order(dataset, query, None)
}

/// [`execute_exact_scalar`] over an explicit visit order (position `i`
/// processes row `order[i]`), for differential tests against ordered runs.
pub fn execute_exact_scalar_with_order(
    dataset: &Dataset,
    query: &Query,
    order: Option<&[u32]>,
) -> Result<AggResult, CoreError> {
    let num_rows = dataset.fact_rows();
    if let Some(o) = order {
        assert_eq!(o.len(), num_rows, "order must cover every row");
    }
    Ok(scalar_prefix(dataset, query, order, num_rows)?.finish_exact())
}

/// The scalar oracle's accumulated state after scan positions `0..end`,
/// folded over the dispatcher's chunk grid.
///
/// This is the one place the scalar reference's chunk-folding lives — the
/// grid must match the dispatcher's, or bit-identity differentials would
/// compare against a stale fold.
pub(crate) fn scalar_prefix(
    dataset: &Dataset,
    query: &Query,
    order: Option<&[u32]>,
    end: usize,
) -> Result<GroupedAcc, CoreError> {
    let resolved = ResolvedQuery::new(dataset, query)?;
    let mut total = GroupedAcc::for_query(&resolved, query.aggregates());
    let mut chunk = GroupedAcc::for_query(&resolved, query.aggregates());
    for i in 0..end {
        if i > 0 && i % CHUNK_ROWS == 0 {
            total.merge(&chunk);
            chunk = GroupedAcc::for_query(&resolved, query.aggregates());
        }
        let row = order.map_or(i, |o| o[i] as usize);
        chunk.process_row(&resolved, row);
    }
    total.merge(&chunk);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_compilations, AccMode};
    use crate::resolve::ResolvedQuery;
    use crate::test_bits::bits;
    use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
    use idebench_core::{BinCoord, BinKey, FilterExpr, Predicate, VizSpec};
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
            let c = if i % 3 == 0 { "AA" } else { "DL" };
            b.push_row(&[c.into(), (i as f64).into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn count_query() -> Query {
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

    #[test]
    fn execute_exact_counts() {
        let ds = dataset(9);
        let r = execute_exact(&ds, &count_query()).unwrap();
        assert_eq!(r.value(&BinKey::d1(BinCoord::Cat(0)), 0), Some(3.0));
        assert_eq!(r.value(&BinKey::d1(BinCoord::Cat(1)), 0), Some(6.0));
        assert!(r.exact);
    }

    #[test]
    fn vectorized_matches_scalar_reference() {
        let ds = dataset(2_500);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width: 100.0,
                anchor: 0.0,
            }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                AggregateSpec::over(AggFunc::Sum, "dep_delay"),
            ],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into()],
            })),
        );
        assert_eq!(
            bits(&execute_exact(&ds, &q).unwrap()),
            bits(&execute_exact_scalar(&ds, &q).unwrap())
        );
    }

    #[test]
    fn chunked_exact_matches_oneshot() {
        let ds = dataset(100);
        let q = count_query();
        let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
        // Exact mode: no snapshot mid-scan.
        run.advance(10);
        assert!(run.snapshot().is_none());
        while !run.is_done() {
            run.advance(7);
        }
        assert_eq!(run.snapshot().unwrap(), execute_exact(&ds, &q).unwrap());
    }

    #[test]
    fn plan_compiled_exactly_once_per_run() {
        let ds = dataset(500);
        let before = plan_compilations();
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        let after_construction = plan_compilations();
        assert_eq!(
            after_construction,
            before + 1,
            "one compile at construction"
        );
        while !run.is_done() {
            run.advance(13);
            let _ = run.snapshot();
        }
        assert_eq!(
            plan_compilations(),
            after_construction,
            "advance/snapshot never recompile"
        );
    }

    #[test]
    fn advance_respects_budget_and_row_cost() {
        let ds = dataset(50);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        assert_eq!(run.row_cost(), 1.0);
        let used = run.advance(13);
        assert_eq!(used, 13);
        assert_eq!(run.rows_done(), 13);
        // Budget smaller than row cost consumes nothing.
        let mut tiny = run;
        let used = tiny.advance(0);
        assert_eq!(used, 0);
    }

    #[test]
    fn fractional_row_cost_scales_progress() {
        let ds = dataset(100);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        run.set_row_cost(2.5);
        let used = run.advance(25);
        assert_eq!(run.rows_done(), 10);
        assert_eq!(used, 25);
        // A sub-cost budget makes no progress.
        let used = run.advance(2);
        assert_eq!(used, 0);
        assert_eq!(run.rows_done(), 10);
    }

    #[test]
    fn match_cost_charges_matching_rows_only() {
        let ds = dataset(100);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        // carrier AA on every third row.
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into()],
            })),
        );
        let mut run = ChunkedRun::new(ds, q, SnapshotMode::Exact).unwrap();
        run.set_row_cost(1.0);
        run.set_match_cost(2.0);
        // 100 rows: 34 match (i % 3 == 0) → total cost 100 + 68 = 168.
        let mut total = 0u64;
        while !run.is_done() {
            let used = run.advance(50);
            assert!(used <= 50);
            total += used;
        }
        assert_eq!(total, 168, "budget accounting is exact");
    }

    #[test]
    fn budget_accounting_is_monotone_and_exact_under_slicing() {
        // Fractional costs + tiny budgets: the billed total must equal the
        // exact total work (rounded up) regardless of slicing, and every
        // call must respect its own budget.
        let total_work = |budget: u64| {
            let ds = dataset(97);
            let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
            run.set_row_cost(0.7);
            run.set_match_cost(0.3); // all rows match (no filter)
            let mut total = 0u64;
            let mut stalls = 0;
            while !run.is_done() {
                let used = run.advance(budget);
                assert!(used <= budget, "billed {used} over budget {budget}");
                total += used;
                if used == 0 {
                    stalls += 1;
                    assert!(stalls < 10_000, "advance stalled");
                }
            }
            total
        };
        // 97 rows * (0.7 + 0.3) = 97.0 exactly.
        for budget in [1, 2, 3, 5, 7, 50, 1_000] {
            assert_eq!(total_work(budget), 97, "budget {budget}");
        }
    }

    #[test]
    fn overdraw_is_carried_not_forgiven() {
        // match_cost larger than the budget: each call overdraws on its
        // single row, and the debt must surface in later calls' billing.
        let ds = dataset(10);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        run.set_row_cost(1.0);
        run.set_match_cost(4.0); // every row costs 5 in total
        let mut total = 0u64;
        while !run.is_done() {
            total += run.advance(2);
        }
        // Billing is capped at 2/call; the remaining debt is billed by the
        // post-completion calls below.
        while total < 50 {
            let used = run.advance(2);
            assert!(used <= 2);
            if used == 0 {
                break;
            }
            total += used;
        }
        assert_eq!(total, 50, "10 rows * 5 units fully billed");
        assert_eq!(run.advance(100), 0, "nothing left to bill");
    }

    #[test]
    fn overhead_paid_before_rows() {
        let ds = dataset(100);
        let mut run = ChunkedRun::new(ds, count_query(), SnapshotMode::Exact).unwrap();
        run.set_row_cost(1.0);
        let mut h = idebench_core::Overhead::wrap(30, Box::new(run));
        assert_eq!(h.step(20), StepStatus::Running { units: 20 });
        assert_eq!(h.step(20), StepStatus::Running { units: 20 }); // 10 overhead + 10 rows
                                                                   // The other 90 rows finish the scan.
        assert_eq!(h.step(1_000), StepStatus::Done { units: 90 });
        assert_eq!(
            h.snapshot(),
            execute_exact(&dataset(100), &count_query()).ok()
        );
    }

    #[test]
    fn a_run_is_a_query_handle() {
        let ds = dataset(100);
        let mut run = ChunkedRun::new(ds.clone(), count_query(), SnapshotMode::Exact).unwrap();
        run.set_row_cost(1.0);
        let h: &mut dyn QueryHandle = &mut run;
        assert_eq!(h.step(0), StepStatus::Running { units: 0 });
        assert_eq!(h.step(60), StepStatus::Running { units: 60 });
        assert!(!h.is_done());
        assert!(h.snapshot().is_none(), "exact runs show nothing mid-scan");
        assert_eq!(h.step(60), StepStatus::Done { units: 40 });
        assert!(h.is_done());
        assert_eq!(h.snapshot(), execute_exact(&ds, &count_query()).ok());
        assert_eq!(h.step(60), StepStatus::Done { units: 0 });
        let mut empty = ChunkedRun::new(dataset(0), count_query(), SnapshotMode::Exact).unwrap();
        assert_eq!(
            QueryHandle::step(&mut empty, 0),
            StepStatus::Done { units: 0 }
        );
    }

    #[test]
    fn estimate_at_end_withholds_partial_results() {
        let ds = dataset(100);
        let mut run = ChunkedRun::new(
            ds,
            count_query(),
            SnapshotMode::EstimateAtEnd {
                z: 1.96,
                population: 1_000,
            },
        )
        .unwrap();
        run.advance(50);
        assert!(run.snapshot().is_none());
        run.advance(100);
        let snap = run.snapshot().unwrap();
        assert!(!snap.exact);
        // Scaled 10× (100-row sample of a 1000-row population).
        let total: f64 = snap.bins.values().map(|s| s.values[0]).sum();
        assert!((total - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn estimate_snapshot_available_immediately() {
        let ds = dataset(1000);
        let q = count_query();
        let mut run = ChunkedRun::new(
            ds,
            q,
            SnapshotMode::Estimate {
                z: 1.96,
                population: 1000,
            },
        )
        .unwrap();
        assert!(run.snapshot().is_none());
        run.advance(100);
        let snap = run.snapshot().unwrap();
        assert!(!snap.exact);
        assert!((snap.processed_fraction - 0.1).abs() < 1e-9);
        // Count estimate should be near the true totals (the natural order
        // here is periodic, so exact thirds).
        let aa = snap.value(&BinKey::d1(BinCoord::Cat(0)), 0).unwrap();
        assert!((aa - 334.0).abs() < 10.0);
    }

    #[test]
    fn completed_estimate_of_full_population_is_exact() {
        let ds = dataset(60);
        let q = count_query();
        let mut run = ChunkedRun::new(
            ds.clone(),
            q.clone(),
            SnapshotMode::Estimate {
                z: 1.96,
                population: 60,
            },
        )
        .unwrap();
        while !run.is_done() {
            run.advance(64);
        }
        let snap = run.snapshot().unwrap();
        assert!(snap.exact);
        assert_eq!(snap, execute_exact(&ds, &q).unwrap());
    }

    #[test]
    fn shuffled_order_visits_every_row_once() {
        let ds = dataset(40);
        let q = count_query();
        let order: Arc<Vec<u32>> = Arc::new((0..40u32).rev().collect());
        let mut run =
            ChunkedRun::with_order(ds.clone(), q.clone(), Some(order), SnapshotMode::Exact)
                .unwrap();
        while !run.is_done() {
            run.advance(9);
        }
        assert_eq!(run.snapshot().unwrap(), execute_exact(&ds, &q).unwrap());
    }

    #[test]
    fn filtered_chunked_run() {
        let ds = dataset(100);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::Range {
                column: "dep_delay".into(),
                min: 0.0,
                max: 50.0,
            })),
        );
        let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
        while !run.is_done() {
            run.advance(33);
        }
        let snap = run.snapshot().unwrap();
        assert_eq!(snap.bins.len(), 5); // bins [0,10) .. [40,50)
        assert_eq!(snap, execute_exact(&ds, &q).unwrap());
        assert_eq!(run.accumulator().rows_matched, 50);
    }

    /// Rows with awkward (non-exactly-summable) float measures spanning
    /// several dispatch chunks — the data that would expose any
    /// order-dependent floating-point accumulation.
    fn float_dataset(n: usize) -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for i in 0..n {
            let c = match i % 7 {
                0 | 1 => "AA",
                2..=4 => "DL",
                _ => "UA",
            };
            // 0.1 steps are not exactly representable, so sums genuinely
            // depend on the accumulation association.
            b.push_row(&[c.into(), ((i % 1013) as f64 * 0.1 - 17.3).into()])
                .unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn float_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![
                BinDef::Nominal {
                    dimension: "carrier".into(),
                },
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 25.0,
                    anchor: 0.0,
                },
            ],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                AggregateSpec::over(AggFunc::Sum, "dep_delay"),
            ],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn parallel_bit_identical_to_scalar_across_worker_counts() {
        // > 3 chunks, so real cross-chunk merging happens.
        let ds = float_dataset(3 * CHUNK_ROWS + 517);
        let q = float_query();
        let scalar = bits(&execute_exact_scalar(&ds, &q).unwrap());
        for workers in [1, 2, 3, 8] {
            let parallel = execute_exact_parallel(&ds, &q, workers).unwrap();
            assert_eq!(bits(&parallel), scalar, "workers = {workers}");
        }
    }

    #[test]
    fn worker_count_never_changes_budget_sliced_results() {
        // The last chunk is ragged (99 rows); odd and step-sized grants
        // cross chunk boundaries at uneven offsets.
        let n = 2 * CHUNK_ROWS + 99;
        let ds = float_dataset(n);
        let q = float_query();
        let scalar = execute_exact_scalar(&ds, &q).unwrap();
        for workers in [1, 2, 4, 8] {
            for grant in [10_007, 16_384, n as u64 - 1] {
                let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
                run.set_workers(workers);
                let snap = finish(&mut run, grant);
                assert_eq!(snap, scalar, "workers {workers}, grant {grant}");
                assert_eq!(run.accumulator().rows_seen, n as u64);
            }
        }
    }

    #[test]
    fn sparse_stepped_runs_reuse_chunks_and_match_scalar() {
        // No benchmark workload builds a sparse accumulator, so this is
        // where the sparse store's reset runs: five chunks, each folded,
        // reset and reused by a later read-ahead.
        let ds = float_dataset(4 * CHUNK_ROWS + 333);
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![
                BinDef::Nominal {
                    dimension: "carrier".into(),
                },
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 0.01,
                    anchor: 0.0,
                },
            ],
            [AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max]
                .into_iter()
                .map(|f| AggregateSpec::over(f, "dep_delay"))
                .chain([AggregateSpec::count()])
                .collect(),
        );
        let q = Query::for_viz(&spec, None);
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Sparse);
        let scalar = bits(&execute_exact_scalar(&ds, &q).unwrap());
        for workers in [1, 2] {
            let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
            run.set_workers(workers);
            run.set_row_cost(1.0);
            run.set_match_cost(0.0);
            let mut reused = 0;
            while !run.is_done() {
                let (ahead, spare) = run.dispatcher.held_chunks();
                assert!(ahead + spare <= workers, "workers {workers}");
                // Quarter-chunk grants pause on chunk boundaries, so the
                // spares show; with nothing computed ahead, the next grant
                // reads ahead into them.
                run.advance(CHUNK_ROWS as u64 / 4);
                if ahead == 0 && spare > 0 && !run.is_done() {
                    assert!(run.dispatcher.held_chunks().1 < spare, "spares taken first");
                    reused += 1;
                }
            }
            assert!(
                reused >= 3 / workers,
                "workers {workers}: {reused} read-aheads reused chunks"
            );
            assert_eq!(bits(&run.snapshot().unwrap()), scalar, "workers {workers}");
        }
    }

    #[test]
    fn tiny_budget_grants_progress_under_parallel_dispatcher() {
        // Regression: a budget grant smaller than one morsel (even smaller
        // than one worst-case row) must still make forward progress when
        // the run is configured for parallel dispatch — no starvation or
        // livelock at tiny quanta.
        let ds = float_dataset(CHUNK_ROWS + 700);
        let mut run = ChunkedRun::new(ds.clone(), float_query(), SnapshotMode::Exact).unwrap();
        run.set_workers(8);
        run.set_row_cost(1.0);
        run.set_match_cost(5.0); // worst-case row (6.0) far exceeds the grant
        let mut stalls = 0;
        let mut calls = 0u64;
        while !run.is_done() {
            let before = run.rows_done();
            let used = run.advance(2);
            assert!(used <= 2, "billing respects the tiny budget");
            calls += 1;
            if run.rows_done() == before {
                stalls += 1;
                assert!(stalls < 4, "advance must keep making row progress");
            } else {
                stalls = 0;
            }
            assert!(calls < 20 * (CHUNK_ROWS as u64 + 700), "livelocked");
        }
        assert_eq!(
            run.snapshot().unwrap(),
            execute_exact(&ds, &float_query()).unwrap(),
            "starved-budget scan still produces the exact result"
        );
    }

    #[test]
    fn dense_bucketed_two_d_matches_scalar() {
        // carrier × bucketed dep_delay lowers to the dense store (bounded
        // bucket space) and must agree with the hashed/scalar semantics.
        let ds = float_dataset(5_000);
        let q = float_query();
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        assert!(
            matches!(plan.acc_mode(), crate::plan::AccMode::Dense(_)),
            "nominal × bounded-bucket binning should be dense, got {:?}",
            plan.acc_mode()
        );
        assert_eq!(
            bits(&execute_exact(&ds, &q).unwrap()),
            bits(&execute_exact_scalar(&ds, &q).unwrap())
        );
    }

    /// A star schema spanning more than two dispatch chunks. Every column
    /// the queries below read holds nulls: fact columns `dep_delay`
    /// (float) and `status` (nominal), and dimension attributes `carrier`
    /// (nominal) and `carrier_age` (int).
    fn star_dataset(n: usize) -> Dataset {
        use idebench_storage::{DimensionSpec, StarSchema, Value};
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("status", DataType::Nominal),
                ("carrier_key", DataType::Int),
            ],
        );
        for i in 0..n {
            let delay = if i % 13 == 5 {
                Value::Null
            } else {
                ((i % 1013) as f64 * 0.1 - 17.3).into()
            };
            let status = if i % 17 == 3 {
                Value::Null
            } else {
                ["ok", "late", "diverted"][i % 3].into()
            };
            f.push_row(&[delay, status, ((i % 9) as i64).into()])
                .unwrap();
        }
        let mut d = TableBuilder::with_fields(
            "carriers",
            &[
                ("carrier", DataType::Nominal),
                ("carrier_age", DataType::Int),
            ],
        );
        for c in 0..9i64 {
            let name = if c == 4 {
                Value::Null
            } else {
                Value::Str(format!("C{c}"))
            };
            let age = if c == 7 {
                Value::Null
            } else {
                (c * 3 + 1).into()
            };
            d.push_row(&[name, age]).unwrap();
        }
        Dataset::Star(Arc::new(
            StarSchema::new(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new(
                        "carriers",
                        "carrier_key",
                        vec!["carrier".into(), "carrier_age".into()],
                    ),
                    Arc::new(d.finish()),
                )],
            )
            .unwrap(),
        ))
    }

    /// Queries over the nullable columns of [`star_dataset`]: Range / In /
    /// Or filters, nominal, dense-width and sparse-width dimensions, 1D and
    /// 2D binnings, and measures — each paired with the accumulation mode
    /// it must compile to.
    fn nullable_queries() -> Vec<(Query, bool)> {
        let nominal = |d: &str| BinDef::Nominal {
            dimension: d.into(),
        };
        let width = |d: &str, width: f64, anchor: f64| BinDef::Width {
            dimension: d.into(),
            width,
            anchor,
        };
        let range = |c: &str, min: f64, max: f64| {
            FilterExpr::Pred(Predicate::Range {
                column: c.into(),
                min,
                max,
            })
        };
        let isin = |c: &str, values: &[&str]| {
            FilterExpr::Pred(Predicate::In {
                column: c.into(),
                values: values.iter().map(|v| v.to_string()).collect(),
            })
        };
        let query = |binning: Vec<BinDef>, aggs: Vec<AggregateSpec>, filter| {
            Query::for_viz(&VizSpec::new("v", "flights", binning, aggs), filter)
        };
        vec![
            (
                query(
                    vec![nominal("carrier"), width("dep_delay", 25.0, 0.0)],
                    vec![
                        AggregateSpec::count(),
                        AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                        AggregateSpec::over(AggFunc::Sum, "carrier_age"),
                    ],
                    Some(isin("carrier", &["C1", "C4", "C6"])),
                ),
                true,
            ),
            (
                query(
                    vec![nominal("status"), nominal("carrier")],
                    vec![
                        AggregateSpec::count(),
                        AggregateSpec::over(AggFunc::Sum, "dep_delay"),
                    ],
                    Some(range("dep_delay", -10.0, 50.0)),
                ),
                true,
            ),
            (
                query(
                    vec![width("carrier_age", 2.0, 0.0)],
                    vec![
                        AggregateSpec::count(),
                        AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                        AggregateSpec::over(AggFunc::Min, "carrier_age"),
                    ],
                    Some(FilterExpr::Or(vec![
                        isin("status", &["late"]),
                        range("carrier_age", 5.0, 20.0),
                    ])),
                ),
                true,
            ),
            (
                query(
                    vec![width("dep_delay", 1e-3, 0.0), nominal("carrier")],
                    vec![
                        AggregateSpec::count(),
                        AggregateSpec::over(AggFunc::Max, "carrier_age"),
                        AggregateSpec::over(AggFunc::Sum, "dep_delay"),
                    ],
                    Some(isin("carrier", &["C0", "C2", "C3", "C5"]).and(range(
                        "dep_delay",
                        0.0,
                        1e9,
                    ))),
                ),
                false,
            ),
            (
                query(
                    vec![nominal("status")],
                    vec![
                        AggregateSpec::over(AggFunc::Avg, "carrier_age"),
                        AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                    ],
                    None,
                ),
                true,
            ),
            (
                query(
                    vec![width("dep_delay", 7.5, 1.25)],
                    vec![
                        AggregateSpec::count(),
                        AggregateSpec::over(AggFunc::Sum, "carrier_age"),
                    ],
                    Some(FilterExpr::Or(vec![
                        isin("carrier", &["C2", "C4"]),
                        isin("status", &["diverted"]),
                    ])),
                ),
                true,
            ),
        ]
    }

    #[test]
    fn join_paths_agree_with_scalar_bit_for_bit() {
        // Materialized join access over nullable fact columns and nullable
        // dimension attributes, read in place under their validity masks,
        // must equal the per-row FK scalar oracle bit for bit at every
        // worker count and under a shuffled visit order.
        let n = 2 * CHUNK_ROWS + 777;
        // 1_000_003 is prime and does not divide `n`: i ↦ i·p + c mod n
        // is a permutation.
        let order: Arc<Vec<u32>> = Arc::new(
            (0..n as u64)
                .map(|i| ((i * 1_000_003 + 12_345) % n as u64) as u32)
                .collect(),
        );
        let ds = star_dataset(n);
        for (q, dense) in nullable_queries() {
            let plan = CompiledPlan::compile(&ds, &q).unwrap();
            assert_eq!(
                matches!(plan.acc_mode(), crate::plan::AccMode::Dense(_)),
                dense,
                "{}",
                q.canonical_key()
            );
            let scalar = bits(&execute_exact_scalar(&ds, &q).unwrap());
            for workers in [1, 2, 8] {
                let got = execute_exact_parallel(&ds, &q, workers).unwrap();
                assert_eq!(
                    bits(&got),
                    scalar,
                    "workers {workers}, {}",
                    q.canonical_key()
                );
            }
            let mut run =
                ChunkedRun::from_plan(plan, Some(Arc::clone(&order)), SnapshotMode::Exact);
            run.set_workers(2);
            while !run.is_done() {
                run.advance(50_021);
            }
            assert_eq!(
                bits(&run.snapshot().unwrap()),
                bits(&execute_exact_scalar_with_order(&ds, &q, Some(&order)).unwrap()),
                "shuffled, {}",
                q.canonical_key()
            );
        }
        let stats = ds.as_star().unwrap().join_cache_stats();
        assert_eq!(stats.entries, 2, "both attributes materialized");
    }

    /// 64-bit FNV-1a over a stream of words.
    fn fnv_words(h: &mut u64, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    fn hash_snapshot(h: &mut u64, snap: Option<&AggResult>) {
        let Some(r) = snap else {
            return fnv_words(h, &[u64::MAX]);
        };
        for (key, stats) in r.sorted_bins() {
            for c in key.coords() {
                match *c {
                    BinCoord::Cat(v) => fnv_words(h, &[0, u64::from(v)]),
                    BinCoord::Bucket(v) => fnv_words(h, &[1, v as u64]),
                }
            }
            for (v, m) in stats.values.iter().zip(&stats.margins) {
                fnv_words(h, &[v.to_bits(), m.to_bits()]);
            }
        }
        fnv_words(h, &[r.processed_fraction.to_bits(), u64::from(r.exact)]);
    }

    /// A filtered 2D float query over a shuffled order spanning two full
    /// chunks and a ragged third, priced like a progressive run.
    fn stepped_run(workers: usize) -> (ChunkedRun, Dataset, Query, Arc<Vec<u32>>) {
        let n = 2 * CHUNK_ROWS + 777;
        let ds = float_dataset(n);
        let mut q = float_query();
        q.compose_filter(FilterExpr::Pred(Predicate::Range {
            column: "dep_delay".into(),
            min: -5.0,
            max: 40.0,
        }));
        let order: Arc<Vec<u32>> = Arc::new(
            (0..n as u64)
                .map(|i| ((i * 1_000_003 + 12_345) % n as u64) as u32)
                .collect(),
        );
        let mut run = ChunkedRun::with_order(
            ds.clone(),
            q.clone(),
            Some(Arc::clone(&order)),
            SnapshotMode::Estimate {
                z: 1.96,
                population: n as u64,
            },
        )
        .unwrap();
        run.set_row_cost(1.15);
        run.set_match_cost(0.6);
        run.set_workers(workers);
        (run, ds, q, order)
    }

    /// Steps [`stepped_run`] to completion in `grant`-unit grants, hashing
    /// the rows done and units billed after every grant, and the snapshot
    /// after every `snap_every`-th grant and at the end.
    fn stepped_hash(grant: u64, workers: usize, snap_every: u64) -> u64 {
        let (mut run, ..) = stepped_run(workers);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut calls = 0u64;
        while !run.is_done() {
            let used = run.advance(grant);
            calls += 1;
            fnv_words(&mut h, &[run.rows_done() as u64, used]);
            if calls.is_multiple_of(snap_every) {
                hash_snapshot(&mut h, run.snapshot().as_ref());
            }
        }
        hash_snapshot(&mut h, run.snapshot().as_ref());
        h
    }

    /// Stepped scans are pinned bit for bit: rows done, units billed and
    /// every snapshot, for tiny, odd and `step_quantum`-sized grants, at
    /// every worker count. The 2-unit grants snapshot every 4 099th call (a
    /// prime, so snapshots land at shifting offsets inside chunks) to keep
    /// the test fast.
    #[test]
    fn stepped_scans_match_golden_hashes_at_every_worker_count() {
        const GOLDEN: [(u64, u64, u64); 3] = [
            (2, 4_099, 0x6c47_96cc_747d_609b),
            (10_007, 1, 0x1f60_e9d0_afdb_fe11),
            (16_384, 1, 0xd463_5b88_159a_e076),
        ];
        for (grant, snap_every, expected) in GOLDEN {
            for workers in [1, 2, 8] {
                let got = stepped_hash(grant, workers, snap_every);
                assert_eq!(
                    got, expected,
                    "grant {grant}, workers {workers}: {got:#018x}"
                );
            }
        }
    }

    fn finish(run: &mut ChunkedRun, grant: u64) -> AggResult {
        while !run.is_done() {
            run.advance(grant);
        }
        run.snapshot().unwrap()
    }

    #[test]
    fn grant_ending_on_a_chunk_boundary() {
        // Unit costs and no surcharge: a CHUNK_ROWS grant ends exactly on
        // the first chunk boundary, with nothing left paused inside it.
        let mut snaps = Vec::new();
        for workers in [1, 2] {
            let (mut run, ds, q, order) = stepped_run(workers);
            run.set_row_cost(1.0);
            run.set_match_cost(0.0);
            assert_eq!(run.advance(CHUNK_ROWS as u64), CHUNK_ROWS as u64);
            assert_eq!(run.rows_done(), CHUNK_ROWS);
            snaps.push(run.snapshot().unwrap());
            // The same prefix reached in uneven slices.
            let (mut sliced, ..) = stepped_run(workers);
            sliced.set_row_cost(1.0);
            sliced.set_match_cost(0.0);
            while sliced.rows_done() < CHUNK_ROWS {
                sliced.advance(4_099.min((CHUNK_ROWS - sliced.rows_done()) as u64));
            }
            assert_eq!(sliced.snapshot().unwrap(), snaps[0], "workers {workers}");
            assert_eq!(
                finish(&mut run, CHUNK_ROWS as u64),
                execute_exact_scalar_with_order(&ds, &q, Some(&order)).unwrap()
            );
        }
        assert_eq!(snaps[0], snaps[1]);
    }

    #[test]
    fn table_smaller_than_one_morsel() {
        let ds = float_dataset(300);
        let q = float_query();
        let mode = SnapshotMode::Estimate {
            z: 1.96,
            population: 300,
        };
        let mut mid = Vec::new();
        for workers in [1, 2] {
            let mut run = ChunkedRun::new(ds.clone(), q.clone(), mode).unwrap();
            run.set_workers(workers);
            assert_eq!(run.advance(120), 120);
            mid.push(run.snapshot().unwrap());
            assert_eq!(finish(&mut run, 16_384), execute_exact(&ds, &q).unwrap());
        }
        assert_eq!(mid[0], mid[1]);
        assert!((mid[0].processed_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn exact_and_estimate_at_end_runs_agree_across_worker_counts() {
        let n = CHUNK_ROWS + 4_321;
        let ds = float_dataset(n);
        let q = float_query();
        let scalar = execute_exact_scalar(&ds, &q).unwrap();
        let at_end = SnapshotMode::EstimateAtEnd {
            z: 1.96,
            population: 10 * n as u64,
        };
        let mut estimates = Vec::new();
        for workers in [1, 2, 8] {
            let mut exact = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
            exact.set_workers(workers);
            exact.advance(16_384);
            assert!(exact.snapshot().is_none());
            assert_eq!(finish(&mut exact, 16_384), scalar, "workers {workers}");

            let mut est = ChunkedRun::new(ds.clone(), q.clone(), at_end).unwrap();
            est.set_workers(workers);
            est.advance(16_384);
            assert!(est.snapshot().is_none());
            estimates.push(finish(&mut est, 16_384));
        }
        assert!(estimates.iter().all(|e| *e == estimates[0] && !e.exact));
    }

    #[test]
    fn snapshot_mid_chunk_then_resume_matches_scalar() {
        // Progressive reuse: a run expires mid-chunk, is snapshotted, and
        // is later resumed to completion by another query's grants.
        for workers in [1, 2, 8] {
            let (mut run, ds, q, order) = stepped_run(workers);
            let mut prefix = Vec::new();
            for _ in 0..3 {
                run.advance(16_384);
                assert_ne!(run.rows_done() % CHUNK_ROWS, 0, "paused mid-chunk");
                prefix.push(run.snapshot().unwrap());
                // A second snapshot of the same paused state is identical.
                assert_eq!(run.snapshot().unwrap(), prefix[prefix.len() - 1]);
            }
            assert!(prefix[2].processed_fraction > prefix[0].processed_fraction);
            let done = finish(&mut run, 10_007);
            assert!(done.exact);
            assert_eq!(
                done,
                execute_exact_scalar_with_order(&ds, &q, Some(&order)).unwrap(),
                "workers {workers}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "visit order has 99 positions, but the table has 100 rows")]
    fn short_order_is_rejected() {
        let order: Arc<Vec<u32>> = Arc::new((0..99).collect());
        let _ = ChunkedRun::with_order(
            dataset(100),
            count_query(),
            Some(order),
            SnapshotMode::Exact,
        );
    }

    #[test]
    #[should_panic(expected = "visit order has 101 positions, but the table has 100 rows")]
    fn long_order_is_rejected() {
        let order: Arc<Vec<u32>> = Arc::new((0..101).collect());
        let _ = ChunkedRun::with_order(
            dataset(100),
            count_query(),
            Some(order),
            SnapshotMode::Exact,
        );
    }

    #[test]
    fn empty_table_completes_immediately() {
        for workers in [1, 2] {
            let mut run = ChunkedRun::new(dataset(0), count_query(), SnapshotMode::Exact).unwrap();
            run.set_workers(workers);
            assert!(run.is_done());
            assert_eq!(run.advance(16_384), 0);
            assert_eq!(run.snapshot().unwrap().bins.len(), 0);
        }
    }

    #[test]
    fn count_binning_over_a_column_with_nan_uses_its_finite_range() {
        let mut b = TableBuilder::with_fields("flights", &[("dep_delay", DataType::Float)]);
        for v in [1.0, 2.0, f64::NAN, 5.0] {
            b.push_row(&[v.into()]).unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Count {
                dimension: "dep_delay".into(),
                bins: 2,
            }],
            vec![AggregateSpec::count()],
        );
        let mut q = Query::for_viz(&spec, None);
        idebench_core::driver::resolve_count_binnings(&mut q, &ds).unwrap();
        match &q.binning()[0] {
            BinDef::Width { anchor, width, .. } => {
                assert_eq!(*anchor, 1.0);
                assert!((width - 2.0).abs() < 1e-9, "width {width}");
            }
            other => panic!("expected a width binning, got {other:?}"),
        }
        let scalar = execute_exact_scalar(&ds, &q).unwrap();
        for workers in [1, 2] {
            let mut run = ChunkedRun::new(ds.clone(), q.clone(), SnapshotMode::Exact).unwrap();
            run.set_workers(workers);
            while !run.is_done() {
                run.advance(3);
            }
            assert_eq!(run.snapshot().unwrap(), scalar, "workers {workers}");
        }
        // Every row lands in a bin: NaN in the one `floor(NaN) as i64` gives.
        let total: f64 = scalar.bins.values().map(|b| b.values[0]).sum();
        assert_eq!(total, 4.0);
    }

    /// Steps a fresh run to exactly `cursor` positions (unit row cost, no
    /// match surcharge) and returns its accumulated state.
    fn accumulator_at(
        ds: &Dataset,
        q: &Query,
        order: Option<&Arc<Vec<u32>>>,
        workers: usize,
        cursor: usize,
    ) -> GroupedAcc {
        let mut run =
            ChunkedRun::with_order(ds.clone(), q.clone(), order.cloned(), SnapshotMode::Exact)
                .unwrap();
        run.set_row_cost(1.0);
        run.set_match_cost(0.0);
        run.set_workers(workers);
        assert_eq!(run.advance(cursor as u64), cursor as u64);
        assert_eq!(run.rows_done(), cursor);
        run.accumulator()
    }

    /// `keys` inserted, in the given order, into a map like the one
    /// `to_grouped` builds: the iteration order that insertion sequence
    /// produces.
    fn inserted_in(keys: impl IntoIterator<Item = BinKey>) -> Vec<BinKey> {
        let mut map = rustc_hash::FxHashMap::default();
        for k in keys {
            map.insert(k, ());
        }
        map.into_keys().collect()
    }

    /// Report bits depend on the order in which `to_grouped` inserts bins:
    /// `Metrics::evaluate` sums floats while iterating the ground truth's
    /// hash map. Through chunk merges at any worker count, the bins of a
    /// shuffled scan must be inserted in the order of their first
    /// appearance in the scan, whether its slots are arithmetic (a bounded
    /// bin space) or ids of its keys (an unbounded one).
    #[test]
    fn bins_leave_to_grouped_in_first_appearance_order() {
        let n = 3 * CHUNK_ROWS + 517;
        let ds = float_dataset(n);
        let order: Arc<Vec<u32>> = Arc::new(
            (0..n as u64)
                .map(|i| ((i * 1_000_003 + 12_345) % n as u64) as u32)
                .collect(),
        );
        for (width, dense) in [(0.5, true), (0.01, false)] {
            let spec = VizSpec::new(
                "v",
                "flights",
                vec![
                    BinDef::Nominal {
                        dimension: "carrier".into(),
                    },
                    BinDef::Width {
                        dimension: "dep_delay".into(),
                        width,
                        anchor: 0.0,
                    },
                ],
                vec![AggregateSpec::count()],
            );
            let q = Query::for_viz(&spec, None);
            let mode = CompiledPlan::compile(&ds, &q).unwrap().acc_mode();
            assert_eq!(
                matches!(mode, AccMode::Dense(_)),
                dense,
                "width {width}: {mode:?}"
            );
            let resolved = ResolvedQuery::new(&ds, &q).unwrap();
            let first_seen = |end: usize| {
                let mut seen = rustc_hash::FxHashSet::default();
                let mut keys = Vec::new();
                for &row in &order[..end] {
                    let key = resolved.binning.bin_of(row as usize).unwrap();
                    if seen.insert(key.clone()) {
                        keys.push(key);
                    }
                }
                keys
            };
            for end in [2 * CHUNK_ROWS, n] {
                let appearance = first_seen(end);
                assert!(appearance.len() > 500, "{} bins", appearance.len());
                let expected = inserted_in(appearance.iter().cloned());
                // The check has teeth: the same bins inserted in key order
                // iterate differently.
                let mut sorted = appearance.clone();
                sorted.sort_by_key(|k| format!("{k:?}"));
                assert_ne!(inserted_in(sorted), expected);
                for workers in [1, 2, 8] {
                    let acc = accumulator_at(&ds, &q, Some(&order), workers, end);
                    assert_eq!(
                        acc.bins.keys().cloned().collect::<Vec<_>>(),
                        expected,
                        "end {end}, workers {workers}"
                    );
                }
            }
        }
    }

    /// A dataset spanning two chunks and a ragged third with three measure
    /// payloads: `dep_delay` (decimal codes), `arr_delay` (nullable decimal
    /// codes, both zeros among its values) and `wobble` (plain `f64`, with
    /// NaNs and both zeros).
    fn measure_dataset(n: usize) -> Dataset {
        use idebench_storage::Value;
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
                ("arr_delay", DataType::Float),
                ("wobble", DataType::Float),
            ],
        );
        for i in 0..n {
            let c = ["AA", "AA", "DL", "DL", "DL", "UA", "UA"][i % 7];
            // `k / 10^e` round-trips through a decimal code; `k · 0.1`
            // would not.
            let dep = ((i % 1013) as f64 - 173.0) / 10.0;
            let arr = match i % 11 {
                3 => Value::Null,
                7 if i % 3 == 0 => (-0.0).into(),
                7 => 0.0.into(),
                _ => ((((i * 7) % 2003) as f64 - 350.0) / 100.0).into(),
            };
            let wobble = match i % 509 {
                17 => f64::NAN,
                99 => -0.0,
                100 => 0.0,
                _ => (i as f64 * 0.37).sin() * 100.0,
            };
            b.push_row(&[c.into(), dep.into(), arr, wobble.into()])
                .unwrap();
        }
        let t = b.finish();
        let payload = |name: &str| {
            let col = t.column(name).unwrap();
            let decimal = matches!(col.data(), idebench_storage::ColumnData::Decimal(..));
            (decimal, col.validity().is_some())
        };
        assert_eq!(payload("dep_delay"), (true, false));
        assert_eq!(payload("arr_delay"), (true, true));
        assert_eq!(payload("wobble"), (false, false));
        Dataset::Denormalized(Arc::new(t))
    }

    /// Every field a finish reads, for each aggregate position (COUNT reads
    /// the bin's count only), as `(name, bits)`.
    fn read_fields(acc: &crate::aggregate::BinAcc, aggs: &[AggregateSpec]) -> Vec<(String, u64)> {
        let mut fields = vec![("count".to_string(), acc.count)];
        for (i, a) in aggs.iter().enumerate() {
            let m = &acc.measures[i];
            let read: &[(&str, u64)] = match a.func {
                AggFunc::Count => &[],
                AggFunc::Sum | AggFunc::Avg => &[
                    ("n", m.n),
                    ("sum", m.sum.to_bits()),
                    ("sumsq", m.sumsq.to_bits()),
                ],
                AggFunc::Min => &[("n", m.n), ("min", m.min.to_bits())],
                AggFunc::Max => &[("n", m.n), ("max", m.max.to_bits())],
            };
            fields.extend(read.iter().map(|&(f, v)| (format!("{}.{f}", a.label()), v)));
        }
        fields
    }

    /// The vectorized stores accumulate only the statistics each aggregate
    /// reads. Those must equal the scalar oracle's, bit for bit, at
    /// cursors inside the first morsel, the first chunk and the second
    /// chunk, and at the end, for dense 1-D, dense 2-D (≥ 3 000 bins) and
    /// sparse binnings.
    #[test]
    fn vectorized_statistics_match_scalar_at_every_cursor() {
        let n = 2 * CHUNK_ROWS + 321;
        let ds = measure_dataset(n);
        let aggs = vec![
            AggregateSpec::count(),
            AggregateSpec::over(AggFunc::Sum, "dep_delay"),
            AggregateSpec::over(AggFunc::Avg, "dep_delay"),
            AggregateSpec::over(AggFunc::Min, "arr_delay"),
            AggregateSpec::over(AggFunc::Max, "arr_delay"),
            AggregateSpec::over(AggFunc::Avg, "arr_delay"),
            AggregateSpec::over(AggFunc::Min, "wobble"),
            AggregateSpec::over(AggFunc::Max, "wobble"),
            AggregateSpec::over(AggFunc::Sum, "wobble"),
        ];
        let carrier = || BinDef::Nominal {
            dimension: "carrier".into(),
        };
        let dep = |width: f64| BinDef::Width {
            dimension: "dep_delay".into(),
            width,
            anchor: 0.0,
        };
        let filter = FilterExpr::Pred(Predicate::Range {
            column: "arr_delay".into(),
            min: -3.0,
            max: 16.0,
        });
        let cases = [
            ("dense 1-D", vec![carrier()], None),
            ("dense 2-D", vec![carrier(), dep(0.05)], Some(filter)),
            ("sparse", vec![dep(0.01)], None),
        ];
        for (name, binning, filter) in cases {
            let q = Query::for_viz(&VizSpec::new("v", "flights", binning, aggs.clone()), filter);
            let mode = CompiledPlan::compile(&ds, &q).unwrap().acc_mode();
            match name {
                "dense 1-D" => assert_eq!(mode, AccMode::Dense(3)),
                "dense 2-D" => assert!(matches!(mode, AccMode::Dense(s) if s >= 3_000)),
                _ => assert_eq!(mode, AccMode::Sparse),
            }
            for cursor in [1, 1_023, CHUNK_ROWS + 1, n] {
                let scalar = scalar_prefix(&ds, &q, None, cursor).unwrap();
                let ctx = format!("{name}, cursor {cursor}");
                if name == "dense 2-D" && cursor == n {
                    assert!(
                        scalar.bins.len() >= 3_000,
                        "{ctx}: {} bins",
                        scalar.bins.len()
                    );
                }
                for workers in [1, 2] {
                    let acc = accumulator_at(&ds, &q, None, workers, cursor);
                    assert_eq!(
                        (acc.rows_seen, acc.rows_matched),
                        (scalar.rows_seen, scalar.rows_matched),
                        "{ctx}"
                    );
                    assert_eq!(acc.bins.len(), scalar.bins.len(), "{ctx}");
                    for (key, want) in &scalar.bins {
                        let got = acc
                            .bins
                            .get(key)
                            .unwrap_or_else(|| panic!("{ctx}: {key:?}"));
                        assert_eq!(
                            read_fields(got, &aggs),
                            read_fields(want, &aggs),
                            "{ctx}, workers {workers}, bin {key:?}"
                        );
                    }
                    assert_eq!(
                        bits(&acc.finish_estimate(10 * n as u64, 1.96)),
                        bits(&scalar.finish_estimate(10 * n as u64, 1.96)),
                        "{ctx}"
                    );
                }
            }
        }
    }
}
