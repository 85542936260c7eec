//! Query-evaluation primitives shared by all IDEBench engines.
//!
//! The engines in this workspace differ in *when* and *over which rows* they
//! evaluate a query (blocking full scans, progressive shuffled prefixes,
//! offline samples, random join walks) — but the per-row semantics of
//! filtering, binning and aggregation are identical. This crate centralizes
//! those semantics around a vectorized, morsel-driven execution core:
//!
//! # Execution pipeline
//!
//! ```text
//!   Query ──compile──▶ CompiledPlan ──chunks──▶ worker pool ──▶ AggResult
//!           (once per         morsel dispatcher:    per worker+chunk:
//!            ChunkedRun)      fixed CHUNK_ROWS      filter → Mask
//!                             grid, partial per     bin    → slots
//!                             chunk, in-order       accumulate by slot
//!                             merge
//! ```
//!
//! - [`plan`]: the **owned** [`CompiledPlan`] — column names resolved to
//!   `(Arc<Table>, index)` handles (following star-schema foreign keys),
//!   IN-lists lowered to dictionary membership tables, binning classified
//!   by its bin space — dense (bounded: nominal dictionaries *and*
//!   statistics-bounded fixed-width bucketings) or sparse (genuinely
//!   unbounded key spaces) — and ranges and dense bucketings over narrow
//!   numeric columns lowered to code space. Built exactly once per run;
//!   [`plan_compilations`] lets tests pin that.
//! - [`batch`]: fixed-size morsel kernels (filter → bitmask built a 64-row
//!   word at a time, batched bin slot computation, bulk accumulation) and
//!   the one accumulator: flat arrays indexed by slot, whose slots are
//!   arithmetic in a bounded bin space and, in an unbounded one, ids its
//!   bin keys take in first-touch order. Narrow payloads (see
//!   [`idebench_storage::encoding`]) are read as stored, typed by
//!   role — `DictCodes` (`u8`/`u16`/`u32`), `IntValues` (`u8`/`u16`/`i64`)
//!   and `DecimalCodes` (`u16`/`i16`/`i32`) — so each kernel is compiled
//!   once per width its column can hold: ranges and dense bucketings
//!   compare or look up codes, IN lists and nominal binnings read
//!   dictionary codes in place, and measures decode only the codes of
//!   matched rows. Every column is read in place:
//!   nullable ones AND their validity bitmap into the morsel masks a word
//!   at a time, decimals too wide for a decode table decode by division,
//!   and star-schema dimension attributes read their shared fact-ordered
//!   materialization.
//! - [`shuffle`]: [`Shuffle`] — a visit order kept in the dataset's memo
//!   (one per dataset, for the newest seed) with `Arc`-shared permuted
//!   copies of the columns plans read, each gathered once on the scan pool,
//!   so shuffled runs scan contiguous morsels.
//! - [`dispatch`]: the [`MorselDispatcher`] — partitions the scan into
//!   fixed [`CHUNK_ROWS`]-sized chunks, computes whole chunks ahead of the
//!   cursor over the persistent [`ScanPool`] with a per-chunk accumulator
//!   and filter bitmap each, and merges them in chunk order, making results
//!   bit-identical for every worker count.
//! - [`pool`]: the [`ScanPool`] — a process-wide, channel-fed pool of
//!   persistent scan workers ([`global_pool`]), shared by every dispatcher
//!   so intra-query parallelism and multi-session concurrency compose
//!   without oversubscription.
//! - [`executor`]: [`ChunkedRun`] — work-unit-budgeted morsel execution with
//!   monotone, exactly-capped budget accounting over the dispatcher, in
//!   natural order or a [`Shuffle`]'s order — plus
//!   [`execute_exact`] / [`execute_exact_parallel`] (vectorized one-shot)
//!   and [`execute_exact_scalar`] / [`execute_exact_scalar_with_order`]:
//!   the scalar oracle, a plain row-at-a-time interpreter (private
//!   `resolve`, `filter` and `binning` modules) that differential tests
//!   and benchmarks pin the vectorized path against.
//! - [`aggregate`]: the canonical grouped accumulator ([`GroupedAcc`])
//!   every path finishes through — exact finalization and
//!   sample-scale-up estimation with CLT confidence intervals.
//! - [`ground_truth`]: a caching [`idebench_core::GroundTruthProvider`].
//! - [`sql`]: SQL rendering of queries (paper Figure 4).
//!
//! # Engine usage
//!
//! Engines compile once, read their cost model off the plan, and hand the
//! same plan to the run — the query is never re-compiled during stepping:
//!
//! ```
//! use idebench_query::{ChunkedRun, CompiledPlan, SnapshotMode};
//! # use idebench_core::spec::{AggregateSpec, BinDef};
//! # use idebench_core::{Query, VizSpec};
//! # use idebench_storage::{DataType, Dataset, TableBuilder};
//! # use std::sync::Arc;
//! # let mut b = TableBuilder::with_fields("t", &[("c", DataType::Nominal)]);
//! # b.push_row(&["x".into()]).unwrap();
//! # let dataset = Dataset::Denormalized(Arc::new(b.finish()));
//! # let spec = VizSpec::new("v", "t",
//! #     vec![BinDef::Nominal { dimension: "c".into() }],
//! #     vec![AggregateSpec::count()]);
//! # let query = Query::for_viz(&spec, None);
//! let plan = CompiledPlan::compile(&dataset, &query)?;
//! let cost = 0.1 * plan.width_units(); // engine-specific cost model
//! let mut run = ChunkedRun::from_plan(plan, None, SnapshotMode::Exact);
//! run.set_row_cost(cost.max(0.01));
//! while !run.is_done() {
//!     run.advance(16_384);
//! }
//! assert!(run.snapshot().is_some());
//! # Ok::<(), idebench_core::CoreError>(())
//! ```

pub mod aggregate;
pub mod batch;
mod binning;
pub mod dispatch;
pub mod executor;
mod filter;
pub mod ground_truth;
pub mod plan;
pub mod pool;
mod resolve;
pub mod shuffle;
pub mod sql;

pub use aggregate::{BinAcc, GroupedAcc, MeasureAcc};
pub use batch::MORSEL;
pub use dispatch::{available_workers, MorselDispatcher, CHUNK_ROWS};
pub use executor::{
    execute_exact, execute_exact_parallel, execute_exact_scalar, execute_exact_scalar_with_order,
    ChunkedRun, SnapshotMode,
};
pub use ground_truth::{enumerate_workload_queries, CachedGroundTruth};
pub use plan::{plan_compilations, AccMode, CompiledPlan, PlannedColumn, DENSE_BIN_CAP};
pub use pool::{global_pool, PoolStats, ScanPool};
pub use shuffle::Shuffle;
pub use sql::to_sql;

#[cfg(test)]
pub(crate) mod test_bits {
    use idebench_core::AggResult;

    /// A result's bins in key order, each with its values' and margins'
    /// bit patterns.
    pub(crate) type BinBits = Vec<(String, Vec<u64>, Vec<u64>)>;

    /// `r` as bit patterns — so `-0.0` and `0.0` differ and a NaN equals
    /// itself: its bins in key order, then its processed fraction's bits
    /// and its exactness flag. Differential tests compare these, not the
    /// results' `f64 ==`.
    pub(crate) fn bits(r: &AggResult) -> (BinBits, u64, bool) {
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
}
