//! Morsel-driven parallel scan dispatch.
//!
//! [`MorselDispatcher`] partitions a scan's positions into fixed
//! [`CHUNK_ROWS`]-sized chunks and only ever computes *whole* chunks. Every
//! scan walks its positions in natural order: a shuffled run reads the
//! permuted copies of [`crate::shuffle::Shuffle`], so position `i` holds
//! row `order[i]` and chunks of a shuffled scan are contiguous too. When the budget walk of
//! [`crate::ChunkedRun::advance`] enters a chunk that has not been
//! computed, the dispatcher computes it together with up to `workers − 1`
//! following chunks in one span over the persistent
//! [`crate::pool::ScanPool`], one chunk per participant — a chunk goes to
//! whichever core is free. Each computed chunk keeps its own `BatchAcc`
//! (workers never share an accumulator) and a filter-match bitmap with one
//! bit per position. The budget walk counts the matches of any position
//! range by popcount over those bitmaps, and a chunk folds into the base
//! accumulator, **in chunk order**, once the walk passes its end.
//!
//! # Determinism
//!
//! The chunk partition depends only on `CHUNK_ROWS` and absolute scan
//! position; the merge order depends only on chunk indices. Matched counts
//! come from the same filter masks whether a chunk was computed ahead or
//! not, so cursor positions and billed units never depend on the read-ahead.
//! A snapshot taken with the cursor inside a chunk replays that chunk's
//! prefix into a scratch accumulator: the same rows, in the same order, that
//! a scan stopped at the cursor would have accumulated. Nothing depends on
//! the worker count, scheduling, or how a budget slices the scan, so every
//! result — including every floating-point rounding — is bit-identical for
//! any `workers ≥ 1`. The scalar oracle ([`crate::execute_exact_scalar`])
//! folds its row-at-a-time accumulation over the same chunk grid, which is
//! what lets differential tests pin parallel == scalar *bit for bit*.
//!
//! # Worker lifetime
//!
//! Workers are *pooled*, not scoped: a read-ahead span publishes helper
//! claims on the process-wide persistent [`crate::pool::ScanPool`] and runs
//! the span body on the calling thread itself, so fanning out costs a queue
//! push + wake rather than a thread spawn/join per worker per span.
//! Participants pull chunk indices from the span's shared cursor until the
//! supply is dry; claims the pool never got to are revoked when the
//! caller's own pass finishes. Because the pool is shared and fixed-size
//! (one worker per core), any number of concurrent sessions' scans compose
//! without oversubscription. Grants of one `step_quantum` (a few thousand
//! rows) use every core too: the grant that enters an uncomputed chunk pays
//! for the read-ahead, and the following grants only count bits.
//!
//! # Memory and waste
//!
//! A paused scan holds the base accumulator and at most `workers` computed
//! chunks (an accumulator and an 8 KiB bitmap each); no accumulator pool
//! outlives a call. A span over many chunks (a one-shot or ground-truth
//! scan) folds each chunk as the walk passes it, so it too keeps
//! O(workers) accumulators alive. Work the scan computes but never uses is
//! bounded: at most `workers − 1` chunks plus the current chunk's remainder
//! when a scan is abandoned, plus one prefix replay (under one chunk) per
//! mid-chunk snapshot.

use crate::aggregate::GroupedAcc;
use crate::batch::{BatchAcc, BoundPlan, Mask, MORSEL};
use crate::plan::CompiledPlan;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per dispatch chunk — the unit of parallel work distribution *and*
/// of deterministic partial merging. A multiple of [`MORSEL`], sized so the
/// per-chunk accumulator set-up and merge (O(bin space) and O(populated
/// bins)) stay a small fraction of per-chunk scan work even for dense 2D
/// bin spaces near [`crate::plan::DENSE_BIN_CAP`].
pub const CHUNK_ROWS: usize = 64 * MORSEL;

/// Worker count of this machine (`available_parallelism`, min 1) — the
/// default when the benchmark settings leave `workers = 0`.
pub fn available_workers() -> usize {
    idebench_core::settings::available_parallelism()
}

/// Chunk-partitioned accumulation state of one scan (see module docs).
pub struct MorselDispatcher {
    workers: usize,
    /// Chunks `0..folded` merged together, in chunk order.
    base: BatchAcc,
    folded: usize,
    /// Computed chunks `folded..folded + ahead.len()`, not yet folded.
    ahead: VecDeque<Chunk>,
}

/// One computed chunk: its accumulator and one filter-match mask per morsel.
struct Chunk {
    acc: BatchAcc,
    matches: Box<[Mask; CHUNK_ROWS / MORSEL]>,
}

impl MorselDispatcher {
    pub fn new(plan: &CompiledPlan) -> Self {
        MorselDispatcher {
            workers: 1,
            base: BatchAcc::for_plan(plan),
            folded: 0,
            ahead: VecDeque::new(),
        }
    }

    /// Sets the worker-pool size (clamped to ≥ 1).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The accumulated state of scan positions `0..cursor`, materialized in
    /// chunk order. With the cursor inside a chunk, that chunk's prefix is
    /// replayed into a scratch accumulator.
    pub fn grouped(&self, plan: &CompiledPlan, cursor: usize) -> GroupedAcc {
        let mut g = self.base.to_grouped();
        let lo = self.folded * CHUNK_ROWS;
        if cursor > lo {
            let mut prefix = BatchAcc::for_plan(plan);
            process_span(&plan.bind(), &mut prefix, lo, cursor, None);
            g.merge(&prefix.to_grouped());
        }
        g
    }

    /// Counts the rows among scan positions `start..start + take`
    /// (`take ≥ 1`) that pass the filter, computing whole chunks ahead as
    /// the range enters them, and folds every chunk the range finishes.
    ///
    /// `num_rows` is the scan's total length: the last chunk ends with the
    /// data.
    pub fn scan_span(
        &mut self,
        plan: &CompiledPlan,
        start: usize,
        take: usize,
        num_rows: usize,
    ) -> u64 {
        let end = start + take;
        debug_assert!(take >= 1 && end <= num_rows && start >= self.folded * CHUNK_ROWS);
        let mut matched = 0;
        let mut pos = start;
        while pos < end {
            if self.ahead.is_empty() {
                self.compute_ahead(plan, num_rows);
            }
            let chunk_lo = self.folded * CHUNK_ROWS;
            let chunk_hi = (chunk_lo + CHUNK_ROWS).min(num_rows);
            let hi = end.min(chunk_hi);
            matched += count_ones(
                self.ahead[0].matches.as_flattened(),
                pos - chunk_lo,
                hi - chunk_lo,
            );
            if hi == chunk_hi {
                let chunk = self
                    .ahead
                    .pop_front()
                    .expect("the current chunk is computed");
                self.base.merge_from(&chunk.acc);
                self.folded += 1;
            }
            pos = hi;
        }
        matched
    }

    /// Computes chunk `folded` and up to `workers − 1` following chunks,
    /// one per span participant. The accumulators are allocated here, on
    /// the calling thread, so pool workers leave no memory behind in their
    /// own allocator arenas.
    fn compute_ahead(&mut self, plan: &CompiledPlan, num_rows: usize) {
        let first = self.folded;
        let n = self.workers.min(num_rows.div_ceil(CHUNK_ROWS) - first);
        let next = AtomicUsize::new(0);
        let computed: Vec<Mutex<Chunk>> = (0..n)
            .map(|_| {
                Mutex::new(Chunk {
                    acc: BatchAcc::for_plan(plan),
                    matches: Box::new([Mask::default(); CHUNK_ROWS / MORSEL]),
                })
            })
            .collect();
        let body = || {
            let bound = plan.bind();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let lo = (first + i) * CHUNK_ROWS;
                let hi = (lo + CHUNK_ROWS).min(num_rows);
                let chunk = &mut *computed[i].lock().unwrap();
                process_span(&bound, &mut chunk.acc, lo, hi, Some(&mut chunk.matches[..]));
            }
        };
        crate::pool::global_pool().scope_run(n - 1, &body);
        self.ahead
            .extend(computed.into_iter().map(|c| c.into_inner().unwrap()));
    }
}

/// Runs positions `lo..hi` (`lo` chunk-aligned) morsel by morsel into
/// `acc`, writing each morsel's filter-match mask to `matches` if given.
fn process_span(
    bound: &BoundPlan<'_>,
    acc: &mut BatchAcc,
    lo: usize,
    hi: usize,
    mut matches: Option<&mut [Mask]>,
) {
    for (m, pos) in (lo..hi).step_by(MORSEL).enumerate() {
        let mask = acc.process_morsel(bound, pos, MORSEL.min(hi - pos));
        if let Some(out) = matches.as_deref_mut() {
            out[m] = mask;
        }
    }
}

/// Set bits among bit positions `lo..hi` of `words`.
fn count_ones(words: &[u64], lo: usize, hi: usize) -> u64 {
    (lo / 64..hi.div_ceil(64))
        .map(|w| {
            let a = lo.max(w * 64) - w * 64;
            let b = hi.min(w * 64 + 64) - w * 64;
            u64::from((words[w] & (u64::MAX >> (64 - (b - a)) << a)).count_ones())
        })
        .sum()
}
