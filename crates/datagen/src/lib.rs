//! The IDEBench data generator (paper §4.2).
//!
//! Three pieces:
//!
//! - [`flights`]: a synthetic seed generator for the paper's default
//!   dataset — U.S. domestic flights (Figure 2). The original benchmark
//!   downloads real BTS data; this reproduction synthesizes a seed with the
//!   same schema and the distribution features that matter to AQP engines:
//!   skewed categorical marginals (Zipf airports/carriers), heavy-tailed
//!   delays, bimodal departure times, and strong cross-attribute
//!   correlations (dep/arr delay, distance/air time).
//! - [`copula`]: the scaling procedure quoted from the paper: sample the
//!   seed, compute the covariance matrix Σ of normal scores, Cholesky-factor
//!   Σ = AᵀA, draw X ~ N(0, I), correlate X̃ = AX, map through Φ to uniforms
//!   and through each attribute's empirical inverse CDF to values.
//! - [`mod@normalize`]: vertical partitioning of a de-normalized table into a
//!   star schema given dimension specifications (paper: "transformation of
//!   data into a more normalized form based on a specification").
//!
//! Supporting numerics live in [`stats`] and [`matrix`].
//!
//! # Generation contract
//!
//! Every generator ([`flights::generate`], [`orders::generate`],
//! [`CopulaScaler::generate`]) gives a bit-identical table for equal inputs:
//!
//! - it draws from one RNG stream seeded with its seed argument;
//! - each row makes its draws in a fixed order, documented per generator;
//! - nominal dictionaries list their values in first-seen order.
//!
//! Rows are written straight into typed column buffers; nominal columns
//! hold category indexes until one recode pass turns them into first-seen
//! codes. The recode interns each category's label once, in row order,
//! and stops discovering as soon as every category of the domain has
//! appeared (in practice within the first few thousand rows); it then maps
//! every row through the finished index → code table. Categorical draws go
//! through a guide table ([`stats::Cumulative`]) that returns exactly the
//! rank a binary search over the cumulative weights would. The crate's
//! golden-content tests pin the resulting payloads and dictionaries bit
//! for bit.
//!
//! # Block-parallel generation
//!
//! [`flights::generate`] fills its rows in parallel without giving up the
//! single stream:
//!
//! - The rows form a fixed grid of 65 536-row blocks that depends only on
//!   `n`.
//! - The calling thread runs a skip pass that advances the stream past
//!   every row without computing it. A flights row makes 17 draws when its
//!   delay regime (its 10th draw) is below 0.62 and 16 otherwise, so the
//!   pass needs that one comparison per row and no `ln`/`sqrt`/`cos`.
//! - Start-state handoff: the skip pass publishes each block's start state
//!   as soon as it reaches it. Block 0's start state is the state after the
//!   world is drawn, so it is published before the pass begins.
//! - Worker threads (one per available core besides the calling thread)
//!   take blocks in row order, wait until the block's start state is
//!   published, and fill it into preallocated columns, writing category
//!   indexes and values. The fill thus overlaps the skip pass instead of
//!   waiting for it. After publishing the state past the last row, the
//!   calling thread joins the workers and fills blocks too.
//! - Each filled block keeps the stream state it ended at. After the join,
//!   an `assert!` that is also on in release builds checks every block's
//!   end state against the next block's start state (the last against the
//!   state past the final row). A skip pass that miscounted draws panics
//!   instead of yielding a different table.
//! - The recode pass then assigns first-seen codes, as above.
//!
//! With one worker, or a table of at most one block, the blocks run in
//! order from the live stream and the skip pass is skipped.
//!
//! [`orders::generate`] and [`CopulaScaler::generate`] stay sequential,
//! and no benchmark workload runs either. An orders row's draw count
//! branches on several draws: the quantity and up to two discount-regime
//! draws decide how many discount draws follow. A copula row always makes
//! two draws per attribute, so it would need checkpoints but no skip-pass
//! comparison; it is left sequential until a workload needs it.

pub mod copula;
mod encode;
pub mod flights;
// The golden content hashes, shared with `tests/golden.rs`; the unit tests
// use only part of the module.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/common/mod.rs"]
mod golden;
pub mod matrix;
pub mod normalize;
pub mod orders;
pub mod stats;

pub use copula::CopulaScaler;
pub use flights::{generate, FLIGHTS_TABLE};
pub use normalize::{normalize, normalize_flights};
