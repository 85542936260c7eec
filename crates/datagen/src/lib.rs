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
//! hold category indexes until one pass in row order recodes them through a
//! small index → code table that interns each category once. The crate's
//! golden-content tests pin the resulting payloads and dictionaries bit for
//! bit.
//!
//! # Block-parallel generation
//!
//! [`flights::generate`] fills its rows in parallel without giving up the
//! single stream:
//!
//! - The rows form a fixed grid of 65 536-row blocks that depends only on
//!   `n`.
//! - A sequential skip pass advances the stream past every row without
//!   computing it. A flights row makes 17 draws when its delay regime (its
//!   10th draw) is below 0.62 and 16 otherwise, so the pass needs that one
//!   comparison per row and no `ln`/`sqrt`/`cos`. It records the stream
//!   state at every block start and after the last row.
//! - Workers (one per available core) pull blocks and fill them from their
//!   checkpoints into preallocated columns, writing category indexes and
//!   values.
//! - After each block, an `assert!` that is also on in release builds
//!   checks that the block's stream ended exactly at the next checkpoint.
//!   A skip pass that miscounted draws panics instead of yielding a
//!   different table.
//! - The recode pass then assigns first-seen codes in row order, as above.
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
pub use flights::{generate, generate_seed, FLIGHTS_TABLE};
pub use normalize::{normalize, normalize_flights};
