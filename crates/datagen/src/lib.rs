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
//! Rows are written straight into typed column buffers; nominal columns go
//! through a small index → code table that interns each category once. The
//! crate's golden-content tests pin the resulting payloads and dictionaries
//! bit for bit.

pub mod copula;
mod encode;
pub mod flights;
pub mod matrix;
pub mod normalize;
pub mod orders;
pub mod stats;

pub use copula::CopulaScaler;
pub use flights::{generate, generate_seed, FLIGHTS_TABLE};
pub use normalize::{normalize, normalize_flights};
