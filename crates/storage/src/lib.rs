//! Columnar storage substrate for IDEBench.
//!
//! This crate provides the in-memory column store that all IDEBench query
//! engines operate on: typed columns (floats, integers, and
//! dictionary-encoded nominal strings), immutable [`Table`]s with a
//! [`Schema`], star-schema datasets ([`StarSchema`], [`Dataset`]), the
//! row bitmap ([`SelVec`]) that marks a column's non-null rows, and a plain
//! CSV reader/writer used by the data-preparation experiments.
//!
//! Design notes:
//! - Columns are append-only during construction (via [`TableBuilder`]) and
//!   immutable afterwards; engines share tables via `Arc`.
//! - Nominal (categorical) values are dictionary-encoded as dense codes,
//!   which makes group-by and filtering on categories cheap.
//! - Payloads are physical and often narrower than their logical type:
//!   [`encoding`] stores codes and small integers in `u8`/`u16` and exact
//!   decimals as scaled integer codes, losslessly (a 1M-row flights table
//!   takes ≈19 MB instead of ≈84 MB). [`Table::new`] runs the chooser on
//!   every plain column; readers see logical values through the decoding
//!   accessors of [`Column`], and scan kernels match on [`ColumnData`].
//! - Values engines prepare from a dataset (shuffled scan orders,
//!   stratified samples) are kept in its fact table's [`Memo`], so every
//!   engine instance over one dataset builds each of them once.
//! - Nulls are tracked with an optional validity bitmap; fully-valid columns
//!   carry no bitmap at all.

pub mod column;
pub mod csv;
pub mod dictionary;
pub mod encoding;
pub mod error;
pub mod memo;
pub mod schema;
pub mod selection;
pub mod star;
pub mod table;

pub use column::{Column, ColumnData, RunParts};
pub use csv::{read_csv, write_csv};
pub use dictionary::Dictionary;
pub use encoding::{Code, CodeBounds, DecimalCodes, DecodeTable, DictCodes, IntValues, Ints};
pub use error::StorageError;
pub use memo::Memo;
pub use schema::{DataType, Field, Schema};
pub use selection::SelVec;
pub use star::{Dataset, DimensionSpec, JoinCacheStats, StarSchema};
pub use table::{Table, TableBuilder, Value};
