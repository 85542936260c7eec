//! Owned compiled query plans.
//!
//! [`CompiledPlan`] is the once-per-run compilation product of a
//! [`Query`] against a [`Dataset`]: every referenced column resolved to a
//! `(table, column-index)` handle (following star-schema foreign keys),
//! filter predicates lowered to typed comparisons (IN-lists becoming dense
//! dictionary membership tables), and binning classified by its bin space
//! ([`AccMode`]). Either way the accumulator is one set of flat arrays
//! indexed by bin slot. A bounded space (*dense*) computes slots
//! arithmetically — nominal dimensions are bounded by their dictionary,
//! fixed-width bucketings by the column's cached min/max statistics (`slot
//! = floor((v − anchor)/width) − lo`, clamped into `[0, len)`); in a
//! genuinely unbounded or oversized key space (*sparse*) each new bin key
//! takes the next slot instead.
//!
//! A `CompiledPlan` owns `Arc` handles into the dataset and therefore
//! lives inside a [`crate::ChunkedRun`] for the whole scan: `advance` only
//! *binds* the plan (index-based slice lookups, no name resolution, no
//! hashing) and runs batch kernels over it. [`plan_compilations`] counts
//! compilations so tests can pin the once-per-run property.
//!
//! # Join devirtualization
//!
//! On star schemas, a dimension attribute is logically reached through the
//! fact table's foreign key (`column[fk[row]]`). Compilation eliminates
//! that per-row indirection from the kernels: the plan asks the schema's
//! shared [`idebench_storage::StarSchema::materialize_join`] cache for a
//! fact-ordered copy of the column, and the kernels read it like any
//! de-normalized column — star scans run at de-normalized speed, and the
//! `Arc`-shared memo means every session and query over the dataset reuses
//! one copy. Devirtualization changes *wall-clock* cost only: the
//! benchmark's virtual cost model ([`CompiledPlan::row_cost`],
//! [`CompiledPlan::width_units`]) still charges every logical join.
//!
//! # Narrow columns and shuffled orders
//!
//! Kernels read every column in place, at its stored encoding (see
//! `Access`): plain floats, integers and dictionary codes at their stored
//! width (`u8`/`u16` included), and decimals through their decode table
//! or, when the codes span too many values for one, by division. A narrow
//! numeric column (see [`idebench_storage::encoding`]) is read as codes by
//! every use: a range filter compares a code interval (`CodeRange`), a
//! fixed-width dimension of a densely accumulated plan looks its slot up
//! in a per-code table (`CodeSlots`) — both computed here from the decoded
//! value of every code, so they agree with the decoded kernels bit for bit
//! — and measures and the dimensions of an unbounded bin space decode the
//! codes of the rows they read through the column's cached decode table
//! (ints widen). A nullable
//! column's validity bitmap is read a 64-row word at a time into each
//! morsel's masks, so a null's placeholder never reaches an accumulator. A
//! run over a shuffled order rebinds the plan to the order's permuted
//! column copies ([`crate::Shuffle`]) through the same slot join
//! materializations use, so every plan scans contiguous positions; the
//! cost model is unchanged.

use crate::shuffle::Shuffle;
use idebench_core::{BinDef, CoreError, FilterExpr, Predicate, Query};
use idebench_storage::encoding::{decimal_scale, DecodeTable, MAX_DECODE_TABLE};
use idebench_storage::{
    Column, ColumnData, DataType, Dataset, DecimalCodes, DictCodes, IntValues, Ints, SelVec, Table,
};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on the flat bin space of the dense accumulation path.
/// Binnings whose bounded-bin-space product (dictionary sizes × reachable
/// bucket counts) exceeds this are accumulated as an unbounded space
/// ([`AccMode::Sparse`]).
pub const DENSE_BIN_CAP: usize = 1 << 13;

static PLAN_COMPILATIONS: AtomicU64 = AtomicU64::new(0);

/// Number of [`CompiledPlan`] compilations since process start.
///
/// Construction-count tests assert that stepping a [`crate::ChunkedRun`]
/// compiles its plan exactly once, no matter how the budget is sliced.
pub fn plan_compilations() -> u64 {
    PLAN_COMPILATIONS.load(Ordering::Relaxed)
}

/// How morsel kernels read a planned column. Either way they read it in
/// place by scan position, and AND its validity bitmap, if it has one, into
/// their masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Values read at their stored width: plain floats, integers and
    /// dictionary codes widened, and decimals too wide for a decode table
    /// decoded by division.
    Direct,
    /// Read as codes: a narrow numeric column that a [`CodeSpan`] covers.
    /// A range compares codes ([`CodeRange`]), a dense fixed-width
    /// dimension looks its slots up by code ([`CodeSlots`]), and every
    /// other use decodes the codes of the rows it reads — through the
    /// column's cached decode table for a decimal, by widening for an int.
    Codes,
}

/// A query column resolved to owned storage handles.
///
/// `table` holds the column payload; a star-schema dimension attribute is
/// `joined`: fact rows logically reach it through the fact table's foreign
/// key (`column[fk[row]]` — the indirection *is* the join). `materialized`
/// carries the column the kernels read in its place: the fact-ordered copy
/// of a joined column from the shared join cache, or — for a plan bound to
/// a [`Shuffle`] — the permuted copy of the fact-length column (position
/// `i` holding row `order[i]`). `access` says how kernels read it (see
/// `Access`). The *cost model* always follows the logical column: a
/// devirtualized join still bills as a join, and a permuted copy still
/// bills shuffled access.
#[derive(Debug, Clone)]
pub struct PlannedColumn {
    table: Arc<Table>,
    col: usize,
    joined: bool,
    materialized: Option<Arc<Column>>,
    access: Access,
}

impl PlannedColumn {
    /// Resolves `name` against the dataset.
    ///
    /// Only [`CompiledPlan::compile`] decides how kernels read the column
    /// (in place or materialized, as values or as codes); a standalone
    /// resolution serves metadata lookups such as [`Self::column`].
    pub fn resolve(dataset: &Dataset, name: &str) -> Result<Self, CoreError> {
        let make = |table: &Arc<Table>, joined: bool| -> Result<Self, CoreError> {
            Ok(PlannedColumn {
                table: Arc::clone(table),
                col: table.schema().index_of(name)?,
                joined,
                materialized: None,
                access: Access::Direct,
            })
        };
        match dataset {
            Dataset::Denormalized(t) => make(t, false),
            Dataset::Star(s) => {
                if s.fact().schema().index_of(name).is_ok() {
                    return make(s.fact(), false);
                }
                // The schema validated the foreign key when it was built.
                let (_, dim) = s.dimension_of_column(name).ok_or_else(|| {
                    CoreError::Storage(format!("unknown column {name} in star schema"))
                })?;
                make(dim, true)
            }
        }
    }

    /// The underlying (logical) column — for dimension attributes, the
    /// column in the dimension table, independent of materialization.
    pub fn column(&self) -> &Column {
        self.table.column_at(self.col)
    }

    /// The column the kernels physically read: the permuted copy or the
    /// fact-ordered join materialization when there is one, the logical
    /// column otherwise.
    pub(crate) fn payload(&self) -> &Column {
        self.materialized
            .as_deref()
            .unwrap_or_else(|| self.column())
    }

    /// The column's name in its home table.
    fn name(&self) -> &str {
        &self.table.schema().fields()[self.col].name
    }

    /// Whether the column is reached through a foreign key (join access).
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Scan width in 4-byte units (dictionary codes 1 unit, ints/floats 2,
    /// plus 2.5 for join access) — an input to the engines' cost models.
    pub fn width_units(&self) -> f64 {
        // Logical widths: the cost model does not see narrow encodings.
        let own = match self.column().dtype() {
            DataType::Nominal => 1.0,
            _ => 2.0,
        };
        if self.joined {
            own + 2.0 + 0.5
        } else {
            own
        }
    }

    /// The column read as numbers (see [`ColView`]).
    #[inline]
    pub(crate) fn view(&self) -> ColView<'_> {
        self.view_as(|col| match col.data() {
            ColumnData::Float(d) => Vals::F64(d),
            ColumnData::Int(c) => Vals::Int(c),
            ColumnData::Nominal(c, _) => Vals::Dict(c),
            ColumnData::Decimal(c, exp) => match col.decode_table() {
                Some(t) => Vals::Decimal(c, t),
                None => Vals::WideDecimal(c, decimal_scale(*exp)),
            },
        })
    }

    /// The dictionary codes of a column a nominal use reads.
    #[inline]
    pub(crate) fn dict_view(&self) -> ColView<'_, &DictCodes> {
        self.view_as(|col| match col.data() {
            ColumnData::Nominal(c, _) => c,
            _ => unreachable!("nominal uses are compiled over dictionary columns only"),
        })
    }

    /// The codes of a column read in code space ([`Access::Codes`]).
    #[inline]
    pub(crate) fn code_view(&self) -> ColView<'_, CodeVals<'_>> {
        self.view_as(|col| match col.data() {
            ColumnData::Int(Ints::Narrow(v)) => CodeVals::U8(v),
            ColumnData::Int(Ints::Mid(v)) => CodeVals::U16(v),
            ColumnData::Decimal(c, _) => CodeVals::Decimal(c),
            _ => unreachable!("code-space columns are narrow ints or decimals"),
        })
    }

    #[inline]
    fn view_as<'a, V>(&'a self, vals: impl FnOnce(&'a Column) -> V) -> ColView<'a, V> {
        let payload = self.payload();
        ColView {
            vals: vals(payload),
            validity: payload.validity(),
        }
    }
}

/// A payload's values as the morsel kernels read them as numbers, by scan
/// position (as `Column::numeric_at` does).
#[derive(Clone, Copy)]
pub(crate) enum Vals<'a> {
    /// Plain floats.
    F64(&'a [f64]),
    /// Integers at their stored width, read widened.
    Int(&'a IntValues),
    /// Dictionary codes at their stored width, each read as its own value.
    Dict(&'a DictCodes),
    /// Decimal codes, read through the column's cached decode table.
    Decimal(&'a DecimalCodes, &'a DecodeTable),
    /// Decimal codes spanning too many values for a decode table, decoded
    /// by division by the scale.
    WideDecimal(&'a DecimalCodes, f64),
}

/// The codes of a column read in code space, at their stored width. An
/// int column is read in code space only at a narrow width
/// (`CodeSpan::covers`), so its `i64` width has no arm.
#[derive(Clone, Copy)]
pub(crate) enum CodeVals<'a> {
    /// `u8` integers, whose codes are their values.
    U8(&'a [u8]),
    /// `u16` integers, whose codes are their values.
    U16(&'a [u16]),
    /// Decimal codes.
    Decimal(&'a DecimalCodes),
}

/// A column as the morsel kernels consume it: its payload in place, typed
/// by use (`V`: [`Vals`] for numbers, `&DictCodes` for nominal uses,
/// [`CodeVals`] in code space), and its validity bitmap when it has nulls
/// (null rows hold placeholders).
#[derive(Clone, Copy)]
pub(crate) struct ColView<'a, V = Vals<'a>> {
    pub vals: V,
    pub validity: Option<&'a SelVec>,
}

/// A filter tree lowered to planned columns and dense membership tables.
#[derive(Debug, Clone)]
pub(crate) enum PlannedFilter {
    /// Half-open quantitative range; `codes` is its code-space lowering
    /// when the column is read as codes.
    Range {
        col: PlannedColumn,
        min: f64,
        max: f64,
        codes: Option<CodeRange>,
    },
    /// Nominal membership, as a dictionary-length lookup table: IN-list
    /// hashing is paid once at compile time, never per row.
    In {
        col: PlannedColumn,
        member: Vec<bool>,
    },
    And(Vec<PlannedFilter>),
    Or(Vec<PlannedFilter>),
}

impl PlannedFilter {
    fn compile(dataset: &Dataset, expr: &FilterExpr) -> Result<Self, CoreError> {
        Ok(match expr {
            FilterExpr::Pred(Predicate::Range { column, min, max }) => PlannedFilter::Range {
                col: PlannedColumn::resolve(dataset, column)?,
                min: *min,
                max: *max,
                codes: None,
            },
            FilterExpr::Pred(Predicate::In { column, values }) => {
                let col = PlannedColumn::resolve(dataset, column)?;
                let member = match col.column().dictionary() {
                    Some(dict) => {
                        let mut member = vec![false; dict.len()];
                        for v in values {
                            // Categories absent from the dictionary never
                            // match (the filter referenced a value not in
                            // the data).
                            if let Some(code) = dict.code(v) {
                                member[code as usize] = true;
                            }
                        }
                        member
                    }
                    None => {
                        return Err(CoreError::Storage(format!(
                            "IN filter on non-nominal column {column}"
                        )))
                    }
                };
                PlannedFilter::In { col, member }
            }
            FilterExpr::And(children) => PlannedFilter::And(
                children
                    .iter()
                    .map(|c| Self::compile(dataset, c))
                    .collect::<Result<_, _>>()?,
            ),
            FilterExpr::Or(children) => PlannedFilter::Or(
                children
                    .iter()
                    .map(|c| Self::compile(dataset, c))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// Builds the code-space lowering of every range read as codes.
    fn lower_ranges(&mut self) {
        match self {
            PlannedFilter::Range {
                col,
                min,
                max,
                codes,
            } => {
                if col.access == Access::Codes {
                    let span = CodeSpan::of(col.payload()).expect("code-space column");
                    *codes = Some(CodeRange::new(&span, *min, *max));
                }
            }
            PlannedFilter::In { .. } => {}
            PlannedFilter::And(children) | PlannedFilter::Or(children) => {
                children.iter_mut().for_each(PlannedFilter::lower_ranges)
            }
        }
    }

    fn for_each_col_mut(&mut self, f: &mut impl FnMut(&mut PlannedColumn)) {
        match self {
            PlannedFilter::Range { col, .. } | PlannedFilter::In { col, .. } => f(col),
            PlannedFilter::And(children) | PlannedFilter::Or(children) => {
                for c in children {
                    c.for_each_col_mut(f);
                }
            }
        }
    }

    /// Appends the filter's columns to `out`, in tree order.
    fn columns<'p>(&'p self, out: &mut Vec<&'p PlannedColumn>) {
        match self {
            PlannedFilter::Range { col, .. } | PlannedFilter::In { col, .. } => out.push(col),
            PlannedFilter::And(children) | PlannedFilter::Or(children) => {
                children.iter().for_each(|c| c.columns(out))
            }
        }
    }
}

/// Every column use of a plan: its dimensions', its filter's, then its
/// measures'.
fn planned_columns<'p>(
    dims: &'p [PlannedDim],
    filter: Option<&'p PlannedFilter>,
    measures: &'p [Option<PlannedColumn>],
) -> Vec<&'p PlannedColumn> {
    let mut cols: Vec<&PlannedColumn> = dims.iter().map(PlannedDim::col).collect();
    if let Some(f) = filter {
        f.columns(&mut cols);
    }
    cols.extend(measures.iter().flatten());
    cols
}

/// Dense lowering of a fixed-width bucketing: column min/max statistics
/// bound the reachable bucket indices to `[lo, lo + len)`, so the bucket
/// becomes an arithmetic array slot (`slot = bucket − lo`, clamped into the
/// bounded space) instead of a hash key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DenseWidth {
    /// Bucket index of the column minimum (the slot-space origin).
    pub lo: i64,
    /// Number of reachable buckets (`hi − lo + 1`), `≤ DENSE_BIN_CAP`.
    pub len: usize,
}

impl DenseWidth {
    /// The dense slot of value `v` under bucket width `width` and anchor
    /// `anchor`: `floor((v − anchor)/width) − lo`, clamped into the bounded
    /// space (a no-op when stats are exact; it only guards slot-array
    /// bounds). The floor is computed as truncate-and-adjust — identical to
    /// `f64::floor` for every in-bounds value but free of the libm call
    /// baseline x86-64 lowers `floor()` to, which would otherwise dominate
    /// the slotting loop. `lo` round-trips through f64 exactly, so the slot
    /// decodes to the same bucket index an unbounded space's key holds, bit
    /// for bit.
    #[inline(always)]
    pub(crate) fn slot_of(
        lo: i64,
        len: u32,
        width: f64,
        anchor: f64,
    ) -> impl Fn(f64) -> u32 + Copy {
        let lo_f = lo as f64;
        let top = (len - 1) as f64;
        move |v: f64| -> u32 {
            let q = (v - anchor) / width;
            let t = q as i64 as f64; // trunc(q), exact in-bounds
            let fl = if t > q { t - 1.0 } else { t };
            (fl - lo_f).clamp(0.0, top) as u32
        }
    }
}

/// The codes a narrow numeric column holds, each with the value it decodes
/// to — what code-space kernels are built from. A null's placeholder code
/// can lie outside the span; kernels only read it under the validity mask.
pub(crate) struct CodeSpan<'a> {
    /// The smallest code (other than a decimal's `-0.0` code).
    lo: i64,
    /// `values[i]` is the decoded value of code `lo + i`, increasing.
    values: std::borrow::Cow<'a, [f64]>,
    /// Whether the payload is decimal, whose reserved code decodes `-0.0`.
    decimal: bool,
}

impl<'a> CodeSpan<'a> {
    /// The span of `col`'s payload: a decimal with a decode table, or
    /// `u8`/`u16` integers whose valid values span at most
    /// [`idebench_storage::encoding::MAX_DECODE_TABLE`] values. Other
    /// payloads have none.
    pub(crate) fn of(col: &'a Column) -> Option<Self> {
        if !Self::covers(col) {
            return None;
        }
        Some(match col.data() {
            ColumnData::Decimal(..) => {
                let t = col.decode_table()?;
                CodeSpan {
                    lo: t.lo(),
                    values: std::borrow::Cow::Borrowed(t.values()),
                    decimal: true,
                }
            }
            _ => {
                let (min, max) = col.numeric_min_max()?;
                let (lo, hi) = (min as i64, max as i64);
                CodeSpan {
                    lo,
                    values: (lo..=hi).map(|k| k as f64).collect(),
                    decimal: false,
                }
            }
        })
    }

    /// Whether `col` has a span, without building its values.
    fn covers(col: &Column) -> bool {
        match col.data() {
            ColumnData::Decimal(..) => col.decode_table().is_some(),
            ColumnData::Int(Ints::Narrow(_) | Ints::Mid(_)) => col
                .numeric_min_max()
                .is_some_and(|(min, max)| max - min < MAX_DECODE_TABLE as f64),
            _ => false,
        }
    }
}

/// A range predicate in code space: decoding is increasing in the code, so
/// `min ≤ v < max` holds exactly for the codes in `lo..=hi` (none when
/// `hi < lo`) — and for a decimal's `-0.0` code when `neg_zero` says
/// `-0.0` passes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodeRange {
    pub lo: i64,
    pub hi: i64,
    pub neg_zero: bool,
}

impl CodeRange {
    fn new(span: &CodeSpan<'_>, min: f64, max: f64) -> Self {
        // The same comparisons the decoded kernel makes, on every value.
        let at_least_min = |v: f64| v >= min;
        let first = span.values.partition_point(|&v| !at_least_min(v));
        let end = span.values.partition_point(|&v| v < max).max(first);
        CodeRange {
            lo: span.lo + first as i64,
            hi: span.lo + end as i64 - 1,
            neg_zero: span.decimal && (-0.0 >= min && -0.0 < max),
        }
    }
}

/// A dense fixed-width dimension in code space: the slot of every code
/// (and of a decimal's `-0.0` code), computed once with
/// [`DenseWidth::slot_of`] on the decoded values.
#[derive(Debug)]
pub(crate) struct CodeSlots {
    pub lo: i64,
    pub slots: Vec<u32>,
    pub neg_zero: u32,
}

impl CodeSlots {
    fn new(span: &CodeSpan<'_>, slot_of: impl Fn(f64) -> u32) -> Self {
        CodeSlots {
            lo: span.lo,
            slots: span.values.iter().map(|&v| slot_of(v)).collect(),
            neg_zero: slot_of(-0.0),
        }
    }
}

/// One planned binning dimension.
#[derive(Debug, Clone)]
pub(crate) enum PlannedDim {
    /// Nominal: bin = dictionary code; `dict_len` bounds the bin space.
    Nominal { col: PlannedColumn, dict_len: usize },
    /// Fixed-width bucketing: bin = `floor((x - anchor) / width)`. `dense`
    /// is the arithmetic slot lowering when column statistics bound the
    /// bucket space; `None` leaves the dimension unbounded.
    /// `codes` is the code-space slot table when the plan accumulates
    /// densely and reads the column as codes.
    Width {
        col: PlannedColumn,
        width: f64,
        anchor: f64,
        dense: Option<DenseWidth>,
        codes: Option<Arc<CodeSlots>>,
    },
}

impl PlannedDim {
    fn col(&self) -> &PlannedColumn {
        match self {
            PlannedDim::Nominal { col, .. } | PlannedDim::Width { col, .. } => col,
        }
    }

    fn col_mut(&mut self) -> &mut PlannedColumn {
        match self {
            PlannedDim::Nominal { col, .. } | PlannedDim::Width { col, .. } => col,
        }
    }

    /// Size of the dimension's bounded bin space, when it has one.
    fn dense_len(&self) -> Option<usize> {
        match self {
            PlannedDim::Nominal { dict_len, .. } => Some((*dict_len).max(1)),
            PlannedDim::Width { dense, .. } => dense.map(|d| d.len),
        }
    }
}

/// Where the accumulator's bin slots come from. Either way counts and
/// measures live in flat arrays indexed by slot and run the same kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccMode {
    /// A bounded bin space of the given size: slots are arithmetic (slot =
    /// `c0 + c1 * len0`) and the arrays are preallocated.
    Dense(usize),
    /// An unbounded (bucketed) bin space: each new bin key takes the next
    /// slot, in first-touch order, and the arrays grow.
    Sparse,
}

/// An owned, reusable compiled query plan (see module docs).
pub struct CompiledPlan {
    dataset: Dataset,
    query: Query,
    pub(crate) filter: Option<PlannedFilter>,
    pub(crate) dims: Vec<PlannedDim>,
    pub(crate) measures: Vec<Option<PlannedColumn>>,
    acc_mode: AccMode,
    num_rows: usize,
    joined_columns: usize,
    width_units: f64,
    fact_arity: usize,
}

impl CompiledPlan {
    /// Compiles `query` against `dataset`. The dataset handle is cheap to
    /// clone (`Arc`s all the way down) and is retained inside the plan.
    pub fn compile(dataset: &Dataset, query: &Query) -> Result<Self, CoreError> {
        PLAN_COMPILATIONS.fetch_add(1, Ordering::Relaxed);
        let mut filter = query
            .filter()
            .map(|f| PlannedFilter::compile(dataset, f))
            .transpose()?;
        let mut dims = query
            .binning()
            .iter()
            .map(|def| Self::compile_dim(dataset, def))
            .collect::<Result<Vec<_>, _>>()?;
        if !(1..=2).contains(&dims.len()) {
            return Err(CoreError::Storage(format!(
                "unsupported binning arity {}",
                dims.len()
            )));
        }
        let mut measures = query
            .aggregates()
            .iter()
            .map(|a| {
                a.dimension
                    .as_deref()
                    .map(|d| PlannedColumn::resolve(dataset, d))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;

        let acc_mode = Self::pick_acc_mode(&dims);
        Self::plan_access(dataset, &mut filter, &mut dims, &mut measures, acc_mode);
        let cols = planned_columns(&dims, filter.as_ref(), &measures);
        let joined_columns = cols.iter().filter(|c| c.is_joined()).count();
        let width_units = cols.iter().map(|c| c.width_units()).sum();
        let fact_arity = match dataset {
            Dataset::Denormalized(t) => t.num_columns(),
            Dataset::Star(s) => s.fact().num_columns(),
        };
        Ok(CompiledPlan {
            num_rows: dataset.fact_rows(),
            dataset: dataset.clone(),
            query: query.clone(),
            filter,
            dims,
            measures,
            acc_mode,
            joined_columns,
            width_units,
            fact_arity,
        })
    }

    /// Assigns every planned column its payload and kernel [`Access`],
    /// once per physical column: a joined column reads its fact-ordered
    /// materialization from the schema's shared join cache. A narrow
    /// numeric column is read as codes ([`Access::Codes`]): the code-space
    /// tables of its ranges, and of its fixed-width dimensions when the
    /// plan accumulates densely, are built here.
    fn plan_access(
        dataset: &Dataset,
        filter: &mut Option<PlannedFilter>,
        dims: &mut [PlannedDim],
        measures: &mut [Option<PlannedColumn>],
        acc_mode: AccMode,
    ) {
        // Per physical column: its materialization, if any, and access.
        type AccessMemo = FxHashMap<(usize, usize), (Option<Arc<Column>>, Access)>;
        let mut memo = AccessMemo::default();
        let mut assign = |col: &mut PlannedColumn| {
            let key = (Arc::as_ptr(&col.table) as usize, col.col);
            let (materialized, access) = memo.entry(key).or_insert_with(|| {
                let materialized = col.joined.then(|| {
                    dataset
                        .as_star()
                        .and_then(|s| s.materialize_join(col.name()))
                        .expect("a joined column is a dimension attribute of a star schema")
                });
                let payload = materialized.as_deref().unwrap_or_else(|| col.column());
                let access = if CodeSpan::covers(payload) {
                    Access::Codes
                } else {
                    Access::Direct
                };
                (materialized, access)
            });
            col.materialized = materialized.clone();
            col.access = *access;
        };

        let dense = matches!(acc_mode, AccMode::Dense(_));
        for dim in dims.iter_mut() {
            assign(dim.col_mut());
            if let PlannedDim::Width {
                col,
                width,
                anchor,
                dense: Some(d),
                codes,
            } = dim
            {
                if dense && col.access == Access::Codes {
                    let span = CodeSpan::of(col.payload()).expect("code-space column");
                    let slot_of = DenseWidth::slot_of(d.lo, d.len as u32, *width, *anchor);
                    *codes = Some(Arc::new(CodeSlots::new(&span, slot_of)));
                }
            }
        }
        if let Some(f) = filter {
            f.for_each_col_mut(&mut assign);
            f.lower_ranges();
        }
        for m in measures.iter_mut().flatten() {
            assign(m);
        }
    }

    fn compile_dim(dataset: &Dataset, def: &BinDef) -> Result<PlannedDim, CoreError> {
        Ok(match def {
            BinDef::Nominal { dimension } => {
                let col = PlannedColumn::resolve(dataset, dimension)?;
                let dict_len = match col.column().dictionary() {
                    Some(dict) => dict.len(),
                    None => {
                        return Err(CoreError::Storage(format!(
                            "nominal binning on non-nominal column {dimension}"
                        )))
                    }
                };
                PlannedDim::Nominal { col, dict_len }
            }
            BinDef::Width {
                dimension,
                width,
                anchor,
            } => {
                if !(width.is_finite() && *width > 0.0) {
                    return Err(CoreError::Storage(format!(
                        "non-positive bin width {width} on {dimension}"
                    )));
                }
                let col = PlannedColumn::resolve(dataset, dimension)?;
                let dense = Self::dense_width(&col, *width, *anchor);
                PlannedDim::Width {
                    col,
                    width: *width,
                    anchor: *anchor,
                    dense,
                    codes: None,
                }
            }
            BinDef::Count { dimension, .. } => {
                return Err(CoreError::Storage(format!(
                    "unresolved count binning on {dimension} (driver resolves these)"
                )))
            }
        })
    }

    /// Lowers a fixed-width bucketing to dense arithmetic slots when the
    /// column's min/max statistics bound its reachable buckets to at most
    /// [`DENSE_BIN_CAP`]. Columns without usable stats (empty, all-null, or
    /// non-finite values) stay unbounded.
    fn dense_width(col: &PlannedColumn, width: f64, anchor: f64) -> Option<DenseWidth> {
        let (min, max) = col.column().numeric_min_max()?;
        let lo = ((min - anchor) / width).floor();
        let hi = ((max - anchor) / width).floor();
        if !(lo.is_finite() && hi.is_finite()) {
            return None;
        }
        // Reject oversized spans in f64 *before* any integer cast: the
        // bucket indices themselves can exceed every integer range for
        // pathological value/width combinations. `hi - lo` is exact for
        // spans under the cap (both are integer-valued and close).
        let span = hi - lo;
        if !(0.0..DENSE_BIN_CAP as f64).contains(&span) {
            return None;
        }
        // The slot kernel and bucket decode need `lo` to round-trip
        // through i64 exactly; outside that range stay unbounded.
        if lo < i64::MIN as f64 || hi >= i64::MAX as f64 {
            return None;
        }
        Some(DenseWidth {
            lo: lo as i64,
            len: span as usize + 1,
        })
    }

    /// Dense accumulation applies when every dimension has a bounded bin
    /// space — a nominal dictionary, or a bucketed dimension whose column
    /// statistics bound its reachable buckets — and the product of those
    /// spaces stays under [`DENSE_BIN_CAP`]. Anything else (unbounded or
    /// statistics-less buckets, oversized products) is accumulated as an
    /// unbounded space.
    fn pick_acc_mode(dims: &[PlannedDim]) -> AccMode {
        let mut space = 1usize;
        for dim in dims {
            let Some(len) = dim.dense_len() else {
                return AccMode::Sparse;
            };
            space = match space.checked_mul(len) {
                Some(s) if s <= DENSE_BIN_CAP => s,
                _ => return AccMode::Sparse,
            };
        }
        AccMode::Dense(space)
    }

    /// Rebinds the plan to `shuffle`'s permuted copies: every column the
    /// kernels read (fact columns and join materializations) is replaced by
    /// its copy in `shuffle`'s order, so scan position `i` reads row
    /// `order[i]` through a natural-order morsel. Accesses and the cost
    /// model are unchanged.
    pub(crate) fn permute(&mut self, shuffle: &Shuffle) {
        assert_eq!(
            shuffle.order().len(),
            self.num_rows,
            "visit order has {} positions, but the table has {} rows",
            shuffle.order().len(),
            self.num_rows
        );
        let mut bind = |col: &mut PlannedColumn| {
            col.materialized = Some(shuffle.copy_of(col.payload()));
        };
        for dim in &mut self.dims {
            bind(dim.col_mut());
        }
        if let Some(f) = &mut self.filter {
            f.for_each_col_mut(&mut bind);
        }
        for m in self.measures.iter_mut().flatten() {
            bind(m);
        }
    }

    /// Physical bytes the kernels read per scanned row: the element width
    /// of every distinct column they read (payloads as encoded, permuted
    /// copies and join materializations included), plus 1/8 byte per
    /// validity bitmap. Benchmarks divide throughput by this to report
    /// achieved bandwidth.
    pub fn bytes_per_row(&self) -> f64 {
        let mut seen: Vec<*const ColumnData> = Vec::new();
        let mut total = 0.0;
        for col in planned_columns(&self.dims, self.filter.as_ref(), &self.measures) {
            let c = col.payload();
            if !seen.contains(&(c.data() as *const _)) {
                seen.push(c.data());
                let validity = if c.validity().is_some() { 0.125 } else { 0.0 };
                total += c.data().row_width() as f64 + validity;
            }
        }
        total
    }

    /// The dataset this plan scans.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The query this plan executes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Number of fact rows to scan.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Accumulation mode selected for the binning.
    pub fn acc_mode(&self) -> AccMode {
        self.acc_mode
    }

    /// How many referenced columns are join-accessed (cost-model input).
    pub fn joined_columns(&self) -> usize {
        self.joined_columns
    }

    /// Total scan width of the referenced columns in 4-byte units.
    pub fn width_units(&self) -> f64 {
        self.width_units
    }

    /// Number of columns of the fact (or single) table.
    pub fn fact_arity(&self) -> usize {
        self.fact_arity
    }

    /// Per-row work-unit cost: 1 for the scan plus 1 per join-accessed
    /// column (the price of the FK indirection / hash probe).
    pub fn row_cost(&self) -> u64 {
        1 + self.joined_columns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_bits::bits;
    use idebench_core::spec::{AggFunc, AggregateSpec, BinDef};
    use idebench_core::VizSpec;
    use idebench_storage::{DataType, DimensionSpec, StarSchema, TableBuilder, Value};

    fn denorm() -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        b.push_row(&["AA".into(), 5.0.into()]).unwrap();
        b.push_row(&["DL".into(), 15.0.into()]).unwrap();
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn star() -> Dataset {
        let mut f = TableBuilder::with_fields(
            "flights",
            &[
                ("dep_delay", DataType::Float),
                ("carrier_key", DataType::Int),
            ],
        );
        f.push_row(&[5.0.into(), 1i64.into()]).unwrap();
        f.push_row(&[15.0.into(), 0i64.into()]).unwrap();
        let mut d = TableBuilder::with_fields("carriers", &[("carrier", DataType::Nominal)]);
        d.push_row(&[Value::Str("AA".into())]).unwrap();
        d.push_row(&[Value::Str("DL".into())]).unwrap();
        Dataset::Star(Arc::new(
            StarSchema::new(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new("carriers", "carrier_key", vec!["carrier".into()]),
                    Arc::new(d.finish()),
                )],
            )
            .unwrap(),
        ))
    }

    fn nominal_query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn direct_and_joined_column_access() {
        let c = PlannedColumn::resolve(&denorm(), "dep_delay").unwrap();
        assert!(!c.is_joined());
        assert_eq!(c.column().numeric_at(1), Some(15.0));

        // A dimension attribute resolves to the dimension table's column,
        // reached through the fact table's foreign key.
        let j = PlannedColumn::resolve(&star(), "carrier").unwrap();
        assert!(j.is_joined());
        assert_eq!(j.column().len(), 2);
        let (codes, dict) = j.column().as_nominal().unwrap();
        assert_eq!(dict.value(codes[1]), Some("DL"));
    }

    #[test]
    fn unknown_column_errors() {
        assert!(PlannedColumn::resolve(&star(), "ghost").is_err());
        assert!(PlannedColumn::resolve(&denorm(), "ghost").is_err());
    }

    #[test]
    fn plan_costs_joins_and_width() {
        let plan = CompiledPlan::compile(&star(), &nominal_query()).unwrap();
        assert_eq!(plan.joined_columns(), 1);
        assert_eq!(plan.row_cost(), 2);
        assert_eq!(plan.num_rows(), 2);
        // carrier joined (1 + 2.5) + dep_delay (2).
        assert!((plan.width_units() - 5.5).abs() < 1e-12);

        let flat = CompiledPlan::compile(&denorm(), &nominal_query()).unwrap();
        assert_eq!(flat.row_cost(), 1);
        assert!((flat.width_units() - 3.0).abs() < 1e-12);
    }

    fn width_query(width: f64) -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width,
                anchor: 0.0,
            }],
            vec![AggregateSpec::count()],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn nominal_binning_is_dense() {
        let plan = CompiledPlan::compile(&denorm(), &nominal_query()).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Dense(2));
    }

    #[test]
    fn bounded_buckets_are_dense_unbounded_sparse() {
        // dep_delay spans [5, 15]: width 10 reaches buckets {0, 1} → dense.
        let plan = CompiledPlan::compile(&denorm(), &width_query(10.0)).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Dense(2));

        // A width so fine the reachable bucket count blows past the cap
        // is an unbounded space.
        let plan = CompiledPlan::compile(&denorm(), &width_query(1e-4)).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Sparse);
    }

    #[test]
    fn extreme_value_ranges_stay_sparse_without_overflow() {
        // Finite but astronomically spread values: bucket indices exceed
        // every integer range. Planning must fall back to an unbounded space
        // instead of panicking on an integer-cast overflow.
        let mut b = TableBuilder::with_fields("flights", &[("x", DataType::Float)]);
        b.push_row(&[(-1e40).into()]).unwrap();
        b.push_row(&[1e40.into()]).unwrap();
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "x".into(),
                width: 1.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::count()],
        );
        let plan = CompiledPlan::compile(&ds, &Query::for_viz(&spec, None)).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Sparse);
    }

    #[test]
    fn dense_width_origin_offsets_negative_buckets() {
        // Values in [5, 15] with width 2 → buckets 2..=7, origin lo = 2.
        let q = width_query(2.0);
        let plan = CompiledPlan::compile(&denorm(), &q).unwrap();
        assert_eq!(plan.acc_mode(), AccMode::Dense(6));
        match &plan.dims[0] {
            PlannedDim::Width { dense, .. } => {
                assert_eq!(*dense, Some(DenseWidth { lo: 2, len: 6 }));
            }
            other => panic!("expected width dim, got {other:?}"),
        }
    }

    #[test]
    fn two_d_mixed_nominal_bucket_is_dense() {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![
                BinDef::Nominal {
                    dimension: "carrier".into(),
                },
                BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 10.0,
                    anchor: 0.0,
                },
            ],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(&spec, None);
        let plan = CompiledPlan::compile(&denorm(), &q).unwrap();
        // 2 carriers × 2 reachable buckets.
        assert_eq!(plan.acc_mode(), AccMode::Dense(4));
    }

    #[test]
    fn in_filter_compiles_to_membership_table() {
        let q = Query::for_viz(
            &VizSpec::new(
                "v",
                "flights",
                vec![BinDef::Nominal {
                    dimension: "carrier".into(),
                }],
                vec![AggregateSpec::count()],
            ),
            Some(FilterExpr::Pred(Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into(), "ZZ".into()],
            })),
        );
        let plan = CompiledPlan::compile(&denorm(), &q).unwrap();
        match plan.filter.as_ref().unwrap() {
            PlannedFilter::In { member, .. } => {
                assert_eq!(member, &[true, false]); // AA yes, DL no, ZZ absent
            }
            other => panic!("expected In, got {other:?}"),
        }
    }

    #[test]
    fn invalid_definitions_rejected() {
        let bad_nominal = Query::for_viz(
            &VizSpec::new(
                "v",
                "flights",
                vec![BinDef::Nominal {
                    dimension: "dep_delay".into(),
                }],
                vec![AggregateSpec::count()],
            ),
            None,
        );
        assert!(CompiledPlan::compile(&denorm(), &bad_nominal).is_err());

        let bad_width = Query::for_viz(
            &VizSpec::new(
                "v",
                "flights",
                vec![BinDef::Width {
                    dimension: "dep_delay".into(),
                    width: 0.0,
                    anchor: 0.0,
                }],
                vec![AggregateSpec::count()],
            ),
            None,
        );
        assert!(CompiledPlan::compile(&denorm(), &bad_width).is_err());
    }

    #[test]
    fn star_joins_devirtualize_through_the_shared_cache() {
        let ds = star();
        let plan = CompiledPlan::compile(&ds, &nominal_query()).unwrap();
        let col = plan.dims[0].col();
        // The materialization keeps the dimension's one-byte codes, which
        // the kernels read in place; the (narrow) measure reads its codes.
        assert_eq!(col.access, Access::Direct);
        let mat = col.materialized.as_ref().expect("materialized column");
        assert_eq!(&*mat.as_nominal().unwrap().0, &[1, 0], "fact-ordered codes");
        assert!(matches!(
            mat.data(),
            ColumnData::Nominal(Ints::Narrow(_), _)
        ));
        assert_eq!(plan.measures[0].as_ref().unwrap().access, Access::Codes);
        // The cost model still bills the logical join.
        assert_eq!(plan.joined_columns(), 1);
        assert_eq!(plan.row_cost(), 2);

        // A second plan over the same dataset shares the materialization.
        let again = CompiledPlan::compile(&ds, &nominal_query()).unwrap();
        let stats = ds.as_star().unwrap().join_cache_stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.hits >= 1, "second compile hits the memo");
        assert!(Arc::ptr_eq(
            mat,
            again.dims[0].col().materialized.as_ref().unwrap()
        ));
    }

    #[test]
    fn dim_and_measure_share_one_materialization() {
        // dep_delay appears as a (joined) dim *and* a measure: one
        // materialization, one cache lookup.
        let mut f = TableBuilder::with_fields("facts", &[("k", DataType::Int)]);
        f.push_row(&[0i64.into()]).unwrap();
        f.push_row(&[1i64.into()]).unwrap();
        let mut d = TableBuilder::with_fields("dims", &[("dep_delay", DataType::Float)]);
        d.push_row(&[5.0.into()]).unwrap();
        d.push_row(&[15.0.into()]).unwrap();
        let ds = Dataset::Star(Arc::new(
            StarSchema::new(
                Arc::new(f.finish()),
                vec![(
                    DimensionSpec::new("dims", "k", vec!["dep_delay".into()]),
                    Arc::new(d.finish()),
                )],
            )
            .unwrap(),
        ));
        let spec = VizSpec::new(
            "v",
            "facts",
            vec![BinDef::Width {
                dimension: "dep_delay".into(),
                width: 10.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        );
        let plan = CompiledPlan::compile(&ds, &Query::for_viz(&spec, None)).unwrap();
        let (dim, measure) = (plan.dims[0].col(), plan.measures[0].as_ref().unwrap());
        assert!(Arc::ptr_eq(
            dim.materialized.as_ref().unwrap(),
            measure.materialized.as_ref().unwrap()
        ));
        assert_eq!(dim.access, measure.access);
        let stats = ds.as_star().unwrap().join_cache_stats();
        assert_eq!((stats.entries, stats.misses, stats.hits), (1, 1, 0));
    }

    /// A decimal column holding both zeros, and an int column.
    fn narrow_numeric() -> Dataset {
        let mut b =
            TableBuilder::with_fields("flights", &[("d", DataType::Float), ("m", DataType::Int)]);
        for (i, d) in [-0.0, 0.0, -0.5, 0.5, 1.0, -0.0, 2.5, -1.5]
            .iter()
            .enumerate()
        {
            b.push_row(&[(*d).into(), (i as i64 % 4).into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    #[test]
    fn narrow_ranges_and_dense_widths_run_in_code_space() {
        let ds = narrow_numeric();
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![
                BinDef::Width {
                    dimension: "d".into(),
                    width: 0.5,
                    anchor: 0.25,
                },
                BinDef::Width {
                    dimension: "m".into(),
                    width: 2.0,
                    anchor: 0.0,
                },
            ],
            vec![AggregateSpec::over(AggFunc::Sum, "d")],
        );
        // Ranges whose bounds sit on zeros of either sign and on codes.
        for (min, max) in [
            (-0.0, 0.5),
            (0.0, 1.0),
            (-0.5, -0.0),
            (-1.0, 0.0),
            (f64::NAN, 1.0),
            (2.0, -2.0),
            (f64::NEG_INFINITY, f64::INFINITY),
        ] {
            let q = Query::for_viz(
                &spec,
                Some(FilterExpr::Pred(Predicate::Range {
                    column: "d".into(),
                    min,
                    max,
                })),
            );
            let plan = CompiledPlan::compile(&ds, &q).unwrap();
            assert!(matches!(plan.acc_mode(), AccMode::Dense(_)));
            match plan.filter.as_ref().unwrap() {
                PlannedFilter::Range { col, codes, .. } => {
                    assert!(col.access == Access::Codes && codes.is_some());
                }
                other => panic!("expected a range, got {other:?}"),
            }
            for dim in &plan.dims {
                assert!(matches!(dim, PlannedDim::Width { codes: Some(_), .. }));
            }
            // The measure decodes the codes of matched rows.
            assert_eq!(plan.measures[0].as_ref().unwrap().access, Access::Codes);
            assert_eq!(
                bits(&crate::execute_exact(&ds, &q).unwrap()),
                bits(&crate::execute_exact_scalar(&ds, &q).unwrap()),
                "range [{min}, {max})"
            );
        }
    }

    #[test]
    fn nullable_narrow_columns_run_in_code_space() {
        // `m` holds 11..=19 and nulls, whose placeholder code 0 lies outside
        // the valid span; `d` is a nullable decimal.
        let mut b =
            TableBuilder::with_fields("flights", &[("d", DataType::Float), ("m", DataType::Int)]);
        for i in 0..300i64 {
            let null = |k: i64| i % k == 0;
            b.push_row(&[
                if null(7) {
                    Value::Null
                } else {
                    (i as f64 / 4.0 - 30.0).into()
                },
                if null(5) {
                    Value::Null
                } else {
                    (10 + i % 10).into()
                },
            ])
            .unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let m = ds.as_denormalized().unwrap().column_at(1);
        assert!(matches!(m.data(), ColumnData::Int(Ints::Narrow(_))));
        assert!(m.validity().is_some() && m.numeric_min_max() == Some((11.0, 19.0)));
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "m".into(),
                width: 3.0,
                anchor: 1.0,
            }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Sum, "d"),
            ],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::Range {
                column: "d".into(),
                min: -20.0,
                max: 30.0,
            })),
        );
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        assert!(matches!(
            plan.filter,
            Some(PlannedFilter::Range { codes: Some(_), .. })
        ));
        assert!(matches!(
            plan.dims[0],
            PlannedDim::Width { codes: Some(_), .. }
        ));
        assert_eq!(plan.measures[1].as_ref().unwrap().access, Access::Codes);
        assert_eq!(
            bits(&crate::execute_exact(&ds, &q).unwrap()),
            bits(&crate::execute_exact_scalar(&ds, &q).unwrap())
        );
    }

    #[test]
    fn wide_decimal_spans_decode_by_division() {
        // Codes spanning more values than a decode table covers: the range,
        // the dimension and the measure all read them in place and decode
        // them by division.
        let mut b = TableBuilder::with_fields("flights", &[("d", DataType::Float)]);
        for i in 0..300 {
            b.push_row(&[f64::from(i * 337 % 100_001).into()]).unwrap();
        }
        let ds = Dataset::Denormalized(Arc::new(b.finish()));
        let col = ds.as_denormalized().unwrap().column_at(0);
        assert!(matches!(col.data(), ColumnData::Decimal(Ints::Wide(_), 0)));
        assert!(col.decode_table().is_none());
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Width {
                dimension: "d".into(),
                width: 5_000.0,
                anchor: 0.0,
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "d")],
        );
        let q = Query::for_viz(
            &spec,
            Some(FilterExpr::Pred(Predicate::Range {
                column: "d".into(),
                min: 10_000.5,
                max: 90_000.0,
            })),
        );
        let plan = CompiledPlan::compile(&ds, &q).unwrap();
        match plan.filter.as_ref().unwrap() {
            PlannedFilter::Range { col, codes, .. } => {
                assert!(col.access == Access::Direct && codes.is_none());
                assert!(matches!(col.view().vals, Vals::WideDecimal(_, s) if s == 1.0));
            }
            other => panic!("expected a range, got {other:?}"),
        }
        assert_eq!(plan.dims[0].col().access, Access::Direct);
        assert_eq!(plan.measures[0].as_ref().unwrap().access, Access::Direct);
        assert_eq!(
            bits(&crate::execute_exact(&ds, &q).unwrap()),
            bits(&crate::execute_exact_scalar(&ds, &q).unwrap())
        );
    }

    #[test]
    fn compilation_counter_advances() {
        let before = plan_compilations();
        let _ = CompiledPlan::compile(&denorm(), &nominal_query()).unwrap();
        assert!(plan_compilations() > before);
    }
}
