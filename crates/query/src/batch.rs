//! Morsel-driven batch kernels and accumulation.
//!
//! Execution processes fixed-size morsels (`MORSEL` rows). Per morsel:
//!
//! 1. the staged columns the *filter* reads are gathered into flat scratch
//!    buffers — joined columns gather their foreign-key column **once**
//!    per morsel and translate it through the plan's per-dimension join
//!    caches, nullable columns fold their validity bitmap into a morsel
//!    mask (see `crate::plan::StageSpec`);
//! 2. the filter tree is evaluated into a bitmask (`Mask`) by typed
//!    kernels — one `match` on column type per *morsel*, not per row;
//! 3. the remaining staged (binning / measure) columns are gathered — a
//!    morsel the filter fully rejects skips this phase entirely;
//! 4. bin slots (dense) or bin keys (sparse) are computed for all rows;
//! 5. matching rows are folded into the accumulator in bulk.
//!
//! Every kernel consumes a `ColView`: a flat slice, direct or staged, so
//! star-schema joins devirtualized by the planner run the same code as
//! de-normalized columns. The dense path exploits that an all-nominal
//! binning has a bin space bounded by dictionary sizes: accumulators live
//! in a flat array indexed by `code0 + code1 * dict_len0`, replacing the
//! per-row hash probe of the scalar oracle.

use crate::aggregate::{BinAcc, GroupedAcc, MeasureAcc};
use crate::plan::{
    AccMode, ColView, CompiledPlan, PlannedDim, PlannedFilter, StagePhases, StageSpec,
};
use idebench_core::{AggFunc, BinCoord, BinKey};
use idebench_storage::{ColumnSlice, SelVec};
use rustc_hash::FxHashMap;

/// Rows per morsel. A multiple of 64 so a morsel's filter mask is a
/// whole number of 64-bit words.
pub const MORSEL: usize = 1024;
const WORDS: usize = MORSEL / 64;

/// A per-morsel bitmask (bit `i` = row `i` of the morsel).
pub(crate) type Mask = [u64; WORDS];

/// Zeroes mask bits at positions `n..`.
#[inline]
fn mask_tail(mask: &mut Mask, n: usize) {
    for (w, word) in mask.iter_mut().enumerate() {
        let lo = w * 64;
        if n <= lo {
            *word = 0;
        } else if n < lo + 64 {
            *word &= (1u64 << (n - lo)) - 1;
        }
    }
}

/// The rows of one morsel: a contiguous range or a gathered order slice.
pub(crate) trait RowSet: Copy {
    /// Number of rows (≤ [`MORSEL`]).
    fn len(&self) -> usize;
    /// The fact row at morsel position `i`.
    fn row(&self, i: usize) -> usize;
    /// Start row of a contiguous natural-order range, when this is one —
    /// kernels then swap gather loops for bounds-check-free slice walks.
    fn base(&self) -> Option<usize> {
        None
    }
}

/// Natural-order rows `base..base + len`.
#[derive(Clone, Copy)]
pub(crate) struct Natural {
    pub base: usize,
    pub len: usize,
}

impl RowSet for Natural {
    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn row(&self, i: usize) -> usize {
        self.base + i
    }

    #[inline(always)]
    fn base(&self) -> Option<usize> {
        Some(self.base)
    }
}

/// Rows gathered through a shuffle/order slice.
#[derive(Clone, Copy)]
pub(crate) struct Gather<'a>(pub &'a [u32]);

impl RowSet for Gather<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn row(&self, i: usize) -> usize {
        self.0[i] as usize
    }
}

// -------------------------------------------------------------- binding

/// A [`CompiledPlan`] bound to borrowed column slices for one `advance`.
pub(crate) struct BoundPlan<'a> {
    filter: Option<BoundFilter<'a>>,
    dims: Vec<BoundDim<'a>>,
    measures: Vec<Option<ColView<'a>>>,
    /// Per-morsel staging instructions, parallel to the accumulator's
    /// stage buffers.
    stages: Vec<BoundStage<'a>>,
    /// Distinct FK columns gathered once per morsel, parallel to the
    /// accumulator's FK staging buffers.
    fks: Vec<&'a [i64]>,
    /// Filter-phase vs. post-filter-phase staging split.
    phases: &'a StagePhases,
}

enum BoundFilter<'a> {
    Range {
        col: ColView<'a>,
        min: f64,
        max: f64,
    },
    In {
        col: ColView<'a>,
        member: &'a [bool],
    },
    And(Vec<BoundFilter<'a>>),
    Or(Vec<BoundFilter<'a>>),
}

enum BoundDim<'a> {
    Nominal {
        col: ColView<'a>,
        /// Dictionary size bounding this dimension's bin space (stride).
        dict_len: u32,
    },
    Width {
        col: ColView<'a>,
        width: f64,
        anchor: f64,
        /// `(lo, len)` of the bounded bucket space when the dimension was
        /// lowered to dense arithmetic slots.
        dense: Option<(i64, u32)>,
    },
}

/// A [`StageSpec`] bound to borrowed slices for one `advance`.
enum BoundStage<'a> {
    Own {
        col: &'a idebench_storage::Column,
    },
    JoinCodes {
        fk_slot: usize,
        cache: &'a [u32],
    },
    JoinNum {
        fk_slot: usize,
        vals: &'a [f64],
        valid: Option<&'a SelVec>,
    },
}

impl PlannedFilter {
    fn bind(&self) -> BoundFilter<'_> {
        match self {
            PlannedFilter::Range { col, min, max } => BoundFilter::Range {
                col: col.view(),
                min: *min,
                max: *max,
            },
            PlannedFilter::In { col, member } => BoundFilter::In {
                col: col.view(),
                member,
            },
            PlannedFilter::And(children) => {
                BoundFilter::And(children.iter().map(PlannedFilter::bind).collect())
            }
            PlannedFilter::Or(children) => {
                BoundFilter::Or(children.iter().map(PlannedFilter::bind).collect())
            }
        }
    }
}

impl CompiledPlan {
    /// Binds the plan to borrowed slices (index lookups only; no name
    /// resolution or hashing — cheap enough to do per `advance`).
    pub(crate) fn bind(&self) -> BoundPlan<'_> {
        BoundPlan {
            filter: self.filter.as_ref().map(PlannedFilter::bind),
            dims: self
                .dims
                .iter()
                .map(|d| match d {
                    PlannedDim::Nominal { col, dict_len } => BoundDim::Nominal {
                        col: col.view(),
                        dict_len: (*dict_len).max(1) as u32,
                    },
                    PlannedDim::Width {
                        col,
                        width,
                        anchor,
                        dense,
                    } => BoundDim::Width {
                        col: col.view(),
                        width: *width,
                        anchor: *anchor,
                        dense: dense.map(|d| (d.lo, d.len as u32)),
                    },
                })
                .collect(),
            measures: self
                .measures
                .iter()
                .map(|m| m.as_ref().map(|c| c.view()))
                .collect(),
            stages: self
                .stages
                .iter()
                .map(|s| match s {
                    StageSpec::Own(col) => BoundStage::Own { col: col.get() },
                    StageSpec::JoinCodes { fk_slot, cache } => BoundStage::JoinCodes {
                        fk_slot: *fk_slot,
                        cache,
                    },
                    StageSpec::JoinNum {
                        fk_slot,
                        vals,
                        valid,
                    } => BoundStage::JoinNum {
                        fk_slot: *fk_slot,
                        vals,
                        valid: valid.as_ref(),
                    },
                })
                .collect(),
            fks: self
                .fk_cols
                .iter()
                .map(|(t, i)| {
                    t.column_at(*i)
                        .as_int()
                        .expect("fk column validated at compile time")
                })
                .collect(),
            phases: &self.phases,
        }
    }
}

// -------------------------------------------------------------- staging

/// Scratch buffer of one staged column for the current morsel: flat values
/// (codes or numerics, whichever the column is) plus a validity mask.
pub(crate) struct StageBuf {
    codes: Vec<u32>,
    nums: Vec<f64>,
    mask: Mask,
}

impl StageBuf {
    fn for_spec(spec: &StageSpec) -> StageBuf {
        StageBuf {
            codes: if spec.nominal() {
                vec![0; MORSEL]
            } else {
                Vec::new()
            },
            nums: if spec.nominal() {
                Vec::new()
            } else {
                vec![0.0; MORSEL]
            },
            mask: [0u64; WORDS],
        }
    }
}

/// Gathers the FK staging buffers named by `which` for one morsel — every
/// joined column translating through an FK reads it from here, so each
/// distinct FK column is gathered at most once per morsel.
fn stage_fks<R: RowSet>(
    bound: &BoundPlan<'_>,
    rows: R,
    fk_stage: &mut [Vec<u32>],
    which: &[usize],
) {
    let n = rows.len();
    for &slot in which {
        let fk = bound.fks[slot];
        let dst = &mut fk_stage[slot];
        match rows.base() {
            Some(base) => {
                for (d, &k) in dst.iter_mut().zip(&fk[base..base + n]) {
                    *d = k as u32;
                }
            }
            None => {
                for (i, d) in dst.iter_mut().enumerate().take(n) {
                    *d = fk[rows.row(i)] as u32;
                }
            }
        }
    }
}

/// Fills the stage buffers named by `which` for one morsel. Stage buffers
/// hold the staged value at each morsel *position* (null rows hold a
/// placeholder and have their mask bit cleared).
fn stage_cols<R: RowSet>(
    bound: &BoundPlan<'_>,
    rows: R,
    fk_stage: &[Vec<u32>],
    bufs: &mut [StageBuf],
    which: &[usize],
) {
    let n = rows.len();
    for &si in which {
        let (spec, buf) = (&bound.stages[si], &mut bufs[si]);
        buf.mask = [u64::MAX; WORDS];
        mask_tail(&mut buf.mask, n);
        match spec {
            BoundStage::Own { col } => {
                match col.typed() {
                    ColumnSlice::F64(d) => match rows.base() {
                        Some(base) => buf.nums[..n].copy_from_slice(&d[base..base + n]),
                        None => {
                            for (i, o) in buf.nums.iter_mut().enumerate().take(n) {
                                *o = d[rows.row(i)];
                            }
                        }
                    },
                    ColumnSlice::I64(d) => {
                        for (i, o) in buf.nums.iter_mut().enumerate().take(n) {
                            *o = d[rows.row(i)] as f64;
                        }
                    }
                    ColumnSlice::Codes(d, _) => match rows.base() {
                        Some(base) => buf.codes[..n].copy_from_slice(&d[base..base + n]),
                        None => {
                            for (i, o) in buf.codes.iter_mut().enumerate().take(n) {
                                *o = d[rows.row(i)];
                            }
                        }
                    },
                }
                if let Some(v) = col.validity() {
                    for i in 0..n {
                        if !v.contains(rows.row(i)) {
                            buf.mask[i / 64] &= !(1u64 << (i % 64));
                        }
                    }
                }
            }
            BoundStage::JoinCodes { fk_slot, cache } => {
                let fkb = &fk_stage[*fk_slot];
                for (i, (o, &r)) in buf.codes.iter_mut().zip(&fkb[..n]).enumerate() {
                    let c = cache[r as usize];
                    if c == crate::plan::NULL_CODE {
                        *o = 0;
                        buf.mask[i / 64] &= !(1u64 << (i % 64));
                    } else {
                        *o = c;
                    }
                }
            }
            BoundStage::JoinNum {
                fk_slot,
                vals,
                valid,
            } => {
                let fkb = &fk_stage[*fk_slot];
                for (o, &r) in buf.nums.iter_mut().zip(&fkb[..n]) {
                    *o = vals[r as usize];
                }
                if let Some(v) = valid {
                    for (i, &r) in fkb[..n].iter().enumerate() {
                        if !v.contains(r as usize) {
                            buf.mask[i / 64] &= !(1u64 << (i % 64));
                        }
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------------- kernels

/// Clears every `out` bit whose staged-validity bit is unset.
#[inline]
fn and_mask(out: &mut Mask, mask: &Mask) {
    for w in 0..WORDS {
        out[w] &= mask[w];
    }
}

/// Evaluates a filter tree over one morsel into `out` (bit = row matches).
/// Null values never match, mirroring SQL WHERE semantics.
fn eval_filter<R: RowSet>(f: &BoundFilter<'_>, stages: &[StageBuf], rows: R, out: &mut Mask) {
    let n = rows.len();
    match f {
        BoundFilter::Range { col, min, max } => {
            range_mask(*col, stages, *min, *max, rows, out);
        }
        BoundFilter::In { col, member } => {
            in_mask(*col, stages, member, rows, out);
        }
        BoundFilter::And(children) => {
            *out = [u64::MAX; WORDS];
            mask_tail(out, n);
            let mut tmp = [0u64; WORDS];
            for child in children {
                eval_filter(child, stages, rows, &mut tmp);
                for w in 0..WORDS {
                    out[w] &= tmp[w];
                }
            }
        }
        BoundFilter::Or(children) => {
            *out = [0u64; WORDS];
            let mut tmp = [0u64; WORDS];
            for child in children {
                eval_filter(child, stages, rows, &mut tmp);
                for w in 0..WORDS {
                    out[w] |= tmp[w];
                }
            }
        }
    }
}

#[inline]
fn range_mask<R: RowSet>(
    col: ColView<'_>,
    stages: &[StageBuf],
    min: f64,
    max: f64,
    rows: R,
    out: &mut Mask,
) {
    let n = rows.len();
    *out = [0u64; WORDS];
    // One monomorphized flat comparison loop per arm (no per-row dispatch).
    macro_rules! cmp {
        ($get:expr) => {{
            let get = $get;
            for i in 0..n {
                let v: f64 = get(i);
                out[i / 64] |= u64::from(v >= min && v < max) << (i % 64);
            }
        }};
    }
    match col {
        ColView::F64(d) => cmp!(|i: usize| d[rows.row(i)]),
        ColView::I64(d) => cmp!(|i: usize| d[rows.row(i)] as f64),
        ColView::Codes(d) => cmp!(|i: usize| f64::from(d[rows.row(i)])),
        ColView::StagedNum(s) => {
            let b = &stages[s];
            cmp!(|i: usize| b.nums[i]);
            and_mask(out, &b.mask);
        }
        ColView::StagedCodes(s) => {
            let b = &stages[s];
            cmp!(|i: usize| f64::from(b.codes[i]));
            and_mask(out, &b.mask);
        }
    }
}

#[inline]
fn in_mask<R: RowSet>(
    col: ColView<'_>,
    stages: &[StageBuf],
    member: &[bool],
    rows: R,
    out: &mut Mask,
) {
    let n = rows.len();
    *out = [0u64; WORDS];
    match col {
        ColView::Codes(d) => {
            for i in 0..n {
                let hit = member
                    .get(d[rows.row(i)] as usize)
                    .copied()
                    .unwrap_or(false);
                out[i / 64] |= u64::from(hit) << (i % 64);
            }
        }
        ColView::StagedCodes(s) => {
            let b = &stages[s];
            for i in 0..n {
                let hit = member.get(b.codes[i] as usize).copied().unwrap_or(false);
                out[i / 64] |= u64::from(hit) << (i % 64);
            }
            and_mask(out, &b.mask);
        }
        // Numeric columns have no dictionary codes: nothing matches,
        // mirroring the scalar oracle's per-row `code_at` returning `None`.
        ColView::F64(_) | ColView::I64(_) | ColView::StagedNum(_) => {}
    }
}

/// Computes dense bin slots for one morsel. Rows with a null binned value
/// get their `valid` bit cleared.
fn dense_slots<R: RowSet>(
    dims: &[BoundDim<'_>],
    stages: &[StageBuf],
    rows: R,
    slots: &mut [u32],
    valid: &mut Mask,
) {
    let n = rows.len();
    *valid = [u64::MAX; WORDS];
    mask_tail(valid, n);

    // Fused 2D fast path: two nominal dimensions whose codes are flat,
    // position-indexable slices (contiguous natural-order scan over direct
    // or staged codes) compute both coordinates in a single pass —
    // `slot = c0 + c1 · stride` — instead of one slots-array round-trip per
    // dimension. Devirtualized star joins land here, so a joined×joined
    // binning slots exactly like a de-normalized one.
    if let [BoundDim::Nominal {
        col: c0,
        dict_len: stride,
    }, BoundDim::Nominal { col: c1, .. }] = dims
    {
        // Flat position-indexed codes for the morsel, plus the staged
        // validity mask to fold into `valid`.
        fn flat<'x, R: RowSet>(
            col: &ColView<'x>,
            stages: &'x [StageBuf],
            rows: R,
            n: usize,
        ) -> Option<(&'x [u32], Option<&'x Mask>)> {
            match *col {
                ColView::Codes(d) => rows.base().map(|b| (&d[b..b + n], None)),
                ColView::StagedCodes(s) => {
                    let b = &stages[s];
                    Some((&b.codes[..n], Some(&b.mask)))
                }
                _ => None,
            }
        }
        if let (Some((s0, m0)), Some((s1, m1))) =
            (flat(c0, stages, rows, n), flat(c1, stages, rows, n))
        {
            let stride = (*stride).max(1);
            for (slot, (&a, &b)) in slots.iter_mut().zip(s0.iter().zip(s1)) {
                *slot = a + b * stride;
            }
            if let Some(m) = m0 {
                and_mask(valid, m);
            }
            if let Some(m) = m1 {
                and_mask(valid, m);
            }
            return;
        }
    }

    let mut stride = 1u32;
    for (di, dim) in dims.iter().enumerate() {
        // One monomorphized flat slotting loop per arm; staged-null rows
        // carry a placeholder 0 and are cleared from `valid` via the mask.
        macro_rules! slot_loop {
            ($get:expr) => {{
                let get = $get;
                if di == 0 {
                    for (i, slot) in slots.iter_mut().enumerate().take(n) {
                        *slot = get(i);
                    }
                } else {
                    for (i, slot) in slots.iter_mut().enumerate().take(n) {
                        *slot += get(i) * stride;
                    }
                }
            }};
        }
        // Contiguous natural-order fast path over a flat source slice.
        macro_rules! slot_span {
            ($src:expr, $of:expr) => {{
                let of = $of;
                if di == 0 {
                    for (slot, &v) in slots.iter_mut().zip($src) {
                        *slot = of(v);
                    }
                } else {
                    for (slot, &v) in slots.iter_mut().zip($src) {
                        *slot += of(v) * stride;
                    }
                }
            }};
        }
        match dim {
            BoundDim::Nominal { col, dict_len } => {
                let dict_len = *dict_len;
                match *col {
                    ColView::Codes(d) => match rows.base() {
                        Some(base) => slot_span!(&d[base..base + n], |c| c),
                        None => slot_loop!(|i: usize| d[rows.row(i)]),
                    },
                    ColView::StagedCodes(s) => {
                        let b = &stages[s];
                        and_mask(valid, &b.mask);
                        slot_span!(&b.codes[..n], |c| c);
                    }
                    // Compilation rejects nominal binning over non-nominal
                    // columns, and staged/direct views preserve the type.
                    ColView::F64(_) | ColView::I64(_) | ColView::StagedNum(_) => {
                        unreachable!("nominal binning compiled over a non-nominal column")
                    }
                }
                stride *= dict_len.max(1);
            }
            BoundDim::Width {
                col,
                width,
                anchor,
                dense,
            } => {
                let (lo, len) = dense.expect("dense path requires bounded bucket space");
                // Arithmetic slotting: `floor((v−anchor)/width) − lo`,
                // clamped into the bounded space (a no-op when stats are
                // exact; it only guards slot-array bounds). The floor is
                // computed as truncate-and-adjust — identical to
                // `f64::floor` for every in-bounds value but free of the
                // libm call baseline x86-64 lowers `floor()` to, which
                // would otherwise dominate this loop. `lo` round-trips
                // through f64 exactly, so the slot decodes to the same
                // bucket index the hashed path computes, bit for bit.
                let lo_f = lo as f64;
                let top = (len - 1) as f64;
                let slot_of = move |v: f64| -> u32 {
                    let q = (v - anchor) / width;
                    let t = q as i64 as f64; // trunc(q), exact in-bounds
                    let fl = if t > q { t - 1.0 } else { t };
                    (fl - lo_f).clamp(0.0, top) as u32
                };
                match *col {
                    ColView::F64(d) => match rows.base() {
                        Some(base) => slot_span!(&d[base..base + n], slot_of),
                        None => slot_loop!(|i: usize| slot_of(d[rows.row(i)])),
                    },
                    ColView::I64(d) => slot_loop!(|i: usize| slot_of(d[rows.row(i)] as f64)),
                    ColView::Codes(d) => {
                        slot_loop!(|i: usize| slot_of(f64::from(d[rows.row(i)])))
                    }
                    ColView::StagedNum(s) => {
                        let b = &stages[s];
                        and_mask(valid, &b.mask);
                        slot_span!(&b.nums[..n], slot_of);
                    }
                    ColView::StagedCodes(s) => {
                        let b = &stages[s];
                        and_mask(valid, &b.mask);
                        slot_span!(&b.codes[..n], |c| slot_of(f64::from(c)));
                    }
                }
                stride *= len.max(1);
            }
        }
    }
}

/// Computes sparse bin keys (up to two coordinates) for one morsel. Rows
/// with a null binned value get their `valid` bit cleared.
fn sparse_keys<R: RowSet>(
    dims: &[BoundDim<'_>],
    stages: &[StageBuf],
    rows: R,
    k0: &mut [i64],
    k1: &mut [i64],
    valid: &mut Mask,
) {
    let n = rows.len();
    *valid = [u64::MAX; WORDS];
    mask_tail(valid, n);
    for (di, dim) in dims.iter().enumerate() {
        let out: &mut [i64] = if di == 0 { k0 } else { k1 };
        macro_rules! key_loop {
            ($get:expr) => {{
                let get = $get;
                for (i, o) in out.iter_mut().enumerate().take(n) {
                    *o = get(i);
                }
            }};
        }
        match dim {
            BoundDim::Nominal { col, .. } => match *col {
                ColView::Codes(d) => key_loop!(|i: usize| i64::from(d[rows.row(i)])),
                ColView::StagedCodes(s) => {
                    let b = &stages[s];
                    and_mask(valid, &b.mask);
                    key_loop!(|i: usize| i64::from(b.codes[i]));
                }
                ColView::F64(_) | ColView::I64(_) | ColView::StagedNum(_) => {
                    unreachable!("nominal binning compiled over a non-nominal column")
                }
            },
            BoundDim::Width {
                col, width, anchor, ..
            } => {
                let key_of = move |v: f64| ((v - anchor) / width).floor() as i64;
                match *col {
                    ColView::F64(d) => key_loop!(|i: usize| key_of(d[rows.row(i)])),
                    ColView::I64(d) => key_loop!(|i: usize| key_of(d[rows.row(i)] as f64)),
                    ColView::Codes(d) => {
                        key_loop!(|i: usize| key_of(f64::from(d[rows.row(i)])))
                    }
                    ColView::StagedNum(s) => {
                        let b = &stages[s];
                        and_mask(valid, &b.mask);
                        key_loop!(|i: usize| key_of(b.nums[i]));
                    }
                    ColView::StagedCodes(s) => {
                        let b = &stages[s];
                        and_mask(valid, &b.mask);
                        key_loop!(|i: usize| key_of(f64::from(b.codes[i])));
                    }
                }
            }
        }
    }
}

/// Per-row numeric value of a column view at morsel position `i` (`None`
/// when null) — the sparse store's row-at-a-time measure accessor.
#[inline(always)]
fn measure_value<R: RowSet>(
    col: &ColView<'_>,
    stages: &[StageBuf],
    rows: R,
    i: usize,
) -> Option<f64> {
    match *col {
        ColView::F64(d) => Some(d[rows.row(i)]),
        ColView::I64(d) => Some(d[rows.row(i)] as f64),
        ColView::Codes(d) => Some(f64::from(d[rows.row(i)])),
        ColView::StagedNum(s) => {
            let b = &stages[s];
            (b.mask[i / 64] >> (i % 64) & 1 == 1).then(|| b.nums[i])
        }
        ColView::StagedCodes(s) => {
            let b = &stages[s];
            (b.mask[i / 64] >> (i % 64) & 1 == 1).then(|| f64::from(b.codes[i]))
        }
    }
}

// ---------------------------------------------------------- accumulation

/// The coordinate kind of one sparse binning dimension.
#[derive(Debug, Clone, Copy)]
enum CoordKind {
    Cat,
    Bucket,
}

/// Slot-decode metadata of one dense binning dimension: its bounded size
/// and how a slot coordinate maps back to a [`BinCoord`].
#[derive(Debug, Clone, Copy)]
struct DenseDim {
    /// Size of this dimension's bin space (`slot = c0 + c1 · len0`).
    len: usize,
    /// `None` = nominal (coordinate is a dictionary code); `Some(lo)` =
    /// bucketed (coordinate `c` decodes to bucket `lo + c`).
    bucket_lo: Option<i64>,
}

enum Store {
    /// Flat-array accumulation over a bounded bin space (nominal
    /// dictionaries and/or statistics-bounded bucketings).
    Dense {
        /// Per-dimension slot decode metadata (1 or 2 entries).
        dims: Vec<DenseDim>,
        counts: Vec<u64>,
        /// `space * nmeasures` measure accumulators, slot-major.
        measures: Vec<MeasureAcc>,
        /// Slots with `counts > 0`, in first-touch order — snapshots only
        /// walk populated bins, not the whole space.
        touched: Vec<u32>,
    },
    /// Hashed accumulation for unbounded bucket spaces. The map stores
    /// indices into a dense `Vec<BinAcc>` so the common consecutive-rows-
    /// same-bucket case skips the probe via a last-key memo, and finish
    /// walks a contiguous vector.
    Sparse {
        kinds: Vec<CoordKind>,
        index: FxHashMap<(i64, i64), u32>,
        accs: Vec<((i64, i64), BinAcc)>,
    },
}

/// The vectorized accumulator driven by [`CompiledPlan`] morsel kernels.
///
/// Mirrors the statistics of [`GroupedAcc`] (which remains the scalar
/// reference and merge/finish representation); [`BatchAcc::to_grouped`]
/// materializes into it in O(populated bins).
pub(crate) struct BatchAcc {
    aggs: Vec<(AggFunc, bool)>,
    nmeasures: usize,
    store: Store,
    pub rows_seen: u64,
    pub rows_matched: u64,
    // Reusable per-morsel scratch.
    slots: Vec<u32>,
    k0: Vec<i64>,
    k1: Vec<i64>,
    /// Stage buffers, parallel to the plan's [`StageSpec`]s.
    stages: Vec<StageBuf>,
    /// Staged FK values, parallel to the plan's distinct FK columns.
    fk_stage: Vec<Vec<u32>>,
}

impl BatchAcc {
    pub fn for_plan(plan: &CompiledPlan) -> BatchAcc {
        let aggs: Vec<(AggFunc, bool)> = plan
            .query()
            .aggregates()
            .iter()
            .map(|a| (a.func, a.dimension.is_some()))
            .collect();
        let nmeasures = aggs.len();
        let store = match plan.acc_mode() {
            AccMode::Dense(space) => Store::Dense {
                dims: plan
                    .dims
                    .iter()
                    .map(|d| match d {
                        PlannedDim::Nominal { dict_len, .. } => DenseDim {
                            len: (*dict_len).max(1),
                            bucket_lo: None,
                        },
                        PlannedDim::Width { dense, .. } => {
                            let dense = dense.expect("dense mode requires bounded bucket space");
                            DenseDim {
                                len: dense.len,
                                bucket_lo: Some(dense.lo),
                            }
                        }
                    })
                    .collect(),
                counts: vec![0; space],
                measures: vec![MeasureAcc::new(); space * nmeasures],
                touched: Vec::new(),
            },
            AccMode::Sparse => Store::Sparse {
                kinds: plan
                    .dims
                    .iter()
                    .map(|d| match d {
                        PlannedDim::Nominal { .. } => CoordKind::Cat,
                        PlannedDim::Width { .. } => CoordKind::Bucket,
                    })
                    .collect(),
                index: FxHashMap::default(),
                accs: Vec::new(),
            },
        };
        BatchAcc {
            aggs,
            nmeasures,
            store,
            rows_seen: 0,
            rows_matched: 0,
            slots: vec![0; MORSEL],
            k0: vec![0; MORSEL],
            k1: vec![0; MORSEL],
            stages: plan.stages.iter().map(StageBuf::for_spec).collect(),
            fk_stage: plan.fk_cols.iter().map(|_| vec![0; MORSEL]).collect(),
        }
    }

    /// Processes one morsel: stage → filter → bin → accumulate. Returns the
    /// filter-match mask (bit `i` = morsel row `i` passed the filter; its
    /// popcount is the cost model's matched-row input).
    pub fn process_morsel<R: RowSet>(&mut self, bound: &BoundPlan<'_>, rows: R) -> Mask {
        let n = rows.len();
        debug_assert!(n <= MORSEL);
        self.rows_seen += n as u64;

        // 1. Stage the joined / nullable columns the *filter* reads.
        stage_fks(bound, rows, &mut self.fk_stage, &bound.phases.filter_fks);
        stage_cols(
            bound,
            rows,
            &self.fk_stage,
            &mut self.stages,
            &bound.phases.filter_stages,
        );

        // 2. Filter.
        let mut fmask: Mask = [u64::MAX; WORDS];
        mask_tail(&mut fmask, n);
        if let Some(filter) = &bound.filter {
            eval_filter(filter, &self.stages, rows, &mut fmask);
        }
        let matched: usize = fmask.iter().map(|w| w.count_ones() as usize).sum();
        self.rows_matched += matched as u64;
        if matched == 0 {
            // Binning and measure staging is deferred to here precisely so
            // a fully-filtered-out morsel never pays for it.
            return fmask;
        }

        // 3. Stage the remaining (binning / measure) columns.
        stage_fks(bound, rows, &mut self.fk_stage, &bound.phases.post_fks);
        stage_cols(
            bound,
            rows,
            &self.fk_stage,
            &mut self.stages,
            &bound.phases.post_stages,
        );
        let stages = &self.stages;

        // 4. Bin keys, 5. accumulate matching rows.
        let mut valid: Mask = [0u64; WORDS];
        match &mut self.store {
            Store::Dense {
                counts,
                measures,
                touched,
                ..
            } => {
                dense_slots(&bound.dims, stages, rows, &mut self.slots, &mut valid);
                // Counts pass. Full words (the common unfiltered case) skip
                // the per-bit scan; iteration order is unchanged either way.
                for w in 0..WORDS {
                    let mut bits = fmask[w] & valid[w];
                    if bits == u64::MAX {
                        for &slot in &self.slots[w * 64..w * 64 + 64] {
                            let slot = slot as usize;
                            if counts[slot] == 0 {
                                touched.push(slot as u32);
                            }
                            counts[slot] += 1;
                        }
                    } else {
                        while bits != 0 {
                            let i = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let slot = self.slots[i] as usize;
                            if counts[slot] == 0 {
                                touched.push(slot as u32);
                            }
                            counts[slot] += 1;
                        }
                    }
                }
                // One pass per measure column, so the column-type dispatch
                // runs once per morsel instead of once per row. Per (bin,
                // measure) the update sequence stays exactly row order.
                let nmeasures = self.nmeasures;
                let slots = &self.slots;
                // A flat measure-update pass: walk the matching valid rows
                // (optionally AND-ing a staged mask) and fold `get(i)`
                // into the row's bin accumulator.
                macro_rules! measure_pass {
                    ($m:expr, $mask:expr, $get:expr) => {{
                        let get = $get;
                        for w in 0..WORDS {
                            let mut bits = fmask[w] & valid[w] & $mask[w];
                            if bits == u64::MAX {
                                // Full word: straight-line row loop, same
                                // update order as the bit scan below.
                                for i in w * 64..w * 64 + 64 {
                                    measures[slots[i] as usize * nmeasures + $m].update(get(i));
                                }
                            } else {
                                while bits != 0 {
                                    let i = w * 64 + bits.trailing_zeros() as usize;
                                    bits &= bits - 1;
                                    measures[slots[i] as usize * nmeasures + $m].update(get(i));
                                }
                            }
                        }
                    }};
                }
                let ones = [u64::MAX; WORDS];
                for (m, col) in bound.measures.iter().enumerate() {
                    let Some(col) = col else { continue };
                    match *col {
                        ColView::F64(d) => measure_pass!(m, ones, |i: usize| d[rows.row(i)]),
                        ColView::I64(d) => {
                            measure_pass!(m, ones, |i: usize| d[rows.row(i)] as f64)
                        }
                        ColView::Codes(d) => {
                            measure_pass!(m, ones, |i: usize| f64::from(d[rows.row(i)]))
                        }
                        ColView::StagedNum(s) => {
                            let b = &stages[s];
                            measure_pass!(m, b.mask, |i: usize| b.nums[i]);
                        }
                        ColView::StagedCodes(s) => {
                            let b = &stages[s];
                            measure_pass!(m, b.mask, |i: usize| f64::from(b.codes[i]));
                        }
                    }
                }
            }
            Store::Sparse { index, accs, .. } => {
                sparse_keys(
                    &bound.dims,
                    stages,
                    rows,
                    &mut self.k0,
                    &mut self.k1,
                    &mut valid,
                );
                let two_d = bound.dims.len() == 2;
                let nmeasures = self.nmeasures;
                // Consecutive rows often land in the same bin; memoize the
                // last slot to skip the hash probe.
                let mut last: Option<((i64, i64), u32)> = None;
                for w in 0..WORDS {
                    let mut bits = fmask[w] & valid[w];
                    while bits != 0 {
                        let i = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let key = (self.k0[i], if two_d { self.k1[i] } else { 0 });
                        let slot = match last {
                            Some((k, s)) if k == key => s,
                            _ => {
                                let s = *index.entry(key).or_insert_with(|| {
                                    accs.push((
                                        key,
                                        BinAcc {
                                            count: 0,
                                            measures: vec![MeasureAcc::new(); nmeasures],
                                        },
                                    ));
                                    (accs.len() - 1) as u32
                                });
                                last = Some((key, s));
                                s
                            }
                        };
                        let acc = &mut accs[slot as usize].1;
                        acc.count += 1;
                        for (m, col) in bound.measures.iter().enumerate() {
                            if let Some(col) = col {
                                if let Some(v) = measure_value(col, stages, rows, i) {
                                    acc.measures[m].update(v);
                                }
                            }
                        }
                    }
                }
            }
        }
        fmask
    }

    /// Materializes into the canonical [`GroupedAcc`] representation, in
    /// O(populated bins).
    pub fn to_grouped(&self) -> GroupedAcc {
        let mut bins: FxHashMap<BinKey, BinAcc> = FxHashMap::default();
        match &self.store {
            Store::Dense {
                dims,
                counts,
                measures,
                touched,
            } => {
                let decode = |dim: &DenseDim, c: usize| match dim.bucket_lo {
                    None => BinCoord::Cat(c as u32),
                    Some(lo) => BinCoord::Bucket(lo + c as i64),
                };
                for &slot in touched {
                    let slot = slot as usize;
                    let key = if dims.len() == 2 {
                        BinKey::d2(
                            decode(&dims[0], slot % dims[0].len),
                            decode(&dims[1], slot / dims[0].len),
                        )
                    } else {
                        BinKey::d1(decode(&dims[0], slot))
                    };
                    bins.insert(
                        key,
                        BinAcc {
                            count: counts[slot],
                            measures: measures[slot * self.nmeasures..][..self.nmeasures].to_vec(),
                        },
                    );
                }
            }
            Store::Sparse { kinds, accs, .. } => {
                for ((a, b), acc) in accs {
                    let coord = |kind: CoordKind, v: i64| match kind {
                        CoordKind::Cat => BinCoord::Cat(v as u32),
                        CoordKind::Bucket => BinCoord::Bucket(v),
                    };
                    let key = if kinds.len() == 2 {
                        BinKey::d2(coord(kinds[0], *a), coord(kinds[1], *b))
                    } else {
                        BinKey::d1(coord(kinds[0], *a))
                    };
                    bins.insert(key, acc.clone());
                }
            }
        }
        GroupedAcc::from_parts(self.aggs.clone(), bins, self.rows_seen, self.rows_matched)
    }

    /// Merges another accumulator for the same plan into this one.
    ///
    /// This is the partial-merge step of the morsel dispatcher: chunk
    /// partials are folded into the base accumulator *in chunk order*, so
    /// the floating-point merge sequence per bin is fixed by the chunk
    /// partition alone — never by worker count or scheduling.
    pub fn merge_from(&mut self, other: &BatchAcc) {
        debug_assert_eq!(self.aggs, other.aggs);
        self.rows_seen += other.rows_seen;
        self.rows_matched += other.rows_matched;
        match (&mut self.store, &other.store) {
            (
                Store::Dense {
                    counts,
                    measures,
                    touched,
                    ..
                },
                Store::Dense {
                    counts: ocounts,
                    measures: omeasures,
                    touched: otouched,
                    ..
                },
            ) => {
                for &slot in otouched {
                    let slot = slot as usize;
                    if counts[slot] == 0 {
                        touched.push(slot as u32);
                    }
                    counts[slot] += ocounts[slot];
                    for m in 0..self.nmeasures {
                        measures[slot * self.nmeasures + m]
                            .merge(&omeasures[slot * self.nmeasures + m]);
                    }
                }
            }
            (Store::Sparse { index, accs, .. }, Store::Sparse { accs: oaccs, .. }) => {
                for (key, oacc) in oaccs {
                    match index.get(key) {
                        Some(&slot) => {
                            let acc = &mut accs[slot as usize].1;
                            acc.count += oacc.count;
                            for (m, o) in acc.measures.iter_mut().zip(&oacc.measures) {
                                m.merge(o);
                            }
                        }
                        None => {
                            index.insert(*key, accs.len() as u32);
                            accs.push((*key, oacc.clone()));
                        }
                    }
                }
            }
            _ => unreachable!("partials of one plan share an accumulation mode"),
        }
    }
}
