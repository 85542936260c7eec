//! Morsel-driven batch kernels and accumulation.
//!
//! Execution processes fixed-size morsels (`MORSEL` rows) of contiguous
//! scan positions — a shuffled run reads permuted column copies, so every
//! morsel is a natural-order slice. Kernels read every column in place, at
//! its stored encoding (see `crate::plan::Access`). Per morsel:
//!
//! 1. the filter tree is evaluated into a bitmask (`Mask`) by typed
//!    kernels — one `match` on column type per *morsel*, not per row. Each
//!    kernel builds its mask a 64-row word at a time: the predicate fills a
//!    64-byte lane buffer, which is packed into the word in a register and
//!    stored once. A range over a narrow numeric column compares codes
//!    (`CodeRange`), and an IN list looks `u8`/`u16` dictionary codes up
//!    where they are stored; a morsel the filter fully rejects stops here;
//! 2. bin slots (dense) or bin keys (sparse) are computed for all rows from
//!    dictionary codes in place — a dense fixed-width dimension over a
//!    narrow numeric column looks its slots up by code (`CodeSlots`);
//! 3. matching rows are folded into the accumulator in bulk. A measure over
//!    a narrow numeric column decodes the code of each matched, valid row
//!    only (through the column's decode table, or by widening an int).
//!
//! A nullable column's morsel mask is `WORDS` words of its validity bitmap
//! read in place: a morsel starts at a multiple of 64 (chunks and morsels
//! are), so no bit shifting is needed. Each kernel ANDs it into the mask it
//! builds, so null rows never match a filter and never reach an
//! accumulator, and a code is used as an index only under that mask.
//!
//! Every kernel consumes a `ColView`, so star-schema joins devirtualized by
//! the planner run the same code as de-normalized columns. The dense path
//! exploits that an all-nominal binning has a bin space bounded by
//! dictionary sizes: accumulators live in a flat array indexed by
//! `code0 + code1 * dict_len0`, replacing the per-row hash probe of the
//! scalar oracle.

use crate::aggregate::{BinAcc, GroupedAcc, MeasureAcc};
use crate::plan::{
    AccMode, CodeRange, CodeSlots, ColView, CompiledPlan, DenseWidth, PlannedDim, PlannedFilter,
    Vals,
};
use idebench_core::{AggFunc, BinCoord, BinKey};
use idebench_storage::encoding::{decode_decimal, Code};
use idebench_storage::{match_ints, Ints, SelVec};
use rustc_hash::FxHashMap;

/// Rows per morsel. A multiple of 64 so a morsel's filter mask is a
/// whole number of 64-bit words.
pub const MORSEL: usize = 1024;
const WORDS: usize = MORSEL / 64;

/// A per-morsel bitmask (bit `i` = row `i` of the morsel).
pub(crate) type Mask = [u64; WORDS];

/// The mask of a column without nulls.
const ONES: Mask = [u64::MAX; WORDS];

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

/// Sets bit `i` of `out` to `hit(src[i])` for every `i < src.len()` and
/// clears the bits past it, one 64-row word at a time (see
/// [`pack_word`]): each word is stored once, so no row waits on the
/// previous row's read-modify-write of the same word.
#[inline(always)]
fn pack_mask<T: Copy>(src: &[T], out: &mut Mask, hit: impl Fn(T) -> bool) {
    let mut chunks = src.chunks(64);
    for word in out.iter_mut() {
        *word = chunks.next().map_or(0, |chunk| pack_word(chunk, &hit));
    }
}

/// The mask word of up to 64 rows (bit `i` = `hit(chunk[i])`, bits past
/// the chunk 0). The predicate fills a 64-byte lane buffer — a fixed-length
/// loop for a full chunk, so it vectorizes — and each 8 lanes pack into a
/// byte with one multiply: lane `j`'s 0/1 byte lands on bit `56 + j`, and no
/// two lanes' partial products overlap, so nothing carries between them.
#[inline(always)]
fn pack_word<T: Copy>(chunk: &[T], hit: &impl Fn(T) -> bool) -> u64 {
    let mut lanes = [0u8; 64];
    match <&[T; 64]>::try_from(chunk) {
        Ok(full) => {
            for (l, &v) in lanes.iter_mut().zip(full) {
                *l = u8::from(hit(v));
            }
        }
        Err(_) => {
            for (l, &v) in lanes.iter_mut().zip(chunk) {
                *l = u8::from(hit(v));
            }
        }
    }
    lanes
        .chunks_exact(8)
        .enumerate()
        .fold(0, |word, (j, eight)| {
            let x = u64::from_le_bytes(eight.try_into().expect("eight lanes"));
            word | (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j)
        })
}

// -------------------------------------------------------------- binding

/// A [`CompiledPlan`] bound to borrowed column slices for one `advance`.
pub(crate) struct BoundPlan<'a> {
    filter: Option<BoundFilter<'a>>,
    dims: Vec<BoundDim<'a>>,
    measures: Vec<Option<ColView<'a>>>,
}

enum BoundFilter<'a> {
    Range {
        col: ColView<'a>,
        min: f64,
        max: f64,
    },
    /// A range evaluated on the column's codes (see [`CodeRange`]).
    RangeCodes {
        col: ColView<'a>,
        range: CodeRange,
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
    /// A dense fixed-width dimension slotted from the column's codes (see
    /// [`CodeSlots`]); `len` is its bucket count.
    WidthCodes {
        col: ColView<'a>,
        slots: &'a CodeSlots,
        len: u32,
    },
}

impl PlannedFilter {
    fn bind(&self) -> BoundFilter<'_> {
        match self {
            PlannedFilter::Range {
                col,
                min,
                max,
                codes: None,
            } => BoundFilter::Range {
                col: col.view(),
                min: *min,
                max: *max,
            },
            PlannedFilter::Range {
                col,
                codes: Some(range),
                ..
            } => BoundFilter::RangeCodes {
                col: col.view(),
                range: *range,
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
                        dense: Some(d),
                        codes: Some(slots),
                        ..
                    } => BoundDim::WidthCodes {
                        col: col.view(),
                        slots,
                        len: d.len as u32,
                    },
                    PlannedDim::Width {
                        col,
                        width,
                        anchor,
                        dense,
                        ..
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
        }
    }
}

// -------------------------------------------------------------- kernels

/// One morsel of a column as the kernels read it: its values at scan
/// positions `off..off + n` and, for a nullable column, its validity bitmap.
#[derive(Clone, Copy)]
struct Part<'x> {
    vals: Vals<'x>,
    off: usize,
    validity: Option<&'x SelVec>,
}

impl<'x> Part<'x> {
    /// The morsel at scan positions `base..` of `col`.
    #[inline]
    fn of(col: ColView<'x>, base: usize) -> Self {
        debug_assert_eq!(base % 64, 0, "morsels start on a bitmap word");
        Part {
            vals: col.vals,
            off: base,
            validity: col.validity,
        }
    }

    /// The morsel's validity mask; `None` for a column without nulls.
    /// `off` is a multiple of 64, so the mask is `WORDS` words of the
    /// bitmap, zero past its end.
    #[inline]
    fn mask(&self) -> Option<Mask> {
        self.validity
            .map(|v| std::array::from_fn(|w| v.word(self.off / 64 + w)))
    }

    /// The integer or decimal codes of a column read in code space.
    #[inline]
    fn codes(&self) -> &'x Ints {
        match self.vals {
            Vals::Ints(c) | Vals::Decimal(c, _) => c,
            Vals::F64(_) | Vals::WideDecimal(..) => {
                unreachable!("code-space columns have a code span")
            }
        }
    }

    /// Row `i`'s numeric value (`None` when null) — the sparse store's
    /// row-at-a-time measure accessor.
    #[inline(always)]
    fn number(&self, i: usize) -> Option<f64> {
        if self.validity.is_some_and(|v| !v.contains(self.off + i)) {
            return None;
        }
        let j = self.off + i;
        Some(match self.vals {
            Vals::F64(d) => d[j],
            Vals::Ints(c) => c.get(j) as f64,
            Vals::Decimal(c, t) => match_ints!(c, v => t.decode(v[j])),
            Vals::WideDecimal(c, scale) => match_ints!(c, v => decode_decimal(v[j], scale)),
        })
    }
}

/// Runs `$body` with `$src` bound to the `$n` values of a [`Part`] and
/// `$of` to the function that reads one as an `f64` (as
/// `Column::numeric_at` does): one monomorphized copy of `$body` per
/// payload type.
macro_rules! with_numbers {
    ($part:expr, $n:expr, |$src:ident, $of:ident| $body:expr) => {{
        let Part { vals, off, .. } = $part;
        let end = off + $n;
        match vals {
            Vals::F64(d) => {
                let $src = &d[off..end];
                let $of = |v: f64| v;
                $body
            }
            Vals::Ints(c) => match_ints!(c, v => {
                let $src = &v[off..end];
                let $of = |k: _| Code::widen(k) as f64;
                $body
            }),
            Vals::Decimal(c, t) => match_ints!(c, v => {
                let $src = &v[off..end];
                let $of = |k: _| t.decode(k);
                $body
            }),
            Vals::WideDecimal(c, scale) => match_ints!(c, v => {
                let $src = &v[off..end];
                let $of = |k: _| decode_decimal(k, scale);
                $body
            }),
        }
    }};
}

/// Runs `$body` with `$src` bound to the `$n` dictionary codes of a
/// [`Part`], at their stored width.
macro_rules! with_codes {
    ($part:expr, $n:expr, |$src:ident| $body:expr) => {{
        let Part { vals, off, .. } = $part;
        let end = off + $n;
        match vals {
            Vals::Ints(c) => match_ints!(c, v => {
                let $src = &v[off..end];
                $body
            }),
            Vals::F64(_) | Vals::Decimal(..) | Vals::WideDecimal(..) => {
                unreachable!("nominal uses are compiled over dictionary codes only")
            }
        }
    }};
}

/// Clears every `out` bit of a null row of `part`.
#[inline]
fn and_mask(out: &mut Mask, part: &Part<'_>) {
    if let Some(mask) = part.mask() {
        for w in 0..WORDS {
            out[w] &= mask[w];
        }
    }
}

/// Evaluates a filter tree over the morsel at positions `base..base + n`
/// into `out` (bit = row matches). Null values never match, mirroring SQL
/// WHERE semantics.
fn eval_filter(f: &BoundFilter<'_>, base: usize, n: usize, out: &mut Mask) {
    match f {
        BoundFilter::Range { col, min, max } => {
            let (min, max) = (*min, *max);
            let part = Part::of(*col, base);
            with_numbers!(part, n, |src, of| pack_mask(src, out, |v| {
                let v = of(v);
                v >= min && v < max
            }));
            and_mask(out, &part);
        }
        BoundFilter::In { col, member } => {
            let part = Part::of(*col, base);
            let member = |c: i64| member.get(c as usize).copied().unwrap_or(false);
            with_codes!(part, n, |src| pack_mask(src, out, |c| member(c.widen())));
            and_mask(out, &part);
        }
        BoundFilter::RangeCodes { col, range } => {
            let part = Part::of(*col, base);
            match_ints!(part.codes(), v => range_codes(&v[base..base + n], range, out));
            and_mask(out, &part);
        }
        BoundFilter::And(children) => {
            *out = [u64::MAX; WORDS];
            mask_tail(out, n);
            let mut tmp = [0u64; WORDS];
            for child in children {
                eval_filter(child, base, n, &mut tmp);
                for w in 0..WORDS {
                    out[w] &= tmp[w];
                }
            }
        }
        BoundFilter::Or(children) => {
            *out = [0u64; WORDS];
            let mut tmp = [0u64; WORDS];
            for child in children {
                eval_filter(child, base, n, &mut tmp);
                for w in 0..WORDS {
                    out[w] |= tmp[w];
                }
            }
        }
    }
}

/// Range mask over one morsel's codes (see [`CodeRange`]), compared in the
/// codes' own type.
#[inline]
fn range_codes<T: Code>(codes: &[T], range: &CodeRange, out: &mut Mask) {
    // Every code of a non-empty range is a code of the column, so it fits
    // `T`; `MAX..=MIN` holds no code.
    let (lo, hi) = if range.lo <= range.hi {
        let fit = |k: i64| T::try_from(k).ok().expect("range ends are codes");
        (fit(range.lo), fit(range.hi))
    } else {
        (T::MAX, T::MIN)
    };
    let neg_zero = range.neg_zero;
    pack_mask(codes, out, |k| {
        (lo <= k && k <= hi) | (neg_zero && k == T::NEG_ZERO)
    });
}

/// Computes dense bin slots for the morsel at positions `base..base + n`.
/// Rows with a null binned value get their `valid` bit cleared.
fn dense_slots(dims: &[BoundDim<'_>], base: usize, n: usize, slots: &mut [u32], valid: &mut Mask) {
    *valid = [u64::MAX; WORDS];
    mask_tail(valid, n);
    let slots = &mut slots[..n];

    // Fused 2D fast path: two nominal dimensions compute both coordinates
    // in a single pass — `slot = c0 + c1 · stride` — instead of one
    // slots-array round-trip per dimension. Devirtualized star joins land
    // here, so a joined×joined binning slots exactly like a de-normalized
    // one.
    if let [BoundDim::Nominal {
        col: c0,
        dict_len: stride,
    }, BoundDim::Nominal { col: c1, .. }] = dims
    {
        let (p0, p1) = (Part::of(*c0, base), Part::of(*c1, base));
        let stride = (*stride).max(1);
        with_codes!(p0, n, |s0| with_codes!(p1, n, |s1| {
            for (slot, (&a, &b)) in slots.iter_mut().zip(s0.iter().zip(s1)) {
                *slot = Code::widen(a) as u32 + Code::widen(b) as u32 * stride;
            }
        }));
        and_mask(valid, &p0);
        and_mask(valid, &p1);
        return;
    }

    let mut stride = 1u32;
    for (di, dim) in dims.iter().enumerate() {
        // One monomorphized flat slotting loop per arm; null rows carry a
        // placeholder and are cleared from `valid` via the mask.
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
                let part = Part::of(*col, base);
                with_codes!(part, n, |src| slot_span!(src, |c: _| Code::widen(c) as u32));
                and_mask(valid, &part);
                stride *= (*dict_len).max(1);
            }
            BoundDim::WidthCodes { col, slots: t, len } => {
                // One table load per row: the slot of every code was
                // computed at compile time from its decoded value.
                let slot_of = |k: i64| {
                    let i = k.wrapping_sub(t.lo) as usize;
                    t.slots.get(i).copied().unwrap_or(t.neg_zero)
                };
                let part = Part::of(*col, base);
                match_ints!(part.codes(), v => slot_span!(&v[base..base + n], |k| slot_of(Code::widen(k))));
                and_mask(valid, &part);
                stride *= (*len).max(1);
            }
            BoundDim::Width {
                col,
                width,
                anchor,
                dense,
            } => {
                let (lo, len) = dense.expect("dense path requires bounded bucket space");
                let slot_of = DenseWidth::slot_of(lo, len, *width, *anchor);
                let part = Part::of(*col, base);
                with_numbers!(part, n, |src, of| slot_span!(src, |v| slot_of(of(v))));
                and_mask(valid, &part);
                stride *= len.max(1);
            }
        }
    }
}

/// Computes sparse bin keys (up to two coordinates) for the morsel at
/// positions `base..base + n`. Rows with a null binned value get their
/// `valid` bit cleared.
fn sparse_keys(
    dims: &[BoundDim<'_>],
    base: usize,
    n: usize,
    k0: &mut [i64],
    k1: &mut [i64],
    valid: &mut Mask,
) {
    *valid = [u64::MAX; WORDS];
    mask_tail(valid, n);
    for (di, dim) in dims.iter().enumerate() {
        let out: &mut [i64] = if di == 0 { &mut k0[..n] } else { &mut k1[..n] };
        macro_rules! key_span {
            ($src:expr, $of:expr) => {{
                let of = $of;
                for (o, &v) in out.iter_mut().zip($src) {
                    *o = of(v);
                }
            }};
        }
        match dim {
            BoundDim::Nominal { col, .. } => {
                let part = Part::of(*col, base);
                with_codes!(part, n, |src| key_span!(src, |c: _| Code::widen(c)));
                and_mask(valid, &part);
            }
            BoundDim::WidthCodes { .. } => {
                unreachable!("code-space slotting is planned for dense accumulation only")
            }
            BoundDim::Width {
                col, width, anchor, ..
            } => {
                let (anchor, width) = (*anchor, *width);
                let key_of = move |v: f64| ((v - anchor) / width).floor() as i64;
                let part = Part::of(*col, base);
                with_numbers!(part, n, |src, of| key_span!(src, |v| key_of(of(v))));
                and_mask(valid, &part);
            }
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
        }
    }

    /// Processes the morsel at scan positions `base..base + n` (`base` a
    /// multiple of 64): filter → bin → accumulate. Returns the filter-match
    /// mask (bit `i` = morsel row `i` passed the filter; its popcount is
    /// the cost model's matched-row input).
    pub fn process_morsel(&mut self, bound: &BoundPlan<'_>, base: usize, n: usize) -> Mask {
        debug_assert!(n <= MORSEL);
        self.rows_seen += n as u64;

        // 1. Filter.
        let mut fmask: Mask = [u64::MAX; WORDS];
        mask_tail(&mut fmask, n);
        if let Some(filter) = &bound.filter {
            eval_filter(filter, base, n, &mut fmask);
        }
        let matched: usize = fmask.iter().map(|w| w.count_ones() as usize).sum();
        self.rows_matched += matched as u64;
        if matched == 0 {
            return fmask;
        }

        // 2. Bin keys, 3. accumulate matching rows.
        let mut valid: Mask = [0u64; WORDS];
        match &mut self.store {
            Store::Dense {
                counts,
                measures,
                touched,
                ..
            } => {
                dense_slots(&bound.dims, base, n, &mut self.slots, &mut valid);
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
                // (AND-ing the measure's validity mask) and fold `get(i)`
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
                for (m, col) in bound.measures.iter().enumerate() {
                    let Some(col) = col else { continue };
                    let part = Part::of(*col, base);
                    let mask = part.mask().unwrap_or(ONES);
                    with_numbers!(part, n, |src, of| measure_pass!(m, mask, |i: usize| of(
                        src[i]
                    )));
                }
            }
            Store::Sparse { index, accs, .. } => {
                sparse_keys(&bound.dims, base, n, &mut self.k0, &mut self.k1, &mut valid);
                let two_d = bound.dims.len() == 2;
                let nmeasures = self.nmeasures;
                let parts: Vec<Option<Part<'_>>> = bound
                    .measures
                    .iter()
                    .map(|c| c.map(|c| Part::of(c, base)))
                    .collect();
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
                        for (m, part) in parts.iter().enumerate() {
                            if let Some(v) = part.as_ref().and_then(|p| p.number(i)) {
                                acc.measures[m].update(v);
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
