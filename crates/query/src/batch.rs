//! Morsel-driven batch kernels and accumulation.
//!
//! Execution processes fixed-size morsels (`MORSEL` rows) of contiguous
//! scan positions — a shuffled run reads permuted column copies, so every
//! morsel is a natural-order slice. Kernels read every column in place, at
//! its stored encoding (see `crate::plan::Access`), through a view typed by
//! use (`ColView`): numeric uses read `Vals`, nominal uses the column's
//! `DictCodes` (`u8`/`u16`/`u32`) and code-space uses `CodeVals` (the
//! `IntValues` or `DecimalCodes` of a narrow column). Each kernel body is
//! therefore compiled once per width its column's role can hold — the
//! fused 2-D nominal path 3 × 3 times. Per morsel:
//!
//! 1. the filter tree is evaluated into a bitmask (`Mask`) by typed
//!    kernels — one `match` on column type per *morsel*, not per row. Each
//!    kernel builds its mask a 64-row word at a time: the predicate fills a
//!    64-byte lane buffer, which is packed into the word in a register and
//!    stored once. A range over a narrow numeric column compares codes
//!    (`CodeRange`), and an IN list looks dictionary codes up where they
//!    are stored; a morsel the filter fully rejects stops here;
//! 2. bin slots are computed from dictionary codes in place. In a bounded
//!    bin space they are arithmetic, computed for all rows — a fixed-width
//!    dimension over a narrow numeric column looks its slots up by code
//!    (`CodeSlots`); in an unbounded one each matching row's bin key is
//!    computed and numbered, new keys taking the next slot (`KeyIds`);
//! 3. matching rows are folded into the accumulator in bulk. The store
//!    first counts the live rows into their bins in a small kernel of
//!    its own (`count_slots`), then runs one pass per measure that updates
//!    only the statistics its aggregate reads (`Stats`: `n`, `sum`, `sumsq`
//!    for SUM and AVG; `n` and `min` for MIN; `n` and `max` for MAX). A
//!    measure over a narrow numeric column decodes the code of each matched,
//!    valid row only (through the column's decode table, or by widening an
//!    int).
//!
//! A nullable column's morsel mask is `WORDS` words of its validity bitmap
//! read in place: a morsel starts at a multiple of 64 (chunks and morsels
//! are), so no bit shifting is needed. Each kernel ANDs it into the mask it
//! builds, so null rows never match a filter and never reach an
//! accumulator, and a code is used as an index only under that mask.
//!
//! Every kernel consumes a `ColView`, so star-schema joins devirtualized by
//! the planner run the same code as de-normalized columns. Accumulators
//! live in flat arrays indexed by slot. A bounded bin space (nominal
//! dictionaries, statistics-bounded bucketings) indexes them by
//! `c0 + c1 * len0`, replacing the per-row hash probe of the scalar oracle;
//! an unbounded one probes its key map once per run of equal keys.

use crate::aggregate::{BinAcc, GroupedAcc, MeasureAcc, Stats};
use crate::plan::{
    AccMode, CodeRange, CodeSlots, CodeVals, ColView, CompiledPlan, DenseWidth, PlannedDim,
    PlannedFilter, Vals,
};
use idebench_core::{AggFunc, BinCoord, BinKey};
use idebench_storage::encoding::{decode_decimal, Code};
use idebench_storage::{match_ints, DictCodes};
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
        col: ColView<'a, CodeVals<'a>>,
        range: CodeRange,
    },
    In {
        col: ColView<'a, &'a DictCodes>,
        member: &'a [bool],
    },
    And(Vec<BoundFilter<'a>>),
    Or(Vec<BoundFilter<'a>>),
}

enum BoundDim<'a> {
    Nominal {
        col: ColView<'a, &'a DictCodes>,
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
        col: ColView<'a, CodeVals<'a>>,
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
                col: col.code_view(),
                range: *range,
            },
            PlannedFilter::In { col, member } => BoundFilter::In {
                col: col.dict_view(),
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
                        col: col.dict_view(),
                        dict_len: (*dict_len).max(1) as u32,
                    },
                    PlannedDim::Width {
                        col,
                        dense: Some(d),
                        codes: Some(slots),
                        ..
                    } => BoundDim::WidthCodes {
                        col: col.code_view(),
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

impl<V> ColView<'_, V> {
    /// The validity mask of the morsel at scan positions `base..`; `None`
    /// for a column without nulls. `base` is a multiple of 64, so the mask
    /// is `WORDS` words of the bitmap, zero past its end.
    #[inline]
    fn mask(&self, base: usize) -> Option<Mask> {
        debug_assert_eq!(base % 64, 0, "morsels start on a bitmap word");
        self.validity
            .map(|v| std::array::from_fn(|w| v.word(base / 64 + w)))
    }
}

/// Runs `$body` once per width of `$codes`, with `$src` bound to the codes
/// at scan positions `$base..$base + $n` and `$of`, if named, to `$read`.
macro_rules! per_width {
    ($codes:expr, $base:expr, $n:expr, $src:ident; $body:expr) => {
        match_ints!($codes, v => {
            let $src = &v[$base..$base + $n];
            $body
        })
    };
    ($codes:expr, $base:expr, $n:expr, $src:ident, $of:ident = $read:expr; $body:expr) => {
        per_width!($codes, $base, $n, $src; {
            let $of = $read;
            $body
        })
    };
}

/// An integer or dictionary code read as a number: its own value.
#[inline(always)]
fn code_value<T: Code>(k: T) -> f64 {
    k.widen() as f64
}

/// Runs `$body` with `$src` bound to the values of a column's morsel at
/// scan positions `$base..$base + $n` and `$of` to the function that reads
/// one as an `f64` (as `Column::numeric_at` does): one monomorphized copy
/// of `$body` per payload type.
macro_rules! with_numbers {
    ($col:expr, $base:expr, $n:expr, |$src:ident, $of:ident| $body:expr) => {
        match $col.vals {
            Vals::F64(d) => {
                let $src = &d[$base..$base + $n];
                let $of = |v: f64| v;
                $body
            }
            Vals::Int(c) => per_width!(c, $base, $n, $src, $of = code_value; $body),
            Vals::Dict(c) => per_width!(c, $base, $n, $src, $of = code_value; $body),
            Vals::Decimal(c, t) => per_width!(c, $base, $n, $src, $of = |k: _| t.decode(k); $body),
            Vals::WideDecimal(c, s) => {
                per_width!(c, $base, $n, $src, $of = |k: _| decode_decimal(k, s); $body)
            }
        }
    };
}

/// Runs `$body` with `$src` bound to the dictionary codes of a column's
/// morsel at scan positions `$base..$base + $n`, at their stored width.
macro_rules! with_codes {
    ($col:expr, $base:expr, $n:expr, |$src:ident| $body:expr) => {
        per_width!($col.vals, $base, $n, $src; $body)
    };
}

/// Runs `$body` with `$src` bound to the codes of a column read in code
/// space, at scan positions `$base..$base + $n` and their stored width.
macro_rules! with_code_vals {
    ($col:expr, $base:expr, $n:expr, |$src:ident| $body:expr) => {
        match $col.vals {
            CodeVals::Int(c) => per_width!(c, $base, $n, $src; $body),
            CodeVals::Decimal(c) => per_width!(c, $base, $n, $src; $body),
        }
    };
}

/// Clears every `out` bit of a null row of `col`'s morsel at `base..`.
#[inline]
fn and_mask<V>(out: &mut Mask, col: &ColView<'_, V>, base: usize) {
    if let Some(mask) = col.mask(base) {
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
            with_numbers!(col, base, n, |src, of| pack_mask(src, out, |v| {
                let v = of(v);
                v >= min && v < max
            }));
            and_mask(out, col, base);
        }
        BoundFilter::In { col, member } => {
            let hit = |c: i64| member.get(c as usize).copied().unwrap_or(false);
            with_codes!(col, base, n, |src| pack_mask(src, out, |c| hit(c.widen())));
            and_mask(out, col, base);
        }
        BoundFilter::RangeCodes { col, range } => {
            with_code_vals!(col, base, n, |src| range_codes(src, range, out));
            and_mask(out, col, base);
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
        let stride = (*stride).max(1);
        with_codes!(c0, base, n, |s0| with_codes!(c1, base, n, |s1| {
            for (slot, (&a, &b)) in slots.iter_mut().zip(s0.iter().zip(s1)) {
                *slot = Code::widen(a) as u32 + Code::widen(b) as u32 * stride;
            }
        }));
        and_mask(valid, c0, base);
        and_mask(valid, c1, base);
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
                with_codes!(col, base, n, |src| {
                    slot_span!(src, |c: _| Code::widen(c) as u32)
                });
                and_mask(valid, col, base);
                stride *= (*dict_len).max(1);
            }
            BoundDim::WidthCodes { col, slots: t, len } => {
                // One table load per row: the slot of every code was
                // computed at compile time from its decoded value.
                let slot_of = |k: i64| {
                    let i = k.wrapping_sub(t.lo) as usize;
                    t.slots.get(i).copied().unwrap_or(t.neg_zero)
                };
                with_code_vals!(col, base, n, |src| {
                    slot_span!(src, |k| slot_of(Code::widen(k)))
                });
                and_mask(valid, col, base);
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
                with_numbers!(col, base, n, |src, of| slot_span!(src, |v| slot_of(of(v))));
                and_mask(valid, col, base);
                stride *= len.max(1);
            }
        }
    }
}

/// Computes the bin keys of an unbounded space (up to two coordinates) for
/// the morsel at positions `base..base + n`. Rows with a null binned value
/// get their `valid` bit cleared.
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
                with_codes!(col, base, n, |src| key_span!(src, |c: _| Code::widen(c)));
                and_mask(valid, col, base);
            }
            BoundDim::WidthCodes { .. } => {
                unreachable!("code-space slotting is planned for dense accumulation only")
            }
            BoundDim::Width {
                col, width, anchor, ..
            } => {
                let (anchor, width) = (*anchor, *width);
                let key_of = move |v: f64| ((v - anchor) / width).floor() as i64;
                with_numbers!(col, base, n, |src, of| key_span!(src, |v| key_of(of(v))));
                and_mask(valid, col, base);
            }
        }
    }
}

// ---------------------------------------------------------- accumulation

/// Counts the live rows of one morsel into their dense bins (bit `i` of
/// `live` = row `i` counts into `counts[slots[i]]`), appending each bin's
/// first touch to `touched`.
///
/// Kept out of line on purpose: compiled as a function of its own, the loop
/// reads ≈0.5–0.8 ns/row unfiltered, against ≈0.8–1.2 ns/row when inlined
/// into [`BatchAcc::process_morsel`], whose measure passes then set its
/// register allocation and code layout. `nm` lists it as its own symbol.
#[inline(never)]
fn count_slots(slots: &[u32], live: &Mask, counts: &mut [u64], touched: &mut Vec<u32>) {
    // Full words (the common unfiltered case) skip the per-bit scan;
    // iteration order is unchanged either way.
    for (w, &word) in live.iter().enumerate() {
        let mut bits = word;
        if bits == u64::MAX {
            for &slot in &slots[w * 64..w * 64 + 64] {
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
                let slot = slots[i] as usize;
                if counts[slot] == 0 {
                    touched.push(slot as u32);
                }
                counts[slot] += 1;
            }
        }
    }
}

/// Slot-decode metadata of one binning dimension: its bounded size and how
/// a slot coordinate maps back to a [`BinCoord`].
#[derive(Debug, Clone, Copy)]
struct DenseDim {
    /// Size of this dimension's bin space (`slot = c0 + c1 · len0`); unused
    /// for an unbounded space, whose slots decode through their keys.
    len: usize,
    /// `None` = nominal (coordinate is a dictionary code); `Some(lo)` =
    /// bucketed (coordinate `c` decodes to bucket `lo + c`). The key of an
    /// unbounded space is the bucket itself, so its `lo` is 0.
    bucket_lo: Option<i64>,
}

/// Dense ids for the bin keys of an unbounded bin space
/// ([`AccMode::Sparse`]): each new `(i64, i64)` key takes the next id, so
/// ids follow the first touch of their bins over live rows, and the ids
/// are the store's slots.
struct KeyIds {
    index: FxHashMap<(i64, i64), u32>,
    /// `keys[id]` is the bin key of slot `id`.
    keys: Vec<(i64, i64)>,
    // Reusable per-morsel key scratch.
    k0: Vec<i64>,
    k1: Vec<i64>,
}

impl KeyIds {
    fn new() -> KeyIds {
        KeyIds {
            index: FxHashMap::default(),
            keys: Vec::new(),
            k0: vec![0; MORSEL],
            k1: vec![0; MORSEL],
        }
    }

    /// The id of `key`: the next one if `key` is new.
    #[inline]
    fn id(&mut self, key: (i64, i64)) -> u32 {
        let next = self.keys.len() as u32;
        let id = *self.index.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }

    /// Computes the slots of the morsel at positions `base..base + n` for
    /// the rows of `fmask` whose binned values are non-null (`valid` gets
    /// the latter). Consecutive rows often land in the same bin; a last-key
    /// memo skips the hash probe for each run of equal keys.
    #[inline(never)]
    fn slots(
        &mut self,
        dims: &[BoundDim<'_>],
        base: usize,
        n: usize,
        fmask: &Mask,
        slots: &mut [u32],
        valid: &mut Mask,
    ) {
        sparse_keys(dims, base, n, &mut self.k0, &mut self.k1, valid);
        let two_d = dims.len() == 2;
        let mut last: Option<((i64, i64), u32)> = None;
        for w in 0..WORDS {
            let mut bits = fmask[w] & valid[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let key = (self.k0[i], if two_d { self.k1[i] } else { 0 });
                slots[i] = match last {
                    Some((k, s)) if k == key => s,
                    _ => {
                        let s = self.id(key);
                        last = Some((key, s));
                        s
                    }
                };
            }
        }
    }
}

/// The vectorized accumulator driven by [`CompiledPlan`] morsel kernels:
/// flat arrays of counts and measure statistics indexed by bin slot.
///
/// A bounded bin space ([`AccMode::Dense`]: nominal dictionaries and/or
/// statistics-bounded bucketings) computes slots arithmetically and is
/// preallocated; an unbounded one ([`AccMode::Sparse`]) numbers its keys
/// ([`KeyIds`]) and grows. Either way the same kernels count and measure.
///
/// Mirrors the statistics of [`GroupedAcc`] (which remains the scalar
/// reference and merge/finish representation); [`BatchAcc::to_grouped`]
/// materializes into it in O(populated bins).
pub(crate) struct BatchAcc {
    aggs: Vec<(AggFunc, bool)>,
    /// The statistics each aggregate position reads ([`Stats::of`]); the
    /// kernels update only those.
    stats: Vec<Option<Stats>>,
    nmeasures: usize,
    /// Per-dimension slot decode metadata (1 or 2 entries).
    dims: Vec<DenseDim>,
    counts: Vec<u64>,
    /// `nmeasures` measure accumulators per slot, slot-major.
    measures: Vec<MeasureAcc>,
    /// Slots with `counts > 0`, in first-touch order — snapshots only walk
    /// populated bins, not the whole space.
    ///
    /// The order is load-bearing: [`BatchAcc::to_grouped`] inserts bins in
    /// it, the insertion order fixes the iteration order of the result's
    /// hash map, and `Metrics::evaluate` (`idebench-core`) sums floats in
    /// that iteration order. Another order (slot order, say) gives the same
    /// bins but different report bits.
    touched: Vec<u32>,
    /// The key ids of an unbounded bin space; `None` for a bounded one.
    ids: Option<KeyIds>,
    pub rows_seen: u64,
    pub rows_matched: u64,
    // Reusable per-morsel scratch.
    slots: Vec<u32>,
}

impl BatchAcc {
    pub fn for_plan(plan: &CompiledPlan) -> BatchAcc {
        let aggs: Vec<(AggFunc, bool)> = plan
            .query()
            .aggregates()
            .iter()
            .map(|a| (a.func, a.dimension.is_some()))
            .collect();
        let stats = aggs.iter().map(|&(func, _)| Stats::of(func)).collect();
        let nmeasures = aggs.len();
        let (space, ids) = match plan.acc_mode() {
            AccMode::Dense(space) => (space, None),
            AccMode::Sparse => (0, Some(KeyIds::new())),
        };
        let dims = plan
            .dims
            .iter()
            .map(|d| match d {
                PlannedDim::Nominal { dict_len, .. } => DenseDim {
                    len: (*dict_len).max(1),
                    bucket_lo: None,
                },
                PlannedDim::Width { .. } if ids.is_some() => DenseDim {
                    len: 0,
                    bucket_lo: Some(0),
                },
                PlannedDim::Width { dense, .. } => {
                    let dense = dense.expect("dense mode requires bounded bucket space");
                    DenseDim {
                        len: dense.len,
                        bucket_lo: Some(dense.lo),
                    }
                }
            })
            .collect();
        BatchAcc {
            aggs,
            stats,
            nmeasures,
            dims,
            counts: vec![0; space],
            measures: vec![MeasureAcc::new(); space * nmeasures],
            touched: Vec::new(),
            ids,
            rows_seen: 0,
            rows_matched: 0,
            slots: vec![0; MORSEL],
        }
    }

    /// Extends the tables to cover `len` slots (an unbounded space's ids).
    fn grow(&mut self, len: usize) {
        if self.counts.len() < len {
            self.counts.resize(len, 0);
            self.measures
                .resize(len * self.nmeasures, MeasureAcc::new());
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

        // 2. Bin slots, 3. accumulate matching rows.
        let mut valid: Mask = [0u64; WORDS];
        if let Some(ids) = &mut self.ids {
            ids.slots(&bound.dims, base, n, &fmask, &mut self.slots, &mut valid);
            let len = ids.keys.len();
            self.grow(len);
        } else {
            dense_slots(&bound.dims, base, n, &mut self.slots, &mut valid);
        }
        let (counts, measures) = (&mut self.counts, &mut self.measures);
        let live: Mask = std::array::from_fn(|w| fmask[w] & valid[w]);
        count_slots(&self.slots, &live, counts, &mut self.touched);
        // One pass per measure column, so the column-type dispatch
        // runs once per morsel instead of once per row. Per (bin,
        // measure) the update sequence stays exactly row order.
        let nmeasures = self.nmeasures;
        let slots = &self.slots;
        // A flat measure-update pass over the column `$col`:
        // walk the live rows (AND-ing the column's validity mask) and
        // fold each value into the row's bin accumulator with
        // `$update`.
        macro_rules! measure_pass {
            ($m:expr, $col:expr, $update:ident) => {{
                let mask = $col.mask(base).unwrap_or(ONES);
                with_numbers!($col, base, n, |src, of| for w in 0..WORDS {
                    let mut bits = live[w] & mask[w];
                    if bits == u64::MAX {
                        // Full word: straight-line row loop, same
                        // update order as the bit scan below.
                        for i in w * 64..w * 64 + 64 {
                            measures[slots[i] as usize * nmeasures + $m].$update(of(src[i]));
                        }
                    } else {
                        while bits != 0 {
                            let i = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            measures[slots[i] as usize * nmeasures + $m].$update(of(src[i]));
                        }
                    }
                })
            }};
        }
        for (m, col) in bound.measures.iter().enumerate() {
            let (Some(col), Some(stats)) = (col, self.stats[m]) else {
                continue;
            };
            match stats {
                Stats::Moments => measure_pass!(m, col, update_moments),
                Stats::Min => measure_pass!(m, col, update_min),
                Stats::Max => measure_pass!(m, col, update_max),
            }
        }
        fmask
    }

    /// Materializes into the canonical [`GroupedAcc`] representation, in
    /// O(populated bins).
    ///
    /// Bins are inserted in the order of their first appearance in the
    /// scan (chunk merges keep it). That insertion order fixes the
    /// iteration order of the resulting hash map, which report metrics
    /// (`Metrics::evaluate` in `idebench-core`) sum floats in, so it must
    /// not change.
    pub fn to_grouped(&self) -> GroupedAcc {
        let dims = &self.dims;
        let decode = |dim: &DenseDim, c: i64| match dim.bucket_lo {
            None => BinCoord::Cat(c as u32),
            Some(lo) => BinCoord::Bucket(lo + c),
        };
        let mut bins: FxHashMap<BinKey, BinAcc> = FxHashMap::default();
        for &slot in &self.touched {
            let slot = slot as usize;
            // A bounded space's slot is arithmetic; an unbounded one's is
            // the id of its key.
            let (c0, c1) = match &self.ids {
                None => ((slot % dims[0].len) as i64, (slot / dims[0].len) as i64),
                Some(ids) => ids.keys[slot],
            };
            let key = if dims.len() == 2 {
                BinKey::d2(decode(&dims[0], c0), decode(&dims[1], c1))
            } else {
                BinKey::d1(decode(&dims[0], c0))
            };
            bins.insert(
                key,
                BinAcc {
                    count: self.counts[slot],
                    measures: self.measures[slot * self.nmeasures..][..self.nmeasures].to_vec(),
                },
            );
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
        let nmeasures = self.nmeasures;
        for &oslot in &other.touched {
            let oslot = oslot as usize;
            // Partials number an unbounded space's keys apart: remap
            // through the other's key.
            let slot = match (&mut self.ids, &other.ids) {
                (Some(ids), Some(oids)) => ids.id(oids.keys[oslot]) as usize,
                _ => oslot,
            };
            self.grow(slot + 1);
            if self.counts[slot] == 0 {
                self.touched.push(slot as u32);
            }
            self.counts[slot] += other.counts[oslot];
            for m in 0..nmeasures {
                self.measures[slot * nmeasures + m].merge(&other.measures[oslot * nmeasures + m]);
            }
        }
    }

    /// Empties the accumulator for reuse over the same plan, as if freshly
    /// built by [`BatchAcc::for_plan`]. Only the touched bins are cleared
    /// (and an unbounded space's key ids), so the cost is O(populated bins),
    /// not O(bin space).
    pub fn reset(&mut self) {
        self.rows_seen = 0;
        self.rows_matched = 0;
        for slot in self.touched.drain(..) {
            let slot = slot as usize;
            self.counts[slot] = 0;
            self.measures[slot * self.nmeasures..][..self.nmeasures].fill(MeasureAcc::new());
        }
        if let Some(ids) = &mut self.ids {
            ids.index.clear();
            ids.keys.clear();
        }
    }
}
