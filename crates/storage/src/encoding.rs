//! Narrow lossless physical encodings: the one place that decides how a
//! column's values are laid out in memory.
//!
//! A column keeps its logical type ([`crate::DataType`]) whatever its
//! payload looks like. Where the values allow, the payload is narrower
//! than the logical type:
//!
//! | logical type | plain payload | narrow payloads | chosen when |
//! |---|---|---|---|
//! | nominal | `u32` codes | `u8`, `u16` codes | the dictionary has ≤ 256 / ≤ 65 536 entries |
//! | int | `i64` | `u8`, `u16` | every value lies in `0..=255` / `0..=65 535` |
//! | float | `f64` | scaled decimal: `u16`, `i16` or `i32` code `k` with exponent `e`, read as `k as f64 / 10^e` | every value round-trips bit for bit |
//!
//! Every encoding is exact. A float column is encoded only when, for one
//! exponent `e ≤` [`MAX_DECIMAL_EXP`], an encode → decode → `to_bits`
//! comparison passes on **every** row — null placeholders included, so a
//! null row still decodes to what the plain column held. The smallest such
//! exponent wins, then the narrowest code type that holds every code; any
//! other column stays plain. (ALP, Afroozeh et al., SIGMOD 2024, picks its
//! exponent the same way.) Rounding to an integer code loses the sign of
//! zero, so each code type reserves one code for `-0.0` ([`Code::NEG_ZERO`]:
//! the type's maximum for unsigned codes, its minimum for signed ones).
//!
//! Decode is one integer-to-float conversion and one division, which is
//! also how decimal data is usually produced: a generator's
//! `(x · 10^e).round() / 10^e`, or the correctly rounded value of a CSV
//! cell with at most `e` fractional digits.

use std::borrow::Cow;

/// Largest decimal exponent the chooser tries.
pub const MAX_DECIMAL_EXP: u8 = 6;

/// `10^e` for every decimal exponent (exact in `f64`).
const POW10: [f64; MAX_DECIMAL_EXP as usize + 1] =
    [1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// The divisor a decimal column with exponent `exp` decodes with.
#[inline]
pub fn decimal_scale(exp: u8) -> f64 {
    POW10[exp as usize]
}

/// An integer element type of a narrow payload.
pub trait Code: Copy + PartialEq + Into<i64> + TryFrom<i64> + Send + Sync + 'static {
    /// The code a decimal payload reserves for `-0.0`.
    const NEG_ZERO: Self;

    /// The code widened to `i64`.
    #[inline(always)]
    fn widen(self) -> i64 {
        self.into()
    }
}

macro_rules! impl_code {
    ($($t:ty => $neg_zero:expr),*) => {
        $(impl Code for $t {
            const NEG_ZERO: $t = $neg_zero;
        })*
    };
}
impl_code!(u8 => u8::MAX, u16 => u16::MAX, u32 => u32::MAX, i16 => i16::MIN, i32 => i32::MIN, i64 => i64::MIN);

/// Decodes one decimal code (see the module docs).
#[inline(always)]
pub fn decode_decimal<T: Code>(k: T, scale: f64) -> f64 {
    if k == T::NEG_ZERO {
        -0.0
    } else {
        k.widen() as f64 / scale
    }
}

/// Encodes `v` as a decimal code with exponent `exp`, or `None` when `v`
/// does not round-trip exactly through a `T` code (NaN and ±∞ never do).
#[inline]
pub(crate) fn encode_decimal<T: Code>(v: f64, exp: u8) -> Option<T> {
    if v == 0.0 && v.is_sign_negative() {
        return Some(T::NEG_ZERO);
    }
    let scale = decimal_scale(exp);
    let k = (v * scale).round();
    // Also rejects ±∞; beyond 2^53 integer codes are not exact.
    if k.is_nan() || k.abs() >= 9.0e15 {
        return None;
    }
    let code = T::try_from(k as i64).ok().filter(|&c| c != T::NEG_ZERO)?;
    (decode_decimal(code, scale).to_bits() == v.to_bits()).then_some(code)
}

/// A vector of integers stored at one element width.
#[derive(Debug, Clone, PartialEq)]
pub enum Ints {
    /// One byte per element.
    U8(Vec<u8>),
    /// Two bytes per element.
    U16(Vec<u16>),
    /// Four bytes per element (plain dictionary codes).
    U32(Vec<u32>),
    /// Two bytes per element, signed (decimal codes).
    I16(Vec<i16>),
    /// Four bytes per element, signed (decimal codes).
    I32(Vec<i32>),
    /// Eight bytes per element (plain integers).
    I64(Vec<i64>),
}

macro_rules! impl_from_vec {
    ($($t:ty => $variant:ident),*) => {
        $(impl From<Vec<$t>> for Ints {
            fn from(v: Vec<$t>) -> Ints {
                Ints::$variant(v)
            }
        })*
    };
}
impl_from_vec!(u8 => U8, u16 => U16, u32 => U32, i16 => I16, i32 => I32, i64 => I64);

/// Runs `$body` with `$v` bound to the element vector of an [`Ints`],
/// whatever its width: one monomorphized copy of `$body` per width.
#[macro_export]
macro_rules! match_ints {
    ($ints:expr, $v:ident => $body:expr) => {
        match $ints {
            $crate::Ints::U8($v) => $body,
            $crate::Ints::U16($v) => $body,
            $crate::Ints::U32($v) => $body,
            $crate::Ints::I16($v) => $body,
            $crate::Ints::I32($v) => $body,
            $crate::Ints::I64($v) => $body,
        }
    };
}

impl Ints {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match_ints!(self, v => v.len())
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per element.
    pub fn width(&self) -> usize {
        match self {
            Ints::U8(_) => 1,
            Ints::U16(_) | Ints::I16(_) => 2,
            Ints::U32(_) | Ints::I32(_) => 4,
            Ints::I64(_) => 8,
        }
    }

    /// Element `i`, widened.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match_ints!(self, v => v[i].widen())
    }

    /// The elements widened to `i64` (borrowed when already `i64`).
    pub fn to_i64(&self) -> Cow<'_, [i64]> {
        match self {
            Ints::I64(v) => Cow::Borrowed(v),
            other => Cow::Owned((0..other.len()).map(|i| other.get(i)).collect()),
        }
    }

    /// The elements as `u32` dictionary codes (borrowed when already
    /// `u32`). Only meaningful for code payloads, whose elements are never
    /// negative.
    pub fn to_u32(&self) -> Cow<'_, [u32]> {
        match self {
            Ints::U32(v) => Cow::Borrowed(v),
            other => Cow::Owned((0..other.len()).map(|i| other.get(i) as u32).collect()),
        }
    }

    /// The elements at `rows`, in order, at the same width.
    pub fn take(&self, rows: impl Iterator<Item = usize>) -> Ints {
        match self {
            Ints::U8(v) => Ints::U8(rows.map(|i| v[i]).collect()),
            Ints::U16(v) => Ints::U16(rows.map(|i| v[i]).collect()),
            Ints::U32(v) => Ints::U32(rows.map(|i| v[i]).collect()),
            Ints::I16(v) => Ints::I16(rows.map(|i| v[i]).collect()),
            Ints::I32(v) => Ints::I32(rows.map(|i| v[i]).collect()),
            Ints::I64(v) => Ints::I64(rows.map(|i| v[i]).collect()),
        }
    }
}

/// Largest code span a [`DecodeTable`] covers (256 KiB of `f64`s).
pub const MAX_DECODE_TABLE: usize = 1 << 15;

/// The decoded value of every code in a decimal payload's code range:
/// decoding through it is one load instead of a conversion and a division,
/// and bit-identical by construction (each entry is [`decode_decimal`] of
/// its code).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTable {
    /// The smallest code other than the `-0.0` code.
    lo: i64,
    /// `values[i]` decodes code `lo + i`.
    values: Vec<f64>,
}

impl DecodeTable {
    /// The table of a decimal payload, or `None` when its codes span more
    /// than [`MAX_DECODE_TABLE`] values.
    pub fn build(codes: &Ints, exp: u8) -> Option<DecodeTable> {
        fn range<T: Code>(v: &[T]) -> (i64, i64) {
            v.iter()
                .filter(|&&k| k != T::NEG_ZERO)
                .fold((i64::MAX, i64::MIN), |(lo, hi), &k| {
                    (lo.min(k.widen()), hi.max(k.widen()))
                })
        }
        let (lo, hi) = match_ints!(codes, v => range(v));
        let span = if lo > hi { 0 } else { (hi - lo + 1) as usize };
        if span > MAX_DECODE_TABLE {
            return None;
        }
        let scale = decimal_scale(exp);
        Some(DecodeTable {
            lo,
            values: (0..span as i64).map(|i| (lo + i) as f64 / scale).collect(),
        })
    }

    /// The smallest code the table covers.
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// `values()[i]` is the decoded value of code `lo() + i`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Decodes one code of the payload the table was built for: every code
    /// outside the table's range is the `-0.0` code.
    #[inline(always)]
    pub fn decode<T: Code>(&self, k: T) -> f64 {
        let i = k.widen().wrapping_sub(self.lo) as usize;
        self.values.get(i).copied().unwrap_or(-0.0)
    }
}

/// Dictionary codes at the narrowest width the dictionary size allows —
/// `u8` up to 256 entries, `u16` up to 65 536 — or `None` when they stay
/// plain `u32` (also when a code does not fit, which a valid column never
/// holds).
pub(crate) fn narrow_codes(codes: &[u32], dict_len: usize) -> Option<Ints> {
    fn narrowed<T: TryFrom<u32>>(codes: &[u32]) -> Option<Vec<T>> {
        codes.iter().map(|&c| T::try_from(c).ok()).collect()
    }
    if dict_len <= 1 << 8 {
        narrowed(codes).map(Ints::U8)
    } else if dict_len <= 1 << 16 {
        narrowed(codes).map(Ints::U16)
    } else {
        None
    }
}

/// Integers as `u8` or `u16` when every value fits, or `None` when they
/// stay plain `i64`.
pub(crate) fn narrow_ints(values: &[i64]) -> Option<Ints> {
    let (lo, hi) = values
        .iter()
        .fold((0i64, 0i64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if lo < 0 {
        None
    } else if hi <= i64::from(u8::MAX) {
        Some(Ints::U8(values.iter().map(|&v| v as u8).collect()))
    } else if hi <= i64::from(u16::MAX) {
        Some(Ints::U16(values.iter().map(|&v| v as u16).collect()))
    } else {
        None
    }
}

/// The decimal encoding of `values` — codes and exponent — when one
/// exists (see the module docs); `None` keeps the column plain. Empty
/// columns stay plain.
pub(crate) fn encode_floats(values: &[f64]) -> Option<(Ints, u8)> {
    if values.is_empty() {
        return None;
    }
    'exp: for exp in 0..=MAX_DECIMAL_EXP {
        let mut codes: Vec<i32> = Vec::with_capacity(values.len());
        // Range of the codes other than the -0.0 code.
        let (mut lo, mut hi) = (i32::MAX, i32::MIN);
        for &v in values {
            let Some(code) = encode_decimal::<i32>(v, exp) else {
                continue 'exp;
            };
            if code != i32::NEG_ZERO {
                lo = lo.min(code);
                hi = hi.max(code);
            }
            codes.push(code);
        }
        let narrow = |neg_zero| move |k: i32| if k == i32::NEG_ZERO { neg_zero } else { k };
        let ints = if lo >= 0 && hi < i32::from(u16::NEG_ZERO) {
            let to = narrow(i32::from(u16::NEG_ZERO));
            Ints::U16(codes.into_iter().map(|k| to(k) as u16).collect())
        } else if lo > i32::from(i16::NEG_ZERO) && hi <= i32::from(i16::MAX) {
            let to = narrow(i32::from(i16::NEG_ZERO));
            Ints::I16(codes.into_iter().map(|k| to(k) as i16).collect())
        } else {
            Ints::I32(codes)
        };
        return Some((ints, exp));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(ints: &Ints, exp: u8) -> Vec<f64> {
        let scale = decimal_scale(exp);
        match_ints!(ints, v => v.iter().map(|&k| decode_decimal(k, scale)).collect())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn generator_style_decimals_pick_the_smallest_exponent_and_width() {
        let times = [0.0, 8.25, 23.99, 17.5];
        let (ints, exp) = encode_floats(&times).unwrap();
        assert_eq!((exp, ints.width()), (2, 2));
        assert!(matches!(ints, Ints::U16(_)));
        assert_eq!(bits(&decode_all(&ints, exp)), bits(&times));

        let delays = [-4.5, 0.0, -0.0, 668.0, 12.3];
        let (ints, exp) = encode_floats(&delays).unwrap();
        assert_eq!(exp, 1);
        assert!(matches!(ints, Ints::I16(_)));
        assert_eq!(bits(&decode_all(&ints, exp)), bits(&delays));

        let wide = [-1e5, 1e5];
        let (ints, exp) = encode_floats(&wide).unwrap();
        assert_eq!(exp, 0);
        assert!(matches!(ints, Ints::I32(_)));
    }

    #[test]
    fn decode_tables_match_division_bit_for_bit() {
        let values = [-0.0, -40.5, 0.0, 12.3, 668.1, -0.0];
        let (ints, exp) = encode_floats(&values).unwrap();
        let table = DecodeTable::build(&ints, exp).unwrap();
        let scale = decimal_scale(exp);
        let via_table: Vec<f64> =
            match_ints!(&ints, v => v.iter().map(|&k| table.decode(k)).collect());
        assert_eq!(bits(&via_table), bits(&values));
        let via_division: Vec<f64> =
            match_ints!(&ints, v => v.iter().map(|&k| decode_decimal(k, scale)).collect());
        assert_eq!(bits(&via_table), bits(&via_division));

        // Only -0.0 codes: an empty table decodes everything to -0.0.
        let (ints, exp) = encode_floats(&[-0.0]).unwrap();
        let table = DecodeTable::build(&ints, exp).unwrap();
        assert!(table.decode(u16::MAX).is_sign_negative());
        // Too wide a span keeps division.
        let (ints, exp) = encode_floats(&[0.0, 1e6]).unwrap();
        assert!(DecodeTable::build(&ints, exp).is_none());
    }

    #[test]
    fn negative_zero_takes_the_reserved_code() {
        let (ints, exp) = encode_floats(&[-0.0, 1.0]).unwrap();
        assert_eq!(ints, Ints::U16(vec![u16::MAX, 1]));
        let back = decode_all(&ints, exp);
        assert!(back[0] == 0.0 && back[0].is_sign_negative());
    }

    #[test]
    fn non_decimal_values_stay_plain() {
        assert!(encode_floats(&[1.0, f64::NAN]).is_none());
        assert!(encode_floats(&[f64::INFINITY]).is_none());
        assert!(encode_floats(&[0.1 + 0.2]).is_none());
        assert!(encode_floats(&[1e300]).is_none());
        assert!(encode_floats(&[]).is_none());
        // A code that would collide with the reserved -0.0 code.
        assert!(encode_decimal::<i16>(-32_768.0, 0).is_none());
        assert_eq!(encode_decimal::<i16>(-32_767.0, 0), Some(-32_767));
    }

    #[test]
    fn ints_and_codes_narrow_by_range() {
        assert_eq!(narrow_ints(&[1, 12]), Some(Ints::U8(vec![1, 12])));
        assert_eq!(narrow_ints(&[0, 300]), Some(Ints::U16(vec![0, 300])));
        assert_eq!(narrow_ints(&[-1, 3]), None);
        assert_eq!(narrow_ints(&[70_000]), None);
        assert_eq!(narrow_codes(&[0, 2, 1], 3), Some(Ints::U8(vec![0, 2, 1])));
        assert_eq!(narrow_codes(&[0, 300], 400), Some(Ints::U16(vec![0, 300])));
        assert_eq!(narrow_codes(&[0, 300], 3), None);
    }

    #[test]
    fn ints_views_widen_exactly() {
        let v = Ints::I16(vec![-3, 7]);
        assert_eq!(v.get(0), -3);
        assert_eq!(&*v.to_i64(), &[-3, 7]);
        assert_eq!(v.take([1, 1, 0].into_iter()), Ints::I16(vec![7, 7, -3]));
        assert!(matches!(Ints::U32(vec![4]).to_u32(), Cow::Borrowed(_)));
        assert_eq!(&*Ints::U8(vec![4]).to_u32(), &[4]);
    }
}
