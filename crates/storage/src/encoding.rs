//! Narrow lossless physical encodings: the one place that decides how a
//! column's values are laid out in memory.
//!
//! A column keeps its logical type ([`crate::DataType`]) whatever its
//! payload looks like. Where the values allow, the payload is narrower
//! than the logical type:
//!
//! | logical type | payload type | plain payload | narrow payloads | chosen when |
//! |---|---|---|---|---|
//! | nominal | [`DictCodes`] | `u32` codes | `u8`, `u16` codes | the dictionary has ≤ 256 / ≤ 65 536 entries |
//! | int | [`IntValues`] | `i64` | `u8`, `u16` | every value lies in `0..=255` / `0..=65 535` |
//! | float | `f64`, or [`DecimalCodes`] | `f64` | scaled decimal: `u16`, `i16` or `i32` code `k` with exponent `e`, read as `k as f64 / 10^e` | every value round-trips bit for bit |
//!
//! Each payload type is an [`Ints`] over its role's three widths, so it
//! admits only the widths the chooser writes for that role, and a kernel
//! over one ([`match_ints!`](crate::match_ints)) is compiled once per such width.
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
pub trait Code: Copy + Default + Ord + Into<i64> + TryFrom<i64> + Send + Sync + 'static {
    /// The code a decimal payload reserves for `-0.0`.
    const NEG_ZERO: Self;
    /// The type's smallest value.
    const MIN: Self;
    /// The type's largest value.
    const MAX: Self;

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
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;
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

/// A vector of integers at one of the three widths [`crate::encoding`] may
/// choose for one role ([`DictCodes`], [`IntValues`], [`DecimalCodes`]),
/// narrowest choice first (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Ints<N, M, W> {
    /// The narrowest choice.
    Narrow(Vec<N>),
    /// The middle choice.
    Mid(Vec<M>),
    /// The widest choice: the role's plain payload.
    Wide(Vec<W>),
}

/// Dictionary codes: `u8` up to 256 entries, `u16` up to 65 536, `u32`
/// plain.
pub type DictCodes = Ints<u8, u16, u32>;
/// Integer values: `u8` or `u16` when every value fits, `i64` plain.
pub type IntValues = Ints<u8, u16, i64>;
/// Decimal codes (see the module docs): `u16`, then `i16` (both two
/// bytes), then `i32`.
pub type DecimalCodes = Ints<u16, i16, i32>;

/// Dictionary codes from a vector at any of their widths: generators
/// write codes at the width of their category indexes.
macro_rules! impl_from_vec {
    ($($t:ty => $variant:ident),*) => {
        $(impl From<Vec<$t>> for DictCodes {
            fn from(v: Vec<$t>) -> DictCodes {
                Ints::$variant(v)
            }
        })*
    };
}
impl_from_vec!(u8 => Narrow, u16 => Mid, u32 => Wide);

/// Runs `$body` with `$v` bound to the element vector of an [`Ints`],
/// whatever its width: one monomorphized copy of `$body` per width of the
/// payload's role.
#[macro_export]
macro_rules! match_ints {
    ($ints:expr, $v:ident => $body:expr) => {
        match $ints {
            $crate::Ints::Narrow($v) => $body,
            $crate::Ints::Mid($v) => $body,
            $crate::Ints::Wide($v) => $body,
        }
    };
}

impl<N: Code + Into<W>, M: Code + Into<W>, W: Code> Ints<N, M, W> {
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
            Ints::Narrow(_) => size_of::<N>(),
            Ints::Mid(_) => size_of::<M>(),
            Ints::Wide(_) => size_of::<W>(),
        }
    }

    /// Element `i`, widened.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match_ints!(self, v => v[i].widen())
    }

    /// The elements at the role's plain width (borrowed when already
    /// plain).
    pub fn widened(&self) -> Cow<'_, [W]> {
        match self {
            Ints::Narrow(v) => Cow::Owned(v.iter().map(|&k| k.into()).collect()),
            Ints::Mid(v) => Cow::Owned(v.iter().map(|&k| k.into()).collect()),
            Ints::Wide(v) => Cow::Borrowed(v),
        }
    }
}

/// Largest code span a [`DecodeTable`] covers (256 KiB of `f64`s).
pub const MAX_DECODE_TABLE: usize = 1 << 15;

/// The smallest and largest code of a payload, found in one pass. For a
/// decimal payload the reserved `-0.0` code is left out of the range and
/// reported by `neg_zero` instead; integer and dictionary payloads reserve
/// no code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeBounds {
    /// The smallest code (other than a decimal's `-0.0` code).
    pub lo: i64,
    /// The largest code (other than a decimal's `-0.0` code); below `lo`
    /// when there is no such code.
    pub hi: i64,
    /// Whether a decimal payload holds the `-0.0` code.
    pub neg_zero: bool,
}

impl CodeBounds {
    /// The bounds of `codes`; `decimal` says whether the payload reserves
    /// the `-0.0` code.
    pub fn of<N: Code, M: Code, W: Code>(codes: &Ints<N, M, W>, decimal: bool) -> CodeBounds {
        // Branch-free reductions in the code's own type, so the loop
        // vectorizes.
        fn scan<T: Code>(v: &[T], decimal: bool) -> CodeBounds {
            let (mut lo, mut hi, mut neg_zero) = (T::MAX, T::MIN, false);
            for &k in v {
                let reserved = decimal && k == T::NEG_ZERO;
                lo = lo.min(if reserved { T::MAX } else { k });
                hi = hi.max(if reserved { T::MIN } else { k });
                neg_zero |= reserved;
            }
            // With no unreserved code the loop ends at `MAX > MIN`: empty.
            CodeBounds {
                lo: lo.widen(),
                hi: hi.widen(),
                neg_zero,
            }
        }
        match_ints!(codes, v => scan(v, decimal))
    }

    /// Whether no code other than a decimal's `-0.0` code occurs.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }
}

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
    /// The table of a decimal payload with exponent `exp` whose codes lie
    /// within `bounds`, or `None` when they span more than
    /// [`MAX_DECODE_TABLE`] values.
    pub fn build(bounds: &CodeBounds, exp: u8) -> Option<DecodeTable> {
        let lo = bounds.lo;
        let span = if bounds.is_empty() {
            0
        } else {
            (bounds.hi - lo) as u64 + 1
        };
        if span > MAX_DECODE_TABLE as u64 {
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

/// `values` at element type `T`, or `None` when one does not fit.
fn fitted<V: Copy, T: TryFrom<V>>(values: &[V]) -> Option<Vec<T>> {
    values.iter().map(|&v| T::try_from(v).ok()).collect()
}

/// Dictionary codes at the narrowest width the dictionary size allows —
/// `u8` up to 256 entries, `u16` up to 65 536 — or `None` when they stay
/// plain `u32` (also when a code does not fit, which a valid column never
/// holds).
pub(crate) fn narrow_codes(codes: &[u32], dict_len: usize) -> Option<DictCodes> {
    if dict_len <= 1 << 8 {
        fitted(codes).map(Ints::Narrow)
    } else if dict_len <= 1 << 16 {
        fitted(codes).map(Ints::Mid)
    } else {
        None
    }
}

/// Integers as `u8` or `u16` when every value fits, or `None` when they
/// stay plain `i64`.
pub(crate) fn narrow_ints(values: &[i64]) -> Option<IntValues> {
    fitted(values)
        .map(Ints::Narrow)
        .or_else(|| fitted(values).map(Ints::Mid))
}

/// The decimal encoding of `values` — codes and exponent — when one
/// exists (see the module docs); `None` keeps the column plain. Empty
/// columns stay plain.
pub(crate) fn encode_floats(values: &[f64]) -> Option<(DecimalCodes, u8)> {
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
            Ints::Narrow(codes.into_iter().map(|k| to(k) as u16).collect())
        } else if lo > i32::from(i16::NEG_ZERO) && hi <= i32::from(i16::MAX) {
            let to = narrow(i32::from(i16::NEG_ZERO));
            Ints::Mid(codes.into_iter().map(|k| to(k) as i16).collect())
        } else {
            Ints::Wide(codes)
        };
        return Some((ints, exp));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(ints: &DecimalCodes, exp: u8) -> Vec<f64> {
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
        assert!(matches!(ints, Ints::Narrow(_)));
        assert_eq!(bits(&decode_all(&ints, exp)), bits(&times));

        let delays = [-4.5, 0.0, -0.0, 668.0, 12.3];
        let (ints, exp) = encode_floats(&delays).unwrap();
        assert_eq!(exp, 1);
        assert!(matches!(ints, Ints::Mid(_)));
        assert_eq!(bits(&decode_all(&ints, exp)), bits(&delays));

        let wide = [-1e5, 1e5];
        let (ints, exp) = encode_floats(&wide).unwrap();
        assert_eq!(exp, 0);
        assert!(matches!(ints, Ints::Wide(_)));
    }

    #[test]
    fn decode_tables_match_division_bit_for_bit() {
        let values = [-0.0, -40.5, 0.0, 12.3, 668.1, -0.0];
        let (ints, exp) = encode_floats(&values).unwrap();
        let table = DecodeTable::build(&CodeBounds::of(&ints, true), exp).unwrap();
        let scale = decimal_scale(exp);
        let via_table: Vec<f64> =
            match_ints!(&ints, v => v.iter().map(|&k| table.decode(k)).collect());
        assert_eq!(bits(&via_table), bits(&values));
        let via_division: Vec<f64> =
            match_ints!(&ints, v => v.iter().map(|&k| decode_decimal(k, scale)).collect());
        assert_eq!(bits(&via_table), bits(&via_division));

        // Only -0.0 codes: an empty table decodes everything to -0.0.
        let (ints, exp) = encode_floats(&[-0.0]).unwrap();
        let bounds = CodeBounds::of(&ints, true);
        assert!(bounds.is_empty() && bounds.neg_zero);
        let table = DecodeTable::build(&bounds, exp).unwrap();
        assert!(table.decode(u16::MAX).is_sign_negative());
        // Too wide a span keeps division.
        let (ints, exp) = encode_floats(&[0.0, 1e6]).unwrap();
        assert!(DecodeTable::build(&CodeBounds::of(&ints, true), exp).is_none());
    }

    #[test]
    fn negative_zero_takes_the_reserved_code() {
        let (ints, exp) = encode_floats(&[-0.0, 1.0]).unwrap();
        assert_eq!(ints, Ints::Narrow(vec![u16::MAX, 1]));
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
        assert_eq!(narrow_ints(&[1, 12]), Some(Ints::Narrow(vec![1, 12])));
        assert_eq!(narrow_ints(&[0, 300]), Some(Ints::Mid(vec![0, 300])));
        assert_eq!(narrow_ints(&[-1, 3]), None);
        assert_eq!(narrow_ints(&[70_000]), None);
        assert_eq!(
            narrow_codes(&[0, 2, 1], 3),
            Some(Ints::Narrow(vec![0, 2, 1]))
        );
        assert_eq!(narrow_codes(&[0, 300], 400), Some(Ints::Mid(vec![0, 300])));
        assert_eq!(narrow_codes(&[0, 300], 3), None);
    }

    #[test]
    fn ints_views_widen_exactly() {
        // Each role at each of its three widths: `get` and `widened` read
        // the same values, borrowed only at the plain width.
        fn check<N: Code + Into<W>, M: Code + Into<W>, W: Code>(
            ints: Ints<N, M, W>,
            width: usize,
            want: &[i64],
        ) {
            assert_eq!((ints.width(), ints.len()), (width, want.len()));
            assert_eq!(
                (0..ints.len()).map(|i| ints.get(i)).collect::<Vec<_>>(),
                want
            );
            let wide = ints.widened();
            assert_eq!(wide.iter().map(|&k| k.widen()).collect::<Vec<_>>(), want);
            assert_eq!(
                matches!(wide, Cow::Borrowed(_)),
                matches!(ints, Ints::Wide(_))
            );
        }
        check(DictCodes::from(vec![0u8, 255]), 1, &[0, 255]);
        check(DictCodes::from(vec![256u16, 65_535]), 2, &[256, 65_535]);
        check(
            DictCodes::from(vec![0u32, u32::MAX]),
            4,
            &[0, 4_294_967_295],
        );
        check(IntValues::Narrow(vec![3, 250]), 1, &[3, 250]);
        check(IntValues::Mid(vec![300, 65_535]), 2, &[300, 65_535]);
        check(IntValues::Wide(vec![-5, i64::MAX]), 8, &[-5, i64::MAX]);
        check(DecimalCodes::Narrow(vec![0, u16::MAX]), 2, &[0, 65_535]);
        check(DecimalCodes::Mid(vec![-3, i16::MIN]), 2, &[-3, -32_768]);
        check(
            DecimalCodes::Wide(vec![-70_000, i32::MIN]),
            4,
            &[-70_000, -2_147_483_648],
        );
    }
}
