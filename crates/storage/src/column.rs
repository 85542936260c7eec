//! Typed columns with optional null bitmaps.

use crate::dictionary::Dictionary;
use crate::encoding::{self, decimal_scale, decode_decimal, Code, CodeBounds, DecodeTable, Ints};
use crate::match_ints;
use crate::schema::DataType;
use crate::selection::SelVec;
use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock};

/// The physical payload of a column. Which payload a column gets is
/// decided in [`crate::encoding`]; every payload of a logical type holds
/// the same values.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Plain quantitative 64-bit floats.
    Float(Vec<f64>),
    /// Quantitative floats stored as scaled decimal codes with exponent
    /// `e`: code `k` reads as [`encoding::decode_decimal`]`(k, 10^e)`.
    Decimal(encoding::DecimalCodes, u8),
    /// Integer keys and discrete values: `i64` plain, `u8`/`u16` narrow.
    Int(encoding::IntValues),
    /// Dictionary codes into the shared [`Dictionary`]: `u32` plain,
    /// `u8`/`u16` narrow.
    Nominal(encoding::DictCodes, Arc<Dictionary>),
}

impl ColumnData {
    /// The logical type the payload holds.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Float(_) | ColumnData::Decimal(..) => DataType::Float,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Nominal(..) => DataType::Nominal,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Float(v) => v.len(),
            ColumnData::Decimal(c, _) => c.len(),
            ColumnData::Int(c) => c.len(),
            ColumnData::Nominal(c, _) => c.len(),
        }
    }

    /// True when the payload has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per row of the payload.
    pub fn row_width(&self) -> usize {
        match self {
            ColumnData::Float(_) => 8,
            ColumnData::Decimal(c, _) => c.width(),
            ColumnData::Int(c) => c.width(),
            ColumnData::Nominal(c, _) => c.width(),
        }
    }

    /// Bytes the payload's elements occupy.
    pub fn payload_bytes(&self) -> usize {
        self.len() * self.row_width()
    }

    /// The narrow encoding of a plain payload, when one exists.
    fn narrowed(&self) -> Option<ColumnData> {
        match self {
            ColumnData::Float(v) => {
                encoding::encode_floats(v).map(|(codes, exp)| ColumnData::Decimal(codes, exp))
            }
            ColumnData::Int(Ints::Wide(v)) => encoding::narrow_ints(v).map(ColumnData::Int),
            ColumnData::Nominal(Ints::Wide(c), d) => {
                encoding::narrow_codes(c, d.len()).map(|c| ColumnData::Nominal(c, Arc::clone(d)))
            }
            _ => None,
        }
    }

    /// Whether two payloads hold the same logical values (floats compared
    /// with `==`), whatever their encodings.
    fn logically_eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Nominal(a, da), ColumnData::Nominal(b, db)) => {
                da == db && a.widened() == b.widened()
            }
            (ColumnData::Int(a), ColumnData::Int(b)) => a.widened() == b.widened(),
            _ => self.dtype() == DataType::Float && floats(self) == floats(other),
        }
    }
}

/// Decoded float values of a float payload (`None` otherwise).
fn floats(data: &ColumnData) -> Option<Cow<'_, [f64]>> {
    match data {
        ColumnData::Float(v) => Some(Cow::Borrowed(v)),
        ColumnData::Decimal(codes, exp) => {
            let scale = decimal_scale(*exp);
            Some(Cow::Owned(
                match_ints!(codes, v => v.iter().map(|&k| decode_decimal(k, scale)).collect()),
            ))
        }
        _ => None,
    }
}

/// Numeric statistics over a column's valid rows.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NumericStats {
    /// `(min, max)` over the finite valid values; `None` when there are none.
    finite: Option<(f64, f64)>,
    /// Whether every valid value is finite.
    all_finite: bool,
}

/// A column: data plus an optional validity bitmap.
///
/// `validity == None` means every row is valid (the common case for the
/// flights dataset); otherwise a row is null when its bit is *unset*.
///
/// The payload is physical: a column of a logical type may hold a narrow
/// encoding of its values (see [`crate::encoding`]). [`Column::data`]
/// exposes it to the scan kernels; the value accessors
/// ([`Column::numeric_at`], [`Column::code_at`], [`Column::as_float`], …)
/// decode, so every other reader sees logical values only. Equality is
/// logical too: two columns holding the same values in different
/// encodings are equal.
///
/// The payload and the bitmap are immutable and held behind `Arc`s, so
/// `clone` costs O(1) whatever the row count: a clone shares its payload
/// with the original. Deriving a table from another (a normalized fact
/// table keeping de-normalized columns, for one) therefore shares the
/// columns it keeps instead of copying them. [`Column::byte_size`] still
/// counts a shared payload in full for every column holding it, so byte
/// counts taken with it, such as the star-schema join cache's, do not
/// depend on sharing.
///
/// Columns also lazily cache numeric min/max statistics (see
/// [`Column::numeric_min_max`]), which query planning uses to bound the
/// bucket space of fixed-width binnings. A coded payload finds its code
/// bounds in one pass, which feeds both the statistics and the decode
/// table.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    validity: Option<Arc<SelVec>>,
    stats: OnceLock<NumericStats>,
    /// Lazily found code bounds of an integer-coded payload (see
    /// [`Column::code_bounds`]).
    bounds: OnceLock<Option<CodeBounds>>,
    /// Lazily built decode table of a decimal payload (see
    /// [`Column::decode_table`]).
    decode: OnceLock<Option<Arc<DecodeTable>>>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        // Stats are derived data; equality is logical values + validity.
        self.validity == other.validity
            && (self.data == other.data || self.data.logically_eq(&other.data))
    }
}

impl Column {
    /// A fully-valid column over any payload.
    pub fn new(data: ColumnData) -> Self {
        Column {
            data: Arc::new(data),
            validity: None,
            stats: OnceLock::new(),
            bounds: OnceLock::new(),
            decode: OnceLock::new(),
        }
    }

    /// A fully-valid plain float column.
    pub fn float(values: Vec<f64>) -> Self {
        Self::new(ColumnData::Float(values))
    }

    /// A fully-valid plain integer column.
    pub fn int(values: Vec<i64>) -> Self {
        Self::new(ColumnData::Int(Ints::Wide(values)))
    }

    /// A fully-valid plain nominal column over a shared dictionary.
    pub fn nominal(codes: Vec<u32>, dict: Arc<Dictionary>) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len().max(1)));
        Self::new(ColumnData::Nominal(Ints::Wide(codes), dict))
    }

    /// The column with its payload in the narrowest lossless encoding
    /// [`crate::encoding`] finds; a payload that is already narrow, or has
    /// no narrow encoding, is kept (and stays shared).
    pub fn narrowed(mut self) -> Self {
        if let Some(data) = self.data.narrowed() {
            self.data = Arc::new(data);
            self.bounds = OnceLock::new();
            self.decode = OnceLock::new();
        }
        self
    }

    /// Attaches a validity bitmap (bit unset ⇒ null). Panics on length mismatch.
    pub fn with_validity(mut self, validity: SelVec) -> Self {
        assert_eq!(validity.len(), self.len(), "validity length mismatch");
        self.validity = Some(Arc::new(validity));
        self.stats = OnceLock::new(); // validity changes the stats
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical type of the column's values.
    pub fn dtype(&self) -> DataType {
        self.data.dtype()
    }

    /// The physical payload, for kernels that read encodings directly.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap, if any row may be null.
    pub fn validity(&self) -> Option<&SelVec> {
        self.validity.as_deref()
    }

    /// Whether row `i` is valid (non-null).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.contains(i))
    }

    /// The dictionary of a nominal column.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        match &*self.data {
            ColumnData::Nominal(_, d) => Some(d),
            _ => None,
        }
    }

    /// Every row's float value, decoded (borrowed when the payload is
    /// plain); `None` for non-float columns. Null rows hold placeholders.
    pub fn as_float(&self) -> Option<Cow<'_, [f64]>> {
        floats(&self.data)
    }

    /// Every row's integer value, widened (borrowed when the payload is
    /// plain); `None` for non-int columns.
    pub fn as_int(&self) -> Option<Cow<'_, [i64]>> {
        match &*self.data {
            ColumnData::Int(v) => Some(v.widened()),
            _ => None,
        }
    }

    /// Every row's dictionary code, widened (borrowed when the payload is
    /// plain), plus the dictionary; `None` for non-nominal columns.
    pub fn as_nominal(&self) -> Option<(Cow<'_, [u32]>, &Arc<Dictionary>)> {
        match &*self.data {
            ColumnData::Nominal(v, d) => Some((v.widened(), d)),
            _ => None,
        }
    }

    /// Row `i` as an `f64`, for quantitative evaluation.
    ///
    /// Ints are widened; nominal codes are returned as their code value
    /// (useful only for internal bucketing). Returns `None` for null rows.
    #[inline]
    pub fn numeric_at(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        Some(match &*self.data {
            ColumnData::Float(v) => v[i],
            ColumnData::Decimal(c, exp) => {
                match_ints!(c, v => decode_decimal(v[i], decimal_scale(*exp)))
            }
            ColumnData::Int(c) => c.get(i) as f64,
            ColumnData::Nominal(c, _) => c.get(i) as f64,
        })
    }

    /// Row `i`'s dictionary code; `None` for null rows and non-nominal
    /// columns.
    #[inline]
    pub fn code_at(&self, i: usize) -> Option<u32> {
        match &*self.data {
            ColumnData::Nominal(c, _) if self.is_valid(i) => Some(c.get(i) as u32),
            _ => None,
        }
    }

    /// The decode table of a decimal payload (see [`DecodeTable`]), built
    /// on first use and kept with the column; `None` for other payloads and
    /// for decimal codes spanning too many values.
    pub fn decode_table(&self) -> Option<&DecodeTable> {
        self.decode
            .get_or_init(|| match &*self.data {
                ColumnData::Decimal(_, exp) => self
                    .code_bounds()
                    .and_then(|b| DecodeTable::build(&b, *exp))
                    .map(Arc::new),
                _ => None,
            })
            .as_deref()
    }

    /// The code bounds of an integer-coded payload (decimal, int or
    /// nominal; see [`CodeBounds`]), found once and cached; `None` for
    /// plain floats. Null rows' placeholder codes count.
    fn code_bounds(&self) -> Option<CodeBounds> {
        *self.bounds.get_or_init(|| match &*self.data {
            ColumnData::Float(_) => None,
            ColumnData::Decimal(c, _) => Some(CodeBounds::of(c, true)),
            ColumnData::Int(c) => Some(CodeBounds::of(c, false)),
            ColumnData::Nominal(c, _) => Some(CodeBounds::of(c, false)),
        })
    }

    /// Calls `f` with every valid row's numeric value (as
    /// [`Column::numeric_at`] gives it), in row order.
    fn for_each_valid_value(&self, mut f: impl FnMut(f64)) {
        macro_rules! walk {
            ($v:expr, $of:expr) => {{
                let of = $of;
                for (i, &k) in $v.iter().enumerate() {
                    if self.is_valid(i) {
                        f(of(k));
                    }
                }
            }};
        }
        match &*self.data {
            ColumnData::Float(v) => walk!(v, |x: f64| x),
            ColumnData::Decimal(c, exp) => {
                let scale = decimal_scale(*exp);
                match_ints!(c, v => walk!(v, |k| decode_decimal(k, scale)))
            }
            ColumnData::Int(c) => match_ints!(c, v => walk!(v, |k: _| Code::widen(k) as f64)),
            ColumnData::Nominal(c, _) => {
                match_ints!(c, v => walk!(v, |k: _| Code::widen(k) as f64))
            }
        }
    }

    fn stats(&self) -> NumericStats {
        *self
            .stats
            .get_or_init(|| self.stats_from_codes().unwrap_or_else(|| self.walk_stats()))
    }

    /// The statistics of a coded payload without nulls, from its code
    /// bounds: decoding is monotone in the code, so the extremes decode
    /// from the extreme codes. `None` — walk the decoded values instead —
    /// for plain floats, for columns with nulls, and for decimals holding
    /// the `-0.0` code, where which zero `f64::min` keeps depends on the
    /// row order.
    fn stats_from_codes(&self) -> Option<NumericStats> {
        let b = self.code_bounds().filter(|b| !b.neg_zero)?;
        if self.validity.is_some() {
            return None;
        }
        let decode = |k: i64| match &*self.data {
            ColumnData::Decimal(_, exp) => k as f64 / decimal_scale(*exp),
            _ => k as f64,
        };
        Some(NumericStats {
            finite: (!b.is_empty()).then(|| (decode(b.lo), decode(b.hi))),
            all_finite: true,
        })
    }

    /// The statistics of any column, from a walk over its decoded values.
    fn walk_stats(&self) -> NumericStats {
        let mut finite: Option<(f64, f64)> = None;
        let mut all_finite = true;
        self.for_each_valid_value(|v| {
            if v.is_finite() {
                let (lo, hi) = finite.unwrap_or((v, v));
                finite = Some((lo.min(v), hi.max(v)));
            } else {
                all_finite = false;
            }
        });
        NumericStats { finite, all_finite }
    }

    /// Numeric `(min, max)` over the column's valid rows, computed once and
    /// cached (ints widened, nominal codes taken as their code value).
    ///
    /// Returns `None` when the column is empty, every row is null, or any
    /// valid value is non-finite — callers use the bounds to size dense
    /// bucket spaces, and a NaN/∞ row would make arithmetic slotting
    /// disagree with the hashed reference path.
    pub fn numeric_min_max(&self) -> Option<(f64, f64)> {
        let stats = self.stats();
        stats.all_finite.then_some(stats.finite).flatten()
    }

    /// Numeric `(min, max)` over the column's *finite* valid values (from
    /// the same cached scan as [`Column::numeric_min_max`]); `None` only
    /// when no valid value is finite. Count binnings derive their range
    /// from this, so a NaN row does not stop a column from being binned.
    pub fn finite_min_max(&self) -> Option<(f64, f64)> {
        self.stats().finite
    }

    /// In-memory footprint in bytes: payload plus the validity bitmap's
    /// backing words, counted in full even when the payload is shared with
    /// other columns. The star-schema join cache counts the bytes of its
    /// materialized columns with this.
    pub fn byte_size(&self) -> usize {
        self.data.payload_bytes()
            + self
                .validity
                .as_ref()
                .map_or(0, |v| v.len().div_ceil(64) * 8)
    }

    /// Materializes the rows `rows` yields, in order: row `i` of the result
    /// is row `rows[i]` of `self`, in the same encoding (a decode table
    /// already built for `self` covers the result's codes and is shared
    /// with it). Any index iterator
    /// works, so a caller holding indexes in another form (a foreign-key
    /// column, say) gathers through it without collecting a `Vec<usize>`
    /// first.
    pub fn take<I>(&self, rows: I) -> Column
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let (data, validity) = self.gathered(&Whole(rows.into_iter()));
        Column {
            data: Arc::new(data),
            validity,
            stats: OnceLock::new(),
            bounds: OnceLock::new(),
            decode: self.decode.clone(),
        }
    }

    /// The permuted copy of the column: row `i` is row `order[i]` of
    /// `self`, in the same encoding, as [`Column::take`] gathers it. The
    /// output is cut into disjoint ranges of `part_rows` positions (a
    /// positive multiple of 64, so each range owns whole words of the
    /// validity bitmap), and `run(parts, fill)` must call `fill(p)` exactly
    /// once for every part `p` in `0..parts`, from any threads in any
    /// order, before it returns; the result does not depend on how.
    ///
    /// `order` must be a permutation of the rows. The copy then holds the
    /// same values, so it keeps what the source has already computed about
    /// them: its code bounds, its decode table and its statistics — a
    /// float column's statistics only when neither extreme is a zero, since
    /// which zero `f64::min` keeps can depend on the row order.
    pub fn permuted(&self, order: &[u32], part_rows: usize, run: &RunParts<'_>) -> Column {
        assert_eq!(order.len(), self.len(), "a permutation of the rows");
        assert!(
            part_rows > 0 && part_rows.is_multiple_of(64),
            "parts own whole validity words"
        );
        let (data, validity) = self.gathered(&Parts {
            order,
            part_rows,
            run,
        });
        let signed_zero = |s: &&NumericStats| {
            self.dtype() == DataType::Float
                && s.finite.is_some_and(|(lo, hi)| lo == 0.0 || hi == 0.0)
        };
        let stats = match self.stats.get() {
            Some(s) if !signed_zero(&s) => OnceLock::from(*s),
            _ => OnceLock::new(),
        };
        Column {
            data: Arc::new(data),
            validity,
            stats,
            bounds: self.bounds.clone(),
            decode: self.decode.clone(),
        }
    }

    /// The payload and validity bitmap at the positions `rows` lays out.
    fn gathered(&self, rows: &impl Gather) -> (ColumnData, Option<Arc<SelVec>>) {
        let data = match &*self.data {
            ColumnData::Float(v) => ColumnData::Float(rows.values(v)),
            ColumnData::Decimal(c, exp) => ColumnData::Decimal(rows.codes(c), *exp),
            ColumnData::Int(c) => ColumnData::Int(rows.codes(c)),
            ColumnData::Nominal(c, d) => ColumnData::Nominal(rows.codes(c), Arc::clone(d)),
        };
        let validity = self
            .validity
            .as_ref()
            .map(|val| Arc::new(rows.validity(val)));
        (data, validity)
    }
}

/// How [`Column::permuted`] runs a gather's parts: called with the part
/// count and the routine that fills one part.
pub type RunParts<'a> = dyn Fn(usize, &(dyn Fn(usize) + Sync)) + 'a;

/// `src[rows[i]]` written to `out[i]`: the one gather loop every take and
/// every part of a permuted copy runs.
#[inline]
fn gather_into<T: Copy>(src: &[T], rows: impl Iterator<Item = usize>, out: &mut [T]) {
    for (o, r) in out.iter_mut().zip(rows) {
        *o = src[r];
    }
}

/// The output positions of a gather and how they are filled: in one pass
/// ([`Whole`]) or in disjoint parts ([`Parts`]).
trait Gather {
    /// The gathered elements of `src`.
    fn values<T: Copy + Default + Send + Sync>(&self, src: &[T]) -> Vec<T>;
    /// The gathered codes of `src`, at its width.
    fn codes<N: Code, M: Code, W: Code>(&self, src: &Ints<N, M, W>) -> Ints<N, M, W> {
        match src {
            Ints::Narrow(v) => Ints::Narrow(self.values(v)),
            Ints::Mid(v) => Ints::Mid(self.values(v)),
            Ints::Wide(v) => Ints::Wide(self.values(v)),
        }
    }
    /// The gathered bits of `src`.
    fn validity(&self, src: &SelVec) -> SelVec;
}

/// Every position in one pass over an index iterator.
struct Whole<I>(I);

impl<I: ExactSizeIterator<Item = usize> + Clone> Gather for Whole<I> {
    fn values<T: Copy + Default + Send + Sync>(&self, src: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); self.0.len()];
        gather_into(src, self.0.clone(), &mut out);
        out
    }

    fn validity(&self, src: &SelVec) -> SelVec {
        let len = self.0.len();
        let mut words = vec![0; len.div_ceil(64)];
        src.gather_into(self.0.clone(), &mut words);
        SelVec::from_words(words, len)
    }
}

/// A permutation's positions in parts of `part_rows`, each filled once by
/// whoever `run` lets claim it (see [`Column::permuted`]).
struct Parts<'a> {
    order: &'a [u32],
    part_rows: usize,
    run: &'a RunParts<'a>,
}

/// One part of a [`Parts`] gather: its output range and its rows, until
/// a claim takes them.
type Part<'a, E> = Mutex<Option<(&'a mut [E], &'a [u32])>>;

impl Parts<'_> {
    /// Cuts `out` into parts of `per_part` elements, one per part of the
    /// order, and has `run` fill each with `fill(out part, its rows)`.
    fn fill<E: Send>(
        &self,
        out: &mut [E],
        per_part: usize,
        fill: impl Fn(&mut [E], &[u32]) + Sync,
    ) {
        let parts: Vec<Part<'_, E>> = out
            .chunks_mut(per_part)
            .zip(self.order.chunks(self.part_rows))
            .map(|part| Mutex::new(Some(part)))
            .collect();
        let claim = |p: usize| {
            let (out, rows) = parts[p]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each part is filled once");
            fill(out, rows);
        };
        (self.run)(parts.len(), &claim);
        assert!(
            parts
                .iter()
                .all(|p| p.lock().unwrap_or_else(|e| e.into_inner()).is_none()),
            "every part is filled"
        );
    }
}

impl Gather for Parts<'_> {
    fn values<T: Copy + Default + Send + Sync>(&self, src: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); self.order.len()];
        self.fill(&mut out, self.part_rows, |out, rows| {
            gather_into(src, rows.iter().map(|&r| r as usize), out)
        });
        out
    }

    fn validity(&self, src: &SelVec) -> SelVec {
        let len = self.order.len();
        let mut words = vec![0; len.div_ceil(64)];
        self.fill(&mut words, self.part_rows / 64, |out, rows| {
            src.gather_into(rows.iter().map(|&r| r as usize), out)
        });
        SelVec::from_words(words, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> Arc<Dictionary> {
        Arc::new(Dictionary::from_values(["AA", "DL", "UA"]))
    }

    #[test]
    fn float_column_basics() {
        let c = Column::float(vec![1.0, 2.5, -3.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DataType::Float);
        assert_eq!(c.as_float().unwrap()[1], 2.5);
        assert!(c.as_int().is_none());
        assert_eq!(c.numeric_at(2), Some(-3.0));
    }

    #[test]
    fn nominal_column_roundtrip() {
        let c = Column::nominal(vec![0, 2, 1, 0], dict());
        let (codes, d) = c.as_nominal().unwrap();
        assert_eq!(&*codes, &[0, 2, 1, 0]);
        assert_eq!(d.value(2), Some("UA"));
        assert_eq!(c.code_at(1), Some(2));
        assert_eq!(Column::int(vec![1]).code_at(0), None);
    }

    #[test]
    fn narrowing_keeps_logical_values_and_equality() {
        let plain = Column::float(vec![1.5, -0.0, 20.25, 0.0]);
        let narrow = plain.clone().narrowed();
        assert!(matches!(
            narrow.data(),
            ColumnData::Decimal(Ints::Narrow(_), 2)
        ));
        assert_eq!(narrow, plain);
        let bits = |c: &Column| -> Vec<u64> {
            c.as_float().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&narrow), bits(&plain));
        assert_eq!(narrow.numeric_at(2), Some(20.25));
        assert_eq!(narrow.byte_size(), 4 * 2);

        let ints = Column::int(vec![3, 250]).narrowed();
        assert!(matches!(ints.data(), ColumnData::Int(Ints::Narrow(_))));
        assert_eq!(&*ints.as_int().unwrap(), &[3, 250]);
        let codes = Column::nominal(vec![2, 0], dict()).narrowed();
        assert!(matches!(
            codes.data(),
            ColumnData::Nominal(Ints::Narrow(_), _)
        ));
        assert_eq!(codes, Column::nominal(vec![2, 0], dict()));
        assert_ne!(codes, Column::nominal(vec![2, 1], dict()));

        // No narrow encoding: the payload stays plain and shared.
        let odd = Column::float(vec![0.1 + 0.2]);
        let kept = odd.clone().narrowed();
        assert!(std::ptr::eq(odd.data(), kept.data()));
    }

    #[test]
    fn validity_masks_nulls() {
        let v = SelVec::from_bools(3, [true, false, true]);
        let c = Column::float(vec![1.0, 2.0, 3.0]).with_validity(v);
        assert!(c.is_valid(0));
        assert!(!c.is_valid(1));
        assert_eq!(c.numeric_at(1), None);
        assert_eq!(c.numeric_at(2), Some(3.0));
    }

    #[test]
    fn take_reorders_and_keeps_validity() {
        let v = SelVec::from_bools(4, [true, false, true, true]);
        let c = Column::int(vec![10, 20, 30, 40])
            .narrowed()
            .with_validity(v);
        let t = c.take([3, 1, 0]);
        assert!(matches!(t.data(), ColumnData::Int(Ints::Narrow(_))));
        assert_eq!(&*t.as_int().unwrap(), &[40, 20, 10]);
        assert!(t.is_valid(0));
        assert!(!t.is_valid(1));
        assert!(t.is_valid(2));
    }

    #[test]
    fn clone_shares_payload_and_validity() {
        let v = SelVec::from_bools(3, [true, false, true]);
        let c = Column::float(vec![1.0, 2.0, 3.0]).with_validity(v);
        let d = c.clone();
        assert!(std::ptr::eq(c.data(), d.data()));
        assert!(std::ptr::eq(c.validity().unwrap(), d.validity().unwrap()));
        assert_eq!(c.byte_size(), d.byte_size());
    }

    #[test]
    fn take_gathers_through_any_index_iterator() {
        let v = SelVec::from_bools(3, [true, false, true]);
        let c = Column::nominal(vec![2, 0, 1], dict()).with_validity(v);
        let fk: [i64; 4] = [1, 2, 2, 0];
        let t = c.take(fk.iter().map(|&k| k as usize));
        assert_eq!(&*t.as_nominal().unwrap().0, &[0, 1, 1, 2]);
        assert!(!t.is_valid(0));
        assert!(t.is_valid(1) && t.is_valid(3));
    }

    #[test]
    fn take_selects_listed_rows() {
        let c = Column::float(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let f = c.take([1, 4]);
        assert_eq!(&*f.as_float().unwrap(), &[1.0, 4.0]);
    }

    /// Fills every part on the calling thread, last part first.
    fn backwards(parts: usize, fill: &(dyn Fn(usize) + Sync)) {
        (0..parts).rev().for_each(fill)
    }

    #[test]
    fn permuted_copies_carry_what_the_source_computed() {
        let n = 200;
        let order: Vec<u32> = (0..n as u32).map(|i| (i * 73 + 11) % n as u32).collect();
        let nulls = SelVec::from_bools(n, (0..n).map(|i| i % 7 != 0));
        let values = |zero: f64| -> Vec<f64> {
            (0..n)
                .map(|i| if i == 5 { zero } else { 0.25 * i as f64 + 1.0 })
                .collect()
        };
        let cases = [
            Column::float(values(1.0)).narrowed(),
            Column::float(values(1.0))
                .narrowed()
                .with_validity(nulls.clone()),
            Column::float(values(0.1 + 0.2)),
            Column::int((0..n as i64).map(|i| i * 3 % 11).collect()).narrowed(),
            Column::nominal((0..n as u32).map(|i| i % 3).collect(), dict()).with_validity(nulls),
            // A zero extreme: which zero the walk keeps may follow the row
            // order, so the copy finds its own statistics.
            Column::float(values(-0.0)),
        ];
        for (i, col) in cases.iter().enumerate() {
            let _ = (col.numeric_min_max(), col.decode_table());
            let copy = col.permuted(&order, 64, &backwards);
            let fresh = col.take(order.iter().map(|&r| r as usize));
            assert_eq!(copy, fresh, "case {i}");
            assert_eq!(copy.validity(), fresh.validity());
            let bits = |s: &NumericStats| s.finite.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
            match copy.stats.get() {
                Some(carried) => {
                    assert_eq!(bits(carried), bits(&fresh.stats()), "case {i}");
                    assert_eq!(carried.all_finite, fresh.stats().all_finite);
                }
                None => assert_eq!(i, cases.len() - 1, "only the zero extreme is left out"),
            }
            assert_eq!(
                copy.bounds.get().copied(),
                Some(fresh.code_bounds()),
                "case {i}"
            );
            assert_eq!(
                copy.decode.get().cloned(),
                Some(fresh.decode_table().cloned().map(Arc::new))
            );
        }
    }

    #[test]
    #[should_panic(expected = "every part is filled")]
    fn permuted_needs_every_part_filled() {
        let col = Column::int((0..130).collect());
        let order: Vec<u32> = (0..130).collect();
        col.permuted(&order, 64, &|parts, fill| (1..parts).for_each(fill));
    }

    #[test]
    fn int_widens_to_f64() {
        let c = Column::int(vec![7]);
        assert_eq!(c.numeric_at(0), Some(7.0));
    }

    #[test]
    fn min_max_stats_cached_per_type() {
        assert_eq!(
            Column::float(vec![3.5, -1.0, 9.25]).numeric_min_max(),
            Some((-1.0, 9.25))
        );
        assert_eq!(
            Column::int(vec![4, -2, 10]).numeric_min_max(),
            Some((-2.0, 10.0))
        );
        assert_eq!(
            Column::nominal(vec![0, 2, 1], dict()).numeric_min_max(),
            Some((0.0, 2.0))
        );
        assert_eq!(Column::float(vec![]).numeric_min_max(), None);
    }

    #[test]
    fn min_max_skips_nulls_and_rejects_non_finite() {
        let v = SelVec::from_bools(3, [false, true, true]);
        let c = Column::float(vec![-999.0, 2.0, 5.0]).with_validity(v);
        assert_eq!(c.numeric_min_max(), Some((2.0, 5.0)));

        let all_null = Column::float(vec![1.0]).with_validity(SelVec::from_bools(1, [false]));
        assert_eq!(all_null.numeric_min_max(), None);
        assert_eq!(all_null.finite_min_max(), None);

        assert_eq!(Column::float(vec![1.0, f64::NAN]).numeric_min_max(), None);
        assert_eq!(Column::float(vec![f64::INFINITY]).numeric_min_max(), None);

        // A null non-finite value does not poison the stats.
        let v = SelVec::from_bools(2, [true, false]);
        let c = Column::float(vec![1.0, f64::NAN]).with_validity(v);
        assert_eq!(c.numeric_min_max(), Some((1.0, 1.0)));
    }

    #[test]
    fn finite_min_max_ignores_non_finite_values() {
        let c = Column::float(vec![1.0, 2.0, f64::NAN, 5.0, f64::NEG_INFINITY]);
        assert_eq!(c.numeric_min_max(), None);
        assert_eq!(c.finite_min_max(), Some((1.0, 5.0)));
        assert_eq!(Column::float(vec![f64::NAN]).finite_min_max(), None);
    }
}
