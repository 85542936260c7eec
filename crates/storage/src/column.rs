//! Typed columns with optional null bitmaps.

use crate::dictionary::Dictionary;
use crate::selection::SelVec;
use std::sync::Arc;

/// The physical payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Quantitative 64-bit floats.
    Float(Vec<f64>),
    /// Integer keys / discrete values.
    Int(Vec<i64>),
    /// Dictionary codes into the shared [`Dictionary`].
    Nominal(Vec<u32>, Arc<Dictionary>),
}

/// A borrowed, typed view of a column's payload (see [`Column::typed`]).
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// Float payload.
    F64(&'a [f64]),
    /// Integer payload.
    I64(&'a [i64]),
    /// Dictionary codes plus their dictionary.
    Codes(&'a [u32], &'a Arc<Dictionary>),
}

/// A column: data plus an optional validity bitmap.
///
/// `validity == None` means every row is valid (the common case for the
/// flights dataset); otherwise a row is null when its bit is *unset*.
///
/// The payload and the bitmap are immutable and held behind `Arc`s, so
/// `clone` costs O(1) whatever the row count: a clone shares its payload
/// with the original. Deriving a table from another (a normalized fact
/// table keeping de-normalized columns, for one) therefore shares the
/// columns it keeps instead of copying them. [`Column::byte_size`] still
/// counts a shared payload in full for every column holding it, so byte
/// budgets charged with it (the star-schema join cache) are unchanged.
///
/// Columns also lazily cache numeric min/max statistics (see
/// [`Column::numeric_min_max`]), which query planning uses to bound the
/// bucket space of fixed-width binnings.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    validity: Option<Arc<SelVec>>,
    /// Lazily-computed numeric (min, max) over valid rows; `None` inside
    /// the cell when the column is empty, all-null, or contains non-finite
    /// values.
    stats: std::sync::OnceLock<Option<(f64, f64)>>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        // Stats are derived data; equality is payload + validity only.
        self.data == other.data && self.validity == other.validity
    }
}

impl Column {
    fn from_data(data: ColumnData) -> Self {
        Column {
            data: Arc::new(data),
            validity: None,
            stats: std::sync::OnceLock::new(),
        }
    }

    /// A fully-valid float column.
    pub fn float(values: Vec<f64>) -> Self {
        Self::from_data(ColumnData::Float(values))
    }

    /// A fully-valid integer column.
    pub fn int(values: Vec<i64>) -> Self {
        Self::from_data(ColumnData::Int(values))
    }

    /// A fully-valid nominal column over a shared dictionary.
    pub fn nominal(codes: Vec<u32>, dict: Arc<Dictionary>) -> Self {
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len().max(1)));
        Self::from_data(ColumnData::Nominal(codes, dict))
    }

    /// Attaches a validity bitmap (bit unset ⇒ null). Panics on length mismatch.
    pub fn with_validity(mut self, validity: SelVec) -> Self {
        assert_eq!(validity.len(), self.len(), "validity length mismatch");
        self.validity = Some(Arc::new(validity));
        self.stats = std::sync::OnceLock::new(); // validity changes the stats
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &*self.data {
            ColumnData::Float(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Nominal(v, _) => v.len(),
        }
    }

    /// True when the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw payload.
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

    /// Float slice view; `None` for non-float columns.
    pub fn as_float(&self) -> Option<&[f64]> {
        match &*self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Integer slice view; `None` for non-int columns.
    pub fn as_int(&self) -> Option<&[i64]> {
        match &*self.data {
            ColumnData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Nominal code slice + dictionary; `None` for non-nominal columns.
    pub fn as_nominal(&self) -> Option<(&[u32], &Arc<Dictionary>)> {
        match &*self.data {
            ColumnData::Nominal(v, d) => Some((v, d)),
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
            ColumnData::Int(v) => v[i] as f64,
            ColumnData::Nominal(v, _) => f64::from(v[i]),
        })
    }

    /// The column as a typed slice view plus validity, for batch kernels.
    ///
    /// This is the accessor vectorized execution builds on: one `match` per
    /// column per morsel instead of one per row.
    #[inline]
    pub fn typed(&self) -> ColumnSlice<'_> {
        match &*self.data {
            ColumnData::Float(v) => ColumnSlice::F64(v),
            ColumnData::Int(v) => ColumnSlice::I64(v),
            ColumnData::Nominal(v, d) => ColumnSlice::Codes(v, d),
        }
    }

    /// Numeric `(min, max)` over the column's valid rows, computed once and
    /// cached (ints widened, nominal codes taken as their code value).
    ///
    /// Returns `None` when the column is empty, every row is null, or any
    /// valid value is non-finite — callers use the bounds to size dense
    /// bucket spaces, and a NaN/∞ row would make arithmetic slotting
    /// disagree with the hashed reference path.
    pub fn numeric_min_max(&self) -> Option<(f64, f64)> {
        *self.stats.get_or_init(|| {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut seen = false;
            for i in 0..self.len() {
                let Some(v) = self.numeric_at(i) else {
                    continue;
                };
                if !v.is_finite() {
                    return None;
                }
                min = min.min(v);
                max = max.max(v);
                seen = true;
            }
            seen.then_some((min, max))
        })
    }

    /// In-memory footprint in bytes: payload plus the validity bitmap's
    /// backing words, counted in full even when the payload is shared with
    /// other columns. The star-schema join cache accounts materialized
    /// columns with this when charging its byte budget.
    pub fn byte_size(&self) -> usize {
        let payload = match &*self.data {
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Nominal(v, _) => v.len() * 4,
        };
        payload
            + self
                .validity
                .as_ref()
                .map_or(0, |v| v.len().div_ceil(64) * 8)
    }

    /// Materializes the rows `rows` yields, in order: row `i` of the result
    /// is row `rows[i]` of `self`. Any index iterator works, so a caller
    /// holding indexes in another form (a foreign-key column, say) gathers
    /// through it without collecting a `Vec<usize>` first.
    pub fn take<I>(&self, rows: I) -> Column
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let rows = rows.into_iter();
        let validity = self.validity.as_ref().map(|val| {
            Arc::new(SelVec::from_bools(
                rows.len(),
                rows.clone().map(|i| val.contains(i)),
            ))
        });
        let data = match &*self.data {
            ColumnData::Float(v) => ColumnData::Float(rows.map(|i| v[i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(rows.map(|i| v[i]).collect()),
            ColumnData::Nominal(v, d) => {
                ColumnData::Nominal(rows.map(|i| v[i]).collect(), Arc::clone(d))
            }
        };
        Column {
            data: Arc::new(data),
            validity,
            stats: std::sync::OnceLock::new(),
        }
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
        assert_eq!(c.as_float().unwrap()[1], 2.5);
        assert!(c.as_int().is_none());
        assert_eq!(c.numeric_at(2), Some(-3.0));
    }

    #[test]
    fn nominal_column_roundtrip() {
        let c = Column::nominal(vec![0, 2, 1, 0], dict());
        let (codes, d) = c.as_nominal().unwrap();
        assert_eq!(codes, &[0, 2, 1, 0]);
        assert_eq!(d.value(2), Some("UA"));
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
        let c = Column::int(vec![10, 20, 30, 40]).with_validity(v);
        let t = c.take([3, 1, 0]);
        assert_eq!(t.as_int().unwrap(), &[40, 20, 10]);
        assert!(t.is_valid(0));
        assert!(!t.is_valid(1));
        assert!(t.is_valid(2));
    }

    #[test]
    fn clone_shares_payload_and_validity() {
        let v = SelVec::from_bools(3, [true, false, true]);
        let c = Column::float(vec![1.0, 2.0, 3.0]).with_validity(v);
        let d = c.clone();
        assert!(std::ptr::eq(c.as_float().unwrap(), d.as_float().unwrap()));
        assert!(std::ptr::eq(c.validity().unwrap(), d.validity().unwrap()));
        assert_eq!(c.byte_size(), d.byte_size());
    }

    #[test]
    fn take_gathers_through_any_index_iterator() {
        let v = SelVec::from_bools(3, [true, false, true]);
        let c = Column::nominal(vec![2, 0, 1], dict()).with_validity(v);
        let fk: [i64; 4] = [1, 2, 2, 0];
        let t = c.take(fk.iter().map(|&k| k as usize));
        assert_eq!(t.as_nominal().unwrap().0, &[0, 1, 1, 2]);
        assert!(!t.is_valid(0));
        assert!(t.is_valid(1) && t.is_valid(3));
    }

    #[test]
    fn take_selects_listed_rows() {
        let c = Column::float(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let f = c.take([1, 4]);
        assert_eq!(f.as_float().unwrap(), &[1.0, 4.0]);
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

        assert_eq!(Column::float(vec![1.0, f64::NAN]).numeric_min_max(), None);
        assert_eq!(Column::float(vec![f64::INFINITY]).numeric_min_max(), None);

        // A null non-finite value does not poison the stats.
        let v = SelVec::from_bools(2, [true, false]);
        let c = Column::float(vec![1.0, f64::NAN]).with_validity(v);
        assert_eq!(c.numeric_min_max(), Some((1.0, 1.0)));
    }
}
