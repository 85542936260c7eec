//! Row bitmaps: a column's validity (non-null) mask.

/// A fixed-length bitmap over the rows of a column.
///
/// A column carries one as its validity bitmap (bit set = value present);
/// the scan kernels read it a 64-row word at a time ([`SelVec::word`]).
/// Filters do not use it: scans evaluate predicates into per-morsel masks
/// instead.
/// Words are 64-bit; trailing bits beyond `len` are kept zero as an
/// invariant so popcounts stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelVec {
    words: Vec<u64>,
    len: usize,
}

impl SelVec {
    /// A selection of `len` rows, all selected.
    pub fn all(len: usize) -> Self {
        let nwords = len.div_ceil(64);
        let mut words = vec![u64::MAX; nwords];
        Self::mask_tail(&mut words, len);
        SelVec { words, len }
    }

    /// A selection of `len` rows, none selected.
    pub fn none(len: usize) -> Self {
        SelVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a selection from an iterator of booleans of exactly `len` items.
    pub fn from_bools<I: IntoIterator<Item = bool>>(len: usize, bits: I) -> Self {
        let mut sel = SelVec::none(len);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                sel.insert(i);
            }
        }
        sel
    }

    fn mask_tail(words: &mut [u64], len: usize) {
        let tail = len % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered by the selection (set or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the selection covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether row `i` is selected.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Marks row `i` selected.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Marks row `i` unselected.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Word `w`: bit `i` is row `64 · w + i`. Words past the end are 0.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none_counts() {
        assert_eq!(SelVec::all(130).count(), 130);
        assert_eq!(SelVec::none(130).count(), 0);
        assert_eq!(SelVec::all(0).count(), 0);
        assert_eq!(SelVec::all(64).count(), 64);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = SelVec::none(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn words_are_zero_filled_past_the_end() {
        let mut s = SelVec::none(100);
        s.insert(1);
        s.insert(64);
        assert_eq!((s.word(0), s.word(1)), (0b10, 1));
        assert_eq!(s.word(2), 0);
        assert_eq!(SelVec::all(70).word(1), 0b11_1111);
    }
}
