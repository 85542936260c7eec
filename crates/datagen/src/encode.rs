//! First-seen dictionary encoding for generated nominal columns.

use idebench_storage::{Column, Dictionary};
use std::sync::Arc;

/// Marks a category index whose label has not been interned yet.
const UNSEEN: u32 = u32::MAX;

/// Builds a nominal column from category indexes in `0..domain`.
///
/// Each index's label is interned the first time the index appears, and the
/// index → code mapping is remembered, so the codes and the dictionary come
/// out exactly as interning every row's label string would produce them
/// (first-seen order) — at the cost of one table lookup per row instead of
/// a string build and a hash.
pub(crate) struct FirstSeen {
    code_of: Vec<u32>,
    dict: Dictionary,
    codes: Vec<u32>,
}

impl FirstSeen {
    /// An encoder for indexes in `0..domain`, with room for `rows` rows.
    pub(crate) fn new(domain: usize, rows: usize) -> Self {
        FirstSeen {
            code_of: vec![UNSEEN; domain],
            dict: Dictionary::new(),
            codes: Vec::with_capacity(rows),
        }
    }

    /// Appends the category `index`; `label` names it and is called only on
    /// the index's first appearance.
    #[inline]
    pub(crate) fn push(&mut self, index: usize, label: impl FnOnce() -> String) {
        let mut code = self.code_of[index];
        if code == UNSEEN {
            code = self.dict.intern(&label());
            self.code_of[index] = code;
        }
        self.codes.push(code);
    }

    /// The finished column.
    pub(crate) fn finish(self) -> Column {
        Column::nominal(self.codes, Arc::new(self.dict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_dictionary_follow_first_appearance() {
        let mut enc = FirstSeen::new(4, 5);
        for i in [3, 1, 3, 0, 1] {
            enc.push(i, || format!("L{i}"));
        }
        let col = enc.finish();
        let (codes, dict) = col.as_nominal().unwrap();
        assert_eq!(codes, &[0, 1, 0, 2, 1]);
        assert_eq!(dict.values(), &["L3", "L1", "L0"]);
    }
}
