//! First-seen dictionary encoding for generated nominal columns.

use idebench_storage::{Column, Dictionary};
use std::sync::Arc;

/// Marks a category index whose label has not been interned yet.
const UNSEEN: u32 = u32::MAX;

/// Turns category indexes in `0..domain` into a nominal column, recoding
/// them in place in row order.
///
/// Each index's label (`label(index)`) is interned the first time the index
/// appears, and the index → code mapping is remembered, so the codes and
/// the dictionary come out exactly as interning every row's label string
/// would produce them (first-seen order) — at the cost of one table lookup
/// per row instead of a string build and a hash.
pub(crate) fn first_seen_column(
    mut indexes: Vec<u32>,
    domain: usize,
    label: impl Fn(usize) -> String,
) -> Column {
    let mut code_of = vec![UNSEEN; domain];
    let mut dict = Dictionary::new();
    for slot in &mut indexes {
        let index = *slot as usize;
        let mut code = code_of[index];
        if code == UNSEEN {
            code = dict.intern(&label(index));
            code_of[index] = code;
        }
        *slot = code;
    }
    Column::nominal(indexes, Arc::new(dict))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_dictionary_follow_first_appearance() {
        let col = first_seen_column(vec![3, 1, 3, 0, 1], 4, |i| format!("L{i}"));
        let (codes, dict) = col.as_nominal().unwrap();
        assert_eq!(codes, &[0, 1, 0, 2, 1]);
        assert_eq!(dict.values(), &["L3", "L1", "L0"]);
    }
}
