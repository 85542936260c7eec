//! First-seen dictionary encoding for generated nominal columns.

use idebench_storage::{Column, ColumnData, DictCodes, Dictionary};
use std::sync::Arc;

/// Marks a category index whose label has not been interned yet.
const UNSEEN: u32 = u32::MAX;

/// Turns category indexes in `0..domain` into a nominal column, recoding
/// them in place; the codes keep the indexes' width.
///
/// Each index's label (`label(index)`) is interned the first time the index
/// appears in row order, so the codes and the dictionary come out exactly
/// as interning every row's label string would produce them (first-seen
/// order). Discovery walks the rows only until every index of the domain
/// has appeared (or the rows run out); a second pass then maps every row
/// through the finished index → code table, one lookup per row and no
/// branch.
pub(crate) fn first_seen_column<T>(
    mut indexes: Vec<T>,
    domain: usize,
    label: impl Fn(usize) -> String,
) -> Column
where
    T: Copy + Default + Into<u32> + TryFrom<u32>,
    DictCodes: From<Vec<T>>,
{
    let mut code_of = vec![UNSEEN; domain];
    let mut dict = Dictionary::new();
    let mut unseen = domain;
    for &index in &indexes {
        if unseen == 0 {
            break;
        }
        let index = index.into() as usize;
        if code_of[index] == UNSEEN {
            code_of[index] = dict.intern(&label(index));
            unseen -= 1;
        }
    }
    // Indexes that never appear keep a placeholder no row reads.
    let table: Vec<T> = code_of
        .iter()
        .map(|&code| match code {
            UNSEEN => T::default(),
            // First-seen codes stay below the domain size, as the indexes do.
            code => T::try_from(code)
                .ok()
                .expect("first-seen codes stay below the domain size"),
        })
        .collect();
    for slot in &mut indexes {
        *slot = table[(*slot).into() as usize];
    }
    Column::new(ColumnData::Nominal(indexes.into(), Arc::new(dict)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_dictionary_follow_first_appearance() {
        let col = first_seen_column(vec![3u32, 1, 3, 0, 1], 4, |i| format!("L{i}"));
        let (codes, dict) = col.as_nominal().unwrap();
        assert_eq!(&*codes, &[0, 1, 0, 2, 1]);
        assert_eq!(dict.values(), &["L3", "L1", "L0"]);
    }

    /// The codes and labels of `first_seen_column(indexes, domain, ..)`.
    fn encoded(indexes: Vec<u8>, domain: usize) -> (Vec<u32>, Vec<String>) {
        let col = first_seen_column(indexes, domain, |i| format!("L{i}"));
        let (codes, dict) = col.as_nominal().unwrap();
        (codes.to_vec(), dict.values().to_vec())
    }

    #[test]
    fn an_index_that_never_appears_gets_no_entry() {
        assert_eq!(
            encoded(vec![2, 0, 2, 0], 4),
            (vec![0, 1, 0, 1], vec!["L2".into(), "L0".into()])
        );
    }

    #[test]
    fn a_first_appearance_on_the_last_row_is_interned() {
        assert_eq!(
            encoded(vec![1, 1, 0, 1, 2], 3),
            (
                vec![0, 0, 1, 0, 2],
                vec!["L1".into(), "L0".into(), "L2".into()]
            )
        );
    }

    #[test]
    fn rows_after_the_whole_domain_appeared_are_remapped() {
        assert_eq!(
            encoded(vec![2, 0, 1, 1, 2, 0, 0, 2], 3),
            (
                vec![0, 1, 2, 2, 0, 1, 1, 0],
                vec!["L2".into(), "L0".into(), "L1".into()]
            )
        );
    }

    proptest::proptest! {
        #[test]
        fn codes_match_interning_every_row(
            domain in 1usize..12,
            raw in proptest::prop::collection::vec(0u8..12, 0..40),
        ) {
            let indexes: Vec<u8> = raw.iter().map(|&i| i % domain as u8).collect();
            let mut dict = Dictionary::new();
            let want: Vec<u32> = indexes
                .iter()
                .map(|&i| dict.intern(&format!("L{i}")))
                .collect();
            proptest::prop_assert_eq!(
                encoded(indexes, domain),
                (want, dict.values().to_vec())
            );
        }
    }
}
