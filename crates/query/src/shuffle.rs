//! Shuffled scan orders and their permuted column copies.
//!
//! Online-aggregation engines (progressive, wander) scan the data in a
//! pre-shuffled order, so every scan prefix is a uniform sample. A
//! [`Shuffle`] is that order for one dataset plus, built lazily, one
//! *permuted copy* of each fact-length column a plan reads: row `i` of the
//! copy is row `order[i]` of the source. A run bound to the copies (see
//! [`crate::ChunkedRun::from_shuffle`]) scans positions `0..n` as
//! contiguous natural-order morsels — no per-row gather — while position
//! `i` still processes row `order[i]`. Results, billed units and virtual
//! time are therefore bit-identical to a gathered scan; the engines' cost
//! models still bill shuffled access.
//!
//! # Sharing and memory
//!
//! [`Shuffle::interned`] returns one shuffle per (dataset identity, seed):
//! every engine instance, session and query that shuffles a dataset with
//! the same seed shares one order and one set of copies. Copies are keyed
//! by source column and shared through `Arc`s, and keep the source's narrow
//! encoding (see [`idebench_storage::encoding`]), so one order costs 4
//! bytes per row plus at most one narrow copy of each fact column (or join
//! materialization) that plans reference — ≈17 MB for the 11 columns the
//! progressive engine reads of a 1M-row flights table. The registry holds
//! shuffles weakly: the last engine dropping its handle frees the order and
//! its copies.

use idebench_storage::{Column, Dataset};
use rustc_hash::FxHashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// A source column's identity: its payload and validity addresses.
type ColumnKey = (usize, usize);

/// One permuted copy: the source (kept alive, so its key stays unique)
/// and the copy, built once on first use.
type CopySlot = (Column, Arc<OnceLock<Arc<Column>>>);

/// A visit order over a dataset's fact rows plus lazily built permuted
/// copies of its columns (see the module docs).
#[derive(Debug)]
pub struct Shuffle {
    dataset: Dataset,
    /// The seed an interned shuffle was built from; `None` for an
    /// explicit order.
    seed: Option<u64>,
    order: Arc<Vec<u32>>,
    copies: Mutex<FxHashMap<ColumnKey, CopySlot>>,
}

/// Live interned shuffles.
static INTERNED: Mutex<Vec<Weak<Shuffle>>> = Mutex::new(Vec::new());

impl Shuffle {
    /// The shuffle of `dataset`'s fact rows for `seed`, shared by every
    /// caller holding the same dataset (by `Arc` identity, see
    /// [`Dataset::ptr_eq`]) and seed. The first caller builds the order:
    /// `permute` receives `0..rows` and shuffles it in place, seeded with
    /// `seed`; later callers get the existing shuffle and `permute` is not
    /// called.
    pub fn interned(dataset: &Dataset, seed: u64, permute: impl FnOnce(&mut [u32])) -> Arc<Self> {
        let mut interned = INTERNED.lock().unwrap();
        interned.retain(|s| s.strong_count() > 0);
        let live = interned
            .iter()
            .filter_map(Weak::upgrade)
            .find(|s| s.seed == Some(seed) && s.dataset.ptr_eq(dataset));
        if let Some(shuffle) = live {
            return shuffle;
        }
        let mut order: Vec<u32> = (0..dataset.fact_rows() as u32).collect();
        permute(&mut order);
        let shuffle = Arc::new(Self::build(dataset, Some(seed), Arc::new(order)));
        interned.push(Arc::downgrade(&shuffle));
        shuffle
    }

    /// A private shuffle over an explicit visit order (position `i` visits
    /// fact row `order[i]`); its copies are shared by no one else.
    pub fn from_order(dataset: &Dataset, order: Arc<Vec<u32>>) -> Self {
        Self::build(dataset, None, order)
    }

    fn build(dataset: &Dataset, seed: Option<u64>, order: Arc<Vec<u32>>) -> Self {
        assert_eq!(
            order.len(),
            dataset.fact_rows(),
            "visit order has {} positions, but the table has {} rows",
            order.len(),
            dataset.fact_rows()
        );
        Shuffle {
            dataset: dataset.clone(),
            seed,
            order,
            copies: Mutex::new(FxHashMap::default()),
        }
    }

    /// The visit order.
    pub fn order(&self) -> &Arc<Vec<u32>> {
        &self.order
    }

    /// The permuted copy of `col`, a fact-length column: row `i` of the
    /// copy is row `order[i]` of `col`, in `col`'s encoding. Built on first
    /// request and shared by every later one (concurrent requests for one
    /// column build it once).
    pub fn copy_of(&self, col: &Column) -> Arc<Column> {
        assert_eq!(
            col.len(),
            self.order.len(),
            "copies are of fact-length columns"
        );
        let key = (
            col.data() as *const _ as usize,
            col.validity().map_or(0, |v| v as *const _ as usize),
        );
        let cell = {
            let mut copies = self.copies.lock().unwrap();
            let slot = copies
                .entry(key)
                .or_insert_with(|| (col.clone(), Arc::new(OnceLock::new())));
            Arc::clone(&slot.1)
        };
        Arc::clone(cell.get_or_init(|| Arc::new(col.take(self.order.iter().map(|&r| r as usize)))))
    }

    /// Number of permuted copies built so far and the bytes they hold.
    pub fn copy_stats(&self) -> (usize, usize) {
        let copies = self.copies.lock().unwrap();
        copies
            .values()
            .filter_map(|(_, cell)| cell.get())
            .fold((0, 0), |(n, bytes), c| (n + 1, bytes + c.byte_size()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_storage::{DataType, SelVec, Table, TableBuilder};

    fn dataset(n: usize) -> Dataset {
        let mut b = TableBuilder::with_fields("t", &[("x", DataType::Float)]);
        for i in 0..n {
            b.push_row(&[(i as f64 * 0.5).into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn reverse(order: &mut [u32]) {
        order.reverse();
    }

    #[test]
    fn interning_shares_one_shuffle_per_dataset_and_seed() {
        let ds = dataset(10);
        let a = Shuffle::interned(&ds, 1, reverse);
        let b = Shuffle::interned(&ds.clone(), 1, |_| panic!("already interned"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.order().as_slice(), &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
        // Another seed or another dataset (same contents) is another shuffle.
        assert!(!Arc::ptr_eq(&a, &Shuffle::interned(&ds, 2, reverse)));
        assert!(!Arc::ptr_eq(
            &a,
            &Shuffle::interned(&dataset(10), 1, reverse)
        ));
        // Once every handle is gone, the next caller builds afresh.
        let weak = Arc::downgrade(&a);
        drop((a, b));
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn copies_are_permuted_shared_and_keep_encoding_and_nulls() {
        let ds = dataset(6);
        let table: &Arc<Table> = ds.as_denormalized().unwrap();
        let col = table.column_at(0);
        let shuffle = Shuffle::from_order(&ds, Arc::new(vec![5, 0, 4, 1, 3, 2]));
        let copy = shuffle.copy_of(col);
        assert_eq!(&*copy.as_float().unwrap(), &[2.5, 0.0, 2.0, 0.5, 1.5, 1.0]);
        assert_eq!(copy.data().row_width(), col.data().row_width());
        assert!(Arc::ptr_eq(&copy, &shuffle.copy_of(&col.clone())));
        assert_eq!(shuffle.copy_stats(), (1, copy.byte_size()));

        let nullable = col
            .clone()
            .with_validity(SelVec::from_bools(6, [true, false, true, true, true, true]));
        let copy = shuffle.copy_of(&nullable);
        assert!(!copy.is_valid(3), "row 1 is null and sits at position 3");
        assert_eq!(shuffle.copy_stats().0, 2);
    }
}
