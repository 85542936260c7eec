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
//! [`Shuffle::interned`] keeps one shuffle per dataset in the dataset's
//! memo ([`Dataset::memo`], owned by its fact table): every engine
//! instance, session and query that shuffles a dataset with the newest
//! seed shares one order and one set of copies, including engines created
//! after earlier ones were dropped, so an engine restarted over the same
//! dataset rebuilds nothing. A shuffle with another seed replaces the
//! entry, so at most one shuffle per dataset outlives the engines using
//! it. Copies are keyed by source column and shared through `Arc`s, and
//! keep the source's narrow encoding (see [`idebench_storage::encoding`]),
//! so one order costs 4 bytes per row plus at most one narrow copy of each
//! fact column (or join materialization) that plans reference — ≈17 MB
//! for the 11 columns the progressive engine reads of a 1M-row flights
//! table. A shuffle does not hold its dataset, so the memo forms no cycle:
//! dropping the last handle of the dataset frees the order and its copies.
//!
//! Each copy is gathered once, on the scan pool ([`crate::global_pool`]):
//! the caller and the pool's workers claim disjoint ranges of 16 Ki
//! positions and fill them through [`Column::permuted`], which keeps the
//! source's already computed statistics, code bounds and decode table.

use crate::pool::{global_pool, ScanPool};
use idebench_storage::{Column, Dataset};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Positions one claim of a copy's gather fills.
const COPY_PART_ROWS: usize = 16 * 1024;

/// A source column's identity: its payload and validity addresses.
type ColumnKey = (usize, usize);

/// One permuted copy: the source (kept alive, so its key stays unique)
/// and the copy, built once on first use.
type CopySlot = (Column, Arc<OnceLock<Arc<Column>>>);

/// A visit order over a dataset's fact rows plus lazily built permuted
/// copies of its columns (see the module docs).
#[derive(Debug)]
pub struct Shuffle {
    order: Arc<Vec<u32>>,
    copies: Mutex<FxHashMap<ColumnKey, CopySlot>>,
}

impl Shuffle {
    /// The shuffle of `dataset`'s fact rows for `seed`, kept in the
    /// dataset's memo and shared by every caller holding the same dataset
    /// (by `Arc` identity, see [`Dataset::ptr_eq`]) and seed. The first
    /// caller builds the order: `permute` receives `0..rows` and shuffles
    /// it in place, seeded with `seed`; later callers get the existing
    /// shuffle and `permute` is not called. A call with another seed
    /// replaces the memo's shuffle (see the module docs).
    pub fn interned(dataset: &Dataset, seed: u64, permute: impl FnOnce(&mut [u32])) -> Arc<Self> {
        dataset.memo().get_or_build(seed, || {
            let mut order: Vec<u32> = (0..dataset.fact_rows() as u32).collect();
            permute(&mut order);
            Self::from_order(dataset, Arc::new(order))
        })
    }

    /// A private shuffle over an explicit visit order (position `i` visits
    /// fact row `order[i]`, and every row is visited once); its copies are
    /// shared by no one else.
    pub fn from_order(dataset: &Dataset, order: Arc<Vec<u32>>) -> Self {
        assert_eq!(
            order.len(),
            dataset.fact_rows(),
            "visit order has {} positions, but the table has {} rows",
            order.len(),
            dataset.fact_rows()
        );
        Shuffle {
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
    /// request, on the scan pool, and shared by every later one (concurrent
    /// requests for one column build it once).
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
        Arc::clone(cell.get_or_init(|| {
            let helpers = crate::dispatch::available_workers() - 1;
            Arc::new(gather_copy(global_pool(), helpers, col, &self.order))
        }))
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

/// `col` permuted by `order` ([`Column::permuted`]): the caller and up to
/// `helpers` workers of `pool` claim its parts one at a time.
fn gather_copy(pool: &ScanPool, helpers: usize, col: &Column, order: &[u32]) -> Column {
    col.permuted(order, COPY_PART_ROWS, &|parts, fill| {
        let next = AtomicUsize::new(0);
        let body = || loop {
            let p = next.fetch_add(1, Ordering::Relaxed);
            if p >= parts {
                break;
            }
            fill(p);
        };
        pool.scope_run(helpers.min(parts.saturating_sub(1)), &body);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_storage::{Code, ColumnData, DataType, Ints, SelVec, Table, TableBuilder};

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
    fn later_engines_get_the_memo_shuffle_and_its_copies() {
        let ds = dataset(10);
        let col = ds.fact_table().column_at(0);
        let first = Shuffle::interned(&ds, 1, reverse);
        assert_eq!(first.order().as_slice(), &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
        let (shuffle, copy) = (Arc::downgrade(&first), Arc::downgrade(&first.copy_of(col)));
        // Every engine using them is gone; the dataset's memo keeps them.
        drop(first);
        let again = Shuffle::interned(&ds.clone(), 1, |_| panic!("already built"));
        assert!(Arc::ptr_eq(&again, &shuffle.upgrade().unwrap()));
        assert!(Arc::ptr_eq(&again.copy_of(col), &copy.upgrade().unwrap()));
        assert_eq!(again.copy_stats().0, 1);
        // Another dataset with the same contents is another shuffle.
        let twin = dataset(10);
        assert!(!Arc::ptr_eq(&again, &Shuffle::interned(&twin, 1, reverse)));
    }

    #[test]
    fn a_new_seed_replaces_the_memo_entry() {
        let ds = dataset(10);
        let col = ds.fact_table().column_at(0);
        let strong = Shuffle::interned(&ds, 1, reverse);
        let copy = Arc::downgrade(&strong.copy_of(col));
        let one = Arc::downgrade(&strong);
        drop(strong);
        let two = Arc::downgrade(&Shuffle::interned(&ds, 2, |_| {}));
        assert_eq!(
            two.upgrade().unwrap().order().as_slice(),
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
        assert!(one.upgrade().is_none() && copy.upgrade().is_none());
        // Seed 1 again builds afresh and replaces seed 2.
        let mut built = false;
        let again = Shuffle::interned(&ds, 1, |o| {
            built = true;
            reverse(o)
        });
        assert!(built);
        assert_eq!(again.order()[0], 9);
        assert!(two.upgrade().is_none(), "held by nothing but the memo");
    }

    #[test]
    fn dropping_the_dataset_frees_its_shuffle_and_copies() {
        let ds = dataset(10);
        let table = Arc::downgrade(ds.fact_table());
        let strong = Shuffle::interned(&ds, 1, reverse);
        let copy = Arc::downgrade(&strong.copy_of(ds.fact_table().column_at(0)));
        let shuffle = Arc::downgrade(&strong);
        drop(strong);
        assert!(shuffle.upgrade().is_some() && copy.upgrade().is_some());
        drop(ds);
        // No cycle: the shuffle does not hold the table whose memo holds it.
        assert!(table.upgrade().is_none());
        assert!(shuffle.upgrade().is_none());
        assert!(copy.upgrade().is_none());
    }

    /// A column of `n` rows over `data(n)` at every tenth row null when
    /// `nulls`, with its statistics and decode table computed.
    fn warmed(data: ColumnData, nulls: bool) -> Column {
        let n = data.len();
        let mut col = Column::new(data);
        if nulls {
            col = col.with_validity(SelVec::from_bools(n, (0..n).map(|i| i % 10 != 3)));
        }
        let _ = (col.numeric_min_max(), col.decode_table());
        col
    }

    /// Every payload a copy can hold: plain floats (a NaN, both zeros), and
    /// integers, decimal codes and dictionary codes each at the three
    /// widths of its role.
    fn payloads(n: usize) -> Vec<ColumnData> {
        let dict = Arc::new(idebench_storage::Dictionary::from_values(
            (0..70_000).map(|i| format!("v{i}")),
        ));
        let k = |i: usize, m: usize| (i * 7919 + i / 3) % m;
        let floats = (0..n)
            .map(|i| match i % 17 {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                _ => (k(i, 1000) as f64) / 3.0 - 100.0,
            })
            .collect();
        vec![
            ColumnData::Float(floats),
            ColumnData::Int(Ints::Narrow((0..n).map(|i| k(i, 256) as u8).collect())),
            ColumnData::Int(Ints::Mid((0..n).map(|i| k(i, 65_536) as u16).collect())),
            ColumnData::Int(Ints::Wide(
                (0..n).map(|i| k(i, 1 << 40) as i64 - 99).collect(),
            )),
            ColumnData::Decimal(
                Ints::Narrow((0..n).map(|i| k(i, 60_000) as u16).collect()),
                2,
            ),
            ColumnData::Decimal(
                Ints::Mid((0..n).map(|i| k(i, 600) as i16 - 300).collect()),
                1,
            ),
            ColumnData::Decimal(
                Ints::Wide((0..n).map(|i| k(i, 1 << 20) as i32 - 7).collect()),
                4,
            ),
            ColumnData::Nominal(
                Ints::Narrow((0..n).map(|i| k(i, 200) as u8).collect()),
                Arc::clone(&dict),
            ),
            ColumnData::Nominal(
                Ints::Mid((0..n).map(|i| k(i, 60_000) as u16).collect()),
                Arc::clone(&dict),
            ),
            ColumnData::Nominal(
                Ints::Wide((0..n).map(|i| k(i, 70_000) as u32).collect()),
                dict,
            ),
        ]
    }

    /// A payload as bit patterns: floats by `to_bits`, codes widened.
    fn payload_bits(c: &Column) -> (usize, Vec<u64>) {
        fn widened<N: Code, M: Code, W: Code>(k: &Ints<N, M, W>) -> Vec<u64> {
            idebench_storage::match_ints!(k, v => v.iter().map(|&c| c.widen() as u64).collect())
        }
        let bits = match c.data() {
            ColumnData::Float(v) => v.iter().map(|x| x.to_bits()).collect(),
            ColumnData::Decimal(k, _) => widened(k),
            ColumnData::Int(k) => widened(k),
            ColumnData::Nominal(k, _) => widened(k),
        };
        (c.data().row_width(), bits)
    }

    fn min_max_bits(r: Option<(f64, f64)>) -> Option<(u64, u64)> {
        r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
    }

    #[test]
    fn parallel_gather_equals_take_bit_for_bit() {
        let pools: Vec<(usize, ScanPool)> = [1, 2, 8]
            .into_iter()
            .map(|w| (w, ScanPool::new(w - 1)))
            .collect();
        for n in [1, 63, 65, 65_537] {
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut state = n as u64;
            for i in (1..n).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            for data in payloads(n) {
                for nulls in [false, true] {
                    let col = warmed(data.clone(), nulls);
                    let oracle = col.take(order.iter().map(|&r| r as usize));
                    for (w, pool) in &pools {
                        let copy = gather_copy(pool, w - 1, &col, &order);
                        let case = format!("{n} rows, {w} workers, {:?}", payload_bits(&col).0);
                        assert_eq!(payload_bits(&copy), payload_bits(&oracle), "{case}");
                        assert_eq!(
                            std::mem::discriminant(copy.data()),
                            std::mem::discriminant(oracle.data())
                        );
                        assert_eq!(copy.validity(), oracle.validity(), "{case}");
                        // Carried statistics equal the ones the take recomputes.
                        assert_eq!(
                            min_max_bits(copy.finite_min_max()),
                            min_max_bits(oracle.finite_min_max()),
                            "{case}"
                        );
                        assert_eq!(
                            copy.numeric_min_max().is_some(),
                            oracle.numeric_min_max().is_some()
                        );
                        assert_eq!(copy.decode_table(), oracle.decode_table(), "{case}");
                    }
                }
            }
        }
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
