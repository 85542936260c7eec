//! A dataset's memo of prepared values.
//!
//! Engines prepare derived data from a dataset before they answer queries:
//! the online-aggregation engines a shuffled scan order with its permuted
//! column copies, the stratified engine an offline sample. IDEBench charges
//! that preparation to the system on every restart (the engines' cost
//! models bill it), but the values themselves depend only on the dataset
//! and a key such as a seed. A [`Memo`], owned by the dataset's fact
//! [`crate::Table`] (see [`crate::Dataset::memo`]), lets every engine
//! instance over one dataset build each of them once.
//!
//! The memo holds at most one value per value type: the value for the
//! newest key. A request with another key replaces the entry, so the memo
//! never holds more than one shuffle or one sample, and dropping the last
//! handle of the dataset frees them all. Values must not hold their dataset
//! strongly, or the entry would keep its own table alive.

use std::any::Any;
use std::sync::{Arc, Mutex, OnceLock};

/// The newest key of one value type and its value, built once.
struct Entry<K, V> {
    key: K,
    value: Arc<OnceLock<Arc<V>>>,
}

/// A memo holding the newest keyed value of each type (see the module
/// docs).
#[derive(Default)]
pub struct Memo {
    entries: Mutex<Vec<Box<dyn Any + Send + Sync>>>,
}

impl Memo {
    /// The value for `key`, built by `build` on the first request for that
    /// key. A request with another key for the same value type replaces
    /// the entry; a caller still holding the old value keeps it alive.
    /// Concurrent requests for one key build it once; `build` runs outside
    /// the memo's lock.
    pub fn get_or_build<K, V>(&self, key: K, build: impl FnOnce() -> V) -> Arc<V>
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let cell = {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            let found = entries
                .iter_mut()
                .find_map(|e| e.downcast_mut::<Entry<K, V>>());
            match found {
                Some(entry) if entry.key == key => Arc::clone(&entry.value),
                Some(entry) => {
                    *entry = Entry {
                        key,
                        value: Arc::default(),
                    };
                    Arc::clone(&entry.value)
                }
                None => {
                    let value = Arc::default();
                    entries.push(Box::new(Entry {
                        key,
                        value: Arc::clone(&value),
                    }));
                    value
                }
            }
        };
        Arc::clone(cell.get_or_init(|| Arc::new(build())))
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map_or(0, |e| e.len());
        write!(f, "Memo({n} entries)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_value_per_type_for_the_newest_key() {
        let memo = Memo::default();
        let a = memo.get_or_build(1u64, || "one".to_string());
        let again = memo.get_or_build(1u64, || unreachable!("built once"));
        assert!(Arc::ptr_eq(&a, &again));
        // Another value type has an entry of its own.
        let n = memo.get_or_build(1u64, || 7i32);
        assert_eq!(*n, 7);
        assert!(Arc::ptr_eq(&a, &memo.get_or_build(1u64, || unreachable!())));
        // A new key replaces the entry; the old value lives while held.
        let weak = Arc::downgrade(&a);
        let b = memo.get_or_build(2u64, || "two".to_string());
        assert_eq!((a.as_str(), b.as_str()), ("one", "two"));
        drop((a, again));
        assert!(weak.upgrade().is_none(), "the memo no longer holds it");
        // The old key builds afresh.
        let a2 = memo.get_or_build(1u64, || "one again".to_string());
        assert_eq!(*a2, "one again");
    }

    #[test]
    fn concurrent_requests_build_once() {
        let memo = Memo::default();
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let values: Vec<Arc<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        memo.get_or_build(9u64, || {
                            builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            42u64
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.into_inner(), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
    }
}
