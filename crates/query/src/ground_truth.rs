//! Caching ground-truth oracle used for metric evaluation.

use crate::executor::execute_exact;
use idebench_core::{AggResult, GroundTruthProvider, Query};
use idebench_storage::Dataset;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Computes exact results with [`execute_exact`] and memoizes them by
/// [`Query::canonical_key`]. IDE workloads re-issue many identical queries
/// (linked vizs refresh repeatedly), so caching makes whole-benchmark
/// evaluation cheap.
pub struct CachedGroundTruth {
    dataset: Dataset,
    cache: FxHashMap<Arc<str>, AggResult>,
    hits: u64,
    misses: u64,
}

impl CachedGroundTruth {
    /// Creates an oracle over the dataset.
    pub fn new(dataset: Dataset) -> Self {
        CachedGroundTruth {
            dataset,
            cache: FxHashMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` counters, for harness diagnostics.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of distinct queries evaluated.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when no query has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

impl GroundTruthProvider for CachedGroundTruth {
    fn ground_truth(&mut self, query: &Query) -> AggResult {
        let key = query.canonical_key();
        if let Some(hit) = self.cache.get(&key) {
            self.hits += 1;
            return hit.clone();
        }
        self.misses += 1;
        let result = execute_exact(&self.dataset, query)
            .expect("ground-truth query must bind against the dataset");
        self.cache.insert(key, result.clone());
        result
    }
}

/// Enumerates the distinct queries a workload would trigger, by replaying
/// every interaction through the driver's visualization graph (including
/// its count-binning resolution). Deduplicated by canonical key.
pub fn enumerate_workload_queries(
    dataset: &Dataset,
    workloads: &[&[idebench_core::Interaction]],
) -> Result<Vec<Query>, idebench_core::CoreError> {
    let mut seen = rustc_hash::FxHashSet::default();
    let mut out = Vec::new();
    for interactions in workloads {
        let mut graph = idebench_core::VizGraph::new();
        for interaction in *interactions {
            for viz in graph.apply(interaction)? {
                let mut query = graph.query_for(&viz)?;
                idebench_core::driver::resolve_count_binnings(&mut query, dataset)?;
                if seen.insert(query.canonical_key()) {
                    out.push(query);
                }
            }
        }
    }
    Ok(out)
}

impl CachedGroundTruth {
    /// Pre-computes ground truth for a whole workload in parallel using
    /// up to `threads` worker threads, never more than there are queries
    /// (std scoped threads with an atomic work index, each returning its
    /// results through its join handle). The returned oracle serves every
    /// workload query from memory; unseen queries still fall back to
    /// on-demand execution.
    pub fn precompute(dataset: Dataset, queries: &[Query], threads: usize) -> Self {
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            while let Some(query) = queries.get(next.fetch_add(1, Ordering::Relaxed)) {
                let result = execute_exact(&dataset, query)
                    .expect("ground-truth query must bind against the dataset");
                done.push((query.canonical_key(), result));
            }
            done
        };
        let cache = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(queries.len()).clamp(1, 64))
                .map(|_| scope.spawn(worker))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        CachedGroundTruth {
            dataset,
            cache,
            hits: 0,
            misses: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::spec::{AggregateSpec, BinDef};
    use idebench_core::VizSpec;
    use idebench_storage::{DataType, TableBuilder};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let mut b = TableBuilder::with_fields("flights", &[("carrier", DataType::Nominal)]);
        for c in ["AA", "DL", "AA"] {
            b.push_row(&[c.into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn query(name: &str) -> Query {
        let spec = VizSpec::new(
            name,
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        Query::for_viz(&spec, None)
    }

    #[test]
    fn caches_by_semantics_not_viz_name() {
        let mut gt = CachedGroundTruth::new(dataset());
        let a = gt.ground_truth(&query("viz_0"));
        let b = gt.ground_truth(&query("viz_other"));
        assert_eq!(a, b);
        assert_eq!(gt.stats(), (1, 1));
        assert_eq!(gt.len(), 1);
    }

    #[test]
    fn precompute_parallel_matches_serial() {
        let ds = dataset();
        let q0 = query("a");
        let mut q1 = query("b");
        q1.set_filter(Some(idebench_core::FilterExpr::Pred(
            idebench_core::Predicate::In {
                column: "carrier".into(),
                values: vec!["DL".into()],
            },
        )));
        let queries = vec![q0.clone(), q1.clone()];
        let mut frozen = CachedGroundTruth::precompute(ds.clone(), &queries, 4);
        let mut serial = CachedGroundTruth::new(ds);
        assert_eq!(frozen.ground_truth(&q0), serial.ground_truth(&q0));
        assert_eq!(frozen.ground_truth(&q1), serial.ground_truth(&q1));
        // Both served from the precomputed cache.
        assert_eq!(frozen.stats().0, 2);
        assert_eq!(frozen.len(), 2);
    }

    #[test]
    fn enumerate_workload_queries_dedups() {
        use idebench_core::spec::{AggregateSpec, BinDef};
        use idebench_core::{Interaction, VizSpec};
        let ds = dataset();
        let viz = |name: &str| {
            VizSpec::new(
                name,
                "flights",
                vec![BinDef::Nominal {
                    dimension: "carrier".into(),
                }],
                vec![AggregateSpec::count()],
            )
        };
        // Two workflows issuing semantically identical queries.
        let wf1 = vec![Interaction::CreateViz { viz: viz("a") }];
        let wf2 = vec![
            Interaction::CreateViz { viz: viz("x") },
            Interaction::SetFilter {
                viz: "x".into(),
                filter: None,
            },
        ];
        let queries = enumerate_workload_queries(&ds, &[wf1.as_slice(), wf2.as_slice()]).unwrap();
        assert_eq!(queries.len(), 1, "identical semantics deduplicate");
    }

    #[test]
    fn distinct_queries_miss() {
        let mut gt = CachedGroundTruth::new(dataset());
        let q1 = query("v");
        let mut q2 = query("v");
        q2.set_filter(Some(idebench_core::FilterExpr::Pred(
            idebench_core::Predicate::In {
                column: "carrier".into(),
                values: vec!["AA".into()],
            },
        )));
        gt.ground_truth(&q1);
        gt.ground_truth(&q2);
        assert_eq!(gt.stats(), (0, 2));
    }
}
