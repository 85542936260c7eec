//! The resolved query the driver hands to system adapters.

use crate::spec::{AggregateSpec, BinDef, FilterExpr, VizSpec};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::{Arc, OnceLock};

/// A fully-resolved aggregate query.
///
/// This is what the benchmark driver sends to a [`crate::SystemAdapter`]:
/// the viz's binning and aggregates, plus the *composed* filter — the viz's
/// own filter AND-combined with the filters/selections propagated from all
/// linked upstream visualizations (paper §2.2 "linking").
///
/// # Canonical-key memoization
///
/// [`Query::canonical_key`] is computed once per query value and cached: caches on hot paths — the
/// fleet's cross-session semantic cache, ground-truth memoization, the
/// progressive engine's reuse store — all look queries up by key, and
/// re-serializing the binning/aggregate/filter trees to JSON on every
/// lookup dominated their cost.
///
/// The memo must never outlive the fields it was computed from: a key read
/// before an in-place mutation would otherwise poison every key-indexed
/// cache downstream (the semantic cache could serve a *different
/// query's* result). The fields are therefore private: reads go through
/// the accessors ([`Query::binning`], [`Query::filter`], …) and every
/// mutation goes through an invalidating setter ([`Query::set_filter`],
/// [`Query::compose_filter`], [`Query::set_bin`]) that drops the memo —
/// the stale-key bug is unrepresentable outside this module. Cloning also
/// resets the memo, so a clone-then-mutate never inherits a stale key.
#[derive(Debug)]
pub struct Query {
    /// Name of the visualization this query refreshes.
    viz_name: String,
    /// Source table name.
    source: String,
    /// Binning definitions (1 or 2).
    binning: Vec<BinDef>,
    /// Aggregates per bin.
    aggregates: Vec<AggregateSpec>,
    /// Composed filter, if any.
    filter: Option<FilterExpr>,
    /// Lazily computed canonical key (see the type-level docs).
    key: OnceLock<Arc<str>>,
}

impl Clone for Query {
    /// Clones the query *fields*; the canonical-key memo is reset so a
    /// clone that is subsequently mutated (speculative filter composition)
    /// cannot inherit a stale key.
    fn clone(&self) -> Self {
        Query {
            viz_name: self.viz_name.clone(),
            source: self.source.clone(),
            binning: self.binning.clone(),
            aggregates: self.aggregates.clone(),
            filter: self.filter.clone(),
            key: OnceLock::new(),
        }
    }
}

impl PartialEq for Query {
    /// Semantic fields only — the key memo is derived state.
    fn eq(&self, other: &Self) -> bool {
        self.viz_name == other.viz_name
            && self.source == other.source
            && self.binning == other.binning
            && self.aggregates == other.aggregates
            && self.filter == other.filter
    }
}

impl Serialize for Query {
    fn to_json(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("viz_name".into(), self.viz_name.to_json());
        m.insert("source".into(), self.source.to_json());
        m.insert("binning".into(), self.binning.to_json());
        m.insert("aggregates".into(), self.aggregates.to_json());
        m.insert("filter".into(), self.filter.to_json());
        Value::Object(m)
    }
}

impl Deserialize for Query {
    fn from_json(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "Query"))?;
        let field = |name: &str| obj.get(name).ok_or_else(|| DeError::missing(name, "Query"));
        Ok(Query {
            viz_name: String::from_json(field("viz_name")?)?,
            source: String::from_json(field("source")?)?,
            binning: Vec::from_json(field("binning")?)?,
            aggregates: Vec::from_json(field("aggregates")?)?,
            filter: Option::from_json(field("filter")?)?,
            key: OnceLock::new(),
        })
    }
}

impl Query {
    /// Builds a query for a viz with an already-composed filter.
    pub fn for_viz(spec: &VizSpec, filter: Option<FilterExpr>) -> Self {
        Query {
            viz_name: spec.name.clone(),
            source: spec.source.clone(),
            binning: spec.binning.clone(),
            aggregates: spec.aggregates.clone(),
            filter,
            key: OnceLock::new(),
        }
    }

    /// Builds a query from its parts (an already-composed filter included).
    pub fn new(
        viz_name: impl Into<String>,
        source: impl Into<String>,
        binning: Vec<BinDef>,
        aggregates: Vec<AggregateSpec>,
        filter: Option<FilterExpr>,
    ) -> Self {
        Query {
            viz_name: viz_name.into(),
            source: source.into(),
            binning,
            aggregates,
            filter,
            key: OnceLock::new(),
        }
    }

    /// Name of the visualization this query refreshes.
    pub fn viz_name(&self) -> &str {
        &self.viz_name
    }

    /// Source table name.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Binning definitions (1 or 2).
    pub fn binning(&self) -> &[BinDef] {
        &self.binning
    }

    /// Aggregates computed per bin.
    pub fn aggregates(&self) -> &[AggregateSpec] {
        &self.aggregates
    }

    /// The composed filter, if any.
    pub fn filter(&self) -> Option<&FilterExpr> {
        self.filter.as_ref()
    }

    /// Renames the viz this query refreshes. The viz name is deliberately
    /// *not* part of the canonical key, so this never touches the memo.
    pub fn set_viz_name(&mut self, name: impl Into<String>) {
        self.viz_name = name.into();
    }

    /// Replaces the composed filter, invalidating the canonical-key memo.
    pub fn set_filter(&mut self, filter: Option<FilterExpr>) {
        self.filter = filter;
        self.invalidate_key();
    }

    /// AND-composes `extra` onto the existing filter (the progressive
    /// engine's speculative-selection pattern), invalidating the memo.
    pub fn compose_filter(&mut self, extra: FilterExpr) {
        self.filter = Some(FilterExpr::and_opt(self.filter.take(), extra));
        self.invalidate_key();
    }

    /// Replaces binning definition `idx` (the driver's count→width
    /// resolution), invalidating the memo.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn set_bin(&mut self, idx: usize, def: BinDef) {
        self.binning[idx] = def;
        self.invalidate_key();
    }

    /// Drops the memoized canonical key (every semantic setter ends here).
    fn invalidate_key(&mut self) {
        self.key = OnceLock::new();
    }

    /// A canonical, human-readable key identifying the *semantics* of the
    /// query (binning + aggregates + filter + source), independent of which
    /// viz or interaction issued it. Used for ground-truth caching and
    /// result reuse.
    ///
    /// Computed once per query value and memoized (cheap `Arc` share on
    /// every further call); the invalidating setters ([`Self::set_filter`],
    /// [`Self::compose_filter`], [`Self::set_bin`]) keep the memo honest
    /// across in-place mutation — see the type-level docs.
    pub fn canonical_key(&self) -> Arc<str> {
        Arc::clone(self.key.get_or_init(|| {
            // serde_json's field ordering is declaration order, which is
            // stable.
            let mut key = String::with_capacity(128);
            key.push_str(&self.source);
            key.push('|');
            key.push_str(&serde_json::to_string(&self.binning).expect("binning serializes"));
            key.push('|');
            key.push_str(&serde_json::to_string(&self.aggregates).expect("aggregates serialize"));
            key.push('|');
            match &self.filter {
                Some(f) => {
                    key.push_str(&serde_json::to_string(f).expect("filter serializes"));
                }
                None => key.push_str("null"),
            }
            key.into()
        }))
    }

    /// All columns the query touches (binning dims + measures + filters).
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.binning.iter().map(BinDef::dimension).collect();
        for a in &self.aggregates {
            if let Some(d) = &a.dimension {
                cols.push(d);
            }
        }
        if let Some(f) = &self.filter {
            cols.extend(f.columns());
        }
        cols
    }

    /// Number of leaf filter predicates (the specificity proxy of Exp 4).
    pub fn filter_specificity(&self) -> usize {
        self.filter.as_ref().map_or(0, FilterExpr::num_predicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggFunc, Predicate};

    fn viz() -> VizSpec {
        VizSpec::new(
            "viz_1",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::over(AggFunc::Avg, "dep_delay")],
        )
    }

    fn range(col: &str, min: f64, max: f64) -> FilterExpr {
        FilterExpr::pred(Predicate::Range {
            column: col.into(),
            min,
            max,
        })
    }

    #[test]
    fn canonical_key_ignores_viz_name() {
        let q1 = Query::for_viz(&viz(), None);
        let mut v2 = viz();
        v2.name = "viz_99".into();
        let q2 = Query::for_viz(&v2, None);
        assert_eq!(q1.canonical_key(), q2.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_filters() {
        let q1 = Query::for_viz(&viz(), Some(range("distance", 0.0, 500.0)));
        let q2 = Query::for_viz(&viz(), Some(range("distance", 0.0, 600.0)));
        let q3 = Query::for_viz(&viz(), None);
        assert_ne!(q1.canonical_key(), q2.canonical_key());
        assert_ne!(q1.canonical_key(), q3.canonical_key());
    }

    #[test]
    fn canonical_key_is_memoized_and_shared() {
        let q = Query::for_viz(&viz(), Some(range("distance", 0.0, 500.0)));
        let a = q.canonical_key();
        let b = q.canonical_key();
        assert!(Arc::ptr_eq(&a, &b), "second read shares the memo");
    }

    #[test]
    fn clone_resets_the_key_memo() {
        let q1 = Query::for_viz(&viz(), None);
        let k1 = q1.canonical_key();
        // Clone *after* the original's key was computed, then mutate the
        // clone — the speculative-query pattern. The clone must produce a
        // fresh key, not the original's.
        let mut q2 = q1.clone();
        q2.set_filter(Some(range("distance", 0.0, 500.0)));
        let k2 = q2.canonical_key();
        assert_ne!(k1, k2);
        assert_eq!(q1.canonical_key(), k1);
    }

    #[test]
    fn mutation_after_key_read_yields_the_fresh_key() {
        // Regression: queries are composed in place after construction (the
        // driver resolves count-binnings, the progressive engine composes
        // speculative filters). A canonical key read *before* such a
        // mutation must not survive it — a stale memo here poisons every
        // key-indexed cache downstream. With private fields, every
        // mutation path runs through these invalidating setters.
        let mut q = Query::for_viz(&viz(), None);
        let stale_key = q.canonical_key();

        q.compose_filter(range("distance", 0.0, 500.0));
        let fresh = Query::for_viz(&viz(), Some(range("distance", 0.0, 500.0)));
        assert_ne!(q.canonical_key(), stale_key, "memo invalidated");
        assert_eq!(q.canonical_key(), fresh.canonical_key());

        // set_filter and set_bin invalidate too.
        let _ = q.canonical_key();
        q.set_filter(None);
        assert_eq!(q.canonical_key(), stale_key, "back to the unfiltered key");
        let _ = q.canonical_key();
        q.set_bin(
            0,
            BinDef::Width {
                dimension: "dep_delay".into(),
                width: 5.0,
                anchor: 0.0,
            },
        );
        assert_ne!(q.canonical_key(), stale_key);

        // Renaming the viz never touches the memo — the name is
        // deliberately not part of the key.
        let before = q.canonical_key();
        q.set_viz_name("renamed");
        assert_eq!(q.viz_name(), "renamed");
        assert!(Arc::ptr_eq(&before, &q.canonical_key()));
    }

    #[test]
    fn referenced_columns_cover_all_parts() {
        let q = Query::for_viz(&viz(), Some(range("distance", 0.0, 500.0)));
        let cols = q.referenced_columns();
        assert!(cols.contains(&"carrier"));
        assert!(cols.contains(&"dep_delay"));
        assert!(cols.contains(&"distance"));
    }

    #[test]
    fn specificity_counts_predicates() {
        let f = range("a", 0.0, 1.0).and(range("b", 0.0, 1.0));
        let q = Query::for_viz(&viz(), Some(f));
        assert_eq!(q.filter_specificity(), 2);
        assert_eq!(Query::for_viz(&viz(), None).filter_specificity(), 0);
    }

    #[test]
    fn query_serde_roundtrip() {
        let q = Query::for_viz(&viz(), Some(range("distance", 0.0, 500.0)));
        let js = serde_json::to_string(&q).unwrap();
        let back: Query = serde_json::from_str(&js).unwrap();
        assert_eq!(q, back);
        assert_eq!(q.canonical_key(), back.canonical_key());
    }
}
