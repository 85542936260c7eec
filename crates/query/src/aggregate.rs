//! Grouped aggregation with exact finalization and sample-based estimation.

use crate::resolve::ResolvedQuery;
use idebench_core::{AggFunc, AggResult, BinKey, BinStats};
use rustc_hash::FxHashMap;

/// Running statistics for one measure inside one bin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasureAcc {
    /// Non-null observations.
    pub n: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Sum of squared observations (for variance / CIs).
    pub sumsq: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl MeasureAcc {
    pub(crate) fn new() -> Self {
        MeasureAcc {
            n: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    pub(crate) fn update(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.sumsq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Sample variance (n−1 denominator); 0 for fewer than 2 observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        ((self.sumsq - self.sum * self.sum / n) / (n - 1.0)).max(0.0)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MeasureAcc) {
        self.n += other.n;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Accumulated state for one bin: the row count plus one [`MeasureAcc`] per
/// non-count aggregate position.
#[derive(Debug, Clone, PartialEq)]
pub struct BinAcc {
    /// Rows of the bin seen so far (drives COUNT and count-estimates).
    pub count: u64,
    /// One accumulator per aggregate (unused slots for COUNT stay empty).
    pub measures: Vec<MeasureAcc>,
}

/// Grouped accumulator: the shared heart of every engine's execution.
#[derive(Debug, Clone)]
pub struct GroupedAcc {
    /// Aggregates being computed (copied from the query).
    aggs: Vec<(AggFunc, bool)>, // (func, has_measure)
    /// Per-bin state.
    pub bins: FxHashMap<BinKey, BinAcc>,
    /// Rows scanned (matched or not) — the processed-fraction numerator.
    pub rows_seen: u64,
    /// Rows that passed the filter.
    pub rows_matched: u64,
}

impl GroupedAcc {
    /// Creates an accumulator for a resolved query's aggregates.
    pub(crate) fn for_query(
        resolved: &ResolvedQuery<'_>,
        aggs: &[idebench_core::AggregateSpec],
    ) -> Self {
        debug_assert_eq!(resolved.measures.len(), aggs.len());
        GroupedAcc {
            aggs: aggs
                .iter()
                .map(|a| (a.func, a.dimension.is_some()))
                .collect(),
            bins: FxHashMap::default(),
            rows_seen: 0,
            rows_matched: 0,
        }
    }

    /// Assembles an accumulator from already-accumulated state (the
    /// materialization target of the vectorized batch path).
    pub(crate) fn from_parts(
        aggs: Vec<(AggFunc, bool)>,
        bins: FxHashMap<BinKey, BinAcc>,
        rows_seen: u64,
        rows_matched: u64,
    ) -> Self {
        GroupedAcc {
            aggs,
            bins,
            rows_seen,
            rows_matched,
        }
    }

    /// Processes one (fact) row: filter → bin → accumulate.
    ///
    /// Returns `true` when the row matched the filter.
    #[inline]
    pub(crate) fn process_row(&mut self, resolved: &ResolvedQuery<'_>, row: usize) -> bool {
        self.rows_seen += 1;
        if !resolved.matches(row) {
            return false;
        }
        self.rows_matched += 1;
        let Some(key) = resolved.binning.bin_of(row) else {
            return true; // matched but null bin value: contributes nowhere
        };
        let nmeasures = self.aggs.len();
        let acc = self.bins.entry(key).or_insert_with(|| BinAcc {
            count: 0,
            measures: vec![MeasureAcc::new(); nmeasures],
        });
        acc.count += 1;
        for (i, m) in resolved.measures.iter().enumerate() {
            if let Some(col) = m {
                if let Some(v) = col.numeric_at(row) {
                    acc.measures[i].update(v);
                }
            }
        }
        true
    }

    /// Exact finalization: values are the true aggregates, margins zero.
    pub fn finish_exact(&self) -> AggResult {
        let mut result = AggResult {
            bins: FxHashMap::default(),
            processed_fraction: 1.0,
            exact: true,
        };
        for (key, acc) in &self.bins {
            let values = self
                .aggs
                .iter()
                .enumerate()
                .map(|(i, (func, _))| finish_value(*func, acc, i))
                .collect();
            result.bins.insert(key.clone(), BinStats::exact(values));
        }
        result
    }

    /// Sample-based estimation with CLT confidence intervals.
    ///
    /// The accumulator must have been fed a uniform (or proportionally
    /// stratified) random sample of `self.rows_seen` rows out of a
    /// population of `population_rows`. COUNT and SUM estimates are scaled
    /// up by the inverse sampling fraction; AVG/MIN/MAX are used directly.
    ///
    /// Margins are half-widths at the z-value `z`:
    /// - COUNT: normal approximation of the binomial,
    ///   `z · (N/n) · sqrt(n·p̂(1−p̂))` with `p̂ = c/n`.
    /// - SUM: `z · N · sqrt(var(y)/n)` where `y` is the per-row bin
    ///   contribution (0 outside the bin).
    /// - AVG: `z · sqrt(s²/c)` with the within-bin sample variance `s²`.
    /// - MIN/MAX: no distribution-free CI; margin 0 (reported as exact-ish
    ///   observations, mirroring typical AQP systems).
    pub fn finish_estimate(&self, population_rows: u64, z: f64) -> AggResult {
        let n = self.rows_seen.max(1) as f64;
        let npop = population_rows as f64;
        let scale = npop / n;
        let mut result = AggResult {
            bins: FxHashMap::default(),
            processed_fraction: (self.rows_seen as f64 / population_rows.max(1) as f64).min(1.0),
            exact: false,
        };
        for (key, acc) in &self.bins {
            let c = acc.count as f64;
            let mut values = Vec::with_capacity(self.aggs.len());
            let mut margins = Vec::with_capacity(self.aggs.len());
            for (i, (func, _)) in self.aggs.iter().enumerate() {
                match func {
                    AggFunc::Count => {
                        let p = (c / n).min(1.0);
                        values.push(c * scale);
                        margins.push(z * scale * (n * p * (1.0 - p)).sqrt());
                    }
                    AggFunc::Sum => {
                        let m = &acc.measures[i];
                        // y = measure inside bin, 0 outside: moments over all
                        // n sampled rows.
                        let mean_y = m.sum / n;
                        let var_y = (m.sumsq / n - mean_y * mean_y).max(0.0);
                        values.push(m.sum * scale);
                        margins.push(z * npop * (var_y / n).sqrt());
                    }
                    AggFunc::Avg => {
                        let m = &acc.measures[i];
                        let cnt = m.n.max(1) as f64;
                        values.push(m.sum / cnt);
                        margins.push(z * (m.sample_variance() / cnt).sqrt());
                    }
                    AggFunc::Min => {
                        let m = &acc.measures[i];
                        values.push(if m.n > 0 { m.min } else { 0.0 });
                        margins.push(0.0);
                    }
                    AggFunc::Max => {
                        let m = &acc.measures[i];
                        values.push(if m.n > 0 { m.max } else { 0.0 });
                        margins.push(0.0);
                    }
                }
            }
            result
                .bins
                .insert(key.clone(), BinStats::approximate(values, margins));
        }
        result
    }

    /// Merges another accumulator (same query) into this one.
    pub fn merge(&mut self, other: &GroupedAcc) {
        debug_assert_eq!(self.aggs, other.aggs);
        self.rows_seen += other.rows_seen;
        self.rows_matched += other.rows_matched;
        for (key, acc) in &other.bins {
            match self.bins.get_mut(key) {
                Some(mine) => {
                    mine.count += acc.count;
                    for (m, o) in mine.measures.iter_mut().zip(&acc.measures) {
                        m.merge(o);
                    }
                }
                None => {
                    self.bins.insert(key.clone(), acc.clone());
                }
            }
        }
    }
}

fn finish_value(func: AggFunc, acc: &BinAcc, idx: usize) -> f64 {
    match func {
        AggFunc::Count => acc.count as f64,
        AggFunc::Sum => acc.measures[idx].sum,
        AggFunc::Avg => {
            let m = &acc.measures[idx];
            if m.n == 0 {
                0.0
            } else {
                m.sum / m.n as f64
            }
        }
        AggFunc::Min => {
            let m = &acc.measures[idx];
            if m.n == 0 {
                0.0
            } else {
                m.min
            }
        }
        AggFunc::Max => {
            let m = &acc.measures[idx];
            if m.n == 0 {
                0.0
            } else {
                m.max
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idebench_core::spec::{AggregateSpec, BinDef};
    use idebench_core::{BinCoord, Query, VizSpec};
    use idebench_storage::{DataType, Dataset, TableBuilder};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let mut b = TableBuilder::with_fields(
            "flights",
            &[
                ("carrier", DataType::Nominal),
                ("dep_delay", DataType::Float),
            ],
        );
        for (c, d) in [
            ("AA", 10.0),
            ("AA", 20.0),
            ("DL", 30.0),
            ("DL", 50.0),
            ("AA", 0.0),
        ] {
            b.push_row(&[c.into(), d.into()]).unwrap();
        }
        Dataset::Denormalized(Arc::new(b.finish()))
    }

    fn query() -> Query {
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![
                AggregateSpec::count(),
                AggregateSpec::over(AggFunc::Avg, "dep_delay"),
                AggregateSpec::over(AggFunc::Sum, "dep_delay"),
                AggregateSpec::over(AggFunc::Min, "dep_delay"),
                AggregateSpec::over(AggFunc::Max, "dep_delay"),
            ],
        );
        Query::for_viz(&spec, None)
    }

    fn run_all(ds: &Dataset, q: &Query) -> GroupedAcc {
        let resolved = ResolvedQuery::new(ds, q).unwrap();
        let mut acc = GroupedAcc::for_query(&resolved, q.aggregates());
        for row in 0..resolved.num_rows {
            acc.process_row(&resolved, row);
        }
        acc
    }

    #[test]
    fn exact_aggregates_per_bin() {
        let ds = dataset();
        let q = query();
        let acc = run_all(&ds, &q);
        let result = acc.finish_exact();
        assert!(result.exact);
        let aa = BinKey::d1(BinCoord::Cat(0));
        let dl = BinKey::d1(BinCoord::Cat(1));
        let aa_stats = &result.bins[&aa];
        assert_eq!(aa_stats.values[0], 3.0); // count
        assert_eq!(aa_stats.values[1], 10.0); // avg
        assert_eq!(aa_stats.values[2], 30.0); // sum
        assert_eq!(aa_stats.values[3], 0.0); // min
        assert_eq!(aa_stats.values[4], 20.0); // max
        assert_eq!(result.bins[&dl].values[1], 40.0);
    }

    #[test]
    fn rows_seen_and_matched_track_scan() {
        let ds = dataset();
        let q = query();
        let acc = run_all(&ds, &q);
        assert_eq!(acc.rows_seen, 5);
        assert_eq!(acc.rows_matched, 5);
    }

    #[test]
    fn estimate_scales_counts_and_sums() {
        let ds = dataset();
        let q = query();
        let acc = run_all(&ds, &q);
        // Pretend the 5 rows are a 10% sample of 50 rows.
        let est = acc.finish_estimate(50, 1.96);
        assert!(!est.exact);
        assert!((est.processed_fraction - 0.1).abs() < 1e-12);
        let aa = BinKey::d1(BinCoord::Cat(0));
        let s = &est.bins[&aa];
        assert_eq!(s.values[0], 30.0); // count 3 / 0.1
        assert_eq!(s.values[1], 10.0); // avg unscaled
        assert_eq!(s.values[2], 300.0); // sum scaled
        assert!(s.margins[0] > 0.0);
        assert!(s.margins[2] > 0.0);
        assert_eq!(s.margins[3], 0.0); // min has no CI
    }

    #[test]
    fn count_margin_formula() {
        let ds = dataset();
        let q = query();
        let acc = run_all(&ds, &q);
        let est = acc.finish_estimate(50, 2.0);
        let aa = BinKey::d1(BinCoord::Cat(0));
        // p̂ = 3/5, margin = z*(N/n)*sqrt(n p (1-p)) = 2*10*sqrt(5*0.6*0.4)
        let expect = 2.0 * 10.0 * (5.0 * 0.6 * 0.4f64).sqrt();
        assert!((est.bins[&aa].margins[0] - expect).abs() < 1e-9);
    }

    #[test]
    fn avg_margin_uses_within_bin_variance() {
        let ds = dataset();
        let q = query();
        let acc = run_all(&ds, &q);
        let est = acc.finish_estimate(50, 2.0);
        let dl = BinKey::d1(BinCoord::Cat(1));
        // DL values: 30, 50 → s² = 200, margin = 2*sqrt(200/2) = 20.
        assert!((est.bins[&dl].margins[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_single_pass() {
        let ds = dataset();
        let q = query();
        let resolved = ResolvedQuery::new(&ds, &q).unwrap();
        let mut a = GroupedAcc::for_query(&resolved, q.aggregates());
        let mut b = GroupedAcc::for_query(&resolved, q.aggregates());
        for row in 0..3 {
            a.process_row(&resolved, row);
        }
        for row in 3..5 {
            b.process_row(&resolved, row);
        }
        a.merge(&b);
        let full = run_all(&ds, &q);
        assert_eq!(a.finish_exact(), full.finish_exact());
        assert_eq!(a.rows_seen, 5);
    }

    #[test]
    fn filtered_rows_do_not_accumulate() {
        let ds = dataset();
        let spec = VizSpec::new(
            "v",
            "flights",
            vec![BinDef::Nominal {
                dimension: "carrier".into(),
            }],
            vec![AggregateSpec::count()],
        );
        let q = Query::for_viz(
            &spec,
            Some(idebench_core::FilterExpr::Pred(
                idebench_core::Predicate::Range {
                    column: "dep_delay".into(),
                    min: 25.0,
                    max: 100.0,
                },
            )),
        );
        let acc = run_all(&ds, &q);
        assert_eq!(acc.rows_matched, 2);
        let result = acc.finish_exact();
        assert_eq!(result.bins.len(), 1); // only DL bins survive
    }

    #[test]
    fn sample_variance_edges() {
        let mut m = MeasureAcc::new();
        assert_eq!(m.sample_variance(), 0.0);
        m.update(5.0);
        assert_eq!(m.sample_variance(), 0.0);
        m.update(7.0);
        assert!((m.sample_variance() - 2.0).abs() < 1e-12);
    }
}
