//! Statistical utilities: normal CDF, Zipf sampling, empirical quantiles.

/// Standard normal CDF Φ(x), via Abramowitz–Stegun 7.1.26 on erf.
///
/// Absolute error < 1.5e-7 — ample for copula uniformization.
pub fn normal_cdf(x: f64) -> f64 {
    // erf via A&S 7.1.26.
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * z.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-z * z).exp();
    let signed = if z < 0.0 { -erf } else { erf };
    0.5 * (1.0 + signed)
}

/// Standard normal quantile Φ⁻¹(p). Re-exported from the benchmark core so
/// the whole workspace shares one implementation.
pub use idebench_core::metrics::normal_quantile;

/// Cumulative weights for a Zipf(s) distribution over `n` ranks.
///
/// Returns a vector `c` with `c[n-1] == 1.0`; sample it with a uniform
/// draw through a [`Cumulative`]. Used for skewed airport/carrier
/// popularity.
pub fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf needs at least one rank");
    let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cum = 0.0;
    for w in &mut weights {
        cum += *w / total;
        *w = cum;
    }
    // Guard against floating-point shortfall at the end.
    if let Some(last) = weights.last_mut() {
        *last = 1.0;
    }
    weights
}

/// Samples a rank from cumulative weights with a uniform draw in [0,1):
/// the first rank whose cumulative weight exceeds `u`, capped at the last
/// rank. A binary search; [`Cumulative`] gives the same rank faster and is
/// what the generators draw with.
pub fn sample_cumulative(cum: &[f64], u: f64) -> usize {
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// Guide buckets per rank of a [`Cumulative`].
const GUIDE_PER_RANK: usize = 4;

/// Cumulative weights with a guide table (Chen and Asau, 1974) for
/// constant expected-time categorical draws.
///
/// The unit interval is cut into [`GUIDE_PER_RANK`] buckets per rank, and
/// each bucket stores [`sample_cumulative`] at its smallest `u`. Because
/// the rank is monotone in `u`, that is at or below the rank of every `u`
/// in the bucket, so [`Cumulative::sample`] starts there and steps forward
/// past every weight `<= u`: it returns `sample_cumulative(cum, u)` for
/// every `u` in `[0, 1)`, usually after one or two comparisons.
#[derive(Debug, Clone)]
pub struct Cumulative {
    cum: Vec<f64>,
    guide: Vec<u32>,
}

impl Cumulative {
    /// The guide table over `cum` (non-decreasing, as [`zipf_cumulative`]
    /// returns it).
    pub fn new(cum: Vec<f64>) -> Self {
        assert!(
            !cum.is_empty(),
            "a categorical draw needs at least one rank"
        );
        let buckets = cum.len() * GUIDE_PER_RANK;
        let guide = (0..buckets)
            .map(|b| {
                let rank = sample_cumulative(&cum, bucket_floor(b, buckets));
                u32::try_from(rank).expect("ranks fit u32")
            })
            .collect();
        Cumulative { cum, guide }
    }

    /// The rank of a uniform draw `u` in `[0, 1)`; equal to
    /// `sample_cumulative(&cum, u)`.
    #[inline]
    pub fn sample(&self, u: f64) -> usize {
        let last = self.cum.len() - 1;
        let mut rank = self.guide[bucket(u, self.guide.len())] as usize;
        while rank < last && self.cum[rank] <= u {
            rank += 1;
        }
        rank
    }
}

/// The guide bucket of `u` among `buckets`. Monotone in `u`.
#[inline]
fn bucket(u: f64, buckets: usize) -> usize {
    ((u * buckets as f64) as usize).min(buckets - 1)
}

/// The smallest non-negative `u` that [`bucket`] puts in bucket `b`:
/// `b / buckets`, moved by single ulps until it is exact under `bucket`'s
/// rounding.
fn bucket_floor(b: usize, buckets: usize) -> f64 {
    let down = |u: f64| f64::from_bits(u.to_bits() - 1);
    let up = |u: f64| f64::from_bits(u.to_bits() + 1);
    let mut u = b as f64 / buckets as f64;
    while u > 0.0 && bucket(down(u), buckets) >= b {
        u = down(u);
    }
    while bucket(u, buckets) < b {
        u = up(u);
    }
    u
}

/// An empirical distribution supporting quantile (inverse-CDF) lookups.
///
/// Built from a sample; `quantile(u)` returns the value at rank `u·(n-1)`
/// with linear interpolation, so generated data interpolates between
/// observed sample values (the paper's "use the CDF from our sample to
/// transform the uniform variables").
#[derive(Debug, Clone)]
pub struct EmpiricalDist {
    sorted: Vec<f64>,
}

impl EmpiricalDist {
    /// Builds the distribution from (unsorted) sample values.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical distribution needs data");
        values.sort_by(|a, b| a.partial_cmp(b).expect("sample values are not NaN"));
        EmpiricalDist { sorted: values }
    }

    /// The u-quantile, u ∈ [0, 1], with linear interpolation.
    pub fn quantile(&self, u: f64) -> f64 {
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = u.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Empirical CDF of a value (fraction of sample ≤ v).
    pub fn cdf(&self, v: f64) -> f64 {
        let n = self.sorted.len();
        let idx = self.sorted.partition_point(|&x| x <= v);
        idx as f64 / n as f64
    }

    /// Smallest and largest observed value.
    pub fn range(&self) -> (f64, f64) {
        (self.sorted[0], self.sorted[self.sorted.len() - 1])
    }
}

/// Normal scores of a data vector: rank-transform to uniforms then Φ⁻¹.
///
/// Ties get their index order (stable); this is the standard Gaussian-copula
/// fitting transform.
pub fn normal_scores(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaNs"));
    let mut scores = vec![0.0; n];
    for (rank, &i) in idx.iter().enumerate() {
        let u = (rank as f64 + 0.5) / n as f64;
        scores[i] = normal_quantile(u);
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.959964) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-1.959964) - 0.025).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999999);
    }

    #[test]
    fn cdf_and_quantile_are_inverse() {
        for p in [0.1, 0.25, 0.5, 0.9, 0.99] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn zipf_is_decreasing_and_normalized() {
        let cum = zipf_cumulative(10, 1.1);
        assert_eq!(cum.len(), 10);
        assert_eq!(*cum.last().unwrap(), 1.0);
        // First rank carries the largest probability mass.
        let p0 = cum[0];
        let p1 = cum[1] - cum[0];
        assert!(p0 > p1);
        assert!(p0 > 0.2);
    }

    #[test]
    fn sample_cumulative_hits_all_ranks() {
        let cum = zipf_cumulative(3, 1.0);
        assert_eq!(sample_cumulative(&cum, 0.0), 0);
        assert_eq!(sample_cumulative(&cum, 0.999999), 2);
        // Monotone in u.
        let mut last = 0;
        for i in 0..100 {
            let r = sample_cumulative(&cum, i as f64 / 100.0);
            assert!(r >= last);
            last = r;
        }
    }

    /// Draws at which a guide table could disagree with the binary
    /// search: zero, every weight and the floats on either side of it,
    /// every guide-bucket edge and its neighbours, and the largest draw
    /// below 1.
    fn edge_draws(cum: &[f64]) -> Vec<f64> {
        let buckets = cum.len() * GUIDE_PER_RANK;
        let edges = (0..buckets).map(|b| b as f64 / buckets as f64);
        let mut draws = vec![0.0, f64::from_bits(1f64.to_bits() - 1)];
        for u in cum.iter().copied().chain(edges) {
            if u > 0.0 {
                draws.push(f64::from_bits(u.to_bits() - 1));
            }
            draws.extend([u, f64::from_bits(u.to_bits() + 1)]);
        }
        draws.retain(|u| (0.0..1.0).contains(u));
        draws
    }

    /// Checks `Cumulative::sample` against `sample_cumulative` at every
    /// edge draw and at `random` draws.
    fn guide_matches_binary_search(cum: Vec<f64>, random: &[f64]) -> Result<(), TestCaseError> {
        let guided = Cumulative::new(cum.clone());
        for u in edge_draws(&cum).into_iter().chain(random.iter().copied()) {
            prop_assert_eq!(
                guided.sample(u),
                sample_cumulative(&cum, u),
                "u = {:e} over {} ranks",
                u,
                cum.len()
            );
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn guide_table_matches_binary_search_on_zipf_tables(
            ranks in 1usize..=300,
            s in 0.0f64..3.0,
            random in prop::collection::vec(0.0f64..1.0, 256),
        ) {
            guide_matches_binary_search(zipf_cumulative(ranks, s), &random)?;
        }

        #[test]
        fn guide_table_matches_binary_search_on_random_weights(
            weights in prop::collection::vec((0.0f64..1.0, 0usize..5), 1..=300),
            random in prop::collection::vec(0.0f64..1.0, 256),
        ) {
            // Weights spread over 40 decades, some zero, so that
            // neighbouring cumulative weights can be equal or one ulp apart.
            let weights: Vec<f64> = weights
                .iter()
                .map(|&(w, decade)| match decade {
                    0 => 0.0,
                    d => w * 10f64.powi(-10 * (d as i32 - 1)),
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let mut run = 0.0;
            let mut cum: Vec<f64> = weights
                .iter()
                .map(|&w| {
                    run += if total > 0.0 { w / total } else { 1.0 };
                    run.min(1.0)
                })
                .collect();
            *cum.last_mut().unwrap() = 1.0;
            guide_matches_binary_search(cum, &random)?;
        }
    }

    #[test]
    fn empirical_quantile_interpolates() {
        let d = EmpiricalDist::new(vec![10.0, 0.0, 20.0]);
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(1.0), 20.0);
        assert_eq!(d.quantile(0.5), 10.0);
        assert_eq!(d.quantile(0.25), 5.0);
        assert_eq!(d.range(), (0.0, 20.0));
    }

    #[test]
    fn empirical_cdf_counts_fraction() {
        let d = EmpiricalDist::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(2.0), 0.5);
        assert_eq!(d.cdf(9.0), 1.0);
    }

    #[test]
    fn normal_scores_are_rank_monotone() {
        let v = vec![5.0, -1.0, 3.0];
        let s = normal_scores(&v);
        assert!(s[1] < s[2] && s[2] < s[0]);
        // Median rank is near zero.
        assert!(s[2].abs() < 0.5);
    }
}
