//! The data-scaling procedure of paper §4.2, implemented verbatim:
//!
//! > "From the seed dataset we first create a random sample. We then compute
//! > the covariance matrix Σ and perform the Cholesky decomposition on
//! > Σ = AᵀA. To create a new tuple, we first generate a vector X ~ N(0,1)
//! > of random normal variables and induce correlation by computing X̃ = AX.
//! > We then transform X̃ to uniform distribution and finally use the CDF
//! > from our sample to transform the uniform variables to a correlated
//! > tuple."
//!
//! This is a Gaussian copula: marginals come from each attribute's empirical
//! sample CDF, the dependence structure from the covariance of the sample's
//! normal scores. Nominal attributes participate through their dictionary
//! codes (frequency-preserving); generated codes map back to categories.

use crate::encode::FirstSeen;
use crate::matrix::{covariance_matrix, SquareMatrix};
use crate::stats::{normal_cdf, EmpiricalDist};
use idebench_storage::{Column, ColumnData, DataType, Dictionary, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A fitted scaler that can generate arbitrarily many rows distributed like
/// (a sample of) its seed table.
pub struct CopulaScaler {
    table_name: String,
    schema: Schema,
    marginals: Vec<EmpiricalDist>,
    /// Dictionaries of nominal columns, indexed like the schema's fields.
    dicts: Vec<Option<Arc<Dictionary>>>,
    chol: SquareMatrix,
}

impl CopulaScaler {
    /// Fits the scaler on a random sample of `sample_size` rows of `seed`
    /// (capped at the seed size).
    pub fn fit(seed: &Table, sample_size: usize, rng_seed: u64) -> Self {
        assert!(seed.num_rows() >= 2, "seed needs at least 2 rows");
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let n = seed.num_rows();
        let k = sample_size.clamp(2, n);

        // Uniform sample of row indexes without replacement (partial
        // Fisher–Yates over an index vector).
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + (rng.random::<f64>() * (n - i) as f64) as usize;
            idx.swap(i, j.min(n - 1));
        }
        let sample = &idx[..k];

        let mut marginals = Vec::new();
        let mut dicts = Vec::new();
        let mut std_columns: Vec<Vec<f64>> = Vec::new();

        for col in seed.columns() {
            let raw: Vec<f64> = sample
                .iter()
                .map(|&r| col.numeric_at(r).unwrap_or(0.0))
                .collect();
            marginals.push(EmpiricalDist::new(raw.clone()));
            dicts.push(match col.data() {
                ColumnData::Nominal(_, d) => Some(Arc::clone(d)),
                _ => None,
            });
            std_columns.push(standardize(&raw));
        }

        // The paper computes Σ on the raw sample; standardizing first turns
        // it into the correlation matrix (unit diagonal), which keeps the
        // Φ-uniformization below well-scaled without changing the induced
        // dependence structure.
        let sigma = covariance_matrix(&std_columns);
        CopulaScaler {
            table_name: seed.name().to_string(),
            schema: seed.schema().clone(),
            marginals,
            dicts,
            chol: sigma.cholesky(),
        }
    }

    /// Generates `n` correlated rows.
    ///
    /// Each row draws one standard normal (two uniforms, Box–Muller) per
    /// column, in schema order, and maps it through the copula. Generated
    /// nominal codes index the seed's dictionary; the output dictionary
    /// holds those values in first-seen order.
    pub fn generate(&self, n: usize, rng_seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let k = self.schema.len();
        let mut sinks: Vec<Sink> = self
            .schema
            .fields()
            .iter()
            .zip(&self.dicts)
            .map(|(field, dict)| match field.dtype {
                DataType::Float => Sink::Float(Vec::with_capacity(n)),
                DataType::Int => Sink::Int(Vec::with_capacity(n)),
                DataType::Nominal => {
                    let dict = dict.as_deref().expect("nominal has dictionary");
                    Sink::Nominal(FirstSeen::new(dict.len(), n), dict)
                }
            })
            .collect();
        let mut x = vec![0.0f64; k];
        let mut xt = vec![0.0f64; k];

        for _ in 0..n {
            // X ~ N(0, I)
            for xi in &mut x {
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                *xi = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
            // X̃ = A·X
            self.chol.mul_vec(&x, &mut xt);
            for (ci, (&xv, sink)) in xt.iter().zip(&mut sinks).enumerate() {
                // Normal scores have the variance of a standard normal, so
                // dividing by the factored scale keeps u well-spread even if
                // Σ's diagonal is not exactly 1.
                let scale = self.chol[(ci, ci)].max(1e-9);
                let u = normal_cdf(xv / norm_row(&self.chol, ci, scale));
                let v = self.marginals[ci].quantile(u);
                match sink {
                    Sink::Float(col) => col.push(v),
                    Sink::Int(col) => col.push(v.round() as i64),
                    Sink::Nominal(col, dict) => {
                        let code = (v.round() as i64).clamp(0, dict.len() as i64 - 1) as u32;
                        col.push(code as usize, || {
                            dict.value(code).expect("code in range").to_string()
                        });
                    }
                }
            }
        }
        let columns = sinks
            .into_iter()
            .map(|sink| match sink {
                Sink::Float(col) => Column::float(col),
                Sink::Int(col) => Column::int(col),
                Sink::Nominal(col, _) => col.finish(),
            })
            .collect();
        Table::new(&self.table_name, self.schema.clone(), columns)
            .expect("generated columns have equal lengths")
    }

    /// Convenience: fit on `seed` and generate `n` rows in one call,
    /// sampling `sample_size` seed rows for the fit.
    pub fn scale(seed: &Table, sample_size: usize, n: usize, rng_seed: u64) -> Table {
        Self::fit(seed, sample_size, rng_seed).generate(n, rng_seed.wrapping_add(1))
    }
}

/// The output buffer of one generated column.
enum Sink<'a> {
    Float(Vec<f64>),
    Int(Vec<i64>),
    /// Codes into the seed's dictionary, re-encoded in first-seen order.
    Nominal(FirstSeen, &'a Dictionary),
}

/// Centers and scales values to zero mean / unit variance.
fn standardize(values: &[f64]) -> Vec<f64> {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0).max(1.0);
    let sd = var.sqrt().max(1e-12);
    values.iter().map(|v| (v - mean) / sd).collect()
}

/// L2 norm of row `ci` of the Cholesky factor — the standard deviation of
/// X̃[ci], used to standardize before the Φ transform.
fn norm_row(l: &SquareMatrix, ci: usize, fallback: f64) -> f64 {
    let mut s = 0.0;
    for j in 0..=ci {
        s += l[(ci, j)] * l[(ci, j)];
    }
    let norm = s.sqrt();
    if norm > 1e-9 {
        norm
    } else {
        fallback
    }
}

/// Scales a column to `f64` for validation helpers.
fn numeric_column(col: &Column) -> Vec<f64> {
    (0..col.len())
        .map(|i| col.numeric_at(i).unwrap_or(0.0))
        .collect()
}

/// Pearson correlation of two columns of a table (validation helper used by
/// tests and the datagen example).
pub fn table_correlation(t: &Table, a: &str, b: &str) -> f64 {
    let ca = numeric_column(t.column(a).expect("column exists"));
    let cb = numeric_column(t.column(b).expect("column exists"));
    let n = ca.len() as f64;
    let ma = ca.iter().sum::<f64>() / n;
    let mb = cb.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..ca.len() {
        cov += (ca[i] - ma) * (cb[i] - mb);
        va += (ca[i] - ma) * (ca[i] - ma);
        vb += (cb[i] - mb) * (cb[i] - mb);
    }
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flights;

    #[test]
    fn scaled_table_has_seed_schema() {
        let seed = flights::generate(2_000, 3);
        let big = CopulaScaler::scale(&seed, 1_000, 5_000, 99);
        assert_eq!(big.schema(), seed.schema());
        assert_eq!(big.num_rows(), 5_000);
        assert_eq!(big.name(), seed.name());
    }

    #[test]
    fn marginal_ranges_preserved() {
        let seed = flights::generate(2_000, 3);
        let big = CopulaScaler::scale(&seed, 2_000, 4_000, 7);
        for col in ["dep_delay", "distance", "dep_time"] {
            let s = numeric_column(seed.column(col).unwrap());
            let g = numeric_column(big.column(col).unwrap());
            let (smin, smax) = s
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let (gmin, gmax) = g
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            // Interpolated empirical quantiles never extrapolate.
            assert!(gmin >= smin - 1e-9, "{col}: {gmin} < {smin}");
            assert!(gmax <= smax + 1e-9, "{col}: {gmax} > {smax}");
        }
    }

    #[test]
    fn correlations_preserved_when_scaling() {
        let seed = flights::generate(4_000, 3);
        let big = CopulaScaler::scale(&seed, 4_000, 8_000, 11);
        for (a, b) in [("dep_delay", "arr_delay"), ("distance", "air_time")] {
            let rs = table_correlation(&seed, a, b);
            let rg = table_correlation(&big, a, b);
            // The Gaussian copula attenuates Pearson correlation of
            // heavy-tailed marginals somewhat; the paper's procedure accepts
            // this ("tries to maintain distributions … and relationships").
            assert!(
                (rs - rg).abs() < 0.2 && rg > 0.5,
                "{a}/{b}: seed r={rs:.3}, scaled r={rg:.3}"
            );
        }
    }

    #[test]
    fn quantitative_means_roughly_preserved() {
        let seed = flights::generate(3_000, 5);
        let big = CopulaScaler::scale(&seed, 3_000, 6_000, 13);
        for col in ["dep_delay", "distance"] {
            let s = numeric_column(seed.column(col).unwrap());
            let g = numeric_column(big.column(col).unwrap());
            let ms = s.iter().sum::<f64>() / s.len() as f64;
            let mg = g.iter().sum::<f64>() / g.len() as f64;
            let spread = s.iter().map(|v| (v - ms).abs()).sum::<f64>() / s.len() as f64;
            assert!(
                (ms - mg).abs() < spread * 0.25,
                "{col}: mean drifted {ms:.2} → {mg:.2}"
            );
        }
    }

    #[test]
    fn nominal_frequencies_roughly_preserved() {
        let seed = flights::generate(3_000, 5);
        let big = CopulaScaler::scale(&seed, 3_000, 6_000, 13);
        let (scodes, sdict) = seed.column("carrier").unwrap().as_nominal().unwrap();
        let (gcodes, gdict) = big.column("carrier").unwrap().as_nominal().unwrap();
        // Top carrier in the seed should stay the top carrier when scaled.
        let top = |codes: &[u32], len: usize| -> u32 {
            let mut c = vec![0usize; len];
            for &x in codes {
                c[x as usize] += 1;
            }
            c.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0 as u32
        };
        let stop = sdict.value(top(scodes, sdict.len())).unwrap();
        let gtop = gdict.value(top(gcodes, gdict.len())).unwrap();
        assert_eq!(stop, gtop);
    }

    #[test]
    fn generation_is_deterministic() {
        let seed = flights::generate(1_000, 3);
        let scaler = CopulaScaler::fit(&seed, 500, 42);
        let a = scaler.generate(200, 9);
        let b = scaler.generate(200, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn downsampling_works_too() {
        // The paper scales "to an arbitrary size", including down.
        let seed = flights::generate(2_000, 3);
        let small = CopulaScaler::scale(&seed, 1_000, 50, 17);
        assert_eq!(small.num_rows(), 50);
    }
}
