//! Helpers shared by the integration tests.

use idebench::core::AggResult;

/// A result's bins in key order, each with its values' and margins' bit
/// patterns.
pub type BinBits = Vec<(String, Vec<u64>, Vec<u64>)>;

/// `r` as bit patterns — so `-0.0` and `0.0` differ and a NaN equals
/// itself: its bins in key order, then its processed fraction's bits and
/// its exactness flag. Differential tests compare these, not the results'
/// `f64 ==`.
pub fn bits(r: &AggResult) -> (BinBits, u64, bool) {
    let mut bins: BinBits = r
        .bins
        .iter()
        .map(|(k, s)| {
            (
                format!("{k:?}"),
                s.values.iter().map(|v| v.to_bits()).collect(),
                s.margins.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect();
    bins.sort();
    (bins, r.processed_fraction.to_bits(), r.exact)
}
