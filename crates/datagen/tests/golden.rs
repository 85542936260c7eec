//! Golden-content tests: the generators' output is pinned by a hash of every
//! column payload and dictionary, so a change to the per-row draw order or
//! to dictionary order fails here and not only in the wall-clock benchmark.
//!
//! The pinned hashes were computed from the original row-at-a-time
//! generators; the columnar generators must reproduce them bit for bit.

mod common;

use common::{content_hash, hex, star_hash, FLIGHTS_GOLDEN};
use idebench_datagen::{flights, normalize, normalize_flights, orders, CopulaScaler};
use idebench_storage::{Column, DimensionSpec, SelVec, Table};

#[test]
fn flights_content_is_pinned() {
    // Compare all cases at once so a failure shows every drifted hash.
    let got: Vec<_> = FLIGHTS_GOLDEN
        .iter()
        .map(|&(n, seed, _)| (n, seed, hex(content_hash(&flights::generate(n, seed)))))
        .collect();
    let want: Vec<_> = FLIGHTS_GOLDEN
        .iter()
        .map(|&(n, seed, h)| (n, seed, hex(h)))
        .collect();
    assert_eq!(got, want, "flights::generate(n, seed) content changed");
}

#[test]
fn orders_content_is_pinned() {
    let got = hex(content_hash(&orders::generate(5_000, 9)));
    assert_eq!(got, hex(0x7b46_3669_17fc_4dc3), "orders::generate(5000, 9)");
}

#[test]
fn copula_content_is_pinned() {
    let seed = flights::generate(2_000, 3);
    let got = hex(content_hash(&CopulaScaler::scale(&seed, 1_000, 5_000, 99)));
    assert_eq!(got, hex(0xb47d_2404_2803_8562), "CopulaScaler::scale");
}

#[test]
fn normalized_flights_content_is_pinned() {
    // Pinned before `normalize` shared payloads and deduplicated through
    // packed integer keys; the rewrite must reproduce it bit for bit.
    let cases = [
        (1_000, 42, 0x544e_0d39_8541_eb10_u64),
        (70_001, 3, 0xf5c5_6860_b91a_d18e),
    ];
    let got: Vec<_> = cases
        .iter()
        .map(|&(n, seed, _)| {
            let ds = normalize_flights(&flights::generate(n, seed)).unwrap();
            (n, seed, hex(star_hash(&ds)))
        })
        .collect();
    let want: Vec<_> = cases
        .iter()
        .map(|&(n, seed, h)| (n, seed, hex(h)))
        .collect();
    assert_eq!(
        got, want,
        "normalize_flights(flights::generate(n, seed)) changed"
    );
}

#[test]
fn normalize_with_nulls_and_numeric_attributes_is_pinned() {
    // Nullable nominal, int and float attributes (and a float attribute
    // holding both zeros) exercise every dedupe key kind, nulls included.
    let t = flights::generate(20_000, 5);
    let nulls_every =
        |k: usize| SelVec::from_bools(t.num_rows(), (0..t.num_rows()).map(|r| r % k != 0));
    let mut cols = t.columns().to_vec();
    for (name, k) in [("origin", 7), ("month", 5), ("dep_delay", 3)] {
        let i = t.schema().index_of(name).unwrap();
        cols[i] = cols[i].clone().with_validity(nulls_every(k));
    }
    let i = t.schema().index_of("dep_delay").unwrap();
    let signed_zeros: Vec<f64> = cols[i]
        .as_float()
        .unwrap()
        .iter()
        .enumerate()
        .map(|(r, &x)| match r % 11 {
            1 => 0.0,
            2 => -0.0,
            _ => x,
        })
        .collect();
    cols[i] = Column::float(signed_zeros).with_validity(nulls_every(3));
    let t = Table::new(t.name(), t.schema().clone(), cols).unwrap();
    let specs = [
        DimensionSpec::new(
            "routes",
            "route_key",
            vec!["origin".into(), "month".into(), "dest_state".into()],
        ),
        DimensionSpec::new("delays", "delay_key", vec!["dep_delay".into()]),
    ];
    let got = hex(star_hash(&normalize(&t, &specs).unwrap()));
    assert_eq!(
        got,
        hex(0x03be_5b78_5f4e_0811),
        "normalize over nullable attributes changed"
    );
}
