//! Golden-content tests: the generators' output is pinned by a hash of every
//! column payload and dictionary, so a change to the per-row draw order or
//! to dictionary order fails here and not only in the wall-clock benchmark.
//!
//! The pinned hashes were computed from the original row-at-a-time
//! generators; the columnar generators must reproduce them bit for bit.

use idebench_datagen::{flights, orders, CopulaScaler};
use idebench_storage::{ColumnData, Table};

/// 64-bit FNV-1a over the table's row count, every column payload (floats
/// by bit pattern) and every nominal dictionary in code order.
fn content_hash(t: &Table) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(t.num_rows() as u64).to_le_bytes());
    for col in t.columns() {
        match col.data() {
            ColumnData::Float(v) => {
                eat(b"f");
                v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes()));
            }
            ColumnData::Int(v) => {
                eat(b"i");
                v.iter().for_each(|x| eat(&x.to_le_bytes()));
            }
            ColumnData::Nominal(codes, dict) => {
                eat(b"n");
                codes.iter().for_each(|c| eat(&c.to_le_bytes()));
                eat(&(dict.len() as u64).to_le_bytes());
                for v in dict.values() {
                    eat(v.as_bytes());
                    eat(&[0]);
                }
            }
        }
    }
    h
}

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

#[test]
fn flights_content_is_pinned() {
    let cases = [
        (0, 1, 0x6382_b4cd_d088_fe8b_u64),
        (1, 1, 0x9990_01e1_0667_02b6),
        (1_000, 42, 0xfabc_b2d2_451d_423f),
        (65_537, 7, 0xdfbc_8015_891b_2588),
    ];
    // Compare all cases at once so a failure shows every drifted hash.
    let got: Vec<_> = cases
        .iter()
        .map(|&(n, seed, _)| (n, seed, hex(content_hash(&flights::generate(n, seed)))))
        .collect();
    let want: Vec<_> = cases
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
