//! Content hashes shared by the golden tests and the generator's in-crate
//! worker-count tests.

use idebench_storage::{DataType, Dataset, Table};

/// `(n, seed, content_hash(&flights::generate(n, seed)))`. The sizes
/// straddle the generator's 64k-row fill blocks (`3 * 65_536 + 17` ends in
/// a partial fourth block).
pub const FLIGHTS_GOLDEN: &[(usize, u64, u64)] = &[
    (0, 1, 0x6382_b4cd_d088_fe8b),
    (1, 1, 0x9990_01e1_0667_02b6),
    (1_000, 42, 0xfabc_b2d2_451d_423f),
    (65_537, 7, 0xdfbc_8015_891b_2588),
    (65_535, 7, 0xe6ed_4a67_1077_60fb),
    (65_536, 7, 0x0699_1f13_6de6_ed85),
    (3 * 65_536 + 17, 7, 0x7030_6ccf_4e43_4a2d),
];

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The table's row count, every column's logical values (floats by bit
    /// pattern, ints as `i64`, codes as `u32`; null placeholders included)
    /// and every nominal dictionary in code order. Values are decoded, so
    /// the hash does not depend on a column's physical encoding.
    fn table(&mut self, t: &Table) {
        self.eat(&(t.num_rows() as u64).to_le_bytes());
        for col in t.columns() {
            match col.dtype() {
                DataType::Float => {
                    self.eat(b"f");
                    let v = col.as_float().expect("float column");
                    v.iter().for_each(|x| self.eat(&x.to_bits().to_le_bytes()));
                }
                DataType::Int => {
                    self.eat(b"i");
                    let v = col.as_int().expect("int column");
                    v.iter().for_each(|x| self.eat(&x.to_le_bytes()));
                }
                DataType::Nominal => {
                    let (codes, dict) = col.as_nominal().expect("nominal column");
                    self.eat(b"n");
                    codes.iter().for_each(|c| self.eat(&c.to_le_bytes()));
                    self.eat(&(dict.len() as u64).to_le_bytes());
                    for v in dict.values() {
                        self.eat(v.as_bytes());
                        self.eat(&[0]);
                    }
                }
            }
        }
    }

    /// The table's name, schema (names and types, in order) and which
    /// columns carry a validity bitmap.
    fn layout(&mut self, t: &Table) {
        self.eat(t.name().as_bytes());
        self.eat(&[0]);
        for (field, col) in t.schema().fields().iter().zip(t.columns()) {
            self.eat(field.name.as_bytes());
            self.eat(&[0]);
            self.eat(field.dtype.name().as_bytes());
            self.eat(&[u8::from(col.validity().is_some())]);
        }
    }
}

/// 64-bit FNV-1a over the table's row count, every column payload (floats
/// by bit pattern) and every nominal dictionary in code order.
pub fn content_hash(t: &Table) -> u64 {
    let mut h = Fnv::new();
    h.table(t);
    h.0
}

/// 64-bit FNV-1a over a star schema: the fact table's layout and content
/// (foreign-key columns included), then each dimension's spec, layout and
/// content (dictionaries included), in dimension order.
pub fn star_hash(ds: &Dataset) -> u64 {
    let star = ds.as_star().expect("normalize returns a star schema");
    let mut h = Fnv::new();
    h.layout(star.fact());
    h.table(star.fact());
    for (spec, dim) in star.dimensions() {
        for s in [&spec.table_name, &spec.fk_name]
            .into_iter()
            .chain(&spec.attributes)
        {
            h.eat(s.as_bytes());
            h.eat(&[0]);
        }
        h.layout(dim);
        h.table(dim);
    }
    h.0
}

pub fn hex(h: u64) -> String {
    format!("{h:#018x}")
}
