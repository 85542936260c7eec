//! A second synthetic seed dataset: e-commerce orders.
//!
//! The paper requires that "users can use any other dataset to customize
//! the benchmark" (§4.2). This module provides a ready-made alternative to
//! the flights data with a different distribution mix — long-tailed product
//! popularity, log-normal prices, diurnal order times, and region-dependent
//! shipping — used by the customizability example and tests.

use crate::encode::first_seen_column;
use crate::stats::{zipf_cumulative, Cumulative};
use idebench_storage::{Column, DataType, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Name of the generated table.
pub const ORDERS_TABLE: &str = "orders";

/// Number of distinct sales regions.
pub const NUM_REGIONS: usize = 10;
/// Number of distinct product categories.
pub const NUM_CATEGORIES: usize = 24;
/// Number of distinct products.
pub const NUM_PRODUCTS: usize = 400;

/// The orders schema: `(name, type)` pairs.
pub const SCHEMA: &[(&str, DataType)] = &[
    ("region", DataType::Nominal),
    ("category", DataType::Nominal),
    ("product", DataType::Nominal),
    ("order_hour", DataType::Float),
    ("quantity", DataType::Int),
    ("unit_price", DataType::Float),
    ("discount", DataType::Float),
    ("revenue", DataType::Float),
    ("ship_days", DataType::Float),
];

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generates `n` synthetic orders with the given RNG seed. Deterministic.
///
/// After the per-product base prices, each row draws, in order: product,
/// region, order hour, quantity, unit price, discount, shipping jitter.
pub fn generate(n: usize, seed: u64) -> Table {
    // Salt keeps orders streams independent from equal-seed flights data.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x04de_15a1);
    let product_cum = Cumulative::new(zipf_cumulative(NUM_PRODUCTS, 1.1));
    let region_cum = Cumulative::new(zipf_cumulative(NUM_REGIONS, 0.6));
    // Product base prices: log-normal, fixed per product.
    let base_price: Vec<f64> = (0..NUM_PRODUCTS)
        .map(|_| (2.5 + normal(&mut rng) * 0.9).exp())
        .collect();
    // Region shipping base: farther regions ship slower.
    let ship_base: Vec<f64> = (0..NUM_REGIONS).map(|r| 1.5 + r as f64 * 0.7).collect();

    let mut region_col = Vec::with_capacity(n);
    let mut category_col = Vec::with_capacity(n);
    let mut product_col = Vec::with_capacity(n);
    let mut order_hour_col = Vec::with_capacity(n);
    let mut quantity_col = Vec::with_capacity(n);
    let mut unit_price_col = Vec::with_capacity(n);
    let mut discount_col = Vec::with_capacity(n);
    let mut revenue_col = Vec::with_capacity(n);
    let mut ship_days_col = Vec::with_capacity(n);
    for _ in 0..n {
        let product = product_cum.sample(rng.random());
        let category = product % NUM_CATEGORIES;
        let region = region_cum.sample(rng.random());

        // Diurnal ordering with an evening peak.
        let order_hour = if rng.random::<f64>() < 0.35 {
            (20.0 + normal(&mut rng) * 2.0).rem_euclid(24.0)
        } else {
            (13.0 + normal(&mut rng) * 4.5).rem_euclid(24.0)
        };

        let quantity = 1 + (rng.random::<f64>().powi(3) * 9.0) as i64;
        let unit_price = (base_price[product] * (1.0 + normal(&mut rng) * 0.05)).max(0.5);
        // Bulk orders get discounted more often.
        let discount = if quantity >= 5 && rng.random::<f64>() < 0.6 {
            0.05 + rng.random::<f64>() * 0.25
        } else if rng.random::<f64>() < 0.15 {
            rng.random::<f64>() * 0.15
        } else {
            0.0
        };
        let revenue = unit_price * quantity as f64 * (1.0 - discount);
        let ship_days = (ship_base[region]
            + rng.random::<f64>().powi(2) * 6.0
            + if quantity > 6 { 1.0 } else { 0.0 })
        .max(0.5);

        region_col.push(region as u32);
        category_col.push(category as u32);
        product_col.push(product as u32);
        order_hour_col.push((order_hour * 100.0).round() / 100.0);
        quantity_col.push(quantity);
        unit_price_col.push((unit_price * 100.0).round() / 100.0);
        discount_col.push((discount * 100.0).round() / 100.0);
        revenue_col.push((revenue * 100.0).round() / 100.0);
        ship_days_col.push((ship_days * 10.0).round() / 10.0);
    }

    let columns = vec![
        first_seen_column(region_col, NUM_REGIONS, |r| format!("R{r:02}")),
        first_seen_column(category_col, NUM_CATEGORIES, |c| format!("CAT{c:02}")),
        first_seen_column(product_col, NUM_PRODUCTS, |p| format!("P{p:04}")),
        Column::float(order_hour_col),
        Column::int(quantity_col),
        Column::float(unit_price_col),
        Column::float(discount_col),
        Column::float(revenue_col),
        Column::float(ship_days_col),
    ];
    Table::new(ORDERS_TABLE, Schema::from_pairs(SCHEMA), columns)
        .expect("orders columns have equal lengths")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_determinism() {
        let a = generate(500, 9);
        let b = generate(500, 9);
        assert_eq!(a, b);
        assert_eq!(a.num_columns(), SCHEMA.len());
        assert_eq!(a.name(), ORDERS_TABLE);
    }

    #[test]
    fn product_popularity_is_long_tailed() {
        let t = generate(20_000, 9);
        let (codes, dict) = t.column("product").unwrap().as_nominal().unwrap();
        let mut counts = vec![0usize; dict.len()];
        for &c in codes.iter() {
            counts[c as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.15 * codes.len() as f64,
            "top-10 products should dominate: {top10}"
        );
    }

    #[test]
    fn revenue_is_consistent() {
        let t = generate(2_000, 9);
        let price = t.column("unit_price").unwrap().as_float().unwrap();
        let qty = t.column("quantity").unwrap().as_int().unwrap();
        let disc = t.column("discount").unwrap().as_float().unwrap();
        let rev = t.column("revenue").unwrap().as_float().unwrap();
        for i in 0..t.num_rows() {
            // Columns are rounded independently, so allow rounding slack.
            let expect = price[i] * qty[i] as f64 * (1.0 - disc[i]);
            assert!(
                (rev[i] - expect).abs() <= 0.5 + expect.abs() * 0.02,
                "row {i}: revenue {} vs {expect}",
                rev[i]
            );
        }
    }

    #[test]
    fn shipping_tracks_region() {
        let t = generate(20_000, 9);
        let (regions, dict) = t.column("region").unwrap().as_nominal().unwrap();
        let ship = t.column("ship_days").unwrap().as_float().unwrap();
        let r0 = dict.code("R00").unwrap();
        let r9 = dict.code("R09");
        let mean_for = |code: u32| {
            let vals: Vec<f64> = regions
                .iter()
                .zip(ship.iter())
                .filter(|(&r, _)| r == code)
                .map(|(_, &s)| s)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        if let Some(r9) = r9 {
            assert!(
                mean_for(r9) > mean_for(r0) + 2.0,
                "far regions must ship slower"
            );
        }
    }
}
