//! The department-store walkthrough dataset (paper §1, Tables 1–3).
//!
//! 6000 rows of (Store, Product, Region), with the paper's patterns
//! planted **exactly**:
//!
//! * 200 × (Target, bicycles, ?)
//! * 600 × (?, comforters, MA-3)
//! * 1000 × (Walmart, ?, ?), containing
//!   * 200 × (Walmart, cookies, ?)
//!   * 150 × (Walmart, ?, CA-1)
//!   * 130 × (Walmart, ?, WA-5)
//! * 4200 background rows drawn from disjoint value pools so no background
//!   pattern competes with the planted ones.
//!
//! Expanding the trivial rule with `k = 3` under Size weighting reproduces
//! Table 2; drilling into the Walmart rule reproduces Table 3.
//! [`retail_with_sales`] adds one Sales figure per row for the `Sum`
//! aggregate of §6.3.

use crate::zipf::Zipf;
use rand::{rngs::StdRng, Rng, SeedableRng};
use sdd_table::{Schema, Table};

/// Total number of rows (the paper's 6000-tuple answer table).
pub const N_ROWS: usize = 6000;

/// Generates the walkthrough table. Deterministic per `seed`.
pub fn retail(seed: u64) -> Table {
    retail_with_sales(seed).0
}

/// The walkthrough table of [`retail`] and each row's Sales, drawn from
/// the same RNG stream after the rows: a whole number in 40..=400, a
/// valid `Sum` weight for `TableView::all_with_weights`.
pub fn retail_with_sales(seed: u64) -> (Table, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);

    // Disjoint pools for background noise: planted values never appear here.
    let noise_stores: Vec<String> = (0..30).map(|i| format!("Store-{i:02}")).collect();
    let noise_products: Vec<String> = (0..40).map(|i| format!("Product-{i:02}")).collect();
    let noise_regions: Vec<String> = (0..25).map(|i| format!("Region-{i:02}")).collect();
    // Nearly flat noise (s = 0.2): enough variety to be realistic, flat
    // enough that no background value outranks the planted patterns (the
    // smallest planted rule scores 400 under Size weighting; the most
    // common noise value stays around half of that).
    let store_z = Zipf::new(noise_stores.len(), 0.2);
    let product_z = Zipf::new(noise_products.len(), 0.2);
    let region_z = Zipf::new(noise_regions.len(), 0.2);

    let mut rows: Vec<[String; 3]> = Vec::with_capacity(N_ROWS);
    let push = |rows: &mut Vec<[String; 3]>, s: String, p: String, r: String| {
        rows.push([s, p, r]);
    };

    // 200 × (Target, bicycles, ?): regions from the noise pool.
    for _ in 0..200 {
        let r = noise_regions[region_z.sample(&mut rng)].clone();
        push(&mut rows, "Target".into(), "bicycles".into(), r);
    }
    // 600 × (?, comforters, MA-3): stores from the noise pool.
    for _ in 0..600 {
        let s = noise_stores[store_z.sample(&mut rng)].clone();
        push(&mut rows, s, "comforters".into(), "MA-3".into());
    }
    // 1000 × (Walmart, ?, ?).
    //   200 cookies (noise regions), 150 CA-1 (noise products), 130 WA-5
    //   (noise products), 520 fully-noise products/regions.
    for _ in 0..200 {
        let r = noise_regions[region_z.sample(&mut rng)].clone();
        push(&mut rows, "Walmart".into(), "cookies".into(), r);
    }
    for _ in 0..150 {
        let p = noise_products[product_z.sample(&mut rng)].clone();
        push(&mut rows, "Walmart".into(), p, "CA-1".into());
    }
    for _ in 0..130 {
        let p = noise_products[product_z.sample(&mut rng)].clone();
        push(&mut rows, "Walmart".into(), p, "WA-5".into());
    }
    for _ in 0..520 {
        let p = noise_products[product_z.sample(&mut rng)].clone();
        let r = noise_regions[region_z.sample(&mut rng)].clone();
        push(&mut rows, "Walmart".into(), p, r);
    }
    // 4200 background rows.
    for _ in 0..(N_ROWS - rows.len()) {
        let s = noise_stores[store_z.sample(&mut rng)].clone();
        let p = noise_products[product_z.sample(&mut rng)].clone();
        let r = noise_regions[region_z.sample(&mut rng)].clone();
        push(&mut rows, s, p, r);
    }

    // Shuffle so planted blocks are not contiguous (samplers must not rely
    // on physical order).
    for i in (1..rows.len()).rev() {
        let j = rng.gen_range(0..=i);
        rows.swap(i, j);
    }

    let schema = Schema::new(["Store", "Product", "Region"]).expect("unique names");
    let mut b = Table::builder(schema);
    b.reserve(rows.len());
    let mut sales = Vec::with_capacity(rows.len());
    for row in &rows {
        b.push_row(&[row[0].as_str(), row[1].as_str(), row[2].as_str()])
            .expect("arity 3");
        sales.push(rng.gen_range(40.0f64..400.0).round());
    }
    (b.build(), sales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::{rule_count, Rule};
    use sdd_table::csv::write_csv;

    #[test]
    fn planted_counts_match_the_paper_exactly() {
        let t = retail(42);
        assert_eq!(t.n_rows(), N_ROWS);
        let view = t.view();
        let count =
            |pairs: &[(&str, &str)]| rule_count(&view, &Rule::from_pairs(&t, pairs).unwrap());
        assert_eq!(
            count(&[("Store", "Target"), ("Product", "bicycles")]),
            200.0
        );
        assert_eq!(
            count(&[("Product", "comforters"), ("Region", "MA-3")]),
            600.0
        );
        assert_eq!(count(&[("Store", "Walmart")]), 1000.0);
        assert_eq!(
            count(&[("Store", "Walmart"), ("Product", "cookies")]),
            200.0
        );
        assert_eq!(count(&[("Store", "Walmart"), ("Region", "CA-1")]), 150.0);
        assert_eq!(count(&[("Store", "Walmart"), ("Region", "WA-5")]), 130.0);
    }

    #[test]
    fn planted_values_do_not_leak_into_noise() {
        let t = retail(42);
        let view = t.view();
        // Target only ever sells bicycles; comforters only in MA-3.
        let target = rule_count(
            &view,
            &Rule::from_pairs(&t, &[("Store", "Target")]).unwrap(),
        );
        assert_eq!(target, 200.0);
        let comf = rule_count(
            &view,
            &Rule::from_pairs(&t, &[("Product", "comforters")]).unwrap(),
        );
        assert_eq!(comf, 600.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = retail(7);
        let b = retail(7);
        assert_eq!(a.n_rows(), b.n_rows());
        for row in 0..50 {
            for col in 0..3 {
                assert_eq!(a.value(row, col), b.value(row, col));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = retail(1);
        let b = retail(2);
        let same = (0..100).all(|r| (0..3).all(|c| a.value(r, c) == b.value(r, c)));
        assert!(!same);
    }

    #[test]
    fn has_sales_measure() {
        let (t, sales) = retail_with_sales(42);
        assert_eq!(write_csv(&t), write_csv(&retail(42)));
        assert_eq!(sales.len(), N_ROWS);
        assert!(sales.iter().all(|&s| (40.0..=400.0).contains(&s)));
    }
}
