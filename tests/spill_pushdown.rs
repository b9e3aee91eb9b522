//! Property-based tests of the spill-tier fast path: local-code predicate
//! pushdown at the packed-width boundaries, and SIMD/scalar bit-parity on
//! every tail length the vector kernels can see.
//!
//! The spill coding packs each column's shard-local codes at 1, 2, or
//! 4 bytes depending on the shard-local cardinality — so cardinalities
//! 255/256/257 and 65535/65536/65537 are the exact seams where a column
//! flips from one width to the next. The coverage and count scans read
//! those packed codes directly, and a search over the store's rows goes
//! through the gather's local→global decode; these tests pin that every
//! width (and both sides of every seam) produces byte-identical results to
//! the monolithic global-code scan and search.

use proptest::prelude::*;
use smart_drilldown::core::{
    accel, covered_rows, find_best_marginal_rule, rule_count, try_count_rules_sharded,
    try_covered_rows_sharded, try_find_best_marginal_rule_sharded, Rule, SearchOptions,
    SearchScratch, SizeWeight,
};
use smart_drilldown::table::{Schema, ShardConfig, ShardedTable, ShardedView, Table};
use std::sync::Arc;

/// A two-column table whose first column runs through `card` distinct
/// values (hitting every code 0..card) and whose second column is a small
/// grouping key. Row order interleaves so every shard sees a dense prefix
/// of the value space — shard-local cardinality equals the global one in
/// the first shard and crosses the width seam exactly when `card` does.
fn wide_table(card: usize, rows: usize) -> Table {
    let data: Vec<[String; 2]> = (0..rows)
        .map(|i| [format!("v{}", i % card), format!("g{}", i % 7)])
        .collect();
    Table::from_rows(Schema::new(["V", "G"]).unwrap(), &data).unwrap()
}

fn spilled(table: &Table, shards: usize) -> Arc<ShardedTable> {
    Arc::new(
        ShardedTable::from_table(
            table,
            &ShardConfig::spilling(shards, 1, std::env::temp_dir()),
        )
        .unwrap(),
    )
}

/// Pushdown parity at one local-width boundary cardinality: coverage scans
/// and counts over the packed form must match the monolithic scan exactly.
fn assert_width_boundary_parity(card: usize) {
    // Enough rows that every value appears a few times; 2 shards keep the
    // runtime sane at the 65k seams.
    let rows = card * 3 + 17;
    let table = wide_table(card, rows);
    let st = spilled(&table, 2);

    // Probe codes on both sides of the seam plus a joint-column rule.
    let probes = [0usize, 1, card / 2, card - 2, card - 1];
    for &p in &probes {
        let rule = Rule::from_pairs(&table, &[("V", format!("v{p}").as_str())]).unwrap();
        assert_eq!(
            try_covered_rows_sharded(&st, &rule).unwrap(),
            covered_rows(&table, &rule),
            "card {card}, probe {p}"
        );
    }
    let joint = Rule::from_pairs(&table, &[("V", "v1"), ("G", "g1")]).unwrap();
    assert_eq!(
        try_covered_rows_sharded(&st, &joint).unwrap(),
        covered_rows(&table, &joint),
        "card {card}, joint rule"
    );

    // A full search crosses the seam in the gather's decode of every width.
    let view = table.view();
    let cov = vec![0.0f64; view.len()];
    let opts = SearchOptions::new(3.0);
    let mono = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts).unwrap();
    let sview = ShardedView::all(st);
    let mut scratch = SearchScratch::new();
    let got = try_find_best_marginal_rule_sharded(&sview, &SizeWeight, &cov, &opts, &mut scratch)
        .unwrap()
        .unwrap();
    assert_eq!(got.rule, mono.rule, "card {card}");
    assert_eq!(
        got.marginal_value.to_bits(),
        mono.marginal_value.to_bits(),
        "card {card}"
    );
    assert_eq!(got.count.to_bits(), mono.count.to_bits(), "card {card}");
}

#[test]
fn pushdown_parity_at_1_to_2_byte_seam() {
    for card in [255usize, 256, 257] {
        assert_width_boundary_parity(card);
    }
}

#[test]
fn pushdown_parity_at_2_to_4_byte_seam() {
    for card in [65_535usize, 65_536, 65_537] {
        assert_width_boundary_parity(card);
    }
}

/// The SIMD kernels' position/count output must equal the scalar
/// reference on EVERY tail length 0..64 — covering all remainder paths of
/// the 32/16/8-lane loops — for all three widths. The reference is
/// computed inline so the assertion is independent of the dispatch state.
#[test]
fn simd_tail_parity_on_all_lengths() {
    let mut x = 0x2545F491_4F6CDD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for n in 0..64usize {
        let v8: Vec<u8> = (0..n).map(|_| (next() % 5) as u8).collect();
        let v16: Vec<u16> = (0..n).map(|_| (next() % 5) as u16).collect();
        let v32: Vec<u32> = (0..n).map(|_| (next() % 5) as u32).collect();
        for want in 0..5u32 {
            let base = 1000;
            let mut out = Vec::new();
            accel::positions_eq_u8(&v8, want as u8, base, &mut out);
            let expect: Vec<u32> = v8
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c as u32 == want)
                .map(|(i, _)| base + i as u32)
                .collect();
            assert_eq!(out, expect, "u8 n={n} want={want}");
            assert_eq!(accel::count_eq_u8(&v8, want as u8), expect.len());

            let mut out = Vec::new();
            accel::positions_eq_u16(&v16, want as u16, base, &mut out);
            let expect: Vec<u32> = v16
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c as u32 == want)
                .map(|(i, _)| base + i as u32)
                .collect();
            assert_eq!(out, expect, "u16 n={n} want={want}");
            assert_eq!(accel::count_eq_u16(&v16, want as u16), expect.len());

            let mut out = Vec::new();
            accel::positions_eq_u32(&v32, want, base, &mut out);
            let expect: Vec<u32> = v32
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == want)
                .map(|(i, _)| base + i as u32)
                .collect();
            assert_eq!(out, expect, "u32 n={n} want={want}");
            assert_eq!(accel::count_eq_u32(&v32, want), expect.len());
        }
    }
}

/// Truncating a spill file mid-blob must yield `Corrupt`, not a panic or a
/// wrong answer — the regression for the historical `.expect` crash.
#[test]
fn truncated_spill_file_is_an_error_not_a_panic() {
    let table = wide_table(300, 1000);
    let st = spilled(&table, 3);
    let rule = Rule::from_pairs(&table, &[("V", "v7")]).unwrap();
    let expect = covered_rows(&table, &rule);
    assert_eq!(try_covered_rows_sharded(&st, &rule).unwrap(), expect);

    let path = st.spill_path(1).unwrap().to_path_buf();
    let bytes = std::fs::read(&path).unwrap();
    // A cut inside the header (or the scanned column's blob) must error; a
    // cut past everything the scan range-reads may legitimately succeed —
    // but then the answer must still be exactly right. Never a panic.
    for cut in [0usize, 7, 16, 60, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        st.evict_all();
        if let Ok(got) = try_covered_rows_sharded(&st, &rule) {
            assert_eq!(got, expect, "cut at {cut}: success must be correct");
        }
    }
    // Header damage is always fatal for this shard's scans.
    std::fs::write(&path, &bytes[..16]).unwrap();
    st.evict_all();
    assert!(try_covered_rows_sharded(&st, &rule).is_err());
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(try_covered_rows_sharded(&st, &rule).unwrap(), expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random small tables, random shard counts, random rules: pushdown
    /// coverage, counting, and search all match the monolithic kernel
    /// bitwise on spilling storage.
    #[test]
    fn pushdown_matches_monolithic_on_random_tables(
        rows in proptest::collection::vec((0u8..6, 0u8..4, 0u8..3), 1..120),
        shards in 1usize..6,
        probe_a in 0u8..6,
        probe_b in 0u8..4,
    ) {
        let data: Vec<[String; 3]> = rows
            .iter()
            .map(|&(a, b, c)| [format!("a{a}"), format!("b{b}"), format!("c{c}")])
            .collect();
        let table = Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &data).unwrap();
        let st = spilled(&table, shards);

        // The probed value may be absent from the table entirely (and from
        // any individual shard's remap) — both paths must agree anyway.
        let rule = Rule::trivial(3)
            .with_value(0, table.dictionary(0).code_of(&format!("a{probe_a}")).unwrap_or(u32::MAX))
            .with_value(1, table.dictionary(1).code_of(&format!("b{probe_b}")).unwrap_or(u32::MAX));
        prop_assert_eq!(
            try_covered_rows_sharded(&st, &rule).unwrap(),
            covered_rows(&table, &rule)
        );
        prop_assert_eq!(
            vec![rule_count(&table.view(), &rule)],
            try_count_rules_sharded(&st, std::slice::from_ref(&rule)).unwrap()
        );

        let view = table.view();
        let cov = vec![0.0f64; view.len()];
        let opts = SearchOptions::new(3.0);
        let mono = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts);
        let mut scratch = SearchScratch::new();
        let got = try_find_best_marginal_rule_sharded(
            &ShardedView::all(st), &SizeWeight, &cov, &opts, &mut scratch).unwrap();
        match (mono, got) {
            (Some(m), Some(g)) => {
                prop_assert_eq!(g.rule, m.rule);
                prop_assert_eq!(g.marginal_value.to_bits(), m.marginal_value.to_bits());
            }
            (None, None) => {}
            (m, g) => prop_assert!(false, "mono {m:?} vs sharded {g:?}"),
        }
    }
}
