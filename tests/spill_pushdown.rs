//! Property-based tests of the spill-tier fast path: local-code predicate
//! pushdown at the packed-width boundaries, and the block-mask scans
//! against a row-at-a-time oracle on every tail length they can see.
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
    covered_rows, find_best_marginal_rule, rule_count, try_count_rules_in_store,
    try_count_rules_sharded, try_covered_rows_sharded, try_covered_rows_sharded_range,
    try_find_best_marginal_rule_sharded, try_scan_rules_in_store, Rule, SearchOptions,
    SearchScratch, SizeWeight,
};
use smart_drilldown::table::{
    LocalCodes, Schema, ShardConfig, ShardedTable, ShardedView, Table, TableStore,
};
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
            &ShardConfig::spilling(shards, 0, std::env::temp_dir()),
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
    let joint_rows = covered_rows(&table, &joint);
    assert_eq!(
        try_covered_rows_sharded(&st, &joint).unwrap(),
        joint_rows,
        "card {card}, joint rule"
    );
    // The joint rule's block masks over the packed columns, counted and
    // clipped mid-shard across a block seam.
    assert_eq!(
        try_count_rules_sharded(&st, std::slice::from_ref(&joint)).unwrap(),
        [joint_rows.len() as f64],
        "card {card}, joint count"
    );
    let clip = 1000..1000 + 2 * 2049;
    let mut clipped: Vec<u32> = joint_rows.clone();
    clipped.retain(|&r| clip.contains(&(r as usize)));
    assert_eq!(
        try_covered_rows_sharded_range(&st, &joint, clip).unwrap(),
        clipped,
        "card {card}, clipped joint rule"
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

/// Rows per shard of [`mask_table`]: past one 2 048-row block.
const MASK_SHARD_ROWS: usize = 3_000;

/// Three shards' worth of rows whose columns spill at one and two bytes:
/// `A` (5 values), `B` (301 values, 2 bytes), `C` (7 values) and `D`, whose
/// value `d2` occurs in the last shard only.
fn mask_table() -> Table {
    let data: Vec<[String; 4]> = (0..3 * MASK_SHARD_ROWS)
        .map(|i| {
            let b = if i % 2 == 0 { 0 } else { i % 301 };
            let d = if i < 2 * MASK_SHARD_ROWS {
                i % 2
            } else {
                i % 3
            };
            [
                format!("a{}", (i / 3) % 5),
                format!("b{b}"),
                format!("c{}", i % 7),
                format!("d{d}"),
            ]
        })
        .collect();
    Table::from_rows(Schema::new(["A", "B", "C", "D"]).unwrap(), &data).unwrap()
}

/// The block-mask scans' covered rows and counts must equal a row-at-a-time
/// oracle, computed inline, on every span length 0..=130 and on both sides
/// of the 64-row word and 2 048-row block seams, for ranges clipped
/// mid-segment and across a shard seam, and for rules of 0–4 predicates —
/// three of them naming a value absent from two shards. The code widths: 1- and
/// 2-byte local codes on the spilling store, 4-byte global codes on the
/// monolithic one (the spilled 4-byte arm is pinned at the 2→4 byte seam
/// above).
#[test]
fn simd_tail_parity_on_all_lengths() {
    let table = Arc::new(mask_table());
    let st = spilled(&table, 3);
    let widths: Vec<&str> = st
        .read_columns(0, &[0, 1, 2, 3])
        .unwrap()
        .iter()
        .map(|c| match c.codes() {
            LocalCodes::W1(_) => "u8",
            LocalCodes::W2(_) => "u16",
            LocalCodes::W4(_) => "u32",
        })
        .collect();
    assert_eq!(widths, ["u8", "u16", "u8", "u8"], "spilled code widths");

    let rule = |pairs: &[(&str, &str)]| Rule::from_pairs(&table, pairs).unwrap();
    let rules = [
        Rule::trivial(4),
        rule(&[("C", "c0")]),
        rule(&[("D", "d2")]),
        // Single predicates on the 2-byte column take its own count kernel:
        // `b0` holds every even row, so every vector tail has hits, and
        // `b300` needs the high byte of its code.
        rule(&[("B", "b0")]),
        rule(&[("B", "b300")]),
        rule(&[("A", "a0"), ("B", "b0")]),
        // `b300` is the last of 301 values to appear: a 2-byte local code.
        rule(&[("A", "a1"), ("B", "b300")]),
        rule(&[("B", "b0"), ("C", "c0")]),
        rule(&[("A", "a1"), ("D", "d2")]),
        rule(&[("A", "a0"), ("B", "b0"), ("C", "c0")]),
        rule(&[("A", "a0"), ("B", "b0"), ("C", "c0"), ("D", "d0")]),
        rule(&[("A", "a2"), ("B", "b0"), ("C", "c0"), ("D", "d2")]),
    ];
    let oracle = |t: &Table, rule: &Rule, rows: std::ops::Range<usize>| -> Vec<u32> {
        rows.map(|r| r as u32)
            .filter(|&r| (0..4).all(|c| rule.is_star(c) || t.code(r, c) == rule.code(c)))
            .collect()
    };
    let stores = [TableStore::Whole(table.clone()), TableStore::Sharded(st)];

    let n = table.n_rows();
    for store in &stores {
        let counts: Vec<f64> = rules
            .iter()
            .map(|r| oracle(&table, r, 0..n).len() as f64)
            .collect();
        assert_eq!(try_count_rules_in_store(store, &rules).unwrap(), counts);
    }
    let seams = [191, 192, 193, 2047, 2048, 2049, 4095, 4096, 4097];
    for len in (0..=130).chain(seams) {
        // Mid-word in the first shard, and straddling each shard seam.
        for lo in [37, MASK_SHARD_ROWS - len / 2, 2 * MASK_SHARD_ROWS - len / 2] {
            let range = lo..lo + len;
            for store in &stores {
                let mut got = vec![Vec::new(); rules.len()];
                try_scan_rules_in_store(store, &rules, range.clone(), |i, rows| {
                    got[i].extend_from_slice(rows)
                })
                .unwrap();
                for (rule, got) in rules.iter().zip(&got) {
                    assert_eq!(
                        got,
                        &oracle(&table, rule, range.clone()),
                        "{rule:?} {range:?}"
                    );
                }
            }
        }
        // The span as a table of its own: resident scans from row 0, and
        // spilled counts over segments of the span's length.
        let lo = (2 * MASK_SHARD_ROWS - len / 2) as u32;
        let ids: Vec<u32> = (lo..lo + len as u32).collect();
        let part = Arc::new(table.gather_rows(&ids));
        for rule in &rules {
            assert_eq!(
                covered_rows(&part, rule),
                oracle(&part, rule, 0..len),
                "{rule:?} len {len}"
            );
        }
        let counts: Vec<f64> = rules
            .iter()
            .map(|r| oracle(&part, r, 0..len).len() as f64)
            .collect();
        for store in [
            TableStore::Whole(part.clone()),
            TableStore::Sharded(spilled(&part, 1)),
        ] {
            assert_eq!(
                try_count_rules_in_store(&store, &rules).unwrap(),
                counts,
                "len {len}"
            );
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
        if let Ok(got) = try_covered_rows_sharded(&st, &rule) {
            assert_eq!(got, expect, "cut at {cut}: success must be correct");
        }
    }
    // Header damage is always fatal for this shard's scans.
    std::fs::write(&path, &bytes[..16]).unwrap();
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
