//! Every code column is exactly as wide as its dictionary needs: `u8` codes
//! up to 256 values, `u16` up to 65 536, `u32` beyond — after every way a
//! table comes to be (CSV ingest, `from_rows`, gathers, sharding, the
//! streamed CSV ingest, live appends), with each column widened at the value
//! that crosses a boundary and nowhere else. `code()` and `row_codes()` read
//! back the `u32` codes a first-seen interning of the same rows assigns,
//! whatever the width.

use smart_drilldown::datagen::census;
use smart_drilldown::table::csv::{read_csv, stream_csv_file, write_csv};
use smart_drilldown::table::{
    LiveTable, LiveTableConfig, Schema, ShardConfig, ShardedTable, Table,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The narrowest byte width for `cardinality` distinct values.
fn narrowest(cardinality: usize) -> usize {
    match cardinality {
        0..=256 => 1,
        257..=65_536 => 2,
        _ => 4,
    }
}

/// Row `i`: `A` cycles three values; `B` takes a new value per row up to
/// its 257th (`b256`), `C` up to its 65 537th (`c65536`). So the first
/// 256 rows leave both one byte wide, row 256 widens both to two bytes and
/// row 65 536 widens `C` to four.
fn row(i: usize) -> [String; 3] {
    [
        format!("a{}", i % 3),
        format!("b{}", i.min(256)),
        format!("c{}", i.min(65_536)),
    ]
}

fn rows(n: usize) -> Vec<[String; 3]> {
    (0..n).map(row).collect()
}

fn schema() -> Schema {
    Schema::new(["A", "B", "C"]).unwrap()
}

/// The codes a first-seen interning of `rows` assigns, row-major.
fn reference<R: AsRef<[String]>>(rows: &[R]) -> Vec<Vec<u32>> {
    let mut dicts: Vec<BTreeMap<&str, u32>> = Vec::new();
    rows.iter()
        .map(|row| {
            let row = row.as_ref();
            dicts.resize_with(row.len(), BTreeMap::new);
            row.iter()
                .zip(&mut dicts)
                .map(|(v, dict)| {
                    let next = dict.len() as u32;
                    *dict.entry(v.as_str()).or_insert(next)
                })
                .collect()
        })
        .collect()
}

/// Every column of `t` is as wide as its dictionary needs, and `t`'s rows
/// read back as `want`.
fn assert_narrow(label: &str, t: &Table, want: &[Vec<u32>]) {
    assert_eq!(t.n_rows(), want.len(), "{label}: rows");
    for c in 0..t.n_columns() {
        let col = t.column(c);
        assert_eq!(col.len(), t.n_rows(), "{label}: column {c} length");
        assert_eq!(
            col.width(),
            narrowest(t.cardinality(c)),
            "{label}: column {c} holds {} values",
            t.cardinality(c)
        );
    }
    let mut buf = Vec::new();
    for (r, want) in want.iter().enumerate() {
        t.row_codes(r as u32, &mut buf);
        assert_eq!(&buf, want, "{label}: row {r}");
        for (c, &code) in want.iter().enumerate() {
            assert_eq!(t.code(r as u32, c), code, "{label}: row {r} col {c}");
        }
    }
}

/// The widths of `t`'s columns.
fn widths(t: &Table) -> Vec<usize> {
    (0..t.n_columns()).map(|c| t.column(c).width()).collect()
}

/// Every shard of `st` — resident, or decoded from its spill file — is a
/// table as narrow as its dictionaries, reading back its span of `want`.
fn assert_shards(label: &str, st: &ShardedTable, want: &[Vec<u32>]) {
    assert_eq!(widths(st.header()), {
        let h = st.header();
        (0..h.n_columns())
            .map(|c| narrowest(h.cardinality(c)))
            .collect::<Vec<_>>()
    });
    for i in 0..st.n_shards() {
        let seg = st.try_segment(i).unwrap();
        assert_narrow(
            &format!("{label}, shard {i}"),
            seg.table(),
            &want[seg.span()],
        );
    }
}

#[test]
fn ingest_widens_each_column_exactly_at_its_boundary() {
    for (n, want_widths) in [
        (256, [1, 1, 1]),
        (257, [1, 2, 2]),
        (65_536, [1, 2, 2]),
        (65_537, [1, 2, 4]),
    ] {
        let rows = rows(n);
        let want = reference(&rows);
        let from_rows = Table::from_rows(schema(), &rows).unwrap();
        assert_narrow(&format!("from_rows {n}"), &from_rows, &want);
        assert_eq!(widths(&from_rows), want_widths, "from_rows {n}");
        let csv = read_csv(&write_csv(&from_rows)).unwrap();
        assert_narrow(&format!("read_csv {n}"), &csv, &want);
        assert_eq!(widths(&csv), want_widths, "read_csv {n}");
    }
}

#[test]
fn gathers_keep_their_sources_widths() {
    let rows = rows(65_537);
    let want = reference(&rows);
    let table = Table::from_rows(schema(), &rows).unwrap();
    let picks: Vec<u32> = vec![65_536, 0, 256, 255, 65_535, 3];
    let gathered = table.gather_rows(&picks);
    let picked: Vec<Vec<u32>> = picks.iter().map(|&r| want[r as usize].clone()).collect();
    assert_narrow("gather_rows", &gathered, &picked);
    assert_eq!(widths(&gathered), [1, 2, 4]);
    // An empty gather is as wide as the dictionaries, too.
    assert_eq!(widths(&table.gather_rows(&[])), [1, 2, 4]);
    // Parts of one code space, concatenated in part order.
    let pooled = Table::gather_multi(&[(&gathered, &[5, 1][..]), (&table, &[7, 65_536][..])]);
    let pooled_want = vec![
        picked[5].clone(),
        picked[1].clone(),
        want[7].clone(),
        want[65_536].clone(),
    ];
    assert_narrow("gather_multi", &pooled, &pooled_want);
}

#[test]
fn shards_are_as_narrow_as_their_dictionaries() {
    let rows = rows(65_600);
    let want = reference(&rows);
    let table = Table::from_rows(schema(), &rows).unwrap();
    let dir = std::env::temp_dir();
    let csv = dir.join(format!("sdd-code-widths-{}.csv", std::process::id()));
    std::fs::write(&csv, write_csv(&table)).unwrap();
    for (label, config) in [
        ("resident", ShardConfig::in_memory(7)),
        ("spilled", ShardConfig::spilling(7, 0, &dir)),
    ] {
        let st = ShardedTable::from_table(&table, &config).unwrap();
        assert_shards(&format!("from_table, {label}"), &st, &want);

        let streamed = stream_csv_file(&csv, &config).unwrap();
        assert_shards(&format!("stream_csv_file, {label}"), &streamed, &want);
    }
    std::fs::remove_file(&csv).ok();
}

/// A live append widens only the open rows when a dictionary crosses a
/// boundary: segments sealed before it keep their bytes and their
/// seal-epoch dictionaries, both one byte wide.
#[test]
fn a_live_append_widens_only_its_open_rows() {
    // `B` takes a new value per row: the 257th arrives at row 256.
    let live_rows = |range: std::ops::Range<usize>| -> Vec<[String; 2]> {
        range
            .map(|i| [format!("a{}", i % 3), format!("b{i}")])
            .collect()
    };
    let all = live_rows(0..310);
    let want = reference(&all);
    for config in [
        LiveTableConfig::in_memory(100),
        LiveTableConfig::spilling(100, std::env::temp_dir()),
    ] {
        let label = if config.spill_dir.is_some() {
            "spilled"
        } else {
            "resident"
        };
        let live = LiveTable::new(Schema::new(["A", "B"]).unwrap(), vec![], &config).unwrap();
        let before = live.try_append(&all[..250], &[]).unwrap();
        assert_shards(&format!("{label}, epoch 1"), &before.table, &want[..250]);
        assert_eq!(widths(before.table.header()), [1, 1]);

        // Rows 250..310: row 256 crosses; row 300 seals a segment holding
        // codes on both sides of the boundary.
        let after = live.try_append(&all[250..], &[]).unwrap();
        assert_shards(&format!("{label}, epoch 2"), &after.table, &want);
        assert_eq!(widths(after.table.header()), [1, 2]);
        for i in 0..2 {
            if let (Some(old), Some(new)) = (
                before.table.resident_segment(i),
                after.table.resident_segment(i),
            ) {
                assert!(
                    Arc::ptr_eq(old, new),
                    "{label}: sealed segment {i} rewritten"
                );
                assert_eq!(widths(new.table()), [1, 1], "{label}: segment {i}");
            }
        }
        let sealed_across = after.table.try_segment(2).unwrap();
        assert_eq!(widths(sealed_across.table()), [1, 2], "{label}: segment 2");
    }
}

/// Codes sealed before their dictionary outgrew one byte, in the same
/// append that then grows it, come out of the freeze as wide as the
/// dictionary they are frozen under.
#[test]
fn a_live_freeze_widens_segments_sealed_before_the_crossing() {
    let live = LiveTable::new(
        Schema::new(["B"]).unwrap(),
        vec![],
        &LiveTableConfig::in_memory(100),
    )
    .unwrap();
    // Rows 0..100 reuse ten values; from row 100 on each row is new, so the
    // 257th value arrives at row 346, after three seals.
    let rows: Vec<[String; 1]> = (0..400)
        .map(|i| [format!("b{}", if i < 100 { i % 10 } else { i - 90 })])
        .collect();
    let snap = live.try_append(&rows, &[]).unwrap();
    assert_eq!(snap.table.header().cardinality(0), 310);
    assert_shards("one append", &snap.table, &reference(&rows));
}

/// The benchmark's census-shaped table, read from its CSV text, is one
/// byte per cell: every census column has at most 40 values.
#[test]
fn a_census_table_is_all_one_byte() {
    let table = read_csv(&write_csv(&census(5_000, 1990))).unwrap();
    assert!(table.n_columns() > 7);
    assert!(
        widths(&table).iter().all(|&w| w == 1),
        "{:?}",
        widths(&table)
    );
}
