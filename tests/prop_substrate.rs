//! Property-based tests of the substrates: table/CSV roundtrips,
//! bucketization bounds, reservoir statistics, allocation feasibility, the
//! knapsack solver, and the sharded-table invariants (span partitioning,
//! dictionary-remap spill round-trips, layout-independent chunk plans,
//! damaged spill files read as errors, never panics).

use proptest::prelude::*;
use smart_drilldown::core::{try_count_rules_in_store, Rule};
use smart_drilldown::sampling::{
    lemma4_reduction, project_capped_simplex, solve_convex, solve_dp, solve_uniform,
    AllocationProblem, Knapsack, Reservoir,
};
use smart_drilldown::table::bucketize::{equal_depth, equal_width};
use smart_drilldown::table::csv::{read_csv, stream_csv_file, write_csv};
use smart_drilldown::table::{
    chunk_spans, Schema, ShardConfig, ShardedTable, Table, TableError, TableStore,
};
use std::sync::Arc;

/// Streams `rows` (columns `A`, `B`), written out as CSV, through
/// `stream_csv_file` under `cfg`.
fn stream_rows<R: AsRef<[String]>>(rows: &[R], cfg: &ShardConfig) -> ShardedTable {
    let table = Table::from_rows(Schema::new(["A", "B"]).unwrap(), rows).unwrap();
    let path = std::env::temp_dir().join(format!(
        "sdd-prop-substrate-{}-{:?}.csv",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, write_csv(&table)).unwrap();
    let st = stream_csv_file(&path, &[], cfg).unwrap();
    std::fs::remove_file(&path).ok();
    st
}

fn arb_cells() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(
        proptest::collection::vec("[ -~]{0,8}", 3..=3), // printable ASCII incl. commas/quotes
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV write → read roundtrips arbitrary printable cell content.
    #[test]
    fn csv_roundtrip(cells in arb_cells()) {
        let rows: Vec<Vec<String>> = cells;
        let table = Table::from_rows(Schema::new(["c0", "c1", "c2"]).unwrap(), &rows).unwrap();
        let text = write_csv(&table);
        let back = read_csv(&text).unwrap();
        prop_assert_eq!(back.n_rows(), table.n_rows());
        for r in 0..table.n_rows() as u32 {
            for c in 0..3 {
                prop_assert_eq!(back.value(r, c), table.value(r, c));
            }
        }
    }

    /// Equal-width bucket assignment always lands values inside their bucket.
    #[test]
    fn equal_width_assignments_in_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..100), n in 1usize..10) {
        let b = equal_width(&values, n).unwrap();
        prop_assert_eq!(b.assignment.len(), values.len());
        for (&v, &a) in values.iter().zip(&b.assignment) {
            let bucket = b.buckets[a];
            prop_assert!(v >= bucket.lo - 1e-9, "{v} below {bucket:?}");
            // Last bucket is closed above.
            if a + 1 < b.buckets.len() {
                prop_assert!(v < bucket.hi + 1e-9);
            }
        }
    }

    /// Equal-depth buckets are monotone: larger values never land in
    /// earlier buckets.
    #[test]
    fn equal_depth_is_monotone(values in proptest::collection::vec(-1e3f64..1e3, 2..100), n in 1usize..8) {
        let b = equal_depth(&values, n).unwrap();
        let mut pairs: Vec<(f64, usize)> = values.iter().copied().zip(b.assignment.iter().copied()).collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "bucket order violated: {w:?}");
        }
    }

    /// A reservoir never exceeds capacity and never invents items.
    #[test]
    fn reservoir_holds_valid_subset(n_stream in 0usize..200, cap in 0usize..20, key in any::<u64>()) {
        let mut res = Reservoir::new(cap);
        for i in 0..n_stream {
            res.offer_keyed(i, key);
        }
        prop_assert!(res.items().len() <= cap.min(n_stream));
        prop_assert!(res.items().iter().all(|&i| i < n_stream));
        prop_assert_eq!(res.seen(), n_stream as u64);
        // All items distinct.
        let mut sorted: Vec<_> = res.items().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), res.items().len());
    }

    /// Simplex projection always lands in the feasible set and is a no-op
    /// on feasible points.
    #[test]
    fn projection_feasible_and_idempotent(mut x in proptest::collection::vec(-100.0f64..100.0, 1..10), cap in 0.1f64..100.0) {
        project_capped_simplex(&mut x, cap);
        prop_assert!(x.iter().all(|&v| v >= -1e-9));
        prop_assert!(x.iter().sum::<f64>() <= cap + 1e-6);
        let before = x.clone();
        project_capped_simplex(&mut x, cap);
        for (a, b) in before.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-6, "projection not idempotent");
        }
    }

    /// All three allocators stay within budget; DP dominates uniform on the
    /// step objective.
    #[test]
    fn allocators_feasible_dp_dominates(
        sels in proptest::collection::vec(0.05f64..1.0, 1..5),
        probs_raw in proptest::collection::vec(0.01f64..1.0, 1..5),
        capacity in 200usize..5000,
    ) {
        let d = sels.len().min(probs_raw.len());
        let total: f64 = probs_raw[..d].iter().sum();
        let mut parent = vec![None];
        let mut prob = vec![0.0];
        let mut selectivity = vec![1.0];
        for i in 0..d {
            parent.push(Some(0));
            prob.push(probs_raw[i] / total);
            selectivity.push(sels[i]);
        }
        let p = AllocationProblem { parent, prob, selectivity, capacity, min_ss: 500 };
        for alloc in [solve_dp(&p), solve_convex(&p), solve_uniform(&p)] {
            prop_assert!(p.used(&alloc.sizes) <= p.capacity);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&alloc.value));
        }
        prop_assert!(solve_dp(&p).value + 1e-9 >= solve_uniform(&p).value);
    }

    /// The exact knapsack solver returns a feasible set achieving its value.
    #[test]
    fn knapsack_solution_is_feasible_and_consistent(
        weights in proptest::collection::vec(1usize..50, 1..10),
        values in proptest::collection::vec(0.0f64..10.0, 1..10),
        capacity in 0usize..150,
    ) {
        let n = weights.len().min(values.len());
        let k = Knapsack {
            weights: weights[..n].to_vec(),
            values: values[..n].to_vec(),
            capacity,
        };
        let (best, chosen) = k.solve_exact();
        let w: usize = chosen.iter().map(|&i| k.weights[i]).sum();
        let v: f64 = chosen.iter().map(|&i| k.values[i]).sum();
        prop_assert!(w <= capacity);
        prop_assert!((v - best).abs() < 1e-9);
        // No better single swap: adding any unchosen item must overflow...
        // (full optimality is checked against the Lemma-4 DP below).
    }

    /// Shard spans always partition the row range `[0, n_rows)` exactly:
    /// in order, gapless, and never empty for non-empty tables.
    #[test]
    fn shard_spans_partition_the_row_range(
        n_rows in 0usize..200,
        shards in 1usize..12,
    ) {
        let rows: Vec<[String; 1]> = (0..n_rows).map(|i| [format!("v{}", i % 7)]).collect();
        let table = Table::from_rows(Schema::new(["A"]).unwrap(), &rows).unwrap();
        let st = ShardedTable::from_table(&table, &ShardConfig::in_memory(shards)).unwrap();
        let mut pos = 0usize;
        for span in st.spans() {
            prop_assert_eq!(span.start, pos);
            prop_assert!(n_rows == 0 || !span.is_empty());
            pos = span.end;
        }
        prop_assert_eq!(pos, n_rows);
        // Every row maps back into its span.
        for r in 0..n_rows as u32 {
            let s = st.shard_of_row(r).unwrap();
            prop_assert!(st.spans()[s].contains(&(r as usize)));
        }
    }

    /// The spill round-trip (global → local dictionary codes → disk →
    /// local → global) reproduces every segment bit-for-bit, every access
    /// going through the spill tier, regardless of shard-local
    /// cardinalities (which choose the 1- or 2-byte local code widths).
    #[test]
    fn dictionary_remap_spill_roundtrips(
        cells in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 2..=2), 1..120),
        shards in 1usize..9,
    ) {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|r| r.iter().map(|v| format!("x{v}")).collect())
            .collect();
        let table = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap();
        let st = ShardedTable::from_table(
            &table,
            &ShardConfig::spilling(shards, 0, std::env::temp_dir()),
        )
        .unwrap();
        for i in 0..st.n_shards() {
            let seg = st.try_segment(i).unwrap();
            for c in 0..table.n_columns() {
                prop_assert_eq!(seg.col(c), &table.column(c).slice(seg.span()));
            }
        }
        prop_assert_eq!(st.loads(), st.n_shards() as u64, "every decode reads the disk");
    }

    /// A streamed CSV ingest lays its segments out exactly on
    /// `chunk_spans` boundaries for arbitrary row counts and shard counts:
    /// a spilling build writes each spill exactly once with no read-backs,
    /// and the finished layout is the one `from_table` would produce. (That
    /// each span seals the moment its last row arrives is a unit test
    /// beside the record loop, in `sdd-table`'s `csv.rs`.)
    #[test]
    fn stream_builder_seals_on_chunk_span_boundaries(
        n_rows in 0usize..180,
        shards in 1usize..10,
        spill in any::<bool>(),
    ) {
        let cfg = if spill {
            ShardConfig::spilling(shards, 0, std::env::temp_dir())
        } else {
            ShardConfig::in_memory(shards)
        };
        let spans = chunk_spans(n_rows, shards);
        let rows: Vec<[String; 2]> = (0..n_rows)
            .map(|i| [format!("v{}", i % 6), format!("w{}", i % 4)])
            .collect();
        let st = stream_rows(&rows, &cfg);
        prop_assert_eq!(st.spans(), spans.as_slice());
        if spill {
            prop_assert_eq!(st.spills(), st.n_shards() as u64, "one spill write per shard");
            prop_assert_eq!(st.loads(), 0, "a streaming build never reads back");
            prop_assert!(
                (0..st.n_shards()).all(|i| st.resident_segment(i).is_none()),
                "no segment decoded during the build"
            );
        }
        for (i, span) in spans.iter().enumerate() {
            let seg = st.try_segment(i).unwrap();
            prop_assert_eq!(seg.span(), span.clone());
            prop_assert_eq!(seg.table().n_rows(), span.len());
        }
    }

    /// A local-dictionary spill `remap` round-trips through an **Arc-shared**
    /// global dictionary: every decoded segment holds pointer-identical
    /// dictionary handles to the header (never a clone), reproduces the
    /// reference global codes exactly, and decodes codes back to the
    /// original strings.
    #[test]
    fn remap_roundtrips_through_arc_shared_dictionary(
        cells in proptest::collection::vec(
            proptest::collection::vec(0u32..300, 2..=2), 1..100),
        shards in 1usize..9,
    ) {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|r| r.iter().map(|v| format!("x{v}")).collect())
            .collect();
        let reference = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap();
        let cfg = ShardConfig::spilling(shards, 0, std::env::temp_dir());
        let st = stream_rows(&rows, &cfg);
        for i in 0..st.n_shards() {
            let seg = st.try_segment(i).unwrap();
            for c in 0..reference.n_columns() {
                prop_assert!(
                    Arc::ptr_eq(st.header().dictionary_arc(c), seg.table().dictionary_arc(c)),
                    "shard {} col {}: dictionary cloned instead of Arc-shared", i, c
                );
                prop_assert_eq!(seg.col(c), &reference.column(c).slice(seg.span()));
                for (local, code) in seg.col(c).to_u32_vec().into_iter().enumerate() {
                    let global_row = (seg.span().start + local) as u32;
                    prop_assert_eq!(
                        seg.table().dictionary(c).value_of(code),
                        Some(reference.value(global_row, c))
                    );
                }
            }
        }
    }

    /// A damaged spill file — 1–4 bytes overwritten anywhere, the file cut
    /// short, or bytes appended — never panics a reader: a range read, a
    /// segment decode, a gather and a count scan of the damaged shard each
    /// return `Ok` or `Corrupt`/`Io`, and whatever reads back `Ok` holds
    /// only codes its column's dictionary has.
    #[test]
    fn damaged_spill_files_never_panic(
        rows in proptest::collection::vec((0u16..6, 0u16..300, 0u16..3), 1..120),
        shards in 1usize..6,
        pick in any::<usize>(),
        damage in 0u8..3,
        at in any::<usize>(),
        bytes in proptest::collection::vec(any::<u8>(), 1..=4),
    ) {
        let data: Vec<[String; 3]> = rows
            .iter()
            .map(|&(a, b, c)| [format!("a{a}"), format!("b{b}"), format!("c{c}")])
            .collect();
        let table = Table::from_rows(Schema::new(["A", "B", "C"]).unwrap(), &data).unwrap();
        let cfg = ShardConfig::spilling(shards, 0, std::env::temp_dir());
        let st = Arc::new(ShardedTable::from_table(&table, &cfg).unwrap());
        let shard = pick % st.n_shards();
        let path = st.spill_path(shard).unwrap().to_path_buf();
        let mut file = std::fs::read(&path).unwrap();
        match damage {
            0 => {
                let at = at % file.len();
                for (x, &b) in file[at..].iter_mut().zip(&bytes) {
                    *x = b;
                }
            }
            1 => file.truncate(at % file.len()),
            _ => file.extend(&bytes),
        }
        std::fs::write(&path, &file).unwrap();

        let fault = |e: &TableError| matches!(e, TableError::Corrupt(_) | TableError::Io(_));
        let known = |c: usize, codes: &[u32]| codes.iter().all(|&g| (g as usize) < table.cardinality(c));
        let all_known = |t: &Table| (0..3).all(|c| known(c, &t.column(c).to_u32_vec()));
        match st.read_columns(shard, &[0, 1, 2]) {
            Ok(cols) => {
                for (c, col) in cols.iter().enumerate() {
                    prop_assert!(known(c, col.remap()), "read_columns: column {}", c);
                }
            }
            Err(e) => prop_assert!(fault(&e), "read_columns: {}", e),
        }
        match st.try_segment(shard) {
            Ok(seg) => prop_assert!(all_known(seg.table()), "try_segment"),
            Err(e) => prop_assert!(fault(&e), "try_segment: {}", e),
        }
        let ids: Vec<u32> = st.spans()[shard].clone().map(|r| r as u32).collect();
        match st.try_gather_batch(&[&ids]) {
            Ok(tables) => prop_assert!(all_known(&tables[0]), "try_gather_batch"),
            Err(e) => prop_assert!(fault(&e), "try_gather_batch: {}", e),
        }
        let rules = [
            Rule::trivial(3),
            Rule::trivial(3).with_value(1, 0),
            Rule::trivial(3).with_value(0, 1).with_value(2, 0),
        ];
        if let Err(e) = try_count_rules_in_store(&TableStore::Sharded(st), &rules) {
            prop_assert!(fault(&e), "try_count_rules_in_store: {}", e);
        }
    }

    /// Lemma 4 end-to-end on random instances: the allocation DP's optimum
    /// equals base probability + knapsack optimum (scaled).
    #[test]
    fn lemma4_optima_correspond(
        weights in proptest::collection::vec(10usize..90, 1..5),
        values in proptest::collection::vec(0.5f64..5.0, 1..5),
        cap_frac in 0.2f64..0.9,
    ) {
        let n = weights.len().min(values.len());
        let total_w: usize = weights[..n].iter().sum();
        let k = Knapsack {
            weights: weights[..n].to_vec(),
            values: values[..n].to_vec(),
            capacity: ((total_w as f64) * cap_frac) as usize,
        };
        let inst = lemma4_reduction(&k, 100);
        let alloc = solve_dp(&inst.problem);
        let (opt, _) = k.solve_exact();
        let expected = inst.base_prob + opt / inst.value_scale;
        prop_assert!((alloc.value - expected).abs() < 1e-9,
            "allocation {} vs knapsack-derived {expected}", alloc.value);
    }
}
