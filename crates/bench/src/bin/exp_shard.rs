//! Emits `BENCH_shard.json`: a shard-count × resident-budget sweep of the
//! sharded substrate on a census-shaped table. Run with:
//!
//! ```sh
//! cargo run --release -p sdd-bench --bin exp_shard
//! ```
//!
//! For every `(shards, resident)` cell the sweep times the drill-down hot
//! paths over the sharded storage —
//!
//! * **search** — one full-table best-marginal search (the per-shard
//!   counting kernel),
//! * **scan** — one rule-coverage scan + reservoir draw (the sampling
//!   layer's Create path),
//!
//! and asserts the search winner's marginal is **bit-identical** to the
//! monolithic kernel in every cell: the sweep doubles as a determinism
//! check on realistic sizes. `resident = 0` means fully resident;
//! smaller budgets force the spill tier (`loads`/`evictions` are recorded
//! so the JSON shows how much disk traffic each budget paid).
//!
//! Environment knobs: `SDD_SHARD_ROWS` (default 100 000), `SDD_REPS`
//! (default 3).

use sdd_core::{
    find_best_marginal_rule, try_covered_rows_sharded, try_find_best_marginal_rule_sharded, Rule,
    SearchOptions, SearchScratch, SizeWeight,
};
use sdd_table::{ShardConfig, ShardedTable, ShardedView};
use std::sync::Arc;
use std::time::Instant;

fn best_of(reps: usize, mut run: impl FnMut()) -> f64 {
    run(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let rows: usize = std::env::var("SDD_SHARD_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let reps: usize = std::env::var("SDD_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let table = sdd_bench::datasets::census3(rows);
    let view = table.view();
    let cov = vec![0.0f64; view.len()];
    let mw = 5.0;
    let mut opts = SearchOptions::new(mw);
    opts.parallel = false; // measure the storage tier, not thread count
    let mono = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts)
        .expect("census view yields a rule");
    let mono_bits = mono.marginal_value.to_bits();
    let t_mono = best_of(reps, || {
        let _ = find_best_marginal_rule(&view, &SizeWeight, &cov, &opts);
    });

    let scan_rule = Rule::trivial(table.n_columns()).with_value(0, table.code(0, 0));

    println!(
        "sharded substrate sweep on census3({rows}), mw={mw}, reps={reps} \
         (monolithic search {:.2} ms):",
        t_mono * 1e3
    );
    let mut entries = String::new();
    for &shards in &[1usize, 2, 4, 8] {
        let mut budgets = vec![0usize, shards.div_ceil(2), 1];
        budgets.dedup();
        budgets.retain(|&r| r == 0 || r < shards); // budget ≥ shards never spills
        for resident in budgets {
            let cfg = if resident == 0 {
                ShardConfig::in_memory(shards)
            } else {
                ShardConfig::spilling(shards, resident, std::env::temp_dir())
            };
            let st = Arc::new(ShardedTable::from_table(&table, &cfg).expect("shard build"));
            let sview = ShardedView::all(st.clone());

            let mut scratch = SearchScratch::new();
            let got =
                try_find_best_marginal_rule_sharded(&sview, &SizeWeight, &cov, &opts, &mut scratch)
                    .expect("spill files decode")
                    .expect("sharded search yields a rule");
            assert_eq!(
                got.marginal_value.to_bits(),
                mono_bits,
                "{shards}×{resident}: sharded search diverged from monolithic"
            );
            let t_search = best_of(reps, || {
                let mut scratch = SearchScratch::new();
                let _ = try_find_best_marginal_rule_sharded(
                    &sview,
                    &SizeWeight,
                    &cov,
                    &opts,
                    &mut scratch,
                );
            });
            let t_scan = best_of(reps, || {
                let _ = try_covered_rows_sharded(&st, &scan_rule);
            });
            let (loads, evictions) = (st.loads(), st.evictions());
            println!(
                "  {shards} shard(s), resident {resident:>2}: search {:>8.2} ms \
                 ({:.2}x mono) | scan {:>7.2} ms | loads {loads:>4} evictions {evictions:>4}",
                t_search * 1e3,
                t_search / t_mono,
                t_scan * 1e3,
            );
            entries.push_str(&format!(
                "    {{ \"shards\": {shards}, \"resident\": {resident}, \
                 \"search_seconds\": {t_search:.6}, \"scan_seconds\": {t_scan:.6}, \
                 \"vs_monolithic\": {:.3}, \"spill_loads\": {loads}, \
                 \"evictions\": {evictions} }},\n",
                t_search / t_mono,
            ));
        }
    }
    let entries = entries.trim_end().trim_end_matches(',');

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"sharded_substrate/census3_shard_sweep\",\n",
            "{host_fields}\n",
            "  \"rows\": {rows},\n",
            "  \"max_weight\": {mw},\n",
            "  \"reps\": {reps},\n",
            "  \"monolithic_search_seconds\": {mono:.6},\n",
            "  \"determinism\": \"every cell's search result is bit-identical to the monolithic kernel (asserted at run time); resident budgets change only spill traffic\",\n",
            "  \"sweep\": [\n{entries}\n  ]\n",
            "}}\n"
        ),
        host_fields = sdd_bench::host_json_fields(),
        rows = rows,
        mw = mw,
        reps = reps,
        mono = t_mono,
        entries = entries,
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");
}
