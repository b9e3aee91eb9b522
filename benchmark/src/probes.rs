//! Unit costs of single layers, probed from outside through their public
//! functions on the data of the workload being traced. The ladder says
//! where a request's time goes; these say what one unit of each kind of
//! work costs, so a later change to a layer can be located before it shows
//! end to end. Ratios (sharded ÷ monolithic, scalar ÷ SIMD, one thread ÷
//! all) are measured back to back, base first.

use crate::report::Metric;
use crate::scale::Sizing;
use crate::stats;
use crate::tape;
use sdd_core::{
    covered_rows, drill_down_with, find_best_marginal_rule, Brs, Rule, SearchOptions,
    SearchScratch, SizeWeight,
};
use sdd_sampling::{PrefetchEntry, PrefetchJob, SampleHandler, SampleHandlerConfig};
use sdd_server::protocol::parse_request_line;
use sdd_server::{Engine, EngineConfig, Request, TailConfig};
use sdd_table::{
    LiveTable, LiveTableConfig, Schema, ShardConfig, ShardedTable, ShardedView, Table, TableStore,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The product's one source of thread counts (see `main.rs`).
const THREADS_VAR: &str = "SDD_THREADS";

/// Median milliseconds of `reps` runs of `f`.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Runs `f` with the product's thread count set to `threads`, then puts it
/// back to 1. Only called while no other thread of this process runs.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var(THREADS_VAR, threads.to_string());
    let out = f();
    std::env::set_var(THREADS_VAR, "1");
    out
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The rule fixing column `col` to its most common value.
fn top_value_rule(table: &Table, col: usize) -> Rule {
    let top = sdd_table::stats::column_stats(table, col)
        .top_code
        .unwrap_or(0);
    Rule::trivial(table.n_columns()).with_value(col, top)
}

/// `core`: the whole-view search, the coverage scan and the exact-count
/// pass, with their sharded, SIMD and parallel ratios.
pub fn core(table: &Arc<Table>, sizing: &Sizing) -> Result<Vec<Metric>, String> {
    let rows = table.n_rows() as f64;
    let weight = SizeWeight;
    let opts = SearchOptions::new(tape::MAX_WEIGHT);
    let covered = vec![0.0f64; table.n_rows()];
    let search = || find_best_marginal_rule(&table.view(), &weight, &covered, &opts);

    let search_ms = median_ms(3, search);
    let parallel_ms = with_threads(nproc(), || median_ms(3, search));

    let sharded = Arc::new(
        ShardedTable::from_table(table, &ShardConfig::in_memory(sizing.shards))
            .map_err(|e| e.to_string())?,
    );
    let view = ShardedView::all(Arc::clone(&sharded));
    let mut scratch = SearchScratch::new();
    let sharded_ms = median_ms(3, || {
        sdd_core::try_find_best_marginal_rule_sharded(&view, &weight, &covered, &opts, &mut scratch)
    });
    drop((view, sharded));

    let rule = top_value_rule(table, 0);
    let scan_ms = median_ms(9, || covered_rows(table, &rule));
    sdd_core::accel::set_simd_enabled(false);
    let scalar_scan_ms = median_ms(9, || covered_rows(table, &rule));
    sdd_core::accel::set_simd_enabled(true);

    let rules: Vec<Rule> = std::iter::once(Rule::trivial(table.n_columns()))
        .chain((0..table.n_columns()).map(|c| top_value_rule(table, c)))
        .collect();
    let count_rules_ms = median_ms(3, || sdd_core::count_rules(table, &rules));

    Ok(vec![
        Metric::new("core.search_full_ms", search_ms, "ms"),
        Metric::new("core.search_rows_per_s", rows / (search_ms / 1e3), "1/s"),
        Metric::new("core.search_sharded_ratio", sharded_ms / search_ms, "ratio"),
        Metric::new(
            "core.search_parallel_speedup",
            search_ms / parallel_ms,
            "ratio",
        ),
        Metric::new("core.scan_ms", scan_ms, "ms"),
        Metric::new("core.scan_rows_per_s", rows / (scan_ms / 1e3), "1/s"),
        Metric::new("core.scan_simd_speedup", scalar_scan_ms / scan_ms, "ratio"),
        Metric::new("core.count_rules_ms", count_rules_ms, "ms"),
    ])
}

/// `sampling`: one prefetch job (the §4.3 allocation plus its one scan) on
/// one thread and on all, over the monolithic table.
pub fn sampling(table: &Arc<Table>, kind: tape::VisitKind) -> Result<Vec<Metric>, String> {
    let (capacity, min_sample_size) = kind.sample_memory();
    let config = SampleHandlerConfig {
        capacity,
        min_sample_size,
        ..SampleHandlerConfig::default()
    };
    // The job an analyst's first click leaves behind: prefetch for the
    // root's children.
    let trivial = Rule::trivial(table.n_columns());
    let mut first = SampleHandler::new(Arc::clone(table), config.clone());
    let sample = first.try_get_sample(&trivial).map_err(|e| e.to_string())?;
    let weight = SizeWeight;
    let brs = Brs::new(&weight).with_max_weight(tape::MAX_WEIGHT);
    let children = drill_down_with(&brs, &sample.view.as_view(), &trivial, tape::K).rules;
    if children.is_empty() {
        return Err("the root has no children to prefetch for".to_owned());
    }
    let job = PrefetchJob {
        parent: trivial.clone(),
        entries: children
            .iter()
            .map(|c| PrefetchEntry {
                rule: c.rule.clone(),
                probability: 1.0 / children.len() as f64,
                selectivity: (c.count / table.n_rows() as f64).clamp(0.0, 1.0),
            })
            .collect(),
    };
    let run = || {
        let mut handler = SampleHandler::new(Arc::clone(table), config.clone());
        handler
            .try_run_prefetch_job(&job)
            .map_err(|e| e.to_string())
    };
    run()?;
    let serial_ms = median_ms(5, run);
    let parallel_ms = with_threads(nproc(), || median_ms(5, run));
    Ok(vec![Metric::new(
        "sampling.prefetch_parallel_speedup",
        serial_ms / parallel_ms,
        "ratio",
    )])
}

/// What [`table`] measured, plus the two unit costs the ladder prices the
/// `table` layer's estimated self time with.
pub struct TableProbe {
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly.
    pub exact: Vec<(String, f64)>,
    /// Milliseconds to load and decode one spilled segment.
    pub segment_load_ms: f64,
    /// Milliseconds to range-read two columns of one spilled segment.
    pub read_columns_ms: f64,
}

/// `table`: shard + spill build, one segment load, one two-column range
/// read, and the spill footprint — over a spilling copy of `table` built
/// under `scratch` with the workload's shard layout.
pub fn table(table: &Arc<Table>, sizing: &Sizing, scratch: &Path) -> Result<TableProbe, String> {
    let config = ShardConfig::spilling(sizing.shards, sizing.resident, scratch);
    let t = Instant::now();
    let sharded = ShardedTable::from_table(table, &config).map_err(|e| e.to_string())?;
    let shard_build_s = t.elapsed().as_secs_f64();

    let shards = sharded.n_shards();
    let load: Vec<f64> = (0..shards)
        .map(|i| {
            sharded.evict_all();
            let t = Instant::now();
            let seg = sharded.try_segment(i).map_err(|e| e.to_string());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            seg.map(|_| ms)
        })
        .collect::<Result<_, _>>()?;
    sharded.evict_all();
    let cols: Vec<usize> = (0..table.n_columns().min(2)).collect();
    let read: Vec<f64> = (0..shards)
        .map(|i| {
            let t = Instant::now();
            let columns = sharded.read_columns(i, &cols).map_err(|e| e.to_string());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            columns.map(|_| ms)
        })
        .collect::<Result<_, _>>()?;
    let spill_bytes: u64 = (0..shards)
        .filter_map(|i| sharded.spill_path(i))
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();

    let (segment_load_ms, read_columns_ms) = (stats::median(&load), stats::median(&read));
    Ok(TableProbe {
        metrics: vec![
            Metric::new("table.shard_build_s", shard_build_s, "s"),
            Metric::new("table.segment_load_ms", segment_load_ms, "ms"),
            Metric::new("table.read_columns_ms", read_columns_ms, "ms"),
            Metric::new(
                "table.bytes_per_row",
                spill_bytes as f64 / table.n_rows().max(1) as f64,
                "B",
            ),
        ],
        exact: vec![("table.spill_bytes".to_owned(), spill_bytes as f64)],
        segment_load_ms,
        read_columns_ms,
    })
}

/// Metrics, and the exact counts among them.
pub type Measured = (Vec<Metric>, Vec<(String, f64)>);

/// The append path, top to bottom, on a live table seeded with `seed_rows`
/// and grown by `batches`: parsing an `append` line (`server`), handling
/// it (`server` + `table`), the bare `LiveTable::try_append` (`table`),
/// and catching a session's samples up afterwards (`sampling`).
pub fn live(
    header: &[String],
    seed_rows: &[Vec<String>],
    batches: &[Vec<Vec<String>>],
    sizing: &Sizing,
) -> Result<Measured, String> {
    let seeded = || -> Result<Arc<LiveTable>, String> {
        let schema = Schema::new(header.iter().cloned()).map_err(|e| e.to_string())?;
        let live = LiveTable::new(
            schema,
            vec![],
            &LiveTableConfig::in_memory(sizing.live_segment_rows),
        )
        .map_err(|e| e.to_string())?;
        live.try_append(seed_rows, &[]).map_err(|e| e.to_string())?;
        Ok(Arc::new(live))
    };
    let batch_rows = batches.first().map_or(0, Vec::len) as f64;

    // Bare table appends, with a sampling session kept in step.
    let live = seeded()?;
    let mut handler = SampleHandler::with_store(
        TableStore::from(Arc::clone(&live)),
        SampleHandlerConfig::default(),
    );
    let trivial = Rule::trivial(header.len());
    handler
        .try_get_sample(&trivial)
        .map_err(|e| e.to_string())?;
    let (mut append_ms, mut sync_ms) = (Vec::new(), Vec::new());
    for batch in batches {
        let t = Instant::now();
        let snap = live.try_append(batch, &[]).map_err(|e| e.to_string())?;
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        handler
            .try_sync_to_snapshot(&snap)
            .map_err(|e| e.to_string())?;
        sync_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let sealed = live.segments_sealed();
    drop((handler, live));

    // The same batches through the protocol.
    let engine = Engine::with_store(
        TableStore::from(seeded()?),
        EngineConfig {
            tail: Some(TailConfig::default()),
            ..EngineConfig::default()
        },
    );
    let (mut parse_ms, mut handle_ms) = (Vec::new(), Vec::new());
    for batch in batches {
        let line = Request::Append {
            rows: batch.clone(),
            measures: Vec::new(),
        }
        .to_json()
        .to_string();
        let t = Instant::now();
        let request = parse_request_line(&line)?;
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let (response, _) = engine.handle(&request);
        handle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !matches!(response, sdd_server::Response::Appended { .. }) {
            return Err(format!("append probe answered {response:?}"));
        }
    }

    let table_append_ms = stats::median(&append_ms);
    Ok((
        vec![
            Metric::new("server.parse_append_ms", stats::median(&parse_ms), "ms"),
            Metric::new("server.append_ms", stats::median(&handle_ms), "ms"),
            Metric::new("table.append_ms", table_append_ms, "ms"),
            Metric::new(
                "table.append_rows_per_s",
                batch_rows / (table_append_ms / 1e3),
                "1/s",
            ),
            Metric::new("sampling.sync_ms", stats::median(&sync_ms), "ms"),
        ],
        vec![("table.segments_sealed".to_owned(), sealed as f64)],
    ))
}
