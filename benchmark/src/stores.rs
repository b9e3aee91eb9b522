//! Set-up: from the generated input file on disk to a store ready to
//! serve. This is what `setup_s` times — reading, parsing and building,
//! plus sharding and spilling, plus seeding the live head. Generating the
//! input file is not part of it.

use crate::scale::Sizing;
use sdd_table::csv::{read_csv, RecordReader};
use sdd_table::{LiveTable, LiveTableConfig, Schema, ShardConfig, ShardedTable, Table, TableStore};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A store and how long its stages took to build.
pub struct Built<S> {
    /// The store.
    pub store: S,
    /// Seconds from opening the file to a parsed monolithic table (or, for
    /// the live store, to parsed rows).
    pub load_s: f64,
    /// Seconds sharding + spilling, or seeding the live head.
    pub build_s: f64,
    /// Rows loaded.
    pub rows: usize,
}

/// Reads and parses a CSV file into a monolithic table.
pub fn load_table(csv: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(csv).map_err(|e| format!("read {}: {e}", csv.display()))?;
    read_csv(&text).map_err(|e| format!("parse {}: {e}", csv.display()))
}

/// The monolithic resident store.
pub fn resident(csv: &Path) -> Result<Built<Arc<Table>>, String> {
    let t = Instant::now();
    let table = Arc::new(load_table(csv)?);
    Ok(Built {
        rows: table.n_rows(),
        store: table,
        load_s: t.elapsed().as_secs_f64(),
        build_s: 0.0,
    })
}

/// The sharded, spilling store: parsed like the resident one, then
/// partitioned with every segment written under `spill_dir`.
pub fn spilling(
    csv: &Path,
    sizing: &Sizing,
    spill_dir: &Path,
) -> Result<Built<Arc<ShardedTable>>, String> {
    let t = Instant::now();
    let table = load_table(csv)?;
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sharded = ShardedTable::from_table(
        &table,
        &ShardConfig::spilling(sizing.shards, sizing.resident, spill_dir),
    )
    .map_err(|e| format!("shard + spill: {e}"))?;
    Ok(Built {
        rows: table.n_rows(),
        store: Arc::new(sharded),
        load_s,
        build_s: t.elapsed().as_secs_f64(),
    })
}

/// The first `n` data records of a CSV file, and its header.
pub fn read_rows(
    csv: &Path,
    skip: usize,
    n: usize,
) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
    let file = std::fs::File::open(csv).map_err(|e| format!("open {}: {e}", csv.display()))?;
    let mut reader = RecordReader::new(std::io::BufReader::new(file));
    let header = reader
        .next()
        .ok_or("empty input file")?
        .map_err(|e| e.to_string())?;
    let rows: Vec<Vec<String>> = reader
        .skip(skip)
        .take(n)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    if rows.len() != n {
        return Err(format!(
            "{} holds {} rows after the first {skip}, {n} needed",
            csv.display(),
            rows.len()
        ));
    }
    Ok((header, rows))
}

/// The live store: an in-memory live table whose head is seeded with the
/// first `live_seed_rows` rows of the file as epoch 1.
pub fn live(csv: &Path, sizing: &Sizing) -> Result<Built<Arc<LiveTable>>, String> {
    let t = Instant::now();
    let (header, rows) = read_rows(csv, 0, sizing.live_seed_rows)?;
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let schema = Schema::new(header).map_err(|e| e.to_string())?;
    let live = LiveTable::new(
        schema,
        vec![],
        &LiveTableConfig::in_memory(sizing.live_segment_rows),
    )
    .map_err(|e| e.to_string())?;
    live.try_append(&rows, &[]).map_err(|e| e.to_string())?;
    Ok(Built {
        rows: rows.len(),
        store: Arc::new(live),
        load_s,
        build_s: t.elapsed().as_secs_f64(),
    })
}

/// Runs `build` [`crate::scale::SETUPS`] times, one after the other (each
/// store is dropped before the next is built, so the run's peak memory is
/// that of one set-up), and returns the last store with every set-up's
/// wall time in seconds.
pub fn repeated<S>(
    times: usize,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), seconds))
}

/// Column names of a store, for the visit scripts.
pub fn column_names(store: &TableStore) -> Arc<Vec<String>> {
    Arc::new(
        (0..store.n_columns())
            .map(|c| store.schema().column_name(c).to_owned())
            .collect(),
    )
}
