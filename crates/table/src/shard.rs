//! Sharded columnar storage for larger-than-memory drill-down.
//!
//! A [`ShardedTable`] partitions a table's rows into **fixed, deterministic
//! contiguous segments** (the shard *layout* is [`chunk_spans`] of the row
//! count and shard count — a pure function of both, never of machine or
//! thread count). Each shard is, for the table's whole life, **resident or
//! spilled**:
//!
//! * **resident** — a [`ShardSegment`]: a small [`Table`] whose columns
//!   are the shard's rows in the **global** code space (codes identical to
//!   the monolithic table's), so any scan over a segment performs exactly
//!   the operations the same rows would produce in the monolithic table.
//!   Every shard of a table built without a spill directory is resident, as
//!   are a live table's unsealed tail and, without a spill directory, its
//!   sealed segments;
//! * **spilled** — a file on disk, written once at construction and read
//!   on demand. The spill format (`SDDSHRD2`) is local-dictionary coded:
//!   per column a `remap` array lists the global codes in first-appearance
//!   order within the shard, and the rows store local codes at the
//!   narrowest byte width (1/2/4) that fits the shard-local cardinality; a
//!   per-column offset table in the header lets readers fetch individual
//!   columns with positioned range reads. Decoding remaps local → global,
//!   so a spill → decode round-trip reproduces the segment bit-for-bit.
//!   The spill coding is also directly scannable **without** decoding:
//!   [`ShardedTable::read_columns`] range-reads individual columns as
//!   [`RawColumn`]s (`remap` + packed [`Codes`]), and `sdd-core`'s
//!   pushdown scans translate predicates into local code space and run
//!   over the packed bytes. It is the **one** spill reader: a segment
//!   decode and a gather read every column through it. Each read validates
//!   the header and checks the file length against the offset table before
//!   reading a blob, so every buffer is sized from validated offsets and a
//!   read allocates what the format allows, never what the file holds.
//!
//! A read of a spilled shard is **transient**: scans and gathers drop what
//! they read, and [`ShardedTable::try_segment`] decodes a fresh segment on
//! every call and hands it over. No spilled shard is ever decoded and kept,
//! so a spilling table holds its header, its measure columns and its
//! resident shards — nothing that grows with use.
//!
//! Every table is built by **one segment writer**, which interns rows,
//! seals each full segment through one function that spills it or keeps
//! it resident, and freezes its sealed segments and open rows into a
//! [`ShardedTable`]. Three producers drive it: [`ShardedTable::from_table`]
//! slices an already-materialized [`Table`] over that table's
//! dictionaries; [`ShardBuilder`] **streams** rows in without ever
//! materializing the monolithic table — sealing and spilling each segment
//! the moment its span fills, so ingest peak memory is one segment plus
//! dictionaries (see the builder docs for why the two builds are
//! bit-identical); and [`LiveTable`] seals every `rows_per_segment` rows
//! and freezes once per append.
//!
//! ## Determinism contract
//!
//! The shard layout partitions `[0, n_rows)` in order, so iterating shards
//! in index order visits rows in exactly the monolithic row order. The
//! segment scans in `sdd-core` exploit this: per-shard hit lists
//! concatenate and per-shard integer counts add up to exactly the
//! monolithic result, for **any** shard count, resident or spilled: a
//! spilled shard decodes to exactly the resident segment's bytes.
//!
//! Measure columns stay fully resident inside the [`ShardedTable`] (8 bytes
//! per row per measure); only the dictionary-coded categorical columns
//! shard and spill.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::view::chunk_spans;
use crate::{with_codes, Code, Codes, Dictionary, RowId, Schema, Table, TableError};
use rustc_hash::FxHashMap;
use std::io::{self, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of a [`ShardedTable`].
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Number of shards (clamped to ≥ 1; also clamped to the row count by
    /// the layout, which never creates empty shards for non-empty tables).
    pub shards: usize,
    /// Directory for spill files: `Some` spills every shard, `None` keeps
    /// every shard resident. Each `ShardedTable` creates a unique
    /// subdirectory inside it and removes that subdirectory on drop.
    pub spill_dir: Option<PathBuf>,
}

impl ShardConfig {
    /// A fully-resident layout with `shards` shards (no spill).
    pub fn in_memory(shards: usize) -> Self {
        Self {
            shards,
            spill_dir: None,
        }
    }

    /// A spilling layout: `shards` shards, every one spilled under `dir`.
    /// The middle argument is ignored; the repository benchmark still
    /// passes it (drop it with ROADMAP item 1(d)).
    pub fn spilling(shards: usize, _ignored: usize, dir: impl Into<PathBuf>) -> Self {
        Self {
            shards,
            spill_dir: Some(dir.into()),
        }
    }
}

/// One resident shard: the shard's rows as a small [`Table`] in the
/// **global** code space (same codes as the monolithic table), plus the
/// global row span it covers.
///
/// A segment shares its [`ShardedTable`]'s dictionary handles. A live
/// table's sealed segment is built once, when it seals, and every later
/// snapshot holds that one segment: its handles are the seal epoch's — a
/// prefix of every later epoch's dictionaries that covers every code in the
/// segment — so read codes from a segment and metadata from
/// [`ShardedTable::header`].
#[derive(Debug)]
pub struct ShardSegment {
    span: Range<usize>,
    table: Table,
}

impl ShardSegment {
    /// The global row range `[start, end)` this segment holds.
    pub fn span(&self) -> Range<usize> {
        self.span.clone()
    }

    /// The segment's rows as a table (row `i` is global row
    /// `span().start + i`).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The shard-local column of column `c`, in global codes.
    pub fn col(&self, c: usize) -> &Codes {
        self.table().column(c)
    }
}

/// One spilled column in its on-disk coding: the `remap` array (local →
/// global codes, in first-appearance order within the shard) plus the rows
/// as packed [`Codes`] at the narrowest width the shard-local cardinality
/// fits — exactly the bytes on disk, decoded to the matching integer type
/// (the 1-byte form is the read buffer itself, its remap prefix dropped in
/// place: no second allocation). This is what the spill-tier predicate
/// pushdown scans — no global-code materialization.
///
/// Loaded columns are validated once — the largest local code, found by a
/// vectorized max-reduction, is `< remap.len()` — so `remap[code as usize]`
/// indexing never faults afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawColumn {
    remap: Vec<u32>,
    codes: Codes,
}

impl RawColumn {
    /// Local → global code map (the shard-local dictionary image), in
    /// first-appearance order. `remap.len()` is the shard-local
    /// cardinality.
    pub fn remap(&self) -> &[u32] {
        &self.remap
    }

    /// The rows as packed local codes.
    pub fn codes(&self) -> &Codes {
        &self.codes
    }

    /// The local code for global code `g`, or `None` when `g` never occurs
    /// in this shard — the pushdown zero-count test: a predicate whose
    /// value is absent from `remap` covers no row of the shard, so the
    /// whole shard can be skipped without touching its rows.
    pub fn local_of_global(&self, g: u32) -> Option<u32> {
        self.remap.iter().position(|&x| x == g).map(|p| p as u32)
    }
}

/// One shard, in the form it keeps for its table's whole life.
#[derive(Debug, Clone)]
enum Shard {
    /// Decoded in memory, scanned and gathered in place.
    Resident(Arc<ShardSegment>),
    /// On disk, read on demand and never kept decoded.
    Spilled(Arc<SpillFile>),
}

/// Measure names must differ from every categorical column and each other.
fn require_distinct_measures(schema: &Schema, measures: &[String]) -> Result<(), TableError> {
    for (i, name) in measures.iter().enumerate() {
        if schema.index_of(name).is_ok() || measures[..i].contains(name) {
            return Err(TableError::DuplicateColumn(name.clone()));
        }
    }
    Ok(())
}

/// The private spill subdirectory of one table, builder, or live table,
/// removed (best effort) when the last owner drops. Shared by `Arc` so a
/// live table's epoch snapshots can outlive each other in any order.
#[derive(Debug)]
struct SpillRoot {
    dir: PathBuf,
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        // Non-recursive by design: every file inside is owned by a
        // `SpillFile` holding an `Arc` to this root, so the directory is
        // empty by the time the last root handle drops.
        let _ = std::fs::remove_dir(&self.dir);
    }
}

/// One spill file, deleted when its last owner drops. Epoch snapshots of a
/// live table share sealed segments by `Arc`, so a superseded snapshot can
/// drop while newer ones keep reading the same bytes.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    /// Keeps the directory alive until every file in it is gone.
    _root: Arc<SpillRoot>,
}

impl SpillFile {
    fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Monotonic tag making every `ShardedTable`'s spill subdirectory unique
/// within the process (plus the pid across processes).
static SPILL_TAG: AtomicU64 = AtomicU64::new(0);

/// A table partitioned into fixed columnar shard segments with an optional
/// on-disk spill tier. See the module docs for the layout, spill format,
/// and determinism contract.
#[derive(Debug)]
pub struct ShardedTable {
    header: Arc<Table>,
    measures: Vec<(String, Vec<f64>)>,
    spans: Vec<Range<usize>>,
    /// One per span, fixed at build.
    shards: Vec<Shard>,
    spill_root: Option<Arc<SpillRoot>>,
    /// Spill reads since construction.
    loads: AtomicU64,
}

impl ShardedTable {
    /// Partitions `table` according to `config`: with a spill directory
    /// every shard is encoded to disk at once and spilled, without one every
    /// shard is resident. The shards are sealed by the same segment writer
    /// as a streaming build's, over `table`'s own dictionaries.
    pub fn from_table(table: &Table, config: &ShardConfig) -> io::Result<ShardedTable> {
        let measures = table
            .measure_names()
            .filter_map(|n| {
                // Listed names always resolve on their own table; the filter
                // only exists to keep this path panic-free.
                let m = table.measure(n);
                debug_assert!(m.is_ok(), "measure {n} listed but missing");
                Some((n.to_owned(), m.ok()?.to_vec()))
            })
            .collect();
        let mut writer = SegmentWriter::new(
            table.schema().clone(),
            table.dictionaries().to_vec(),
            measures,
            config.spill_dir.as_deref(),
        )?;
        for span in chunk_spans(table.n_rows(), config.shards.max(1)) {
            let segs = &mut writer.segments;
            for (c, col) in segs.open.iter_mut().enumerate() {
                col.extend_from(table.column(c), span.clone());
            }
            segs.open_rows += span.len();
            writer.seal(span.len())?;
        }
        Ok(writer.freeze())
    }

    /// The always-resident header: a zero-row [`Table`] carrying the
    /// schema, the global dictionaries, and the measure names. Weight
    /// functions, rule construction, and display read only this.
    pub fn header(&self) -> &Arc<Table> {
        &self.header
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.header.schema()
    }

    /// Total number of rows across all shards.
    pub fn n_rows(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end)
    }

    /// Number of categorical columns.
    pub fn n_columns(&self) -> usize {
        self.header.n_columns()
    }

    /// The global dictionary of column `col`.
    pub fn dictionary(&self, col: usize) -> &Dictionary {
        self.header.dictionary(col)
    }

    /// Number of distinct values in column `col` (global).
    pub fn cardinality(&self, col: usize) -> usize {
        self.header.cardinality(col)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.spans.len()
    }

    /// The shard spans, in order; they partition `[0, n_rows)`.
    pub fn spans(&self) -> &[Range<usize>] {
        &self.spans
    }

    /// The shard holding global row `row`.
    ///
    /// # Errors
    ///
    /// [`TableError::RowOutOfRange`] for a row the table does not hold.
    pub fn shard_of_row(&self, row: RowId) -> Result<usize, TableError> {
        let (row, n_rows) = (row as usize, self.n_rows());
        if row >= n_rows {
            return Err(TableError::RowOutOfRange { row, n_rows });
        }
        // First span whose end exceeds row.
        Ok(self.spans.partition_point(|s| s.end <= row))
    }

    /// Shard `i`.
    ///
    /// # Errors
    ///
    /// [`TableError::ShardOutOfRange`] for `i >= n_shards()`.
    fn shard(&self, i: usize) -> Result<&Shard, TableError> {
        self.shards.get(i).ok_or(TableError::ShardOutOfRange {
            shard: i,
            n_shards: self.n_shards(),
        })
    }

    /// The segment for shard `i` in decoded (global-code) form: the resident
    /// segment itself, or a spilled shard decoded from its file — a fresh
    /// copy on every call, counted in [`ShardedTable::loads`] and never
    /// kept, so it lives exactly as long as the caller holds it.
    ///
    /// # Errors
    ///
    /// [`TableError::Corrupt`] when the spill file fails validation (bad
    /// magic, shape mismatch, bad offsets, a length other than the offset
    /// table's, a bad width, an out-of-range local or global code, trailing
    /// bytes), [`TableError::Io`] when reading it fails,
    /// [`TableError::ShardOutOfRange`] for `i >= n_shards()`.
    pub fn try_segment(&self, i: usize) -> Result<Arc<ShardSegment>, TableError> {
        match self.shard(i)? {
            Shard::Resident(seg) => Ok(Arc::clone(seg)),
            Shard::Spilled(_) => {
                let cols = globalize(&self.read_raw(i)?, &self.header);
                Ok(segment(&self.header, &self.measures, &self.spans[i], cols))
            }
        }
    }

    /// Reads shard `i`'s whole spill file in its on-disk coding: a
    /// [`ShardedTable::read_columns`] of every column.
    fn read_raw(&self, i: usize) -> Result<Vec<RawColumn>, TableError> {
        self.read_columns(i, &(0..self.n_columns()).collect::<Vec<_>>())
    }

    /// Shard `i`'s segment when it is resident, `None` when it is spilled
    /// (or past the last shard) — a lookup, never I/O. Lets a scan use a
    /// resident segment in place before deciding how to read a spilled one
    /// ([`ShardedTable::read_columns`]).
    pub fn resident_segment(&self, i: usize) -> Option<&Arc<ShardSegment>> {
        match self.shards.get(i)? {
            Shard::Resident(seg) => Some(seg),
            Shard::Spilled(_) => None,
        }
    }

    /// Range-reads **only** `cols` of spilled shard `i` (one `pread` per
    /// column via the file's offset table, each buffer sized from the
    /// validated offsets) and returns them in request order. Segment decodes
    /// and gathers are this read of every column. The result is
    /// *transient*, so a covered-rows scan that needs two of fifty columns
    /// neither reads nor decodes the other forty-eight. Counts as a load in
    /// [`ShardedTable::loads`].
    ///
    /// # Errors
    ///
    /// As [`ShardedTable::try_segment`]; additionally [`TableError::Io`]
    /// for a resident shard, which has no file (scans ask
    /// [`ShardedTable::resident_segment`] first).
    pub fn read_columns(&self, i: usize, cols: &[usize]) -> Result<Vec<RawColumn>, TableError> {
        let Shard::Spilled(file) = self.shard(i)? else {
            debug_assert!(false, "read_columns on a resident shard");
            return Err(TableError::Io(format!(
                "shard {i} is resident: it has no spill file to range-read"
            )));
        };
        let out = read_spill_columns(file.path(), cols, &self.header, self.spans[i].len())?;
        self.loads.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Materializes `rows` (global ids, in the given order) into a new
    /// in-memory [`Table`] that preserves the global dictionaries — see
    /// [`Table::gather_rows`]. A [`ShardedTable::try_gather_batch`] of one.
    ///
    /// # Errors
    ///
    /// As [`ShardedTable::try_gather_batch`].
    pub fn try_gather_rows(&self, rows: &[RowId]) -> Result<Table, TableError> {
        // One table per row list, by construction.
        Ok(self.try_gather_batch(&[rows])?.swap_remove(0))
    }

    /// Materializes every row list of `batch` — the samples one scan drew —
    /// into its own in-memory [`Table`] (row `i` of table `s` is
    /// `batch[s][i]`; global dictionaries preserved, as
    /// [`Table::gather_rows`]), visiting each touched shard **once for the
    /// whole batch**.
    ///
    /// Output positions are bucketed by shard, whatever order the rows
    /// arrive in (reservoir samples are scrambled). A resident shard is
    /// copied from in place; a spilled one is read **transiently** in its
    /// spill coding, fully validated, and only the picked rows are
    /// translated through `remap` — no segment is decoded, and at most one
    /// shard's read is held at a time. A gather therefore costs one load per
    /// touched spilled shard however many samples share it.
    ///
    /// # Errors
    ///
    /// As [`ShardedTable::try_segment`]; [`TableError::RowOutOfRange`] for
    /// a row id the table does not hold.
    pub fn try_gather_batch(&self, batch: &[&[RowId]]) -> Result<Vec<Table>, TableError> {
        /// One output cell: row `local` of its shard goes to position `pos`
        /// of sample `sample`.
        struct Pick {
            sample: u32,
            pos: u32,
            local: u32,
        }
        let mut by_shard: Vec<Vec<Pick>> = Vec::new();
        by_shard.resize_with(self.n_shards(), Vec::new);
        for (sample, rows) in batch.iter().enumerate() {
            for (pos, &row) in rows.iter().enumerate() {
                let shard = self.shard_of_row(row)?;
                by_shard[shard].push(Pick {
                    sample: sample as u32,
                    pos: pos as u32,
                    local: row - self.spans[shard].start as RowId,
                });
            }
        }
        let n_cols = self.n_columns();
        let mut cols: Vec<Vec<Vec<u32>>> = batch
            .iter()
            .map(|rows| vec![vec![0; rows.len()]; n_cols])
            .collect();
        for (shard, picks) in by_shard.iter().enumerate() {
            if picks.is_empty() {
                continue;
            }
            match self.resident_segment(shard) {
                Some(seg) => {
                    for (c, codes) in (0..n_cols).map(|c| (c, seg.col(c))) {
                        with_codes!(codes, codes => {
                            for p in picks {
                                cols[p.sample as usize][c][p.pos as usize] =
                                    codes[p.local as usize].wide();
                            }
                        });
                    }
                }
                None => {
                    for (c, col) in self.read_raw(shard)?.iter().enumerate() {
                        for p in picks {
                            cols[p.sample as usize][c][p.pos as usize] =
                                col.remap[col.codes.at(p.local as usize) as usize];
                        }
                    }
                }
            }
        }
        Ok(batch
            .iter()
            .zip(cols)
            .map(|(rows, cols)| {
                let cols = cols
                    .iter()
                    .enumerate()
                    .map(|(c, col)| Codes::from_u32(self.cardinality(c), col))
                    .collect();
                let measures = self
                    .measures
                    .iter()
                    .map(|(name, vals)| {
                        let picked = rows.iter().map(|&r| vals[r as usize]).collect();
                        (name.clone(), picked)
                    })
                    .collect();
                Table::from_parts(
                    self.header.schema().clone(),
                    self.header.dictionaries().to_vec(),
                    cols,
                    measures,
                    rows.len(),
                )
            })
            .collect())
    }

    /// Spill reads since construction: one per [`ShardedTable::read_columns`],
    /// so one per spilled shard a scan, gather or segment decode visits.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Always `0`: nothing is cached, so nothing is evicted. Kept only for
    /// the repository benchmark; delete it with ROADMAP item 1(d).
    pub fn evictions(&self) -> u64 {
        0
    }

    /// Segments encoded to disk: the spilled shards, each written exactly
    /// once (`0` for a fully-resident table). A streaming build writes each
    /// segment as it seals and never reads it back — `spills() ==
    /// n_shards()` with `loads() == 0` until the first scan.
    pub fn spills(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| matches!(s, Shard::Spilled(_)))
            .count() as u64
    }

    /// The number of resident segments. Kept only for the repository
    /// benchmark's `table.peak_resident`; delete it with ROADMAP item 1(d).
    pub fn peak_resident(&self) -> usize {
        self.n_shards() - self.spills() as usize
    }

    /// The spill file of shard `i`, if shard `i` is spilled.
    pub fn spill_path(&self, i: usize) -> Option<&std::path::Path> {
        match self.shards.get(i)? {
            Shard::Spilled(file) => Some(file.path()),
            Shard::Resident(_) => None,
        }
    }

    /// The spill directory this table keeps alive, if any. Spill files are
    /// reference-counted across tables (live-table snapshots share sealed
    /// segments); the directory itself is removed when the last holder —
    /// table or spill file — drops.
    pub fn spill_dir(&self) -> Option<&std::path::Path> {
        self.spill_root.as_deref().map(|r| r.dir.as_path())
    }

    /// Does nothing: no spilled shard is kept decoded. Kept only for the
    /// repository benchmark; delete it with ROADMAP item 1(d).
    pub fn evict_all(&self) {}
}

fn segment_file_name(i: usize) -> String {
    format!("shard-{i:05}.seg")
}

/// Encodes segment `i` (the first `n_rows` global codes of each of `cols`)
/// into its file under `root` and returns the handle that deletes the file
/// when its last owner drops. The handle exists before the first byte is
/// written, so a failed write deletes whatever it left behind.
fn spill_segment(
    root: &Arc<SpillRoot>,
    i: usize,
    cols: &[Codes],
    n_rows: usize,
) -> io::Result<Arc<SpillFile>> {
    let file = SpillFile {
        path: root.dir.join(segment_file_name(i)),
        _root: Arc::clone(root),
    };
    write_segment(file.path(), cols, n_rows)?;
    Ok(Arc::new(file))
}

// Spill cleanup is reference-counted, not tied to the table's drop: each
// spill file deletes itself when its last `Arc` owner releases it, and the
// `SpillRoot` removes the (by then empty) directory when the last file and
// root handle are gone. A lone frozen table behaves exactly as before —
// dropping it deletes its files and directory — while a live table's epoch
// snapshots can share sealed segments and drop in any order.

// ---------------------------------------------------------------------------
// The segment writer
// ---------------------------------------------------------------------------

/// The sealed segments of a [`SegmentWriter`] and the open rows after them:
/// the part of the writer a live append stages on a copy of.
#[derive(Debug, Clone)]
struct Segments {
    /// The sealed spans, in row order.
    spans: Vec<Range<usize>>,
    /// One shard per sealed span, except the spans still in `parked`.
    sealed: Vec<Shard>,
    /// The codes of the last sealed spans of a writer without a spill
    /// directory, waiting for the next freeze to make them resident.
    parked: Vec<Vec<Codes>>,
    /// The open rows' global codes, one column each, each at the narrowest
    /// width its dictionary fits.
    open: Vec<Codes>,
    /// The number of open rows (a table may have no categorical column).
    open_rows: usize,
}

impl Segments {
    /// Rows sealed or open.
    fn n_rows(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end) + self.open_rows
    }

    /// Interns one row's categorical values (one per column) into `dicts`
    /// and appends their codes to the open rows. An open column whose
    /// dictionary outgrows its width is widened once, then and there.
    fn push<'v>(&mut self, dicts: &mut [Dictionary], cats: impl Iterator<Item = &'v str>) {
        for ((col, dict), v) in self.open.iter_mut().zip(dicts.iter_mut()).zip(cats) {
            col.push(dict.intern(v));
        }
        self.open_rows += 1;
    }

    /// Seals the first `len` open rows as the next segment. This is where
    /// every build decides spilled or resident: under a spill root the
    /// segment's file is written now, and the rows leave the open set only
    /// once it is; without one its codes are parked until the next freeze,
    /// which makes them a resident segment under that freeze's
    /// dictionaries.
    fn seal(&mut self, root: Option<&Arc<SpillRoot>>, len: usize) -> io::Result<()> {
        debug_assert!(len <= self.open_rows);
        let start = self.spans.last().map_or(0, |s| s.end);
        match root {
            Some(root) => {
                let file = spill_segment(root, self.spans.len(), &self.open, len)?;
                for col in &mut self.open {
                    col.split_front(len);
                }
                self.sealed.push(Shard::Spilled(file));
            }
            None => {
                let cols = self.open.iter_mut().map(|col| col.split_front(len));
                self.parked.push(cols.collect());
            }
        }
        self.spans.push(start..start + len);
        self.open_rows -= len;
        Ok(())
    }
}

/// The one segment writer: [`ShardedTable::from_table`], [`ShardBuilder`]
/// and [`LiveTable`] all build their tables with it. It interns rows in
/// first-appearance order, seals segments through [`Segments::seal`], and
/// [`SegmentWriter::freeze`]s its sealed segments and open rows into a
/// [`ShardedTable`] — once for a build, once per epoch for a live table.
#[derive(Debug)]
struct SegmentWriter {
    schema: Schema,
    /// This writer's spill subdirectory: `Some` spills every sealed segment.
    spill_root: Option<Arc<SpillRoot>>,
    /// The growing dictionaries.
    dicts: Vec<Dictionary>,
    /// The last freeze's handles on `dicts`. Dictionaries only append, so a
    /// column whose length did not move since keeps its handle and every
    /// older handle is a prefix of every newer one.
    frozen_dicts: Vec<Arc<Dictionary>>,
    /// Every row's measure values, by measure name.
    measures: Vec<(String, Vec<f64>)>,
    segments: Segments,
}

impl SegmentWriter {
    /// A writer with no segments and no open rows whose dictionaries start
    /// as `dicts` and whose measure columns start as `measures`; with
    /// `spill_dir` it spills every segment into a private subdirectory of
    /// that directory.
    fn new(
        schema: Schema,
        dicts: Vec<Arc<Dictionary>>,
        measures: Vec<(String, Vec<f64>)>,
        spill_dir: Option<&std::path::Path>,
    ) -> io::Result<SegmentWriter> {
        let spill_root = match spill_dir {
            Some(dir) => {
                let tag = SPILL_TAG.fetch_add(1, Ordering::Relaxed);
                let root = dir.join(format!("sdd-shards-{}-{tag:04}", std::process::id()));
                std::fs::create_dir_all(&root)?;
                Some(Arc::new(SpillRoot { dir: root }))
            }
            None => None,
        };
        Ok(SegmentWriter {
            segments: Segments {
                spans: Vec::new(),
                sealed: Vec::new(),
                parked: Vec::new(),
                open: dicts
                    .iter()
                    .map(|d| Codes::for_cardinality(d.len()))
                    .collect(),
                open_rows: 0,
            },
            schema,
            spill_root,
            dicts: dicts.iter().map(|d| Dictionary::clone(d)).collect(),
            frozen_dicts: dicts,
            measures,
        })
    }

    /// Appends one row of measure values, in declaration order.
    fn push_measures(&mut self, values: &[f64]) {
        for ((_, col), &v) in self.measures.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// [`Segments::seal`] under this writer's spill root.
    fn seal(&mut self, len: usize) -> io::Result<()> {
        self.segments.seal(self.spill_root.as_ref(), len)
    }

    /// The table of every row so far: a header under fresh handles of the
    /// dictionaries that grew since the last freeze, the measure columns
    /// (cloned whole), the sealed segments — the parked ones made resident
    /// here, once — and the open rows as a resident segment of their own.
    fn freeze(&mut self) -> ShardedTable {
        for (frozen, dict) in self.frozen_dicts.iter_mut().zip(&self.dicts) {
            if frozen.len() != dict.len() {
                *frozen = Arc::new(dict.clone());
            }
        }
        let header_measures = self
            .measures
            .iter()
            .map(|(n, _)| (n.clone(), Vec::new()))
            .collect();
        let header = Arc::new(Table::from_parts(
            self.schema.clone(),
            self.frozen_dicts.clone(),
            vec![Codes::for_cardinality(0); self.schema.n_columns()],
            header_measures,
            0,
        ));
        let measures = self.measures.clone();
        let segs = &mut self.segments;
        for cols in segs.parked.drain(..) {
            let seg = segment(&header, &measures, &segs.spans[segs.sealed.len()], cols);
            segs.sealed.push(Shard::Resident(seg));
        }
        let (mut spans, mut shards) = (segs.spans.clone(), segs.sealed.clone());
        // The open rows get a span whenever there are any — and so does the
        // empty table, whose layout is the canonical single `0..0` span.
        if segs.open_rows > 0 || spans.is_empty() {
            let start = spans.last().map_or(0, |s| s.end);
            let span = start..start + segs.open_rows;
            let open = segment(&header, &measures, &span, segs.open.clone());
            spans.push(span);
            shards.push(Shard::Resident(open));
        }
        ShardedTable {
            header,
            measures,
            spans,
            shards,
            spill_root: self.spill_root.clone(),
            loads: AtomicU64::new(0),
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming builder
// ---------------------------------------------------------------------------

/// Streaming out-of-core construction of a [`ShardedTable`]: rows arrive
/// one at a time (from the CSV reader or any row source), global
/// dictionaries grow online, and each fixed-span segment is **sealed and
/// spilled the moment its last row arrives** — so peak memory during a
/// spilling build is one unsealed segment plus the dictionaries and measure
/// columns, never the whole table. The builder drives the segment writer
/// [`ShardedTable::from_table`] and [`LiveTable`] use: it seals at the
/// layout's span ends and freezes once, in [`ShardBuilder::finish`].
///
/// The span layout is [`chunk_spans`]`(total_rows, shards)` — a function of
/// the *total* row count — so the builder is told the total up front (the
/// CSV path counts records in a cheap first streaming pass; see
/// [`crate::csv::stream_csv_file`]) and [`ShardBuilder::finish`] rejects a
/// stream that delivered a different count. An abandoned build deletes the
/// spill files it wrote.
///
/// ## Bit-identity with [`ShardedTable::from_table`]
///
/// Global codes are assigned by [`Dictionary::intern`] in first-appearance
/// order. A stream that delivers rows in table order therefore interns
/// every value at exactly the moment the monolithic [`TableBuilder`] would
/// have, producing identical codes, identical segment columns, and — since
/// the spill encoder is a pure function of a segment's global codes —
/// byte-identical spill files. The cross-shard parity suite pins this for
/// every shard count, resident or spilled: a stream-built table is
/// indistinguishable from a materialize-then-shard build in every
/// drill-down transcript.
///
/// [`TableBuilder`]: crate::TableBuilder
#[derive(Debug)]
pub struct ShardBuilder {
    writer: SegmentWriter,
    /// The layout: [`chunk_spans`] of the declared row count.
    spans: Vec<Range<usize>>,
}

impl ShardBuilder {
    /// Starts a streaming build of `total_rows` rows under `config`.
    /// `measures` declares the numeric measure columns (fed per row through
    /// [`ShardBuilder::push_row`]; they stay fully resident, 8 bytes per
    /// row, exactly as in a materialized [`ShardedTable`]).
    pub fn new(
        schema: Schema,
        measures: Vec<String>,
        total_rows: usize,
        config: &ShardConfig,
    ) -> Result<ShardBuilder, TableError> {
        require_distinct_measures(&schema, &measures)?;
        let dicts = (0..schema.n_columns()).map(|_| Arc::default()).collect();
        let measures = measures
            .into_iter()
            .map(|n| (n, Vec::with_capacity(total_rows)))
            .collect();
        Ok(ShardBuilder {
            writer: SegmentWriter::new(schema, dicts, measures, config.spill_dir.as_deref())?,
            spans: chunk_spans(total_rows, config.shards.max(1)),
        })
    }

    /// The declared total row count.
    pub fn total_rows(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end)
    }

    /// Rows pushed so far.
    pub fn rows_pushed(&self) -> usize {
        self.writer.segments.n_rows()
    }

    /// Segments sealed (and, for a spilling build, written to disk) so far.
    pub fn segments_sealed(&self) -> usize {
        self.writer.segments.spans.len()
    }

    /// Appends one row: `cats` are the categorical values in schema order,
    /// `measures` the declared measure values in declaration order. Interns
    /// globally, buffers into the current segment, and seals/spills the
    /// segment when the row completes its span.
    pub fn push_row<S: AsRef<str>>(
        &mut self,
        cats: &[S],
        measures: &[f64],
    ) -> Result<(), TableError> {
        if cats.len() != self.writer.schema.n_columns() {
            return Err(TableError::ArityMismatch {
                expected: self.writer.schema.n_columns(),
                got: cats.len(),
            });
        }
        self.push_values(cats.iter().map(AsRef::as_ref), measures)
    }

    /// [`ShardBuilder::push_row`] of a row whose categorical values — one
    /// per column, which the caller guarantees — arrive as an iterator.
    pub(crate) fn push_values<'v>(
        &mut self,
        cats: impl Iterator<Item = &'v str>,
        measures: &[f64],
    ) -> Result<(), TableError> {
        if self.rows_pushed() >= self.total_rows() {
            return Err(TableError::RowCount {
                declared: self.total_rows(),
                got: self.rows_pushed() + 1,
            });
        }
        let w = &mut self.writer;
        if measures.len() != w.measures.len() {
            return Err(TableError::ArityMismatch {
                expected: w.measures.len(),
                got: measures.len(),
            });
        }
        w.segments.push(&mut w.dicts, cats);
        w.push_measures(measures);
        let span = self.spans.get(w.segments.spans.len());
        if let Some(span) = span.filter(|s| s.end == w.segments.n_rows()) {
            w.seal(span.len())?;
        }
        Ok(())
    }

    /// Completes the build. Fails with [`TableError::RowCount`] when fewer
    /// rows arrived than declared (dropping the builder deletes any spill
    /// files written).
    pub fn finish(mut self) -> Result<ShardedTable, TableError> {
        if self.rows_pushed() != self.total_rows() {
            return Err(TableError::RowCount {
                declared: self.total_rows(),
                got: self.rows_pushed(),
            });
        }
        // For an empty table the single `0..0` span never fills via
        // `push_row`; seal it here so the layout matches `from_table`.
        while let Some(span) = self.spans.get(self.writer.segments.spans.len()) {
            self.writer.seal(span.len())?;
        }
        Ok(self.writer.freeze())
    }
}

// ---------------------------------------------------------------------------
// Live (append-only) tables
// ---------------------------------------------------------------------------

/// Configuration of a [`LiveTable`].
#[derive(Debug, Clone)]
pub struct LiveTableConfig {
    /// Fixed rows per sealed segment (`C`, clamped to ≥ 1). Appended rows
    /// buffer in an always-resident tail until it fills, at which point the
    /// segment is sealed through the same seal every build uses.
    /// The segment layout of a live table is a pure function of its total
    /// row count and `C`, so a from-scratch rebuild of the same rows (in
    /// any append batching) produces byte-identical sealed spill files.
    pub rows_per_segment: usize,
    /// Spill directory for sealed segments: `Some` spills every sealed
    /// segment, `None` keeps them resident. The unsealed tail has no file
    /// and is always resident.
    pub spill_dir: Option<PathBuf>,
}

impl LiveTableConfig {
    /// A fully-resident live table sealing every `rows_per_segment` rows.
    pub fn in_memory(rows_per_segment: usize) -> Self {
        Self {
            rows_per_segment,
            spill_dir: None,
        }
    }

    /// A spilling live table: sealed segments spilled under `dir`.
    pub fn spilling(rows_per_segment: usize, dir: impl Into<PathBuf>) -> Self {
        Self {
            rows_per_segment,
            spill_dir: Some(dir.into()),
        }
    }
}

/// One epoch's frozen view of a [`LiveTable`]: an ordinary immutable
/// [`ShardedTable`] (every sharded scan, parity, and caching path works on
/// it unchanged) plus the epoch it captures. The rows an epoch added are
/// `older.table.n_rows()..newer.table.n_rows()` of two snapshots — the
/// range the sampling layer's reservoir maintenance sweeps.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// The frozen table. A snapshot copies what its append changed and
    /// shares the rest with its predecessors by `Arc`: sealed segments
    /// (spill files, or the decoded tables of a resident table) and the
    /// dictionary of every column that interned nothing. Only the unsealed
    /// tail (< `rows_per_segment` rows, always resident), the dictionaries
    /// that grew and the measure columns are copied per snapshot.
    pub table: Arc<ShardedTable>,
    /// The epoch this snapshot captures (number of appends so far).
    pub epoch: u64,
}

impl LiveSnapshot {
    /// Carries `base` — rows gathered from an **earlier** snapshot of the
    /// same live table — to this epoch: `base` with row `i` of `fresh`
    /// written at position `at[i]` (positions past `base`'s end extend it),
    /// under this snapshot's dictionary handles. With `fresh` this
    /// snapshot's gather of the rows that differ from the ones `base` was
    /// gathered for, the result equals this snapshot's gather of the whole
    /// new row list: a gathered row is a function of its row id alone, and
    /// dictionaries only append, so every kept code means what it meant.
    /// Nothing to write and no dictionary grown ⇒ `base` itself.
    pub fn patch_gathered(&self, base: &Arc<Table>, at: &[usize], fresh: &Table) -> Arc<Table> {
        fn patched<T: Copy + Default>(base: &[T], n: usize, at: &[usize], fresh: &[T]) -> Vec<T> {
            let mut out = Vec::with_capacity(n);
            out.extend_from_slice(base);
            out.resize(n, T::default());
            for (&p, &v) in at.iter().zip(fresh) {
                out[p] = v;
            }
            out
        }
        /// `out` padded to `n` rows with row `i` of `fresh` at `at[i]`.
        fn patch_codes<S: Code, D: Code>(out: &mut Vec<D>, n: usize, at: &[usize], fresh: &[S]) {
            out.resize(n, D::default());
            for (&p, &v) in at.iter().zip(fresh) {
                out[p] = D::narrow(v.wide());
            }
        }
        debug_assert_eq!(at.len(), fresh.n_rows());
        let header = self.table.header();
        let dicts = header.dictionaries();
        if at.is_empty()
            && base
                .dictionaries()
                .iter()
                .zip(dicts)
                .all(|(a, b)| Arc::ptr_eq(a, b))
        {
            return Arc::clone(base);
        }
        let n_rows = at.iter().fold(base.n_rows(), |n, &p| n.max(p + 1));
        let cols = (0..header.n_columns())
            .map(|c| {
                // The grown dictionary may need a wider column than `base`'s.
                let mut out = Codes::with_capacity(dicts[c].len(), n_rows);
                out.extend_from(base.column(c), 0..base.n_rows());
                with_codes!(&mut out, dst => with_codes!(fresh.column(c), src => {
                    patch_codes(dst, n_rows, at, src)
                }));
                out
            })
            .collect();
        let measures = base
            .measure_names()
            .filter_map(|name| {
                let (old, new) = (base.measure(name).ok()?, fresh.measure(name).ok()?);
                Some((name.to_owned(), patched(old, n_rows, at, new)))
            })
            .collect();
        let schema = header.schema().clone();
        Arc::new(Table::from_parts(
            schema,
            dicts.to_vec(),
            cols,
            measures,
            n_rows,
        ))
    }
}

#[derive(Debug)]
struct LiveState {
    writer: SegmentWriter,
    /// The current frozen snapshot of the writer's rows.
    current: LiveSnapshot,
    /// Loads of superseded snapshots, so the reported total never moves
    /// backwards across epochs.
    base_loads: u64,
}

/// An append-only table: rows arrive in batches, each batch bumps a
/// monotonic **epoch** and publishes a new frozen [`LiveSnapshot`].
///
/// * A live table drives the segment writer every [`ShardedTable`] is
///   built with: every `rows_per_segment` rows seal into an immutable
///   segment through the same seal as [`ShardedTable::from_table`] and
///   [`ShardBuilder`] (the same `SDDSHRD2` encoding), written to disk — or,
///   fully resident, wrapped in its table — exactly once; the remainder
///   stays open in an always-resident tail.
/// * Each append ends with one freeze of the writer. Snapshots are plain
///   [`ShardedTable`]s sharing the sealed segments and the unchanged
///   dictionaries by `Arc`, so an append costs what it adds (tail, grown
///   dictionaries, measure columns — see [`LiveSnapshot`]), every existing
///   sharded scan path works on them unchanged and a superseded snapshot
///   can outlive its successors without invalidating their files.
/// * Global codes are interned in first-appearance order (exactly as the
///   builders do), so a live table grown by any sequence of appends holds
///   the same codes — and byte-identical sealed spill files — as one grown
///   by a single append of all rows (the seal-boundary tests pin this).
/// * An append is staged on a copy of the open rows and committed only
///   once every segment it filled has spilled. A failed spill (I/O error)
///   drops the copy, which deletes the files the batch wrote, and truncates
///   the dictionaries to their prior lengths — a retry or a rebuild
///   observes no trace of the failure.
#[derive(Debug)]
pub struct LiveTable {
    schema: Schema,
    n_measures: usize,
    rows_per_segment: usize,
    /// Mirrors `state.current.epoch`; readable without the lock.
    epoch: AtomicU64,
    state: Mutex<LiveState>,
}

impl LiveTable {
    /// Creates an empty live table at epoch 0.
    pub fn new(
        schema: Schema,
        measures: Vec<String>,
        config: &LiveTableConfig,
    ) -> Result<LiveTable, TableError> {
        require_distinct_measures(&schema, &measures)?;
        let n_measures = measures.len();
        let dicts = (0..schema.n_columns()).map(|_| Arc::default()).collect();
        let measures = measures.into_iter().map(|n| (n, Vec::new())).collect();
        let mut writer =
            SegmentWriter::new(schema.clone(), dicts, measures, config.spill_dir.as_deref())?;
        let current = LiveSnapshot {
            table: Arc::new(writer.freeze()),
            epoch: 0,
        };
        Ok(LiveTable {
            schema,
            n_measures,
            rows_per_segment: config.rows_per_segment.max(1),
            epoch: AtomicU64::new(0),
            state: Mutex::new(LiveState {
                writer,
                current,
                base_loads: 0,
            }),
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Fixed rows per sealed segment (`C`).
    pub fn rows_per_segment(&self) -> usize {
        self.rows_per_segment
    }

    /// The current epoch (number of appends so far). Monotonic; readable
    /// without blocking an in-flight append.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Total rows visible in the current snapshot.
    pub fn n_rows(&self) -> usize {
        self.state().current.table.n_rows()
    }

    /// Sealed segments so far.
    pub fn segments_sealed(&self) -> usize {
        self.state().writer.segments.spans.len()
    }

    /// The current frozen snapshot (cheap: clones an `Arc`).
    pub fn snapshot(&self) -> LiveSnapshot {
        self.state().current.clone()
    }

    /// Storage counters `(loads, evictions, spills, peak_resident)` as
    /// [`TableStore::storage_counters`] reports them: loads across all
    /// epochs (the current snapshot's on top of its predecessors', so
    /// monotonic), the rest the current snapshot's.
    pub fn storage_counters(&self) -> (u64, u64, u64, usize) {
        let state = self.state();
        let t = &state.current.table;
        let loads = state.base_loads + t.loads();
        (loads, t.evictions(), t.spills(), t.peak_resident())
    }

    /// Locks the live state, tolerating a poisoned lock: every mutation
    /// either commits a consistent epoch or leaves the state as it was
    /// before unwinding, so continuing is strictly better than cascading
    /// the panic into spill-I/O paths that promise not to.
    fn state(&self) -> std::sync::MutexGuard<'_, LiveState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends a batch of rows, bumps the epoch, and returns the new
    /// snapshot. `cats[i]` are row `i`'s categorical values in schema
    /// order; `measures[i]` its measure values in declaration order (pass
    /// `&[]` when the table declares no measures). Appending an empty batch
    /// still bumps the epoch (a deliberate no-op data change).
    ///
    /// # Errors
    ///
    /// [`TableError::ArityMismatch`] on a malformed row (checked before any
    /// state changes); [`TableError::Io`] when sealing a segment fails —
    /// the table stays at the previous epoch.
    pub fn try_append<R, S>(
        &self,
        cats: &[R],
        measures: &[Vec<f64>],
    ) -> Result<LiveSnapshot, TableError>
    where
        R: AsRef<[S]>,
        S: AsRef<str>,
    {
        let n_cols = self.schema.n_columns();
        for row in cats {
            if row.as_ref().len() != n_cols {
                return Err(TableError::ArityMismatch {
                    expected: n_cols,
                    got: row.as_ref().len(),
                });
            }
        }
        if !(self.n_measures == 0 && measures.is_empty()) {
            if measures.len() != cats.len() {
                return Err(TableError::ArityMismatch {
                    expected: cats.len(),
                    got: measures.len(),
                });
            }
            for m in measures {
                if m.len() != self.n_measures {
                    return Err(TableError::ArityMismatch {
                        expected: self.n_measures,
                        got: m.len(),
                    });
                }
            }
        }

        let mut guard = self.state();
        let state = &mut *guard;
        let w = &mut state.writer;
        let dict_lens: Vec<usize> = w.dicts.iter().map(Dictionary::len).collect();
        // Stage on a copy of the segments: their handles plus the open rows
        // (fewer than `rows_per_segment`). Interning grows the dictionaries
        // in place, which is all a failed spill has to undo.
        let mut staged = w.segments.clone();
        for row in cats {
            staged.push(&mut w.dicts, row.as_ref().iter().map(AsRef::as_ref));
        }
        while staged.open_rows >= self.rows_per_segment {
            if let Err(e) = staged.seal(w.spill_root.as_ref(), self.rows_per_segment) {
                // Dropping `staged` deletes the files this batch spilled.
                for (dict, &len) in w.dicts.iter_mut().zip(&dict_lens) {
                    dict.truncate(len);
                }
                return Err(e.into());
            }
        }

        // Commit: adopt the staged segments, bump the epoch, publish.
        w.segments = staged;
        for m in measures {
            w.push_measures(m);
        }
        state.base_loads += state.current.table.loads();
        state.current = LiveSnapshot {
            table: Arc::new(w.freeze()),
            epoch: state.current.epoch + 1,
        };
        self.epoch.store(state.current.epoch, Ordering::Release);
        Ok(state.current.clone())
    }
}

/// Builds the decoded segment of `span`: a resident [`Table`] of the
/// global-coded columns plus the span's measure slices, sharing the
/// header's schema and — by `Arc`, not by clone — its global dictionaries:
/// every segment of a table holds pointer-identical dictionary handles, so
/// segment count never multiplies dictionary memory.
fn segment(
    header: &Table,
    measures: &[(String, Vec<f64>)],
    span: &Range<usize>,
    cols: Vec<Codes>,
) -> Arc<ShardSegment> {
    let sliced: Vec<(String, Vec<f64>)> = measures
        .iter()
        .map(|(n, vals)| (n.clone(), vals[span.clone()].to_vec()))
        .collect();
    let table = Table::from_parts(
        header.schema().clone(),
        header.dictionaries().to_vec(),
        cols,
        sliced,
        span.len(),
    );
    Arc::new(ShardSegment {
        span: span.clone(),
        table,
    })
}

// ---------------------------------------------------------------------------
// Spill encoding (v2, `SDDSHRD2`): per column a local dictionary (`remap`:
// global codes in first-appearance order) and the rows as local codes at the
// narrowest byte width that fits the shard-local cardinality. The fixed
// header carries a per-column **offset table** so a reader can `pread`
// exactly the column blobs it needs:
//
// ```text
// magic[8] = "SDDSHRD2"
// n_cols: u32 LE
// n_rows: u32 LE
// offsets: (n_cols + 1) × u64 LE     absolute file offsets; offsets[0] is
//                                    the header length, offsets[c]..
//                                    offsets[c+1] is column c's blob,
//                                    offsets[n_cols] is the file length
// column blob c:
//   remap_len: u32 LE
//   remap:     remap_len × u32 LE    local → global codes
//   width:     u8 ∈ {1, 2, 4}
//   data:      n_rows × width LE     packed local codes
// ```
//
// Encoding is a pure function of a segment's global codes, so two builds of
// the same rows produce byte-identical spill files (asserted in tests).
// ---------------------------------------------------------------------------

const SPILL_MAGIC: &[u8; 8] = b"SDDSHRD2";

/// Byte length of the fixed header (magic + shape + offset table).
fn header_len(n_cols: usize) -> usize {
    16 + 8 * (n_cols + 1)
}

/// Largest possible column blob for `n_rows` rows: 4-byte `remap_len`, a
/// remap of at most `n_rows` u32s (first-appearance order caps local
/// cardinality at the row count), the width byte, and 4-byte codes. Used to
/// reject corrupt offset tables before allocating read buffers from them.
fn max_blob_len(n_rows: usize) -> u64 {
    4 + 4 * n_rows as u64 + 1 + 4 * n_rows as u64
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn corrupt(msg: &str) -> TableError {
    TableError::Corrupt(msg.to_owned())
}

/// One column's local coding: the `remap` (global codes in
/// first-appearance order) and each row's local code.
fn localize<T: Code>(codes: &[T], index: &mut FxHashMap<u32, u32>) -> (Vec<u32>, Vec<u32>) {
    index.clear();
    let mut remap: Vec<u32> = Vec::new();
    let locals = codes
        .iter()
        .map(|&g| {
            *index.entry(g.wide()).or_insert_with(|| {
                remap.push(g.wide());
                remap.len() as u32 - 1
            })
        })
        .collect();
    (remap, locals)
}

/// Encodes one shard — the first `n_rows` global codes of each of `cols` —
/// into the spill format.
fn encode_segment(cols: &[Codes], n_rows: usize) -> Vec<u8> {
    let mut blobs: Vec<Vec<u8>> = Vec::with_capacity(cols.len());
    let mut index: FxHashMap<u32, u32> = FxHashMap::default();
    for col in cols {
        let (remap, locals) = with_codes!(col, v => localize(&v[..n_rows], &mut index));
        let mut blob = Vec::with_capacity(5 + 4 * remap.len() + locals.len());
        put_u32(&mut blob, remap.len() as u32);
        for &g in &remap {
            put_u32(&mut blob, g);
        }
        let width = Codes::width_for(remap.len());
        blob.push(width as u8);
        for &l in &locals {
            blob.extend_from_slice(&l.to_le_bytes()[..width]);
        }
        blobs.push(blob);
    }
    let hdr = header_len(cols.len());
    let mut out = Vec::with_capacity(hdr + blobs.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(SPILL_MAGIC);
    put_u32(&mut out, cols.len() as u32);
    put_u32(&mut out, n_rows as u32);
    let mut off = hdr as u64;
    out.extend_from_slice(&off.to_le_bytes());
    for b in &blobs {
        off += b.len() as u64;
        out.extend_from_slice(&off.to_le_bytes());
    }
    for b in &blobs {
        out.extend_from_slice(b);
    }
    out
}

fn write_segment(path: &std::path::Path, cols: &[Codes], n_rows: usize) -> io::Result<()> {
    let bytes = encode_segment(cols, n_rows);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    f.sync_data().ok(); // best effort; spill is rebuildable
    Ok(())
}

/// `u32` from the first 4 bytes of `s`; callers pass slices whose length
/// is already checked (`chunks_exact`, ranged indexing, `take`), so the
/// fixed-index form cannot fault where a `try_into().expect(..)` merely
/// promises not to.
fn le_u32(s: &[u8]) -> u32 {
    u32::from_le_bytes([s[0], s[1], s[2], s[3]])
}

/// `u64` from the first 8 bytes of `s`; same contract as [`le_u32`].
fn le_u64(s: &[u8]) -> u64 {
    u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
}

/// Validates magic + shape and returns the absolute offset table
/// (`n_cols + 1` entries; `offsets[c]..offsets[c+1]` is column `c`'s blob).
/// `hdr` must hold at least [`header_len`]`(expect_cols)` bytes.
fn parse_header(
    hdr: &[u8],
    expect_cols: usize,
    expect_rows: usize,
) -> Result<Vec<u64>, TableError> {
    if hdr.len() < header_len(expect_cols) {
        return Err(corrupt("truncated spill file"));
    }
    if &hdr[..8] != SPILL_MAGIC {
        return Err(corrupt("bad spill magic"));
    }
    let n_cols = le_u32(&hdr[8..12]) as usize;
    let n_rows = le_u32(&hdr[12..16]) as usize;
    if n_cols != expect_cols || n_rows != expect_rows {
        return Err(corrupt("spill shape mismatch"));
    }
    let offsets: Vec<u64> = hdr[16..16 + 8 * (n_cols + 1)]
        .chunks_exact(8)
        .map(le_u64)
        .collect();
    let sane = offsets[0] == header_len(n_cols) as u64
        && offsets
            .windows(2)
            .all(|w| w[0] <= w[1] && w[1] - w[0] <= max_blob_len(n_rows));
    if !sane {
        return Err(corrupt("bad spill offset table"));
    }
    Ok(offsets)
}

/// Parses one column blob (remap + width + packed codes) of a column with
/// `cardinality` global values, validating that every local code indexes
/// `remap` and every `remap` entry indexes the column's dictionary — after
/// this, `remap[code as usize]` never faults, which is what lets the
/// pushdown scans index unchecked, and a decoded code never faults a
/// per-value array downstream. A 1-byte column keeps `blob`'s allocation
/// as its codes.
fn parse_column_blob(
    mut blob: Vec<u8>,
    n_rows: usize,
    cardinality: usize,
) -> Result<RawColumn, TableError> {
    let truncated = || corrupt("truncated spill file");
    let remap_len = le_u32(blob.get(..4).ok_or_else(truncated)?) as usize;
    if remap_len > n_rows {
        // First-appearance order caps local cardinality at the row count.
        return Err(corrupt("remap larger than row count"));
    }
    let width_at = 4 + 4 * remap_len;
    let remap: Vec<u32> = blob
        .get(4..width_at)
        .ok_or_else(truncated)?
        .chunks_exact(4)
        .map(le_u32)
        .collect();
    let width = *blob.get(width_at).ok_or_else(truncated)?;
    if !matches!(width, 1 | 2 | 4) {
        return Err(corrupt("bad code width"));
    }
    let data = width_at + 1;
    let end = data + n_rows * width as usize;
    if blob.len() != end {
        return Err(if blob.len() < end {
            truncated()
        } else {
            corrupt("spill column blob has trailing bytes")
        });
    }
    let codes = match width {
        1 => {
            blob.drain(..data);
            Codes::W1(blob)
        }
        2 => Codes::W2(
            blob[data..]
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect(),
        ),
        _ => Codes::W4(blob[data..].chunks_exact(4).map(le_u32).collect()),
    };
    if !codes.is_empty() && codes.max() as usize >= remap_len {
        return Err(corrupt("local code out of range"));
    }
    let max_global = remap.iter().fold(0, |m, &g| m.max(g));
    if !remap.is_empty() && max_global as usize >= cardinality {
        return Err(corrupt("global code out of range"));
    }
    Ok(RawColumn { remap, codes })
}

/// Maps a short read to [`TableError::Corrupt`] (the file is shorter than
/// its header, or shrank after its length was checked), anything else to
/// [`TableError::Io`].
fn map_read_err(e: io::Error) -> TableError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        corrupt("truncated spill file")
    } else {
        TableError::from(e)
    }
}

/// Reads exactly `buf.len()` bytes at absolute `offset` — `pread` on unix
/// (positioned, no shared cursor, safe for concurrent readers of one
/// `File`), seek + read elsewhere.
fn read_at(f: &std::fs::File, offset: u64, buf: &mut [u8]) -> Result<(), TableError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        f.read_exact_at(buf, offset).map_err(map_read_err)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = f;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf).map_err(map_read_err)
    }
}

/// Range-reads `wanted` columns of a spill file of `header`'s table — the
/// one spill reader; a whole-segment read asks for every column. The fixed
/// header is read and validated first, and a file whose length is not
/// `offsets[n_cols]` is rejected before any blob is read, so every buffer
/// is sized from a validated offset table, never from the file. Then one
/// positioned read per requested blob: a scan that touches two columns
/// costs two column reads, not a whole-file parse.
fn read_spill_columns(
    path: &std::path::Path,
    wanted: &[usize],
    header: &Table,
    expect_rows: usize,
) -> Result<Vec<RawColumn>, TableError> {
    let expect_cols = header.n_columns();
    if let Some(c) = wanted.iter().find(|&&c| c >= expect_cols) {
        return Err(TableError::UnknownColumn(format!("column index {c}")));
    }
    let f = std::fs::File::open(path)?;
    let mut hdr = vec![0u8; header_len(expect_cols)];
    read_at(&f, 0, &mut hdr)?;
    let offsets = parse_header(&hdr, expect_cols, expect_rows)?;
    // parse_header returns exactly `expect_cols + 1` offsets.
    if offsets[expect_cols] != f.metadata()?.len() {
        return Err(corrupt("spill file length mismatch"));
    }
    wanted
        .iter()
        .map(|&c| {
            let (start, end) = (offsets[c], offsets[c + 1]);
            let mut blob = vec![0u8; (end - start) as usize];
            read_at(&f, start, &mut blob)?;
            parse_column_blob(blob, expect_rows, header.cardinality(c))
        })
        .collect()
}

/// Decodes raw spill columns into global-code columns of `header`'s
/// table via each column's `remap` (the loader validated every local and
/// global code, so indexing is total and every code fits its column's
/// width).
fn globalize(cols: &[RawColumn], header: &Table) -> Vec<Codes> {
    /// `dst` = `remap[l]` for every local code `l` of `locals`.
    fn remap_into<L: Code, G: Code>(dst: &mut Vec<G>, locals: &[L], remap: &[u32]) {
        dst.extend(locals.iter().map(|&l| G::narrow(remap[l.idx()])));
    }
    cols.iter()
        .enumerate()
        .map(|(c, col)| {
            let mut out = Codes::with_capacity(header.cardinality(c), col.codes.len());
            with_codes!(&mut out, dst => with_codes!(&col.codes, src => {
                remap_into(dst, src, &col.remap)
            }));
            out
        })
        .collect()
}

// ---------------------------------------------------------------------------
// ShardedView
// ---------------------------------------------------------------------------

/// Rows of a [`ShardedTable`] named by id, with optional per-row weights:
/// every row in order ([`ShardedView::all`]) or an explicit subset. It
/// carries no scan surface — searches run on gathered rows
/// ([`ShardedTable::try_gather_rows`]); this type only names which rows,
/// for `sdd_core::try_find_best_marginal_rule_sharded`.
#[derive(Debug, Clone)]
pub struct ShardedView {
    table: Arc<ShardedTable>,
    /// `None` = all rows in order (position `i` *is* row `i`).
    rows: Option<Vec<RowId>>,
    weights: Option<Vec<f64>>,
}

impl ShardedView {
    /// A view over every row, unit weights.
    pub fn all(table: Arc<ShardedTable>) -> Self {
        Self {
            table,
            rows: None,
            weights: None,
        }
    }

    /// A view over an explicit row subset, unit weights.
    pub fn with_rows(table: Arc<ShardedTable>, rows: Vec<RowId>) -> Self {
        debug_assert!(rows.iter().all(|&r| (r as usize) < table.n_rows()));
        Self {
            table,
            rows: Some(rows),
            weights: None,
        }
    }

    /// A view over an explicit row subset with per-tuple weights. Panics if
    /// lengths differ.
    pub fn with_rows_and_weights(
        table: Arc<ShardedTable>,
        rows: Vec<RowId>,
        weights: Vec<f64>,
    ) -> Self {
        // source-rules: allow(P001) precondition on two vectors the caller builds together; no I/O or request path constructs a view
        assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
        debug_assert!(rows.iter().all(|&r| (r as usize) < table.n_rows()));
        Self {
            table,
            rows: Some(rows),
            weights: Some(weights),
        }
    }

    /// The underlying sharded table.
    pub fn table(&self) -> &Arc<ShardedTable> {
        &self.table
    }

    /// Number of (row, weight) entries in the view.
    pub fn len(&self) -> usize {
        match &self.rows {
            None => self.table.n_rows(),
            Some(v) => v.len(),
        }
    }

    /// True if the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The explicit row-id slice, or `None` when the view covers all rows
    /// in order.
    #[inline]
    pub fn row_ids(&self) -> Option<&[RowId]> {
        self.rows.as_deref()
    }

    /// The per-tuple weight slice, or `None` for unit weights.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }
}

// ---------------------------------------------------------------------------
// TableStore
// ---------------------------------------------------------------------------

/// A [`LiveTable`] handle plus the epoch snapshot this holder is pinned
/// to. Scans always run against the pinned snapshot — an ordinary frozen
/// [`ShardedTable`] — so a holder observes one consistent epoch until it
/// explicitly re-pins; appends land concurrently without disturbing it.
#[derive(Debug, Clone)]
pub struct LiveStore {
    live: Arc<LiveTable>,
    pinned: LiveSnapshot,
}

impl LiveStore {
    /// Pins the table's current snapshot.
    pub fn new(live: Arc<LiveTable>) -> Self {
        let pinned = live.snapshot();
        LiveStore { live, pinned }
    }

    /// The underlying live table.
    pub fn live(&self) -> &Arc<LiveTable> {
        &self.live
    }

    /// The snapshot this holder currently observes.
    pub fn pinned(&self) -> &LiveSnapshot {
        &self.pinned
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.pinned.epoch
    }

    /// The table's newest epoch (may be ahead of [`LiveStore::epoch`]).
    pub fn latest_epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// Pins a specific snapshot. Holders advance only through this method,
    /// at points of their choosing (a session's sample handler syncs to one
    /// [`LiveTable::snapshot`] at operation prologues; see the determinism
    /// notes there). The snapshot must come from this store's live table;
    /// pins never move backwards (an older snapshot is ignored).
    pub fn pin(&mut self, snap: LiveSnapshot) {
        if snap.epoch >= self.pinned.epoch {
            self.pinned = snap;
        }
    }
}

/// The storage behind a drill-down session: one monolithic in-memory
/// [`Table`], a [`ShardedTable`] whose segments may live on disk, or a
/// pinned snapshot of an append-only [`LiveTable`].
///
/// The sampling layer, explorer, and server hold a `TableStore`; the
/// full-table scans over it (covered rows, exact counts) dispatch on the
/// store kind in one place, `sdd_core::shard`, and row materialisation in
/// [`TableStore::try_gather_batch`]; all *metadata* access (schema,
/// dictionaries, cardinalities — everything weight functions and display
/// need) goes through [`TableStore::header`], which for sharded storage is
/// the always-resident zero-row header table.
///
/// Cloning a `TableStore::Live` clones the pin: the copy observes the same
/// epoch until it re-pins.
#[derive(Debug, Clone)]
pub enum TableStore {
    /// A monolithic in-memory table.
    Whole(Arc<Table>),
    /// A sharded table with an optional spill tier.
    Sharded(Arc<ShardedTable>),
    /// An append-only live table, pinned to one epoch's snapshot.
    Live(LiveStore),
}

impl TableStore {
    /// Total number of rows (at the pinned epoch, for live storage).
    pub fn n_rows(&self) -> usize {
        match self {
            TableStore::Whole(t) => t.n_rows(),
            TableStore::Sharded(s) => s.n_rows(),
            TableStore::Live(l) => l.pinned.table.n_rows(),
        }
    }

    /// Number of categorical columns.
    pub fn n_columns(&self) -> usize {
        match self {
            TableStore::Whole(t) => t.n_columns(),
            TableStore::Sharded(s) => s.n_columns(),
            TableStore::Live(l) => l.pinned.table.n_columns(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        match self {
            TableStore::Whole(t) => t.schema(),
            TableStore::Sharded(s) => s.schema(),
            TableStore::Live(l) => l.pinned.table.schema(),
        }
    }

    /// The metadata table: the table itself for [`TableStore::Whole`], the
    /// zero-row header for sharded and live storage. Carries schema,
    /// dictionaries, and measure names — never rows; do not scan it.
    pub fn header(&self) -> &Arc<Table> {
        match self {
            TableStore::Whole(t) => t,
            TableStore::Sharded(s) => s.header(),
            TableStore::Live(l) => l.pinned.table.header(),
        }
    }

    /// The pinned epoch: `0` for frozen storage (a frozen table is a live
    /// table that never appends), the holder's pinned epoch for live.
    pub fn epoch(&self) -> u64 {
        match self {
            TableStore::Whole(_) | TableStore::Sharded(_) => 0,
            TableStore::Live(l) => l.epoch(),
        }
    }

    /// Storage-tier counters `(loads, evictions, spills, peak_resident)`:
    /// spill reads, `0`, spilled shards and resident shards — the table's
    /// own for `Sharded`, [`LiveTable::storage_counters`] (loads across all
    /// epochs) for `Live`, `None` for [`TableStore::Whole`], which has no
    /// tier to count.
    pub fn storage_counters(&self) -> Option<(u64, u64, u64, usize)> {
        match self {
            TableStore::Whole(_) => None,
            TableStore::Sharded(s) => {
                Some((s.loads(), s.evictions(), s.spills(), s.peak_resident()))
            }
            TableStore::Live(l) => Some(l.live.storage_counters()),
        }
    }

    /// `(epoch, visible_rows)` of the **latest** published state of live
    /// storage — not this holder's pin — and `None` for frozen storage.
    pub fn latest(&self) -> Option<(u64, usize)> {
        self.as_live().map(|l| (l.live.epoch(), l.live.n_rows()))
    }

    /// The pinned [`ShardedTable`] view for segmented storage (`None` for
    /// [`TableStore::Whole`]): the shared table for `Sharded`, the pinned
    /// snapshot for `Live`. The store-kind dispatch in `sdd_core::shard`
    /// matches on this.
    pub fn as_sharded(&self) -> Option<&Arc<ShardedTable>> {
        match self {
            TableStore::Whole(_) => None,
            TableStore::Sharded(s) => Some(s),
            TableStore::Live(l) => Some(&l.pinned.table),
        }
    }

    /// Materializes every row list of `batch` (global ids, in the given
    /// order) into its own small in-memory [`Table`] sharing the store's
    /// dictionaries and code space — [`Table::gather_rows`] per list for
    /// monolithic storage, [`ShardedTable::try_gather_batch`] (one visit
    /// per touched shard for the whole batch) for segmented storage. The
    /// two produce identical tables for identical rows, so everything
    /// downstream of a gather (the sampling layer's stored samples) is
    /// storage-agnostic.
    ///
    /// # Errors
    ///
    /// As [`ShardedTable::try_gather_batch`]; monolithic storage never
    /// fails.
    pub fn try_gather_batch(&self, batch: &[&[RowId]]) -> Result<Vec<Table>, TableError> {
        match self.as_sharded() {
            None => Ok(batch
                .iter()
                .map(|rows| self.header().gather_rows(rows))
                .collect()),
            Some(st) => st.try_gather_batch(batch),
        }
    }

    /// The live handle, if this store is live.
    pub fn as_live(&self) -> Option<&LiveStore> {
        match self {
            TableStore::Live(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable live handle (for pinning a newer snapshot), if this store is
    /// live.
    pub fn as_live_mut(&mut self) -> Option<&mut LiveStore> {
        match self {
            TableStore::Live(l) => Some(l),
            _ => None,
        }
    }
}

impl From<Arc<Table>> for TableStore {
    fn from(t: Arc<Table>) -> Self {
        TableStore::Whole(t)
    }
}

impl From<Arc<ShardedTable>> for TableStore {
    fn from(s: Arc<ShardedTable>) -> Self {
        TableStore::Sharded(s)
    }
}

impl From<Arc<LiveTable>> for TableStore {
    fn from(l: Arc<LiveTable>) -> Self {
        TableStore::Live(LiveStore::new(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, TableBuilder};

    fn t(n: usize) -> Table {
        let rows: Vec<[String; 2]> = (0..n)
            .map(|i| [format!("a{}", i % 5), format!("b{}", i % 3)])
            .collect();
        Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap()
    }

    fn spill_dir() -> PathBuf {
        std::env::temp_dir()
    }

    #[test]
    fn spans_partition_rows_and_segments_match_source() {
        let table = t(23);
        let st = ShardedTable::from_table(&table, &ShardConfig::in_memory(4)).unwrap();
        assert_eq!(st.n_shards(), 4);
        let mut pos = 0;
        for (i, span) in st.spans().iter().enumerate() {
            assert_eq!(span.start, pos);
            pos = span.end;
            let seg = st.try_segment(i).unwrap();
            assert_eq!(seg.span(), span.clone());
            for c in 0..table.n_columns() {
                assert_eq!(seg.col(c), &table.column(c).slice(span.clone()));
            }
        }
        assert_eq!(pos, table.n_rows());
        assert_eq!(st.n_rows(), table.n_rows());
    }

    #[test]
    fn spill_roundtrip_is_bit_identical() {
        let table = t(50);
        let st =
            ShardedTable::from_table(&table, &ShardConfig::spilling(8, 0, spill_dir())).unwrap();
        // Every touch of a spilled shard reads it from disk.
        for pass in 0..2 {
            for i in 0..st.n_shards() {
                let seg = st.try_segment(i).unwrap();
                for c in 0..table.n_columns() {
                    assert_eq!(
                        seg.col(c),
                        &table.column(c).slice(seg.span()),
                        "pass {pass} shard {i} col {c}"
                    );
                }
            }
        }
        assert_eq!(st.loads(), 2 * st.n_shards() as u64);
        assert!((0..st.n_shards()).all(|i| st.resident_segment(i).is_none()));
    }

    #[test]
    fn shard_of_row_matches_spans() {
        let table = t(17);
        let st = ShardedTable::from_table(&table, &ShardConfig::in_memory(5)).unwrap();
        for r in 0..17u32 {
            let s = st.shard_of_row(r).unwrap();
            assert!(st.spans()[s].contains(&(r as usize)));
        }
    }

    #[test]
    fn out_of_range_ids_and_columns_are_errors_on_the_fallible_paths() {
        let table = t(20);
        for st in [
            ShardedTable::from_table(&table, &ShardConfig::in_memory(3)).unwrap(),
            ShardedTable::from_table(&table, &ShardConfig::spilling(3, 0, spill_dir())).unwrap(),
        ] {
            assert_eq!(
                st.try_gather_rows(&[3, 20]).unwrap_err(),
                TableError::RowOutOfRange {
                    row: 20,
                    n_rows: 20
                }
            );
            assert!(st.try_gather_batch(&[&[0], &[u32::MAX]]).is_err());
            if st.spill_path(0).is_some() {
                assert_eq!(
                    st.read_columns(0, &[0, 2]).unwrap_err(),
                    TableError::UnknownColumn("column index 2".to_owned())
                );
                assert_eq!(st.loads(), 0, "a rejected read is not a load");
            }
        }
    }

    #[test]
    fn gather_rows_preserves_codes_and_dictionaries() {
        let table = t(40);
        let st =
            ShardedTable::from_table(&table, &ShardConfig::spilling(6, 0, spill_dir())).unwrap();
        let rows: Vec<RowId> = vec![39, 0, 17, 17, 5, 31];
        let mini = st.try_gather_rows(&rows).unwrap();
        assert_eq!(mini.n_rows(), rows.len());
        for (i, &r) in rows.iter().enumerate() {
            for c in 0..table.n_columns() {
                assert_eq!(mini.code(i as u32, c), table.code(r, c), "row {r} col {c}");
            }
        }
        // Dictionaries preserved verbatim (no re-interning).
        for c in 0..table.n_columns() {
            assert_eq!(mini.cardinality(c), table.cardinality(c));
        }
    }

    #[test]
    fn empty_table_shards_cleanly() {
        let table = t(0);
        let st = ShardedTable::from_table(&table, &ShardConfig::in_memory(3)).unwrap();
        assert_eq!(st.n_rows(), 0);
        assert!(ShardedView::all(Arc::new(st)).is_empty());
    }

    #[test]
    fn spill_files_are_removed_on_drop() {
        let table = t(12);
        let dir;
        {
            let st = ShardedTable::from_table(&table, &ShardConfig::spilling(3, 0, spill_dir()))
                .unwrap();
            dir = st.spill_dir().unwrap().to_path_buf();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill subdirectory must be cleaned up");
    }

    /// Streams `table`'s rows through a [`ShardBuilder`] in row order.
    fn stream_clone(table: &Table, cfg: &ShardConfig) -> ShardedTable {
        let measure_names: Vec<String> = table.measure_names().map(str::to_owned).collect();
        let mut b = ShardBuilder::new(
            table.schema().clone(),
            measure_names.clone(),
            table.n_rows(),
            cfg,
        )
        .unwrap();
        let mvals: Vec<&[f64]> = measure_names
            .iter()
            .map(|n| table.measure(n).unwrap())
            .collect();
        for r in 0..table.n_rows() as RowId {
            let cats: Vec<&str> = (0..table.n_columns()).map(|c| table.value(r, c)).collect();
            let ms: Vec<f64> = mvals.iter().map(|v| v[r as usize]).collect();
            b.push_row(&cats, &ms).unwrap();
        }
        b.finish().unwrap()
    }

    fn t_measured(n: usize) -> Table {
        let mut b = TableBuilder::new(Schema::new(["A", "B"]).unwrap());
        for i in 0..n {
            b.push_row(&[format!("a{}", i % 5), format!("b{}", i % 3)])
                .unwrap();
        }
        b.add_measure("m", (0..n).map(|i| i as f64 * 0.5).collect())
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stream_build_matches_from_table_segments_and_spill_bytes() {
        let table = t_measured(37);
        for shards in [1, 3, 8] {
            for cfg in [
                ShardConfig::in_memory(shards),
                ShardConfig::spilling(shards, 0, spill_dir()),
            ] {
                let a = ShardedTable::from_table(&table, &cfg).unwrap();
                let b = stream_clone(&table, &cfg);
                assert_eq!(a.spans(), b.spans());
                for i in 0..a.n_shards() {
                    if let (Some(pa), Some(pb)) = (a.spill_path(i), b.spill_path(i)) {
                        assert_eq!(
                            std::fs::read(pa).unwrap(),
                            std::fs::read(pb).unwrap(),
                            "shard {i}: spill files differ"
                        );
                    }
                    let (sa, sb) = (a.try_segment(i).unwrap(), b.try_segment(i).unwrap());
                    for c in 0..table.n_columns() {
                        assert_eq!(sa.col(c), sb.col(c), "shard {i} col {c}");
                    }
                    assert_eq!(
                        sa.table().measure("m").unwrap(),
                        sb.table().measure("m").unwrap()
                    );
                }
                for c in 0..table.n_columns() {
                    assert_eq!(a.cardinality(c), b.cardinality(c));
                    let da: Vec<_> = a.dictionary(c).iter().collect();
                    let db: Vec<_> = b.dictionary(c).iter().collect();
                    assert_eq!(da, db, "col {c}: dictionaries differ");
                }
            }
        }
    }

    #[test]
    fn stream_build_spills_each_segment_exactly_once_and_stays_cold() {
        let table = t(60);
        let st = stream_clone(&table, &ShardConfig::spilling(6, 0, spill_dir()));
        assert_eq!(st.spills(), 6, "one spill write per shard");
        assert_eq!(st.loads(), 0, "a streaming build never reads back");
        assert!(
            (0..st.n_shards()).all(|i| st.resident_segment(i).is_none()),
            "no segment was decoded in memory"
        );
        // A scan pays one load per shard and holds the only copy of each
        // decoded segment.
        for i in 0..st.n_shards() {
            let seg = st.try_segment(i).unwrap();
            assert_eq!(seg.span(), st.spans()[i].clone());
            assert_eq!(Arc::strong_count(&seg), 1, "shard {i} was kept");
        }
        assert_eq!(st.loads(), 6);
    }

    #[test]
    fn stream_builder_rejects_row_count_mismatch() {
        let cfg = ShardConfig::in_memory(2);
        let schema = Schema::new(["A"]).unwrap();
        let mut b = ShardBuilder::new(schema.clone(), vec![], 2, &cfg).unwrap();
        b.push_row(&["x"], &[]).unwrap();
        assert!(matches!(
            b.finish(),
            Err(TableError::RowCount {
                declared: 2,
                got: 1
            })
        ));
        let mut b = ShardBuilder::new(schema, vec![], 1, &cfg).unwrap();
        b.push_row(&["x"], &[]).unwrap();
        assert!(matches!(
            b.push_row(&["y"], &[]),
            Err(TableError::RowCount { .. })
        ));
    }

    #[test]
    fn stream_builder_handles_zero_rows() {
        let st = ShardBuilder::new(
            Schema::new(["A"]).unwrap(),
            vec![],
            0,
            &ShardConfig::in_memory(3),
        )
        .unwrap()
        .finish()
        .unwrap();
        assert_eq!(st.n_rows(), 0);
        let table = t(0);
        let reference = ShardedTable::from_table(&table, &ShardConfig::in_memory(3)).unwrap();
        assert_eq!(st.spans(), reference.spans());
    }

    #[test]
    fn segments_share_global_dictionaries_by_arc() {
        let table = t(24);
        let st =
            ShardedTable::from_table(&table, &ShardConfig::spilling(4, 0, spill_dir())).unwrap();
        for i in 0..st.n_shards() {
            let seg = st.try_segment(i).unwrap();
            for c in 0..table.n_columns() {
                assert!(
                    Arc::ptr_eq(st.header().dictionary_arc(c), seg.table().dictionary_arc(c)),
                    "shard {i} col {c}: dictionary was cloned, not shared"
                );
            }
        }
    }

    /// A resident shard hands out its one segment; a spilled shard is
    /// decoded afresh on every call, counted as a load, and dropped with the
    /// caller's last handle.
    #[test]
    fn try_segment_keeps_no_spilled_shard_decoded() {
        let table = t(90);
        let resident = ShardedTable::from_table(&table, &ShardConfig::in_memory(3)).unwrap();
        let (a, b) = (
            resident.try_segment(1).unwrap(),
            resident.try_segment(1).unwrap(),
        );
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, resident.resident_segment(1).unwrap()));
        assert_eq!((resident.loads(), resident.spills()), (0, 0));

        let st =
            ShardedTable::from_table(&table, &ShardConfig::spilling(3, 0, spill_dir())).unwrap();
        let (a, b) = (st.try_segment(1).unwrap(), st.try_segment(1).unwrap());
        assert!(!Arc::ptr_eq(&a, &b), "a decoded copy was shared");
        assert_eq!(a.col(0), b.col(0));
        let weak = Arc::downgrade(&a);
        drop(a);
        assert!(weak.upgrade().is_none(), "the table kept a decoded copy");
        assert!(st.resident_segment(1).is_none());
        assert_eq!((st.loads(), st.spills()), (2, 3));
    }

    #[test]
    fn read_columns_is_transient_and_counts_loads() {
        let table = t(60);
        let st =
            ShardedTable::from_table(&table, &ShardConfig::spilling(4, 0, spill_dir())).unwrap();
        let loads0 = st.loads();
        let cols = st.read_columns(2, &[1]).unwrap();
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].codes().len(), st.spans()[2].len());
        for (local, global) in st.spans()[2].clone().enumerate() {
            let code = cols[0].remap()[cols[0].codes().at(local) as usize];
            assert_eq!(code, table.code(global as RowId, 1));
        }
        // Every remapped global code round-trips through the local
        // translation, and absent codes report None.
        for (l, &g) in cols[0].remap().iter().enumerate() {
            assert_eq!(cols[0].local_of_global(g), Some(l as u32));
        }
        let absent = table.cardinality(1) as u32 + 7;
        assert_eq!(cols[0].local_of_global(absent), None);
        assert_eq!(
            st.loads(),
            loads0 + 1,
            "a range read still counts as a load"
        );
        assert!(
            st.resident_segment(2).is_none(),
            "a read must not leave the shard decoded"
        );
    }

    #[test]
    fn corrupt_spill_files_error_instead_of_panicking() {
        let table = t(40);
        let st =
            ShardedTable::from_table(&table, &ShardConfig::spilling(4, 0, spill_dir())).unwrap();
        let path = st.spill_path(1).unwrap().to_path_buf();
        let bytes = std::fs::read(&path).unwrap();

        // Truncation: the file is shorter than its offset table claims.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match st.try_segment(1) {
            Err(TableError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The pread path hits the same wall one column at a time.
        let last_col = table.n_columns() - 1;
        assert!(matches!(
            st.read_columns(1, &[last_col]),
            Err(TableError::Corrupt(_))
        ));

        // Garbled magic.
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF;
        std::fs::write(&path, &garbled).unwrap();
        assert!(matches!(st.try_segment(1), Err(TableError::Corrupt(m)) if m.contains("magic")));

        // Bytes past the last offset: the full read, through a segment load
        // or a gather, checks the file length before reading any blob.
        let long = [&bytes[..], &[0; 5]].concat();
        std::fs::write(&path, &long).unwrap();
        let length_mismatch = Err(corrupt("spill file length mismatch"));
        assert_eq!(st.try_segment(1).map(|_| ()), length_mismatch);
        let row = st.spans()[1].start as RowId;
        assert_eq!(st.try_gather_batch(&[&[row]]).map(|_| ()), length_mismatch);

        // A blob longer than its column needs, with the offsets kept
        // consistent: only the blob parse can tell.
        let padded = with_blob(&bytes, 0, |blob| [blob, &[0]].concat());
        std::fs::write(&path, &padded).unwrap();
        let trailing = Err(corrupt("spill column blob has trailing bytes"));
        assert_eq!(st.read_columns(1, &[0]).map(|_| ()), trailing);
        assert_eq!(st.try_segment(1).map(|_| ()), trailing);
        assert_eq!(st.try_gather_batch(&[&[row]]).map(|_| ()), trailing);

        // Restoring the bytes restores the segment: errors are not sticky.
        std::fs::write(&path, &bytes).unwrap();
        let seg = st.try_segment(1).unwrap();
        assert_eq!(seg.col(0), &table.column(0).slice(st.spans()[1].clone()));
        // Other shards were never affected.
        let s0 = st.try_segment(0).unwrap();
        assert_eq!(s0.span(), st.spans()[0].clone());
    }

    /// `bytes` (a spill file) with column `c`'s blob replaced by
    /// `edit(blob)` and the offset table laid out again around it.
    fn with_blob(bytes: &[u8], c: usize, edit: impl FnOnce(&[u8]) -> Vec<u8>) -> Vec<u8> {
        let n_cols = le_u32(&bytes[8..]) as usize;
        let offset = |k: usize| le_u64(&bytes[16 + 8 * k..]) as usize;
        let mut blobs: Vec<Vec<u8>> = (0..n_cols)
            .map(|k| bytes[offset(k)..offset(k + 1)].to_vec())
            .collect();
        blobs[c] = edit(&blobs[c]);
        let mut out = bytes[..16].to_vec();
        let mut at = header_len(n_cols) as u64;
        out.extend_from_slice(&at.to_le_bytes());
        for blob in &blobs {
            at += blob.len() as u64;
            out.extend_from_slice(&at.to_le_bytes());
        }
        out.extend(blobs.concat());
        out
    }

    /// `blob` (a column blob) with its local codes packed at `width` bytes
    /// after `patch` ran on them. The decoder accepts any width that holds
    /// the codes, so this reaches every width's validation with a small
    /// remap.
    fn repack(blob: &[u8], width: usize, patch: impl FnOnce(&mut [u32])) -> Vec<u8> {
        let width_at = 4 + 4 * le_u32(blob) as usize;
        let stored = blob[width_at] as usize;
        let mut codes: Vec<u32> = blob[width_at + 1..]
            .chunks_exact(stored)
            .map(|b| b.iter().rev().fold(0, |v, &byte| v << 8 | byte as u32))
            .collect();
        patch(&mut codes);
        let mut out = blob[..width_at].to_vec();
        out.push(width as u8);
        for code in codes {
            out.extend_from_slice(&code.to_le_bytes()[..width]);
        }
        out
    }

    #[test]
    fn out_of_range_local_codes_are_corrupt_at_every_width_and_row() {
        let table = t(40);
        let st =
            ShardedTable::from_table(&table, &ShardConfig::spilling(4, 0, spill_dir())).unwrap();
        let path = st.spill_path(1).unwrap().to_path_buf();
        let intact = std::fs::read(&path).unwrap();
        let rows: Vec<RowId> = st.spans()[1].clone().map(|r| r as RowId).collect();
        let remap = st.read_columns(1, &[0]).unwrap()[0].remap().to_vec();
        let remap_len = remap.len() as u32;
        // Column 0's global code at `row` of the shard, through each reader:
        // a range read (remapped here), a gather and a segment decode.
        let read_back = |row: usize| -> [Result<u32, TableError>; 3] {
            [
                st.read_columns(1, &[0])
                    .map(|c| c[0].remap()[c[0].codes().at(row) as usize]),
                st.try_gather_batch(&[&rows])
                    .map(|t| t[0].column(0).at(row)),
                st.try_segment(1).map(|seg| seg.col(0).at(row)),
            ]
        };
        let rejected = |msg: &str| [(); 3].map(|_| Some(corrupt(msg)));
        for width in [1, 2, 4] {
            for row in [0, rows.len() / 2, rows.len() - 1] {
                // One past the last local code is rejected; the last is not.
                for (code, valid) in [(remap_len, false), (remap_len - 1, true)] {
                    let file = with_blob(&intact, 0, |blob| {
                        repack(blob, width, |codes| codes[row] = code)
                    });
                    std::fs::write(&path, &file).unwrap();
                    let case = format!("width {width}, row {row}, code {code}");
                    if valid {
                        let cols = st.read_columns(1, &[0]).unwrap();
                        assert_eq!(cols[0].codes().width(), width, "{case}");
                        assert_eq!(cols[0].codes().at(row), code, "{case}");
                        let global = remap[code as usize];
                        assert_eq!(read_back(row), [(); 3].map(|_| Ok(global)), "{case}");
                    } else {
                        let got = read_back(row).map(Result::err);
                        assert_eq!(got, rejected("local code out of range"), "{case}");
                    }
                }
            }
        }
        // A remap entry is a global code, so it must index the reading
        // table's dictionary: the cardinality is rejected, one below reads
        // back. Row 0 holds the shard's first value, local code 0.
        let cardinality = table.cardinality(0) as u32;
        for (global, valid) in [(cardinality, false), (cardinality - 1, true)] {
            let file = with_blob(&intact, 0, |blob| {
                [&blob[..4], &global.to_le_bytes()[..], &blob[8..]].concat()
            });
            std::fs::write(&path, &file).unwrap();
            let got = read_back(0);
            if valid {
                assert_eq!(got, [(); 3].map(|_| Ok(global)), "remap[0] = {global}");
            } else {
                let got = got.map(Result::err);
                assert_eq!(
                    got,
                    rejected("global code out of range"),
                    "remap[0] = {global}"
                );
            }
        }
    }

    #[test]
    fn table_store_surfaces_metadata() {
        let table = Arc::new(t(9));
        let whole = TableStore::from(table.clone());
        assert_eq!(whole.n_rows(), 9);
        let st = Arc::new(ShardedTable::from_table(&table, &ShardConfig::in_memory(2)).unwrap());
        let sharded = TableStore::from(st);
        assert_eq!(sharded.n_rows(), 9);
        assert_eq!(sharded.n_columns(), 2);
        assert_eq!(sharded.header().n_rows(), 0, "header carries no rows");
        assert_eq!(sharded.header().cardinality(0), table.cardinality(0));
        // Only a segmented store has a tier to count; only a live one moves.
        assert_eq!(whole.storage_counters(), None);
        assert_eq!(sharded.storage_counters(), Some((0, 0, 0, 2)));
        assert_eq!((whole.latest(), sharded.latest()), (None, None));
    }

    // -----------------------------------------------------------------------
    // Live (append-only) tables
    // -----------------------------------------------------------------------

    fn live_rows(n: usize) -> Vec<[String; 2]> {
        (0..n)
            .map(|i| [format!("a{}", i % 5), format!("b{}", i % 3)])
            .collect()
    }

    /// Materializes every row of a sharded table as strings.
    fn gather_all(st: &ShardedTable) -> Vec<Vec<String>> {
        let rows: Vec<RowId> = (0..st.n_rows() as RowId).collect();
        let t = st.try_gather_rows(&rows).unwrap();
        (0..t.n_rows() as RowId)
            .map(|r| {
                (0..t.n_columns())
                    .map(|c| t.value(r, c).to_owned())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn live_append_publishes_epochs_and_rows() {
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::in_memory(4),
        )
        .unwrap();
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.n_rows(), 0);
        assert_eq!(live.snapshot().table.n_rows(), 0);

        let rows = live_rows(6);
        let snap1 = live.try_append(&rows[..3], &[]).unwrap();
        assert_eq!((snap1.epoch, snap1.table.n_rows()), (1, 3));
        let snap2 = live.try_append(&rows[3..], &[]).unwrap();
        assert_eq!((snap2.epoch, snap2.table.n_rows()), (2, 6));
        assert_eq!((live.epoch(), live.n_rows()), (2, 6));

        let expect: Vec<Vec<String>> = rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(gather_all(&snap2.table), expect);
        // The superseded snapshot still observes its own epoch.
        assert_eq!(gather_all(&snap1.table), expect[..3]);
        assert_eq!(snap1.table.header().cardinality(0), 3, "a0..a2 at epoch 1");
        assert_eq!(snap2.table.header().cardinality(0), 5);

        // An empty batch is a deliberate epoch bump.
        let snap3 = live.try_append::<[String; 2], String>(&[], &[]).unwrap();
        assert_eq!((snap3.epoch, snap3.table.n_rows()), (3, 6));
    }

    #[test]
    fn live_append_carries_measures() {
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec!["m".to_owned()],
            &LiveTableConfig::in_memory(3),
        )
        .unwrap();
        let rows = live_rows(7);
        let ms: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64 * 1.5]).collect();
        live.try_append(&rows[..4], &ms[..4]).unwrap();
        let snap = live.try_append(&rows[4..], &ms[4..]).unwrap();
        let all: Vec<RowId> = (0..7).collect();
        let t = snap.table.try_gather_rows(&all).unwrap();
        let got = t.measure("m").unwrap();
        let want: Vec<f64> = (0..7).map(|i| i as f64 * 1.5).collect();
        assert_eq!(got, &want[..]);
    }

    #[test]
    fn live_append_rejects_malformed_rows_without_state_change() {
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec!["m".to_owned()],
            &LiveTableConfig::in_memory(4),
        )
        .unwrap();
        let bad = vec![vec!["only-one".to_owned()]];
        assert!(matches!(
            live.try_append(&bad, &[vec![1.0]]),
            Err(TableError::ArityMismatch { .. })
        ));
        let rows = live_rows(2);
        // Wrong measure arity.
        assert!(matches!(
            live.try_append(&rows, &[vec![1.0]]),
            Err(TableError::ArityMismatch { .. })
        ));
        assert!(matches!(
            live.try_append(&rows, &[vec![1.0, 2.0], vec![3.0, 4.0]]),
            Err(TableError::ArityMismatch { .. })
        ));
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.n_rows(), 0);
    }

    /// Satellite: appends landing exactly on / one before / one after a
    /// segment boundary produce sealed spill files byte-identical to (a) a
    /// single append of all rows and (b) — at exact multiples of the
    /// segment size — `ShardedTable::from_table` of the grown table, whose
    /// `chunk_spans` layout coincides with the live fixed-size layout.
    #[test]
    fn live_seal_boundaries_are_byte_identical_to_rebuild() {
        let c = 8usize;
        let k = 3usize;
        let all = live_rows(k * c); // 24 rows; boundaries at 8 and 16
        let cfg = LiveTableConfig::spilling(c, spill_dir());

        // Grow with batches landing one-before / exactly-on / one-after
        // segment boundaries: 7, +1 (=8), +1 (=9), +7 (=16), +8 (=24).
        let grown = LiveTable::new(Schema::new(["A", "B"]).unwrap(), vec![], &cfg).unwrap();
        for batch in [&all[..7], &all[7..8], &all[8..9], &all[9..16], &all[16..]] {
            grown.try_append(batch, &[]).unwrap();
        }
        assert_eq!(grown.segments_sealed(), k);
        assert_eq!(grown.n_rows(), k * c);

        // One-shot rebuild of the same rows.
        let rebuilt = LiveTable::new(Schema::new(["A", "B"]).unwrap(), vec![], &cfg).unwrap();
        rebuilt.try_append(&all, &[]).unwrap();

        // From-scratch frozen build: chunk_spans(k*c, k) = k equal spans.
        let rows_owned: Vec<[String; 2]> = all.clone();
        let frozen_src = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows_owned).unwrap();
        let frozen =
            ShardedTable::from_table(&frozen_src, &ShardConfig::spilling(k, 0, spill_dir()))
                .unwrap();

        let gs = grown.snapshot().table;
        let rs = rebuilt.snapshot().table;
        for i in 0..k {
            let g = std::fs::read(gs.spill_path(i).unwrap()).unwrap();
            let r = std::fs::read(rs.spill_path(i).unwrap()).unwrap();
            let f = std::fs::read(frozen.spill_path(i).unwrap()).unwrap();
            assert_eq!(g, r, "segment {i}: grown vs one-shot rebuild");
            assert_eq!(g, f, "segment {i}: grown vs frozen from_table");
        }
        // And the visible rows agree everywhere.
        let expect: Vec<Vec<String>> = all.iter().map(|r| r.to_vec()).collect();
        assert_eq!(gather_all(&gs), expect);
        assert_eq!(gather_all(&frozen), expect);
    }

    /// A spilling live snapshot holds both forms: its sealed segments are
    /// spilled and its tail, which has no file, is resident — and stays so
    /// however often the table is read.
    #[test]
    fn live_tail_is_resident_beside_spilled_sealed_segments() {
        let c = 4usize;
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::spilling(c, spill_dir()),
        )
        .unwrap();
        let rows = live_rows(3 * c + 2); // 3 sealed segments + 2-row tail
        let snap = live.try_append(&rows, &[]).unwrap();
        let st = &snap.table;
        assert_eq!(st.n_shards(), 4);
        assert!(st.spill_path(3).is_none(), "tail has no spill file");

        let expect: Vec<Vec<String>> = rows.iter().map(|r| r.to_vec()).collect();
        for _ in 0..3 {
            assert_eq!(&gather_all(st), &expect);
        }
        assert_eq!(st.loads(), 3 * 3, "one read per sealed segment per gather");
        let resident: Vec<bool> = (0..4).map(|i| st.resident_segment(i).is_some()).collect();
        assert_eq!(resident, [false, false, false, true]);
        let tail = st.try_segment(3).unwrap();
        assert_eq!(tail.span(), 3 * c..3 * c + 2);
    }

    /// A failed seal (I/O error mid-append) rolls the table back to the
    /// previous epoch: no rows, no epoch bump, and — critically for
    /// rebuild parity — no leaked dictionary codes.
    #[test]
    fn live_failed_append_rolls_back_cleanly() {
        let c = 4usize;
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::spilling(c, spill_dir()),
        )
        .unwrap();
        let rows = live_rows(c + 1);
        live.try_append(&rows[..2], &[]).unwrap();

        // Block the next seal: a directory where the segment file must go.
        let dir = live.snapshot().table.spill_dir().unwrap().to_path_buf();
        let blocker = dir.join(segment_file_name(0));
        std::fs::remove_file(&blocker).ok(); // not yet sealed ⇒ absent
        std::fs::create_dir(&blocker).unwrap();
        let err = live.try_append(&rows[2..], &[]);
        assert!(matches!(err, Err(TableError::Io(_))), "got {err:?}");

        // Rolled back: same epoch, same rows, dictionaries un-grown.
        assert_eq!(live.epoch(), 1);
        assert_eq!(live.n_rows(), 2);
        let snap = live.snapshot();
        assert_eq!(snap.table.header().cardinality(0), 2);

        // Unblock and retry; the grown table must match a one-shot rebuild.
        std::fs::remove_dir(&blocker).unwrap();
        let snap = live.try_append(&rows[2..], &[]).unwrap();
        assert_eq!((snap.epoch, snap.table.n_rows()), (2, c + 1));
        let rebuilt = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::spilling(c, spill_dir()),
        )
        .unwrap();
        let rsnap = rebuilt.try_append(&rows, &[]).unwrap();
        assert_eq!(
            std::fs::read(snap.table.spill_path(0).unwrap()).unwrap(),
            std::fs::read(rsnap.table.spill_path(0).unwrap()).unwrap(),
            "post-recovery seal must be byte-identical to a rebuild"
        );
        let expect: Vec<Vec<String>> = rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(gather_all(&snap.table), expect);
    }

    /// An append whose batch fills two segments and fails on the second
    /// keeps nothing of the first: the epoch, rows and dictionaries are the
    /// prior epoch's, the first segment's file is deleted, and a retry
    /// writes exactly the files a one-shot rebuild writes.
    #[test]
    fn live_append_failing_after_a_seal_keeps_nothing_it_staged() {
        let c = 4usize;
        let cfg = LiveTableConfig::spilling(c, spill_dir());
        let live = LiveTable::new(Schema::new(["A", "B"]).unwrap(), vec![], &cfg).unwrap();
        let rows = live_rows(2 * c + 2);
        live.try_append(&rows[..2], &[]).unwrap();

        // Segment 0 can be written; segment 1's path is a directory.
        let dir = live.snapshot().table.spill_dir().unwrap().to_path_buf();
        let blocker = dir.join(segment_file_name(1));
        std::fs::create_dir(&blocker).unwrap();
        let err = live.try_append(&rows[2..], &[]);
        assert!(matches!(err, Err(TableError::Io(_))), "got {err:?}");

        assert_eq!((live.epoch(), live.n_rows()), (1, 2));
        assert_eq!(live.segments_sealed(), 0);
        let header = live.snapshot().table.header().clone();
        assert_eq!((header.cardinality(0), header.cardinality(1)), (2, 2));
        assert!(!dir.join(segment_file_name(0)).exists(), "segment 0 leaked");

        std::fs::remove_dir(&blocker).unwrap();
        let snap = live.try_append(&rows[2..], &[]).unwrap();
        assert_eq!((snap.epoch, snap.table.n_rows()), (2, rows.len()));
        let rebuilt = LiveTable::new(Schema::new(["A", "B"]).unwrap(), vec![], &cfg).unwrap();
        let rsnap = rebuilt.try_append(&rows, &[]).unwrap();
        for i in 0..2 {
            assert_eq!(
                std::fs::read(snap.table.spill_path(i).unwrap()).unwrap(),
                std::fs::read(rsnap.table.spill_path(i).unwrap()).unwrap(),
                "segment {i}: retry vs one-shot rebuild"
            );
        }
        let expect: Vec<Vec<String>> = rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(gather_all(&snap.table), expect);
    }

    /// A spill write that fails part-way (the file exists, the disk is
    /// full) deletes its file, so the spill directory still goes with the
    /// table.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_spill_write_leaves_no_file_or_directory_behind() {
        let c = 4usize;
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::spilling(c, spill_dir()),
        )
        .unwrap();
        let dir = live.snapshot().table.spill_dir().unwrap().to_path_buf();
        let file = dir.join(segment_file_name(0));
        std::os::unix::fs::symlink("/dev/full", &file).unwrap();
        let err = live.try_append(&live_rows(c), &[]);
        assert!(matches!(err, Err(TableError::Io(_))), "got {err:?}");
        assert!(file.symlink_metadata().is_err(), "the failed file was kept");
        drop(live);
        assert!(!dir.exists(), "the spill directory outlived its table");
    }

    /// Snapshots share sealed spill files by `Arc`: superseded epochs stay
    /// scannable, and the directory disappears only when the last holder
    /// (live table or snapshot) drops.
    #[test]
    fn live_snapshots_share_segments_and_cleanup_is_refcounted() {
        let c = 4usize;
        let rows = live_rows(2 * c + 1);
        let dir;
        let old;
        {
            let live = LiveTable::new(
                Schema::new(["A", "B"]).unwrap(),
                vec![],
                &LiveTableConfig::spilling(c, spill_dir()),
            )
            .unwrap();
            old = live.try_append(&rows[..c + 1], &[]).unwrap();
            let new = live.try_append(&rows[c + 1..], &[]).unwrap();
            dir = new.table.spill_dir().unwrap().to_path_buf();
            assert_eq!(
                old.table.spill_path(0).unwrap(),
                new.table.spill_path(0).unwrap(),
                "sealed segment 0 is shared, not re-written"
            );
            // Drop `live` and `new`; `old` keeps its files alive.
        }
        assert!(dir.exists(), "old snapshot still pins the spill dir");
        let expect: Vec<Vec<String>> = rows[..c + 1].iter().map(|r| r.to_vec()).collect();
        assert_eq!(gather_all(&old.table), expect);
        drop(old);
        assert!(!dir.exists(), "last holder dropped ⇒ dir removed");
    }

    /// A dictionary is re-frozen only when its column interned something:
    /// otherwise the new snapshot holds the old handle, and a grown
    /// dictionary extends the old one.
    #[test]
    fn live_snapshots_share_unchanged_dictionaries() {
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::in_memory(4),
        )
        .unwrap();
        let rows = live_rows(5);
        let first = live.try_append(&rows[..3], &[]).unwrap();
        // The same three rows again: nothing new in either column.
        let same = live.try_append(&rows[..3], &[]).unwrap();
        // a3 and a4 are new; b0 and b1 are not.
        let grown = live.try_append(&rows[3..], &[]).unwrap();
        let handle = |snap: &LiveSnapshot, c: usize| snap.table.header().dictionary_arc(c).clone();
        for c in 0..2 {
            assert!(Arc::ptr_eq(&handle(&first, c), &handle(&same, c)));
        }
        assert!(Arc::ptr_eq(&handle(&same, 1), &handle(&grown, 1)));
        let (old, new) = (handle(&same, 0), handle(&grown, 0));
        assert_eq!((old.len(), new.len()), (3, 5));
        assert!(old.iter().eq(new.iter().take(old.len())), "old is a prefix");
        // A tail segment holds its own snapshot's handles.
        let tail = grown.table.try_segment(grown.table.n_shards() - 1).unwrap();
        assert!(Arc::ptr_eq(tail.table().dictionary_arc(0), &new));
    }

    /// The freeze copies the tail, not the table: a resident sealed
    /// segment is one allocation held by every snapshot from its seal on,
    /// and a value first interned after the seal reads through the shared
    /// segment exactly as through a frozen twin.
    #[test]
    fn live_resident_snapshots_share_sealed_segments() {
        let c = 4usize;
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::in_memory(c),
        )
        .unwrap();
        // a4 is first seen at row 4, an append after segment 0 (rows 0..4)
        // sealed.
        let rows = live_rows(11);
        let snaps: Vec<LiveSnapshot> = [&rows[..4], &rows[4..6], &rows[6..10], &rows[10..]]
            .into_iter()
            .map(|batch| live.try_append(batch, &[]).unwrap())
            .collect();
        let sealed: Vec<usize> = snaps.iter().map(|s| s.table.n_rows() / c).collect();
        assert_eq!(sealed, [1, 1, 2, 2], "three appends seal two segments");

        let segment = |snap: &LiveSnapshot, i: usize| snap.table.try_segment(i).unwrap();
        for (older, newer) in snaps.iter().zip(&snaps[1..]) {
            for i in 0..older.table.n_rows() / c {
                assert!(
                    Arc::ptr_eq(&segment(older, i), &segment(newer, i)),
                    "segment {i}"
                );
            }
        }
        // The shared segment keeps its seal epoch's dictionary (a0..a3); the
        // snapshot's header has the grown one.
        assert_eq!(segment(&snaps[2], 0).table().cardinality(0), 4);

        // The newest snapshot outlives the table and every older snapshot.
        let newest = snaps.into_iter().next_back().unwrap();
        drop(live);
        let twin = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap();
        assert_eq!(newest.table.header().cardinality(0), 5);
        for i in 0..newest.table.n_shards() {
            let seg = newest.table.try_segment(i).unwrap();
            for col in 0..2 {
                assert_eq!(
                    seg.col(col),
                    &twin.column(col).slice(seg.span()),
                    "segment {i}"
                );
            }
        }
        let all: Vec<RowId> = (0..rows.len() as RowId).collect();
        let (got, want) = (
            newest.table.try_gather_rows(&all).unwrap(),
            twin.gather_rows(&all),
        );
        for col in 0..2 {
            assert_eq!(got.column(col), want.column(col));
            assert_eq!(got.cardinality(col), want.cardinality(col));
        }
        let expect: Vec<Vec<String>> = rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(gather_all(&newest.table), expect);
    }

    #[test]
    fn live_storage_counters_are_monotonic_across_epochs() {
        let c = 4usize;
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::spilling(c, spill_dir()),
        )
        .unwrap();
        let rows = live_rows(3 * c);
        let mut last = (0u64, 0u64, 0u64, 0usize);
        for batch in rows.chunks(c + 1) {
            let snap = live.try_append(batch, &[]).unwrap();
            let _ = gather_all(&snap.table); // force loads
            let now = live.storage_counters();
            assert!(now.0 > last.0, "loads must grow across epochs");
            assert!(now.2 >= last.2, "spills must not go backwards");
            let resident = usize::from(snap.table.spill_path(snap.table.n_shards() - 1).is_none());
            assert_eq!((now.1, now.3), (0, resident), "only the tail is resident");
            last = now;
        }
        assert_eq!(last.2, 3, "one spill per sealed segment");
    }

    #[test]
    fn live_store_pins_and_repins_epochs() {
        let live = Arc::new(
            LiveTable::new(
                Schema::new(["A", "B"]).unwrap(),
                vec![],
                &LiveTableConfig::in_memory(4),
            )
            .unwrap(),
        );
        let mut store = TableStore::from(Arc::clone(&live));
        assert!(
            store.as_sharded().is_some(),
            "live stores scan via the sharded paths"
        );
        assert_eq!(store.epoch(), 0);
        let rows = live_rows(5);
        live.try_append(&rows, &[]).unwrap();
        // The pin holds until the holder re-pins.
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.n_rows(), 0);
        assert_eq!(store.as_live().unwrap().latest_epoch(), 1);
        assert_eq!(store.latest(), Some((1, 5)), "the head, not the pin");
        assert_eq!(store.storage_counters(), Some(live.storage_counters()));
        let live_store = store.as_live_mut().unwrap();
        live_store.pin(live.snapshot());
        assert_eq!(live_store.epoch(), 1);
        assert_eq!(store.n_rows(), 5);
        assert_eq!(store.header().cardinality(0), 5);
        // A clone carries the pin, not the live head.
        let clone = store.clone();
        live.try_append(&rows[..1], &[]).unwrap();
        assert_eq!(clone.epoch(), 1);
        assert_eq!(store.as_sharded().unwrap().n_rows(), 5);
    }
}
