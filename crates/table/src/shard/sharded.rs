//! [`ShardedTable`]: a table partitioned into fixed columnar shards, each
//! resident or spilled for the table's whole life.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use super::spill::{globalize, read_spill_columns, RawColumn, SpillFile, SpillRoot};
use super::writer::SegmentWriter;
use crate::view::chunk_spans;
use crate::{with_codes, Code, Codes, Dictionary, RowId, Schema, Table, TableError};
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    /// The segment's rows as a table of their own, moved out, not copied.
    pub fn into_table(self) -> Table {
        self.table
    }
}

/// One shard, in the form it keeps for its table's whole life.
#[derive(Debug, Clone)]
pub(super) enum Shard {
    /// Decoded in memory, scanned and gathered in place.
    Resident(Arc<ShardSegment>),
    /// On disk, read on demand and never kept decoded.
    Spilled(Arc<SpillFile>),
}

/// A table partitioned into fixed columnar shard segments with an optional
/// on-disk spill tier. See the module docs for the layout, spill format,
/// and determinism contract.
#[derive(Debug)]
pub struct ShardedTable {
    pub(super) header: Arc<Table>,
    pub(super) spans: Vec<Range<usize>>,
    /// One per span, fixed at build.
    pub(super) shards: Vec<Shard>,
    pub(super) spill_root: Option<Arc<SpillRoot>>,
    /// Spill reads since construction.
    pub(super) loads: AtomicU64,
}

impl ShardedTable {
    /// Partitions `table`'s categorical columns according to `config` (a
    /// sharded table carries no measures): with a spill directory every
    /// shard is encoded to disk at once and spilled, without one every
    /// shard is resident. The shards are sealed by the same segment writer
    /// as a streaming build's, over `table`'s own dictionaries.
    pub fn from_table(table: &Table, config: &ShardConfig) -> io::Result<ShardedTable> {
        let mut writer = SegmentWriter::new(
            table.schema().clone(),
            table.dictionaries().to_vec(),
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
    /// schema and the global dictionaries. Weight
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
                Ok(segment(&self.header, &self.spans[i], cols))
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
                                col.remap()[col.codes().at(p.local as usize) as usize];
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
                Table::from_parts(
                    self.header.schema().clone(),
                    self.header.dictionaries().to_vec(),
                    cols,
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
        self.spill_root.as_deref().map(SpillRoot::dir)
    }
}

/// Builds the decoded segment of `span`: a resident [`Table`] of the
/// global-coded columns, sharing the header's schema and — by `Arc`, not by
/// clone — its global dictionaries: every segment of a table holds
/// pointer-identical dictionary handles, so segment count never multiplies
/// dictionary memory.
pub(super) fn segment(header: &Table, span: &Range<usize>, cols: Vec<Codes>) -> Arc<ShardSegment> {
    let table = Table::from_parts(
        header.schema().clone(),
        header.dictionaries().to_vec(),
        cols,
        span.len(),
    );
    Arc::new(ShardSegment {
        span: span.clone(),
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testutil::{spill_dir, t};

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
}
