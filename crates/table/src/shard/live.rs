//! Append-only tables: [`LiveTable`] and its epoch snapshots.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use super::sharded::ShardedTable;
use super::writer::{Batch, SegmentWriter};
use crate::csv::RowSink;
use crate::{with_codes, Code, Codes, RowId, Schema, Table, TableError};
use std::iter::repeat;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// [`ShardedTable`] of categorical columns (every sharded scan, parity, and
/// caching path works on it unchanged) plus the epoch it captures. The rows
/// an epoch added are `older.table.n_rows()..newer.table.n_rows()` of two
/// snapshots — the range the sampling layer's reservoir maintenance sweeps.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// The frozen table. A snapshot copies what its append changed and
    /// shares the rest with its predecessors by `Arc`: sealed segments
    /// (spill files, or the decoded tables of a resident table) and the
    /// dictionary of every column that interned nothing. Only the unsealed
    /// tail (< `rows_per_segment` rows, always resident) and the
    /// dictionaries that grew are copied per snapshot.
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
        let schema = header.schema().clone();
        Arc::new(Table::from_parts(schema, dicts.to_vec(), cols, n_rows))
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

/// An append-only table of categorical columns: rows arrive in batches,
/// each batch bumps a monotonic **epoch** and publishes a new frozen
/// [`LiveSnapshot`].
///
/// * A live table drives the segment writer every [`ShardedTable`] is
///   built with: every `rows_per_segment` rows seal into an immutable
///   segment through the same seal as [`ShardedTable::from_table`] and
///   [`stream_csv_file`] (the same `SDDSHRD2` encoding), written to disk — or,
///   fully resident, wrapped in its table — exactly once; the remainder
///   stays open in an always-resident tail.
/// * Each append ends with one freeze of the writer. Snapshots are plain
///   [`ShardedTable`]s sharing the sealed segments and the unchanged
///   dictionaries by `Arc`, so an append costs what it adds (tail and grown
///   dictionaries — see [`LiveSnapshot`]), every existing
///   sharded scan path works on them unchanged and a superseded snapshot
///   can outlive its successors without invalidating their files.
/// * Global codes are interned in first-appearance order (exactly as every
///   other build does), so a live table grown by any sequence of appends holds
///   the same codes — and byte-identical sealed spill files — as one grown
///   by a single append of all rows (the seal-boundary tests pin this).
/// * An append is staged on a copy of the open rows, each segment sealing
///   as its last row arrives, and committed once every row has arrived.
///   Any failure (a malformed row, a failed spill) drops the copy, which
///   deletes the files the batch wrote, and truncates the dictionaries — a
///   retry or a rebuild observes no trace of the failure.
///   [`LiveTable::from_table`] and [`stream_csv_live`] seed a new table
///   through the same staging.
///
/// [`stream_csv_file`]: crate::csv::stream_csv_file
/// [`stream_csv_live`]: crate::csv::stream_csv_live
#[derive(Debug)]
pub struct LiveTable {
    schema: Schema,
    rows_per_segment: usize,
    /// Mirrors `state.current.epoch`; readable without the lock.
    epoch: AtomicU64,
    state: Mutex<LiveState>,
}

/// A live table carries no measures: the measure arguments of
/// [`LiveTable::new`] and [`LiveTable::try_append`], which the repository
/// benchmark still passes, must be empty.
fn no_measures<T>(measures: &[T]) -> Result<(), TableError> {
    match measures.len() {
        0 => Ok(()),
        got => Err(TableError::ArityMismatch { expected: 0, got }),
    }
}

impl LiveTable {
    /// Creates an empty live table at epoch 0.
    ///
    /// # Errors
    ///
    /// [`TableError::ArityMismatch`] for a non-empty `measures`.
    pub fn new(
        schema: Schema,
        measures: Vec<String>,
        config: &LiveTableConfig,
    ) -> Result<LiveTable, TableError> {
        no_measures(&measures)?;
        LiveTable::seeded(schema, config, |_| Ok(()))
    }

    /// A new live table whose epoch 1 holds the rows `fill` pushes as one
    /// batch — or which stays empty at epoch 0 when it pushes none.
    pub(crate) fn seeded(
        schema: Schema,
        config: &LiveTableConfig,
        fill: impl FnOnce(&mut Batch<'_>) -> Result<(), TableError>,
    ) -> Result<LiveTable, TableError> {
        let dicts = (0..schema.n_columns()).map(|_| Arc::default()).collect();
        let mut writer = SegmentWriter::new(schema.clone(), dicts, config.spill_dir.as_deref())?;
        let rows_per_segment = config.rows_per_segment.max(1);
        writer.stage(Box::new(repeat((rows_per_segment, 0))), fill)?;
        let epoch = u64::from(writer.segments.n_rows() > 0);
        let current = LiveSnapshot {
            table: Arc::new(writer.freeze()),
            epoch,
        };
        Ok(LiveTable {
            schema,
            rows_per_segment,
            epoch: AtomicU64::new(epoch),
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
    ///
    /// [`TableStore::storage_counters`]: super::TableStore::storage_counters
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
    /// order; `measures` must be empty, as a live table carries none.
    /// Appending an empty batch still bumps the epoch (a deliberate no-op
    /// data change).
    ///
    /// # Errors
    ///
    /// [`TableError::ArityMismatch`] on a malformed row or a non-empty
    /// `measures`; [`TableError::Io`] when sealing a segment fails. Either
    /// way the table stays at the previous epoch.
    pub fn try_append<R, S>(
        &self,
        cats: &[R],
        measures: &[Vec<f64>],
    ) -> Result<LiveSnapshot, TableError>
    where
        R: AsRef<[S]>,
        S: AsRef<str>,
    {
        no_measures(measures)?;
        let mut guard = self.state();
        let state = &mut *guard;
        let w = &mut state.writer;
        let n_cols = self.schema.n_columns();
        w.stage(Box::new(repeat((self.rows_per_segment, 0))), |batch| {
            for row in cats {
                let row = row.as_ref();
                if row.len() != n_cols {
                    return Err(TableError::ArityMismatch {
                        expected: n_cols,
                        got: row.len(),
                    });
                }
                batch.push(row.iter().map(AsRef::as_ref))?;
            }
            Ok(())
        })?;
        state.base_loads += state.current.table.loads();
        state.current = LiveSnapshot {
            table: Arc::new(w.freeze()),
            epoch: state.current.epoch + 1,
        };
        self.epoch.store(state.current.epoch, Ordering::Release);
        Ok(state.current.clone())
    }

    /// A live table holding `table`'s rows as epoch 1 (empty at epoch 0
    /// when it has none), pushed
    /// through the append staging as one batch: codes are interned afresh
    /// in first-appearance order, as every append interns them.
    pub fn from_table(table: &Table, config: &LiveTableConfig) -> Result<LiveTable, TableError> {
        LiveTable::seeded(table.schema().clone(), config, |batch| {
            for r in 0..table.n_rows() as RowId {
                batch.push((0..table.n_columns()).map(|c| table.value(r, c)))?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::spill::segment_file_name;
    use crate::shard::testutil::{live_rows, spill_dir};
    use crate::shard::ShardConfig;
    use crate::RowId;

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

    /// A live table carries no measures: a declared measure column fails
    /// the build, and any measure column fails an append whole, whatever
    /// its length.
    #[test]
    fn live_tables_reject_measures() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let config = LiveTableConfig::in_memory(4);
        assert_eq!(
            LiveTable::new(schema.clone(), vec!["m".to_owned()], &config).unwrap_err(),
            TableError::ArityMismatch {
                expected: 0,
                got: 1
            }
        );
        let live = LiveTable::new(schema, vec![], &config).unwrap();
        let rows = live_rows(2);
        for measures in [vec![vec![1.0, 2.0]], vec![vec![1.0]], vec![vec![]; 3]] {
            for batch in [&rows[..], &[]] {
                assert_eq!(
                    live.try_append(batch, &measures).unwrap_err(),
                    TableError::ArityMismatch {
                        expected: 0,
                        got: measures.len()
                    }
                );
            }
        }
        assert_eq!((live.epoch(), live.n_rows()), (0, 0));
    }

    #[test]
    fn live_append_rejects_malformed_rows_without_state_change() {
        let live = LiveTable::new(
            Schema::new(["A", "B"]).unwrap(),
            vec![],
            &LiveTableConfig::in_memory(4),
        )
        .unwrap();
        let bad = vec![vec!["only-one".to_owned()]];
        assert!(matches!(
            live.try_append(&bad, &[]),
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

    /// A batch that seals a segment and then meets a malformed row keeps
    /// nothing it staged: the epoch and rows are the prior epoch's, the
    /// dictionaries are un-grown, the segment it sealed has no file, and a
    /// retry writes exactly what a one-shot rebuild writes.
    #[test]
    fn live_append_failing_on_a_row_after_a_seal_keeps_nothing_it_staged() {
        let c = 4usize;
        let cfg = LiveTableConfig::spilling(c, spill_dir());
        let new = || LiveTable::new(Schema::new(["A", "B"]).unwrap(), vec![], &cfg);
        let live = new().unwrap();
        let rows: Vec<Vec<String>> = live_rows(2 * c + 1).iter().map(|r| r.to_vec()).collect();
        live.try_append(&rows[..2], &[]).unwrap();
        let dir = live.snapshot().table.spill_dir().unwrap().to_path_buf();

        // Rows 2..6 seal segment 0 at row 3; row 6 interns two values no
        // other row has; row 7 is one field short.
        let mut bad = rows[2..6].to_vec();
        bad.push(vec!["zz".into(), "yy".into()]);
        bad.push(vec!["short".into()]);
        let err = live.try_append(&bad, &[]);
        assert!(
            matches!(err, Err(TableError::ArityMismatch { .. })),
            "got {err:?}"
        );
        assert_eq!(
            (live.epoch(), live.n_rows(), live.segments_sealed()),
            (1, 2, 0)
        );
        {
            let state = live.state();
            let lens: Vec<usize> = state.writer.dicts.iter().map(|d| d.len()).collect();
            assert_eq!(lens, [2, 2], "dictionaries grew");
        }
        assert!(!dir.join(segment_file_name(0)).exists(), "segment 0 leaked");

        let snap = live.try_append(&rows[2..], &[]).unwrap();
        let rebuilt = new().unwrap();
        let rsnap = rebuilt.try_append(&rows, &[]).unwrap();
        for i in 0..2 {
            assert_eq!(
                std::fs::read(snap.table.spill_path(i).unwrap()).unwrap(),
                std::fs::read(rsnap.table.spill_path(i).unwrap()).unwrap(),
                "segment {i}: retry vs one-shot rebuild"
            );
        }
        for col in 0..2 {
            let (got, want) = (snap.table.dictionary(col), rsnap.table.dictionary(col));
            assert!(
                got.iter().eq(want.iter()),
                "column {col}: dictionaries differ"
            );
        }
        assert_eq!(gather_all(&snap.table), rows);
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
}
