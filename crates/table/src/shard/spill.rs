//! The spill tier: the `SDDSHRD2` file format, its one reader, and the
//! reference-counted files and directories that hold it.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::{with_codes, Code, Codes, Table, TableError};
use rustc_hash::FxHashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// The private spill subdirectory of one table, builder, or live table,
/// removed (best effort) when the last owner drops. Shared by `Arc` so a
/// live table's epoch snapshots can outlive each other in any order.
#[derive(Debug)]
pub(super) struct SpillRoot {
    dir: PathBuf,
}

impl SpillRoot {
    /// Creates a fresh private subdirectory of `dir`, unique within the
    /// process (a monotonic tag) and across processes (the pid).
    pub(super) fn create(dir: &Path) -> io::Result<Arc<SpillRoot>> {
        let tag = SPILL_TAG.fetch_add(1, Ordering::Relaxed);
        let root = dir.join(format!("sdd-shards-{}-{tag:04}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Arc::new(SpillRoot { dir: root }))
    }

    /// The directory.
    pub(super) fn dir(&self) -> &Path {
        &self.dir
    }
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
pub(super) struct SpillFile {
    path: PathBuf,
    /// Keeps the directory alive until every file in it is gone.
    _root: Arc<SpillRoot>,
}

impl SpillFile {
    pub(super) fn path(&self) -> &std::path::Path {
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

pub(super) fn segment_file_name(i: usize) -> String {
    format!("shard-{i:05}.seg")
}

/// Encodes segment `i` (the first `n_rows` global codes of each of `cols`)
/// into its file under `root` and returns the handle that deletes the file
/// when its last owner drops. The handle exists before the first byte is
/// written, so a failed write deletes whatever it left behind.
pub(super) fn spill_segment(
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
pub(super) fn read_spill_columns(
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
pub(super) fn globalize(cols: &[RawColumn], header: &Table) -> Vec<Codes> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testutil::{spill_dir, t};
    use crate::shard::{ShardConfig, ShardedTable};
    use crate::RowId;

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
}
