//! The one segment writer every sharded and live table is built with.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use super::sharded::{segment, Shard, ShardedTable};
use super::spill::{spill_segment, SpillRoot};
use crate::csv::RowSink;
use crate::table::push_interned;
use crate::{Codes, Dictionary, Schema, Table, TableError};
use std::io;
use std::iter::Peekable;
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// The sealed segments of a [`SegmentWriter`] and the open rows after them:
/// the part of the writer a batch stages on a copy of.
#[derive(Debug, Clone)]
pub(crate) struct Segments {
    /// The sealed spans, in row order.
    pub(crate) spans: Vec<Range<usize>>,
    /// One shard per sealed span, except the spans still in `parked`.
    sealed: Vec<Shard>,
    /// The codes of the last sealed spans of a writer without a spill
    /// directory, waiting for the next freeze to make them resident.
    parked: Vec<Vec<Codes>>,
    /// The open rows' global codes, one column each, each at the narrowest
    /// width its dictionary fits.
    pub(crate) open: Vec<Codes>,
    /// The number of open rows (a table may have no categorical column).
    pub(super) open_rows: usize,
}

impl Segments {
    /// Rows sealed or open.
    pub(crate) fn n_rows(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end) + self.open_rows
    }

    /// Seals the first `len` open rows as the next segment. This is where
    /// every build decides spilled or resident: under a spill root the
    /// segment's file is written now, and the rows leave the open set only
    /// once it is; without one its codes are parked until the next freeze,
    /// which makes them a resident segment under that freeze's
    /// dictionaries.
    pub(super) fn seal(&mut self, root: Option<&Arc<SpillRoot>>, len: usize) -> io::Result<()> {
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

/// The one segment writer: [`ShardedTable::from_table`],
/// [`crate::csv::stream_csv_file`] and [`LiveTable`] all build their tables
/// with it. It interns rows in first-appearance order, seals segments
/// through [`Segments::seal`], and [`SegmentWriter::freeze`]s its sealed
/// segments and open rows into a [`ShardedTable`] — once for a build, once
/// per epoch for a live table.
#[derive(Debug)]
pub(crate) struct SegmentWriter {
    schema: Schema,
    /// This writer's spill subdirectory: `Some` spills every sealed segment.
    pub(super) spill_root: Option<Arc<SpillRoot>>,
    /// The growing dictionaries.
    pub(crate) dicts: Vec<Dictionary>,
    /// The last freeze's handles on `dicts`. Dictionaries only append, so a
    /// column whose length did not move since keeps its handle and every
    /// older handle is a prefix of every newer one.
    frozen_dicts: Vec<Arc<Dictionary>>,
    pub(crate) segments: Segments,
}

impl SegmentWriter {
    /// A writer with no segments and no open rows whose dictionaries start
    /// as `dicts`; with `spill_dir` it spills every segment into a private
    /// subdirectory of that directory.
    pub(crate) fn new(
        schema: Schema,
        dicts: Vec<Arc<Dictionary>>,
        spill_dir: Option<&std::path::Path>,
    ) -> io::Result<SegmentWriter> {
        let spill_root = spill_dir.map(SpillRoot::create).transpose()?;
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
        })
    }

    /// [`Segments::seal`] under this writer's spill root.
    pub(crate) fn seal(&mut self, len: usize) -> io::Result<()> {
        self.segments.seal(self.spill_root.as_ref(), len)
    }

    /// Runs `fill` over a [`Batch`] of this writer sealing the `spans`, and
    /// adopts the batch's segments once every row has arrived. Any failure
    /// rolls the batch back: dropping its copy deletes the files it spilled,
    /// and the dictionaries go back to their lengths before it.
    pub(crate) fn stage(
        &mut self,
        spans: Box<dyn Iterator<Item = (usize, usize)>>,
        fill: impl FnOnce(&mut Batch<'_>) -> Result<(), TableError>,
    ) -> Result<(), TableError> {
        let dict_lens: Vec<usize> = self.dicts.iter().map(Dictionary::len).collect();
        let mut batch = Batch {
            staged: self.segments.clone(),
            writer: self,
            spans: spans.peekable(),
        };
        if let Err(e) = fill(&mut batch) {
            for (dict, &len) in batch.writer.dicts.iter_mut().zip(&dict_lens) {
                dict.truncate(len);
            }
            return Err(e);
        }
        batch.writer.segments = batch.staged;
        Ok(())
    }

    /// The table of every row so far: a header under fresh handles of the
    /// dictionaries that grew since the last freeze, the sealed segments —
    /// the parked ones made resident here, once — and the open rows as a
    /// resident segment of their own.
    pub(crate) fn freeze(&mut self) -> ShardedTable {
        for (frozen, dict) in self.frozen_dicts.iter_mut().zip(&self.dicts) {
            if frozen.len() != dict.len() {
                *frozen = Arc::new(dict.clone());
            }
        }
        let header = Arc::new(Table::from_parts(
            self.schema.clone(),
            self.frozen_dicts.clone(),
            vec![Codes::for_cardinality(0); self.schema.n_columns()],
            0,
        ));
        let segs = &mut self.segments;
        for cols in segs.parked.drain(..) {
            let seg = segment(&header, &segs.spans[segs.sealed.len()], cols);
            segs.sealed.push(Shard::Resident(seg));
        }
        let (mut spans, mut shards) = (segs.spans.clone(), segs.sealed.clone());
        // The open rows get a span whenever there are any — and so does the
        // empty table, whose layout is the canonical single `0..0` span.
        if segs.open_rows > 0 || spans.is_empty() {
            let start = spans.last().map_or(0, |s| s.end);
            let span = start..start + segs.open_rows;
            let open = segment(&header, &span, segs.open.clone());
            spans.push(span);
            shards.push(Shard::Resident(open));
        }
        ShardedTable {
            header,
            spans,
            shards,
            spill_root: self.spill_root.clone(),
            loads: AtomicU64::new(0),
        }
    }
}

/// Rows staged into a [`SegmentWriter`] by [`SegmentWriter::stage`]: they
/// intern onto a copy of its open rows, and each span seals — spilling, or
/// parked until the next freeze — the moment its last row arrives.
pub(crate) struct Batch<'w> {
    writer: &'w mut SegmentWriter,
    /// The copy of the writer's segments the rows go to.
    pub(crate) staged: Segments,
    /// The spans still to seal, the next one first: each one's length and
    /// the rows its open columns reserve as its first row arrives. A build
    /// that knows its spans fill reserves each whole, so that a resident
    /// seal moves the buffers instead of copying them.
    spans: Peekable<Box<dyn Iterator<Item = (usize, usize)>>>,
}

impl RowSink for Batch<'_> {
    /// Fails with [`TableError::RowCount`] once every span is sealed.
    fn push<'v>(&mut self, cats: impl Iterator<Item = &'v str>) -> Result<(), TableError> {
        let Some(&(len, reserve)) = self.spans.peek() else {
            let declared = self.staged.n_rows();
            return Err(TableError::RowCount {
                declared,
                got: declared + 1,
            });
        };
        if self.staged.open_rows == 0 {
            self.staged
                .open
                .iter_mut()
                .for_each(|col| col.reserve(reserve));
        }
        push_interned(&mut self.staged.open, &mut self.writer.dicts, cats);
        self.staged.open_rows += 1;
        if self.staged.open_rows == len {
            self.staged.seal(self.writer.spill_root.as_ref(), len)?;
            self.spans.next();
        }
        Ok(())
    }
}
