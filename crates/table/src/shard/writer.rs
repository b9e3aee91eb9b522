//! The one segment writer every table is built with, and [`ShardBuilder`],
//! which streams rows into it.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use super::sharded::{segment, Shard, ShardConfig, ShardedTable};
use super::spill::{spill_segment, SpillRoot};
use crate::view::chunk_spans;
use crate::{Codes, Dictionary, Schema, Table, TableError};
use std::io;
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Measure names must differ from every categorical column and each other.
pub(super) fn require_distinct_measures(
    schema: &Schema,
    measures: &[String],
) -> Result<(), TableError> {
    for (i, name) in measures.iter().enumerate() {
        if schema.index_of(name).is_ok() || measures[..i].contains(name) {
            return Err(TableError::DuplicateColumn(name.clone()));
        }
    }
    Ok(())
}

/// The sealed segments of a [`SegmentWriter`] and the open rows after them:
/// the part of the writer a live append stages on a copy of.
#[derive(Debug, Clone)]
pub(super) struct Segments {
    /// The sealed spans, in row order.
    pub(super) spans: Vec<Range<usize>>,
    /// One shard per sealed span, except the spans still in `parked`.
    sealed: Vec<Shard>,
    /// The codes of the last sealed spans of a writer without a spill
    /// directory, waiting for the next freeze to make them resident.
    parked: Vec<Vec<Codes>>,
    /// The open rows' global codes, one column each, each at the narrowest
    /// width its dictionary fits.
    pub(super) open: Vec<Codes>,
    /// The number of open rows (a table may have no categorical column).
    pub(super) open_rows: usize,
}

impl Segments {
    /// Rows sealed or open.
    fn n_rows(&self) -> usize {
        self.spans.last().map_or(0, |s| s.end) + self.open_rows
    }

    /// Interns one row's categorical values (one per column) into `dicts`
    /// and appends their codes to the open rows. An open column whose
    /// dictionary outgrows its width is widened once, then and there.
    pub(super) fn push<'v>(
        &mut self,
        dicts: &mut [Dictionary],
        cats: impl Iterator<Item = &'v str>,
    ) {
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

/// The one segment writer: [`ShardedTable::from_table`], [`ShardBuilder`]
/// and [`LiveTable`] all build their tables with it. It interns rows in
/// first-appearance order, seals segments through [`Segments::seal`], and
/// [`SegmentWriter::freeze`]s its sealed segments and open rows into a
/// [`ShardedTable`] — once for a build, once per epoch for a live table.
#[derive(Debug)]
pub(super) struct SegmentWriter {
    pub(super) schema: Schema,
    /// This writer's spill subdirectory: `Some` spills every sealed segment.
    pub(super) spill_root: Option<Arc<SpillRoot>>,
    /// The growing dictionaries.
    pub(super) dicts: Vec<Dictionary>,
    /// The last freeze's handles on `dicts`. Dictionaries only append, so a
    /// column whose length did not move since keeps its handle and every
    /// older handle is a prefix of every newer one.
    frozen_dicts: Vec<Arc<Dictionary>>,
    /// Every row's measure values, by measure name.
    measures: Vec<(String, Vec<f64>)>,
    pub(super) segments: Segments,
}

impl SegmentWriter {
    /// A writer with no segments and no open rows whose dictionaries start
    /// as `dicts` and whose measure columns start as `measures`; with
    /// `spill_dir` it spills every segment into a private subdirectory of
    /// that directory.
    pub(super) fn new(
        schema: Schema,
        dicts: Vec<Arc<Dictionary>>,
        measures: Vec<(String, Vec<f64>)>,
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
            measures,
        })
    }

    /// Appends one row of measure values, in declaration order.
    pub(super) fn push_measures(&mut self, values: &[f64]) {
        for ((_, col), &v) in self.measures.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// [`Segments::seal`] under this writer's spill root.
    pub(super) fn seal(&mut self, len: usize) -> io::Result<()> {
        self.segments.seal(self.spill_root.as_ref(), len)
    }

    /// The table of every row so far: a header under fresh handles of the
    /// dictionaries that grew since the last freeze, the measure columns
    /// (cloned whole), the sealed segments — the parked ones made resident
    /// here, once — and the open rows as a resident segment of their own.
    pub(super) fn freeze(&mut self) -> ShardedTable {
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
/// [`LiveTable`]: super::LiveTable
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testutil::{spill_dir, t};
    use crate::{RowId, TableBuilder};

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
}
