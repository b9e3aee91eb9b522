//! A small, self-contained CSV reader/writer.
//!
//! Supports the RFC-4180 essentials: comma separation, `"` quoting, embedded
//! quotes doubled (`""`), embedded commas and newlines inside quoted fields,
//! and both `\n` and `\r\n` record separators. Deliberately hand-rolled to
//! keep the workspace dependency-free.
//!
//! Every ingest surface runs one record loop over one record parser
//! ([`RecordReader`], a pull-based reader over any [`BufRead`]) and differs
//! only in where the loop puts each row: [`read_csv`] interns it into a
//! [`TableBuilder`] for a monolithic [`Table`], [`stream_csv_file`] into
//! the segment writer every sharded table is built with, and
//! [`stream_csv_live`] into a live table's append staging. The last two
//! seal each segment as its last row arrives — never holding more than one
//! unsealed segment (plus dictionaries) in memory. A table holds categorical
//! columns only: [`read_csv_with_measures`] is the one place where numeric
//! input becomes row weights, returned beside the table for the `Sum`
//! aggregate's [`crate::TableView::all_with_weights`].
//!
//! The loop scans a word (8 bytes) at a time, checks each record as UTF-8
//! once and interns through [`crate::Dictionary`]'s open-addressing index:
//! `read_csv` of census7-1M (10⁶ rows × 7 columns, 21 MB, 2-vCPU VM) takes
//! 186 ms (113 MB/s), where a byte-at-a-time scan, UTF-8 checks per field
//! and a hash map of boxed values took 456 ms (46 MB/s) (medians of 10).

use crate::shard::{Batch, LiveTable, LiveTableConfig, SegmentWriter, ShardConfig, ShardedTable};
use crate::view::{chunk_spans, is_weight};
use crate::{Schema, Table, TableBuilder, TableError};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::sync::Arc;

/// Parses CSV text (first record = header) into a [`Table`].
///
/// Every column is ingested as categorical. To read a numeric column as
/// row weights (for `Sum` aggregates), use [`read_csv_with_measures`].
pub fn read_csv(input: &str) -> Result<Table, TableError> {
    Ok(read_csv_with_measures(input, &[])?.0)
}

/// Where the record loop puts each row's categorical values, in schema
/// order.
pub(crate) trait RowSink {
    fn push<'v>(&mut self, cats: impl Iterator<Item = &'v str>) -> Result<(), TableError>;
}

/// The one CSV record loop over a reader whose header is routed: the
/// columns named as measures become row weights, the rest the schema.
struct CsvRows<R: BufRead> {
    reader: RecordReader<R>,
    width: usize,
    cat_idx: Vec<usize>,
    measure_idx: Vec<usize>,
}

impl<R: BufRead> CsvRows<R> {
    /// Reads the header of `input` and routes it: the loop and the schema.
    /// Each measure name must appear in the header exactly once.
    fn new(input: R, measures: &[&str]) -> Result<(Self, Schema), TableError> {
        let mut reader = RecordReader::new(input);
        let header = reader.next().ok_or(TableError::Empty)??;
        let find = |m: &&str| match header.iter().position(|h| h == m) {
            None => Err(TableError::UnknownMeasure((*m).to_owned())),
            Some(i) if header[i + 1..].iter().any(|h| h == m) => {
                Err(TableError::DuplicateColumn((*m).to_owned()))
            }
            Some(i) => Ok(i),
        };
        let measure_idx = measures.iter().map(find).collect::<Result<Vec<_>, _>>()?;
        let cat_idx: Vec<usize> = (0..header.len())
            .filter(|i| !measure_idx.contains(i))
            .collect();
        let schema = Schema::new(cat_idx.iter().map(|&i| header[i].clone()))?;
        let rows = CsvRows {
            reader,
            width: header.len(),
            cat_idx,
            measure_idx,
        };
        Ok((rows, schema))
    }

    /// Checks each record's arity against the header, reporting the input
    /// line the record started on, appends its measure fields to
    /// `measures` (one column per requested name) and hands its categorical
    /// fields to `sink`. A measure field must parse as a number that is a
    /// valid weight (finite and non-negative): it weighs its row in a `Sum`.
    fn feed(
        mut self,
        sink: &mut impl RowSink,
        measures: &mut [Vec<f64>],
    ) -> Result<(), TableError> {
        debug_assert_eq!(measures.len(), self.measure_idx.len());
        let reader = &mut self.reader;
        let width = self.width;
        while reader.read_record(true)? {
            let line = reader.record_line();
            if reader.n_fields() != width {
                let message = format!("expected {width} fields, got {}", reader.n_fields());
                return Err(TableError::Csv { line, message });
            }
            for (&i, col) in self.measure_idx.iter().zip(measures.iter_mut()) {
                let raw = reader.field(i).trim();
                let v = raw
                    .parse()
                    .map_err(|_| TableError::ParseNumber(raw.to_owned()))?;
                if !is_weight(v) {
                    let message = format!("measure value {raw:?} is negative, NaN or infinite");
                    return Err(TableError::Csv { line, message });
                }
                col.push(v);
            }
            sink.push(self.cat_idx.iter().map(|&i| reader.field(i)))?;
        }
        Ok(())
    }
}

/// Parses CSV text, reading the named columns as numbers instead of
/// categorical columns: the table of the other columns, and one weight
/// column per name in `measures`, in that order. Weigh the table by one of
/// them with [`crate::TableView::all_with_weights`] (the `Sum` aggregate,
/// §6.3).
///
/// # Errors
///
/// [`TableError::UnknownMeasure`] for a name the header lacks,
/// [`TableError::DuplicateColumn`] for one it holds twice,
/// [`TableError::ParseNumber`] for a measure field that is not a number,
/// and [`TableError::Csv`] naming the line of the first negative, NaN or
/// infinite one, which no weight may be.
pub fn read_csv_with_measures(
    input: &str,
    measures: &[&str],
) -> Result<(Table, Vec<Vec<f64>>), TableError> {
    let (rows, schema) = CsvRows::new(input.as_bytes(), measures)?;
    // Size every column once: growing them by doubling leaves each outgrown
    // copy behind as a hole in the heap, and those holes, not the table, set
    // the ingest's peak memory. Every record but the last ends in a newline
    // and spends at least a byte per field, so this bounds the rows from
    // above, and a hostile input cannot make it reserve more than a few
    // bytes per input byte.
    let (words, tail) = input.as_bytes().as_chunks::<8>();
    let newlines = words
        .iter()
        .map(|word| bytes_equal(u64::from_ne_bytes(*word), b'\n').count_ones() as usize)
        .sum::<usize>()
        + tail.iter().filter(|&&b| b == b'\n').count();
    let n_rows = newlines.min(input.len() / rows.width.max(1));
    let mut builder = TableBuilder::new(schema);
    builder.reserve(n_rows);
    let mut cols: Vec<Vec<f64>> = measures
        .iter()
        .map(|_| Vec::with_capacity(n_rows))
        .collect();
    rows.feed(&mut builder, &mut cols)?;
    Ok((builder.build(), cols))
}

/// Streams a CSV file into a [`ShardedTable`] without ever materializing
/// the monolithic [`Table`] — the out-of-core ingest path. Every column is
/// categorical, as in [`read_csv`].
///
/// Pass 1 counts the data records with a field-free byte scan (header and
/// quote structure errors surface here, everything else in pass 2); the count
/// fixes the deterministic span layout. Pass 2 re-reads the file through
/// the record loop [`read_csv`] uses and pushes each row into the one
/// segment writer every sharded and live table is built with: it interns
/// global codes in first-appearance order and seals every segment the
/// moment its last row arrives, through the same seal
/// `ShardedTable::from_table` uses. Peak memory is therefore one unsealed
/// segment plus the growing dictionaries — never O(rows) — and a file whose
/// record count changes between the passes is a [`TableError::RowCount`].
///
/// Because global codes are assigned in the same first-appearance order the
/// materializing reader uses, the result is **bit-identical** (segment
/// bytes, spill files, every downstream drill-down transcript) to
/// `ShardedTable::from_table(&read_csv(text)?, config)` on the same input,
/// for every shard count, resident or spilled.
pub fn stream_csv_file(
    path: impl AsRef<std::path::Path>,
    config: &ShardConfig,
) -> Result<ShardedTable, TableError> {
    let open = || -> Result<BufReader<File>, TableError> {
        Ok(BufReader::new(File::open(path.as_ref())?))
    };
    // Pass 1: route the header, count the records.
    let n_rows = CsvRows::new(open()?, &[])?.0.reader.count_remaining()?;
    // Pass 2: the record loop, into the segment writer.
    let (rows, schema) = CsvRows::new(open()?, &[])?;
    stream_segments(schema, n_rows, config, |batch| rows.feed(batch, &mut []))
}

/// The sharded table of the `n_rows` rows `fill` pushes into a fresh
/// segment writer, which seals each span of [`chunk_spans`] the moment its
/// last row arrives. Fails with [`TableError::RowCount`] when fewer or
/// more rows arrive; an abandoned build deletes the spill files it wrote.
fn stream_segments(
    schema: Schema,
    n_rows: usize,
    config: &ShardConfig,
    fill: impl FnOnce(&mut Batch<'_>) -> Result<(), TableError>,
) -> Result<ShardedTable, TableError> {
    let dicts = (0..schema.n_columns()).map(|_| Arc::default()).collect();
    let mut writer = SegmentWriter::new(schema, dicts, config.spill_dir.as_deref())?;
    // The empty table's single `0..0` span takes no row: it seals after the
    // stream, so that the layout matches `from_table`'s.
    let spans = chunk_spans(n_rows, config.shards.max(1)).into_iter();
    let plans = spans.filter(|s| !s.is_empty()).map(|s| (s.len(), s.len()));
    writer.stage(Box::new(plans), fill)?;
    let got = writer.segments.n_rows();
    if got != n_rows {
        return Err(TableError::RowCount {
            declared: n_rows,
            got,
        });
    }
    if n_rows == 0 {
        writer.seal(0)?;
    }
    Ok(writer.freeze())
}

/// Streams a CSV file into a new [`LiveTable`] in one pass, through the
/// append staging: its records become epoch 1 (a header-only file leaves
/// the table empty at epoch 0), each segment sealing as its last row
/// arrives, so the file is never held whole. The table is the one a
/// [`LiveTable::try_append`] of the same rows in one batch builds. Every
/// column is categorical, as in [`read_csv`]. A malformed record fails the
/// build, and its spill directory goes with it.
pub fn stream_csv_live(
    path: impl AsRef<std::path::Path>,
    config: &LiveTableConfig,
) -> Result<LiveTable, TableError> {
    let (rows, schema) = CsvRows::new(BufReader::new(File::open(path)?), &[])?;
    LiveTable::seeded(schema, config, |batch| rows.feed(batch, &mut []))
}

/// Serializes a table to CSV text, header first.
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    let names = table.schema().columns().iter().map(|c| c.name());
    write_record(&mut out, names);
    for row in 0..table.n_rows() as u32 {
        write_record(
            &mut out,
            (0..table.n_columns()).map(|c| table.value(row, c)),
        );
    }
    out
}

/// Appends one record of `fields` and its newline.
fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    for (i, field) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(out, field);
    }
    out.push('\n');
}

fn write_field(out: &mut String, field: &str) {
    let needs_quote =
        field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r');
    if needs_quote {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// A pull-based CSV record reader over any byte stream, honoring quoting.
///
/// Yields one record (a `Vec` of fields) at a time without buffering the
/// rest of the input — the primitive behind both [`read_csv`] and
/// [`stream_csv_file`] (a counting pass, then the same record loop).
/// Quoting metacharacters are all ASCII, so the state machine runs on
/// bytes; multi-byte UTF-8 sequences pass through fields untouched (and
/// are validated once per record).
///
/// The machine walks each buffered slice the input lends
/// ([`BufRead::fill_buf`]) a word of 8 bytes at a time: an unquoted stretch
/// of fields and commas is one scan and one copy. It keeps the current
/// record in one reused buffer plus the offsets of its separators; only the
/// [`Iterator`] surface allocates a `String` per field.
pub struct RecordReader<R: BufRead> {
    input: R,
    line: usize,
    record_line: usize,
    done: bool,
    /// The current record while it is scanned: its fields, quoting
    /// resolved, each followed by one separator byte but the last.
    buf: Vec<u8>,
    /// The same bytes once the record is read and checked UTF-8.
    text: String,
    /// The end offset of each field of the current record in its bytes
    /// (`buf`, when they are kept); the next field starts one byte (its
    /// separator) later.
    ends: Vec<usize>,
}

/// The high bit of each byte of `word` that equals `b`, and no other bit:
/// adding 0x7F to a byte's low seven bits never carries out of the byte.
fn bytes_equal(word: u64, b: u8) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let x = word ^ u64::from_ne_bytes([b; 8]);
    !((x & LOW7).wrapping_add(LOW7) | x | LOW7)
}

/// The offset of the first byte of `bytes` that `hits` marks in its
/// little-endian word, read 8 bytes at a time, or its length. `hits` gets
/// each word and its offset; the last word is padded with zeros, a byte no
/// search here looks for.
fn first_hit(bytes: &[u8], mut hits: impl FnMut(u64, usize) -> u64) -> usize {
    let found = |hit: u64, at: usize| (hit != 0).then(|| at + hit.trailing_zeros() as usize / 8);
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        if let Some(at) = found(hits(u64::from_le_bytes(*word), 8 * i), 8 * i) {
            return at;
        }
    }
    let mut last = [0; 8];
    last[..tail.len()].copy_from_slice(tail);
    let at = 8 * words.len();
    found(hits(u64::from_le_bytes(last), at), at).unwrap_or(bytes.len())
}

/// The length of the unquoted stretch `bytes` starts with — field bytes and
/// commas, up to the first quote, `\r` or `\n` — pushing the offset of each
/// of its commas, plus `base`, onto `ends`.
fn unquoted_stretch(bytes: &[u8], base: usize, ends: &mut Vec<usize>) -> usize {
    first_hit(bytes, |word, at| {
        let commas = bytes_equal(word, b',');
        let stops = bytes_equal(word, b'"') | bytes_equal(word, b'\r') | bytes_equal(word, b'\n');
        // The commas below the first stop: all of them when there is none.
        let mut before = commas & stops.wrapping_sub(1);
        while before != 0 {
            ends.push(base + at + before.trailing_zeros() as usize / 8);
            before &= before - 1;
        }
        stops
    })
}

impl<R: BufRead> RecordReader<R> {
    /// Wraps a buffered byte stream.
    pub fn new(input: R) -> Self {
        Self {
            input,
            line: 1,
            record_line: 1,
            done: false,
            buf: Vec::new(),
            text: String::new(),
            ends: Vec::new(),
        }
    }

    /// The 1-based input line the reader is currently on.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The 1-based input line the most recently yielded record **started**
    /// on — exact even across blank lines and quoted embedded newlines, so
    /// ingest errors point at the offending record, not a nearby one.
    pub fn record_line(&self) -> usize {
        self.record_line
    }

    /// Number of fields of the current record.
    fn n_fields(&self) -> usize {
        self.ends.len()
    }

    /// The byte range of field `i` of the current record.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] + 1 };
        start..self.ends[i]
    }

    /// Field `i` of the current record.
    fn field(&self, i: usize) -> &str {
        &self.text[self.span(i)]
    }

    /// Advances to the next record, skipping blank lines; `false` at end of
    /// input. With `keep`, the record's fields are stored (and validated as
    /// UTF-8, once for the whole record: its separators are ASCII, so each
    /// field is UTF-8 when the whole is) for [`RecordReader::field`];
    /// without, only the record boundaries and the quote structure are
    /// checked. Every error ends the reader; a field that ended before it
    /// and is not UTF-8 is the error reported.
    fn read_record(&mut self, keep: bool) -> Result<bool, TableError> {
        if self.done {
            return Ok(false);
        }
        let out = match self.scan_record(keep) {
            Ok(true) if keep => match String::from_utf8(std::mem::take(&mut self.buf)) {
                Ok(text) => {
                    self.text = text;
                    Ok(true)
                }
                Err(e) => {
                    self.buf = e.into_bytes();
                    Err(self
                        .bad_field(true)
                        .expect("a field of a non-UTF-8 record is not UTF-8"))
                }
            },
            Err(e) if keep => Err(self.bad_field(false).unwrap_or(e)),
            out => out,
        };
        if !matches!(out, Ok(true)) {
            self.done = true;
        }
        out
    }

    /// The error of the first ended field of the record in `buf` that is
    /// not UTF-8, if any, on the line it ended on: the record's first line
    /// plus the newlines (all of them quoted) before its end. The reader
    /// then stands on that line, unless the field ended a `complete` record.
    fn bad_field(&mut self, complete: bool) -> Option<TableError> {
        let field = (0..self.ends.len())
            .find(|&i| std::str::from_utf8(&self.buf[self.span(i)]).is_err())?;
        let newlines = self.buf[..self.ends[field]].iter().filter(|&&b| b == b'\n');
        let line = self.record_line + newlines.count();
        if !complete || field + 1 < self.ends.len() {
            self.line = line;
        }
        let message = "invalid UTF-8 in field".to_owned();
        Some(TableError::Csv { line, message })
    }

    /// The record state machine behind [`RecordReader::read_record`]: one
    /// `fill_buf` per buffered slice, unquoted stretches and quoted runs
    /// scanned a word at a time and copied whole, `consume` once per slice.
    /// A quote inside a quoted field and a `\r` both need the byte after
    /// them, which may sit in the next slice — they are carried across as
    /// `quote_pending` / `cr_pending`.
    fn scan_record(&mut self, keep: bool) -> Result<bool, TableError> {
        self.buf = std::mem::take(&mut self.text).into_bytes();
        self.buf.clear();
        self.ends.clear();
        let mut in_quotes = false;
        let mut quote_pending = false;
        let mut cr_pending = false;
        // True once the current record has any content (field bytes, a
        // quote or a comma) — a blank line yields no record.
        let mut any_content = false;
        // Bytes of the record so far, which `buf` holds when it is kept.
        let mut len = 0usize;
        loop {
            let chunk = self.input.fill_buf()?;
            if chunk.is_empty() {
                // A pending quote was the closing one; a pending `\r` ended
                // its line at end of input.
                if in_quotes && !quote_pending {
                    return Err(TableError::Csv {
                        line: self.line,
                        message: "unterminated quoted field".to_owned(),
                    });
                }
                if cr_pending {
                    self.line += 1;
                }
                if !any_content {
                    return Ok(false);
                }
                self.ends.push(len);
                // The input is spent: the record stands, the reader is done.
                self.done = true;
                return Ok(true);
            }
            let mut i = 0;
            // `Some(n)`: the line ended `n` bytes into the chunk.
            let mut line_end: Option<usize> = None;
            while i < chunk.len() {
                let b = chunk[i];
                if cr_pending {
                    // The byte after a `\r`: swallow the `\n` of a CRLF.
                    line_end = Some(if b == b'\n' { i + 1 } else { i });
                    break;
                }
                if quote_pending {
                    quote_pending = false;
                    if b == b'"' {
                        // A doubled quote is one literal quote.
                        if keep {
                            self.buf.push(b'"');
                        }
                        len += 1;
                        i += 1;
                        continue;
                    }
                    in_quotes = false;
                }
                if in_quotes {
                    let run = first_hit(&chunk[i..], |word, _| bytes_equal(word, b'"'));
                    let bytes = &chunk[i..i + run];
                    self.line += bytes.iter().filter(|&&b| b == b'\n').count();
                    if keep {
                        self.buf.extend_from_slice(bytes);
                    }
                    len += run;
                    i += run;
                    if i < chunk.len() {
                        quote_pending = true;
                        i += 1;
                    }
                    continue;
                }
                match b {
                    b'"' => {
                        // A quote may only open a field.
                        if len > self.ends.last().map_or(0, |&comma| comma + 1) {
                            return Err(TableError::Csv {
                                line: self.line,
                                message: "quote in the middle of an unquoted field".to_owned(),
                            });
                        }
                        in_quotes = true;
                        i += 1;
                    }
                    b'\r' => {
                        cr_pending = true;
                        i += 1;
                        continue;
                    }
                    b'\n' => {
                        line_end = Some(i + 1);
                        break;
                    }
                    _ => {
                        let run = unquoted_stretch(&chunk[i..], len, &mut self.ends);
                        if keep {
                            self.buf.extend_from_slice(&chunk[i..i + run]);
                        }
                        len += run;
                        i += run;
                    }
                }
                if !any_content {
                    self.record_line = self.line;
                    any_content = true;
                }
            }
            let used = line_end.unwrap_or(i);
            self.input.consume(used);
            if line_end.is_some() {
                cr_pending = false;
                self.line += 1;
                if any_content {
                    self.ends.push(len);
                    return Ok(true);
                }
                // Blank line: keep scanning for the next record.
            }
        }
    }

    /// Counts the remaining records without materializing a single field —
    /// the streaming ingest's pass 1. Runs the same record-boundary state
    /// machine as iteration (so the count always matches what a subsequent
    /// full read yields) and surfaces the same quote-structure errors;
    /// per-field validation (UTF-8, arity, numbers) is pass 2's job, and a
    /// file changing between passes is caught by the segment sink's
    /// declared row count.
    pub fn count_remaining(&mut self) -> Result<usize, TableError> {
        let mut count = 0usize;
        while self.read_record(false)? {
            count += 1;
        }
        Ok(count)
    }
}

impl<R: BufRead> Iterator for RecordReader<R> {
    type Item = Result<Vec<String>, TableError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.read_record(true) {
            Ok(true) => Some(Ok((0..self.n_fields())
                .map(|i| self.field(i).to_owned())
                .collect())),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codes;
    use std::path::PathBuf;

    /// Writes `text` to a file under the temp dir named for this process
    /// and `tag`.
    fn csv_file(text: &str, tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("sdd-csv-unit-{}-{tag}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    fn t(n: usize) -> Table {
        let mut b = TableBuilder::new(Schema::new(["A", "B"]).unwrap());
        for i in 0..n {
            b.push_row(&[format!("a{}", i % 5), format!("b{}", i % 3)])
                .unwrap();
        }
        b.build()
    }

    /// A streamed build of `rows` rows of two columns from the rows `fill`
    /// pushes.
    fn build(
        rows: usize,
        config: &ShardConfig,
        fill: impl FnOnce(&mut Batch<'_>) -> Result<(), TableError>,
    ) -> Result<ShardedTable, TableError> {
        stream_segments(Schema::new(["A", "B"]).unwrap(), rows, config, fill)
    }

    /// Every span of the `chunk_spans` layout seals the moment its last row
    /// arrives — after row `i`, as many segments are sealed as spans end
    /// at or below `i + 1` — and a resident seal keeps its span's reserved
    /// buffer, which holds exactly its rows.
    #[test]
    fn streamed_spans_seal_as_their_last_row_arrives() {
        for n_rows in [0, 1, 5, 17, 37, 180] {
            for shards in 1..10 {
                for config in [
                    ShardConfig::in_memory(shards),
                    ShardConfig::spilling(shards, 0, std::env::temp_dir()),
                ] {
                    let spans = chunk_spans(n_rows, shards);
                    let st = build(n_rows, &config, |s| {
                        for i in 0..n_rows {
                            let (a, b) = (format!("v{}", i % 6), format!("w{}", i % 4));
                            s.push([a.as_str(), b.as_str()].into_iter())?;
                            let sealed = spans.iter().filter(|s| !s.is_empty() && s.end <= i + 1);
                            assert_eq!(
                                s.staged.spans.len(),
                                sealed.count(),
                                "{n_rows} rows, {shards} shards: row {i} sealed off a span end"
                            );
                        }
                        Ok(())
                    })
                    .unwrap();
                    assert_eq!(st.spans(), spans.as_slice());
                    for i in 0..st.n_shards() {
                        let Some(seg) = st.resident_segment(i) else {
                            continue;
                        };
                        for c in 0..2 {
                            let Codes::W1(codes) = seg.col(c) else {
                                panic!("not one byte")
                            };
                            assert_eq!(codes.capacity(), codes.len(), "shard {i} col {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn segment_sink_rejects_row_count_mismatch() {
        let config = ShardConfig::in_memory(2);
        assert!(matches!(
            build(2, &config, |s| s.push(["x", "y"].into_iter())),
            Err(TableError::RowCount {
                declared: 2,
                got: 1
            })
        ));
        for declared in [0, 1] {
            build(declared, &config, |s| {
                for _ in 0..declared {
                    s.push(["x", "y"].into_iter()).unwrap();
                }
                assert_eq!(
                    s.push(["x", "y"].into_iter()).unwrap_err(),
                    TableError::RowCount {
                        declared,
                        got: declared + 1
                    }
                );
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn stream_matches_from_table_segments_and_spill_bytes() {
        let table = t(37);
        let path = csv_file(&write_csv(&table), "parity");
        for shards in [1, 3, 8] {
            for config in [
                ShardConfig::in_memory(shards),
                ShardConfig::spilling(shards, 0, std::env::temp_dir()),
            ] {
                let a = ShardedTable::from_table(&table, &config).unwrap();
                let b = stream_csv_file(&path, &config).unwrap();
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
                }
                for c in 0..table.n_columns() {
                    assert_eq!(a.cardinality(c), b.cardinality(c));
                    let da: Vec<_> = a.dictionary(c).iter().collect();
                    let db: Vec<_> = b.dictionary(c).iter().collect();
                    assert_eq!(da, db, "col {c}: dictionaries differ");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_spills_each_segment_exactly_once_and_stays_cold() {
        let table = t(60);
        let path = csv_file(&write_csv(&table), "cold");
        let config = ShardConfig::spilling(6, 0, std::env::temp_dir());
        let st = stream_csv_file(&path, &config).unwrap();
        std::fs::remove_file(&path).ok();
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
    fn stream_handles_zero_rows() {
        let path = csv_file("A,B\n", "empty");
        for config in [
            ShardConfig::in_memory(3),
            ShardConfig::spilling(3, 0, std::env::temp_dir()),
        ] {
            let st = stream_csv_file(&path, &config).unwrap();
            assert_eq!(st.n_rows(), 0);
            let reference = ShardedTable::from_table(&t(0), &config).unwrap();
            assert_eq!(st.spans(), reference.spans());
            assert_eq!(st.spills(), reference.spills());
        }
        std::fs::remove_file(&path).ok();
    }

    /// The one segment of a streamed file in one resident shard, moved out
    /// of its table, is the monolithic table: same codes at the same
    /// widths, same dictionaries.
    #[test]
    fn one_resident_shard_is_the_monolithic_table() {
        let text = write_csv(&t(300));
        let path = csv_file(&text, "whole");
        let st = stream_csv_file(&path, &ShardConfig::in_memory(1)).unwrap();
        std::fs::remove_file(&path).ok();
        let seg = st.try_segment(0).unwrap();
        drop(st);
        let streamed = Arc::try_unwrap(seg).unwrap().into_table();
        let whole = read_csv(&text).unwrap();
        assert_eq!(streamed.n_rows(), whole.n_rows());
        for c in 0..whole.n_columns() {
            assert_eq!(streamed.column(c), whole.column(c), "col {c}");
            let da: Vec<_> = streamed.dictionary(c).iter().collect();
            let db: Vec<_> = whole.dictionary(c).iter().collect();
            assert_eq!(da, db, "col {c}: dictionaries differ");
        }
    }

    #[test]
    fn roundtrip_simple() {
        let csv = "Store,Product\nWalmart,cookies\nTarget,bicycles\n";
        let t = read_csv(csv).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value(0, 0), "Walmart");
        assert_eq!(write_csv(&t), csv);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\nplain,field\n";
        let t = read_csv(csv).unwrap();
        assert_eq!(t.value(0, 0), "x,y");
        assert_eq!(t.value(0, 1), "he said \"hi\"");
        // Roundtrip re-quotes correctly.
        let back = write_csv(&t);
        let t2 = read_csv(&back).unwrap();
        assert_eq!(t2.value(0, 1), "he said \"hi\"");
    }

    #[test]
    fn embedded_newline_in_quoted_field() {
        let csv = "a\n\"line1\nline2\"\n";
        let t = read_csv(csv).unwrap();
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.value(0, 0), "line1\nline2");
    }

    #[test]
    fn crlf_line_endings() {
        let csv = "a,b\r\n1,2\r\n3,4\r\n";
        let t = read_csv(csv).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value(1, 1), "4");
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let t = read_csv("a\nx").unwrap();
        assert_eq!(t.n_rows(), 1);
    }

    #[test]
    fn field_count_mismatch_reports_line() {
        let err = read_csv("a,b\n1,2\n3\n").unwrap_err();
        match err {
            TableError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(read_csv("").unwrap_err(), TableError::Empty);
    }

    #[test]
    fn measures_are_parsed_as_numbers() {
        let csv = "Store,Sales\nWalmart,100\nTarget,250.5\n";
        let (t, sales) = read_csv_with_measures(csv, &["Sales"]).unwrap();
        assert_eq!(t.n_columns(), 1);
        assert_eq!(sales, [[100.0, 250.5]]);
    }

    #[test]
    fn measures_come_in_request_order_and_once_per_header_name() {
        let csv = "A,Sales,Store,Cost\na,1,x,2\n";
        let (t, m) = read_csv_with_measures(csv, &["Cost", "Sales"]).unwrap();
        assert_eq!(t.schema(), &Schema::new(["A", "Store"]).unwrap());
        assert_eq!(m, [[2.0], [1.0]]);
        assert_eq!(
            read_csv_with_measures("Sales,Sales\n1,2\n", &["Sales"]).unwrap_err(),
            TableError::DuplicateColumn("Sales".to_owned())
        );
    }

    #[test]
    fn bad_measure_value_is_parse_error() {
        let csv = "Store,Sales\nWalmart,lots\n";
        assert!(matches!(
            read_csv_with_measures(csv, &["Sales"]),
            Err(TableError::ParseNumber(_))
        ));
    }

    #[test]
    fn unknown_measure_name_is_error() {
        let csv = "Store\nWalmart\n";
        assert!(matches!(
            read_csv_with_measures(csv, &["Sales"]),
            Err(TableError::UnknownMeasure(_))
        ));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(matches!(
            read_csv("a\n\"oops\n"),
            Err(TableError::Csv { .. })
        ));
    }

    #[test]
    fn stray_quote_is_error() {
        assert!(matches!(
            read_csv("a\nfoo\"bar\n"),
            Err(TableError::Csv { .. })
        ));
    }

    #[test]
    fn empty_fields_are_preserved() {
        let t = read_csv("a,b\n,x\n").unwrap();
        assert_eq!(t.value(0, 0), "");
        assert_eq!(t.value(0, 1), "x");
    }

    #[test]
    fn arity_error_line_is_exact_across_embedded_newlines_and_blanks() {
        // Row 1 spans input lines 2-3 (quoted newline); a blank line
        // follows; the short record starts on line 5 and must be reported
        // there, not at record-index + 2 (= 4).
        let err = read_csv("a,b\n\"l1\nl2\",x\n\n5\n").unwrap_err();
        match err {
            TableError::Csv { line, message } => {
                assert_eq!(line, 5, "{message}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn count_remaining_matches_full_iteration() {
        let cases = [
            "plain\nrows\n",
            "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\nplain,field\n",
            "a\n\"line1\nline2\"\n",
            "a,b\r\n1,2\r\n3,4\r\n",
            "a\nx",       // no trailing newline
            "a\n\nx\n\n", // blank lines yield no records
            "",
        ];
        for case in cases {
            let full = RecordReader::new(case.as_bytes())
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .len();
            let counted = RecordReader::new(case.as_bytes())
                .count_remaining()
                .unwrap();
            assert_eq!(counted, full, "case {case:?}");
        }
        // Structural errors surface from the counting pass too.
        assert!(matches!(
            RecordReader::new("a\n\"oops\n".as_bytes()).count_remaining(),
            Err(TableError::Csv { .. })
        ));
        assert!(matches!(
            RecordReader::new("a\nfoo\"bar\n".as_bytes()).count_remaining(),
            Err(TableError::Csv { .. })
        ));
    }
}
