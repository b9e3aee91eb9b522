//! A small, self-contained CSV reader/writer.
//!
//! Supports the RFC-4180 essentials: comma separation, `"` quoting, embedded
//! quotes doubled (`""`), embedded commas and newlines inside quoted fields,
//! and both `\n` and `\r\n` record separators. Deliberately hand-rolled to
//! keep the workspace dependency-free (see DESIGN.md §2).
//!
//! Two ingest surfaces share one record parser ([`RecordReader`], a
//! pull-based reader over any [`BufRead`]): [`read_csv`] materializes a
//! monolithic [`Table`], and [`stream_csv_file`] streams a file straight
//! into a [`ShardedTable`] through a [`ShardBuilder`] (the segment writer
//! every sharded table is built with) — never holding more than one
//! unsealed segment (plus dictionaries) in memory.

use crate::shard::{ShardBuilder, ShardConfig, ShardedTable};
use crate::{Schema, Table, TableBuilder, TableError};
use std::fs::File;
use std::io::{BufRead, BufReader};

/// Parses CSV text (first record = header) into a [`Table`].
///
/// Every column is ingested as categorical. To treat a numeric column as a
/// measure (for `Sum` aggregates), use [`read_csv_with_measures`].
pub fn read_csv(input: &str) -> Result<Table, TableError> {
    read_csv_with_measures(input, &[])
}

/// Categorical column indices plus the `(record index, name)` routes of
/// the requested measure columns.
type ColumnRouting = (Vec<usize>, Vec<(usize, String)>);

/// Splits a CSV header into the categorical column indices and the
/// `(record index, name)` routes of the requested measure columns —
/// shared by the materializing and streaming ingest paths so both produce
/// the same schema and measure order for the same input.
fn route_columns(header: &[String], measures: &[&str]) -> Result<ColumnRouting, TableError> {
    let mut cat_idx: Vec<usize> = Vec::new();
    let mut measure_idx: Vec<(usize, String)> = Vec::new();
    for (i, name) in header.iter().enumerate() {
        if measures.contains(&name.as_str()) {
            measure_idx.push((i, name.clone()));
        } else {
            cat_idx.push(i);
        }
    }
    for m in measures {
        if !header.iter().any(|h| h == m) {
            return Err(TableError::UnknownMeasure((*m).to_owned()));
        }
    }
    Ok((cat_idx, measure_idx))
}

/// Checks one data record's arity against the header, reporting the input
/// line the record started on — shared by both ingest paths so identical
/// malformed input yields identical errors.
fn check_arity(n_fields: usize, header_len: usize, start_line: usize) -> Result<(), TableError> {
    if n_fields != header_len {
        return Err(TableError::Csv {
            line: start_line,
            message: format!("expected {header_len} fields, got {n_fields}"),
        });
    }
    Ok(())
}

/// Parses the current record's measure fields in route order into `out`.
fn parse_measures<R: BufRead>(
    reader: &RecordReader<R>,
    measure_idx: &[(usize, String)],
    out: &mut Vec<f64>,
) -> Result<(), TableError> {
    out.clear();
    for (i, _) in measure_idx {
        let raw = reader.field(*i).trim();
        let v: f64 = raw
            .parse()
            .map_err(|_| TableError::ParseNumber(raw.to_owned()))?;
        out.push(v);
    }
    Ok(())
}

/// Parses CSV text, routing the named columns into numeric measure columns
/// instead of categorical columns.
pub fn read_csv_with_measures(input: &str, measures: &[&str]) -> Result<Table, TableError> {
    let mut reader = RecordReader::new(input.as_bytes());
    let header = reader.next().ok_or(TableError::Empty)??;
    let (cat_idx, measure_idx) = route_columns(&header, measures)?;

    let schema = Schema::new(cat_idx.iter().map(|&i| header[i].clone()))?;
    // Size every column once: growing them by doubling leaves each outgrown
    // copy behind as a hole in the heap, and those holes, not the table, set
    // the ingest's peak memory. Every record but the last ends in a newline
    // and spends at least a byte per field, so this bounds the rows from
    // above, and a hostile input cannot make it reserve more than a few
    // bytes per input byte.
    let newlines = input.bytes().filter(|&b| b == b'\n').count();
    let rows = newlines.min(input.len() / header.len().max(1));
    let mut builder = TableBuilder::new(schema);
    builder.reserve(rows);
    let mut measure_vals: Vec<Vec<f64>> = (0..measure_idx.len())
        .map(|_| Vec::with_capacity(rows))
        .collect();
    let mut measure_buf: Vec<f64> = Vec::with_capacity(measure_idx.len());

    while reader.read_record(true)? {
        check_arity(reader.n_fields(), header.len(), reader.record_line())?;
        // `cat_idx` routes one field to each schema column.
        builder.push_values(cat_idx.iter().map(|&i| reader.field(i)));
        parse_measures(&reader, &measure_idx, &mut measure_buf)?;
        for (slot, &v) in measure_vals.iter_mut().zip(&measure_buf) {
            slot.push(v);
        }
    }

    for (vals, (_, name)) in measure_vals.into_iter().zip(measure_idx) {
        builder.add_measure(name, vals)?;
    }
    builder.build()
}

/// Streams a CSV file into a [`ShardedTable`] without ever materializing
/// the monolithic [`Table`] — the out-of-core ingest path.
///
/// Pass 1 routes the header (a bad measure name fails immediately) and
/// counts the data records with a field-free byte scan — quote-structure
/// errors surface here, everything per-field (UTF-8, arity, numbers) in
/// pass 2; the count fixes the deterministic span layout. Pass 2
/// re-reads the file and pushes each row through a [`ShardBuilder`], which
/// drives the one segment writer every sharded and live table is built
/// with: it interns global codes in first-appearance order and spills every
/// segment the moment it seals, through the same seal
/// `ShardedTable::from_table` uses. Peak memory is therefore one unsealed
/// segment plus the growing dictionaries and measure columns — never
/// O(rows).
///
/// Because global codes are assigned in the same first-appearance order the
/// materializing reader uses, the result is **bit-identical** (segment
/// bytes, spill files, every downstream drill-down transcript) to
/// `ShardedTable::from_table(&read_csv_with_measures(text, measures)?, config)`
/// on the same input, for every shard count, resident or spilled.
pub fn stream_csv_file(
    path: impl AsRef<std::path::Path>,
    measures: &[&str],
    config: &ShardConfig,
) -> Result<ShardedTable, TableError> {
    let path = path.as_ref();
    let open = || -> Result<RecordReader<BufReader<File>>, TableError> {
        Ok(RecordReader::new(BufReader::new(File::open(path)?)))
    };

    // Pass 1: route the header (so a bad measure name fails before any
    // full pass over the file), then count the remaining records without
    // materializing a single field.
    let mut reader = open()?;
    let header = reader.next().ok_or(TableError::Empty)??;
    let (cat_idx, measure_idx) = route_columns(&header, measures)?;
    let total = reader.count_remaining()?;

    // Pass 2: stream rows into the builder.
    let mut reader = open()?;
    let second_header = reader.next().ok_or(TableError::Empty)??;
    if second_header != header {
        return Err(TableError::Csv {
            line: 1,
            message: "file changed between ingest passes".to_owned(),
        });
    }
    let schema = Schema::new(cat_idx.iter().map(|&i| header[i].clone()))?;
    let measure_names: Vec<String> = measure_idx.iter().map(|(_, n)| n.clone()).collect();
    let mut builder = ShardBuilder::new(schema, measure_names, total, config)?;
    let mut measure_buf: Vec<f64> = Vec::with_capacity(measure_idx.len());
    while reader.read_record(true)? {
        check_arity(reader.n_fields(), header.len(), reader.record_line())?;
        parse_measures(&reader, &measure_idx, &mut measure_buf)?;
        builder.push_values(cat_idx.iter().map(|&i| reader.field(i)), &measure_buf)?;
    }
    builder.finish()
}

/// Serializes a table (categorical columns then measures) to CSV text.
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    let n_cat = table.n_columns();
    let measure_names: Vec<&str> = table.measure_names().collect();

    for c in 0..n_cat {
        if c > 0 {
            out.push(',');
        }
        write_field(&mut out, table.schema().column_name(c));
    }
    for name in &measure_names {
        if n_cat > 0 || !out.is_empty() {
            out.push(',');
        }
        write_field(&mut out, name);
    }
    out.push('\n');

    let measures: Vec<&[f64]> = measure_names
        .iter()
        .map(|n| table.measure(n).expect("name came from the table"))
        .collect();

    for row in 0..table.n_rows() as u32 {
        let mut first = true;
        for c in 0..n_cat {
            if !first {
                out.push(',');
            }
            first = false;
            write_field(&mut out, table.value(row, c));
        }
        for m in &measures {
            if !first {
                out.push(',');
            }
            first = false;
            let v = m[row as usize];
            out.push_str(&format_number(v));
        }
        out.push('\n');
    }
    out
}

fn format_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
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
/// rest of the input — the primitive behind both [`read_csv`] (collect
/// everything) and [`stream_csv_file`] (two single-record-at-a-time
/// passes). Quoting metacharacters are all ASCII, so the state machine
/// runs on bytes; multi-byte UTF-8 sequences pass through fields
/// untouched (and are validated once per field).
///
/// The machine walks each buffered slice the input lends
/// ([`BufRead::fill_buf`]) run by run, and keeps the current record in one
/// reused byte buffer plus field end offsets; only the [`Iterator`] surface
/// allocates a `String` per field.
pub struct RecordReader<R: BufRead> {
    input: R,
    line: usize,
    record_line: usize,
    done: bool,
    /// The current record's field bytes back to back, quoting resolved.
    buf: Vec<u8>,
    /// The end offset in `buf` of each field of the current record.
    ends: Vec<usize>,
}

/// Ends the current field of the record in `buf`: validates it as UTF-8 and
/// records its end offset. `line` is the line an error is reported on.
fn end_field(buf: &[u8], ends: &mut Vec<usize>, line: usize) -> Result<(), TableError> {
    let start = ends.last().copied().unwrap_or(0);
    if std::str::from_utf8(&buf[start..]).is_err() {
        return Err(TableError::Csv {
            line,
            message: "invalid UTF-8 in field".to_owned(),
        });
    }
    ends.push(buf.len());
    Ok(())
}

/// Bytes that end a run of plain field bytes outside quotes.
fn is_special(b: u8) -> bool {
    matches!(b, b',' | b'"' | b'\n' | b'\r')
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

    /// Field `i` of the current record.
    fn field(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        std::str::from_utf8(&self.buf[start..self.ends[i]]).expect("validated when the field ended")
    }

    /// Advances to the next record, skipping blank lines; `false` at end of
    /// input. With `keep`, the record's fields are stored (and validated as
    /// UTF-8) for [`RecordReader::field`]; without, only the record
    /// boundaries and the quote structure are checked. Every error ends the
    /// reader.
    fn read_record(&mut self, keep: bool) -> Result<bool, TableError> {
        if self.done {
            return Ok(false);
        }
        let out = self.scan_record(keep);
        if !matches!(out, Ok(true)) {
            self.done = true;
        }
        out
    }

    /// The record state machine behind [`RecordReader::read_record`]: one
    /// `fill_buf` per buffered slice, plain runs copied whole, `consume`
    /// once per slice. A quote inside a quoted field and a `\r` both need
    /// the byte after them, which may sit in the next slice — they are
    /// carried across as `quote_pending` / `cr_pending`.
    fn scan_record(&mut self, keep: bool) -> Result<bool, TableError> {
        self.buf.clear();
        self.ends.clear();
        let mut in_quotes = false;
        let mut quote_pending = false;
        let mut cr_pending = false;
        // True once the current record has any content (field bytes, a
        // quote or a comma) — a blank line yields no record.
        let mut any_content = false;
        // Bytes in the current field so far: a quote may only open one.
        let mut field_len = 0usize;
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
                if keep {
                    let line = if cr_pending { self.line - 1 } else { self.line };
                    end_field(&self.buf, &mut self.ends, line)?;
                }
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
                        field_len += 1;
                        i += 1;
                        continue;
                    }
                    in_quotes = false;
                }
                if in_quotes {
                    let run = chunk[i..]
                        .iter()
                        .position(|&b| b == b'"')
                        .unwrap_or(chunk.len() - i);
                    let bytes = &chunk[i..i + run];
                    self.line += bytes.iter().filter(|&&b| b == b'\n').count();
                    if keep {
                        self.buf.extend_from_slice(bytes);
                    }
                    field_len += run;
                    i += run;
                    if i < chunk.len() {
                        quote_pending = true;
                        i += 1;
                    }
                    continue;
                }
                match b {
                    b'"' => {
                        if field_len > 0 {
                            return Err(TableError::Csv {
                                line: self.line,
                                message: "quote in the middle of an unquoted field".to_owned(),
                            });
                        }
                        in_quotes = true;
                        i += 1;
                    }
                    b',' => {
                        if keep {
                            end_field(&self.buf, &mut self.ends, self.line)?;
                        }
                        field_len = 0;
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
                        let run = chunk[i..]
                            .iter()
                            .position(|&b| is_special(b))
                            .unwrap_or(chunk.len() - i);
                        if keep {
                            self.buf.extend_from_slice(&chunk[i..i + run]);
                        }
                        field_len += run;
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
                    if keep {
                        end_field(&self.buf, &mut self.ends, self.line - 1)?;
                    }
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
    /// file changing between passes is caught by the builder's declared
    /// row-count contract.
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
        let t = read_csv_with_measures(csv, &["Sales"]).unwrap();
        assert_eq!(t.n_columns(), 1);
        assert_eq!(t.measure("Sales").unwrap(), &[100.0, 250.5]);
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
    fn measure_roundtrip_in_write_csv() {
        let csv = "Store,Sales\nWalmart,100\n";
        let t = read_csv_with_measures(csv, &["Sales"]).unwrap();
        let out = write_csv(&t);
        assert_eq!(out, "Store,Sales\nWalmart,100\n");
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
