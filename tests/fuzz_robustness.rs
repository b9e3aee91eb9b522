//! Failure-injection and fuzz tests: hostile inputs must produce `Err`s,
//! never panics, and long random interaction sequences must preserve the
//! system's invariants.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use smart_drilldown::core::{Rule, SizeWeight};
use smart_drilldown::prelude::*;
use smart_drilldown::sampling::PrefetchEntry;
use smart_drilldown::server::{Engine, EngineConfig, Json, TailConfig};
use smart_drilldown::table::bucketize::{equal_depth, equal_width, hierarchy};
use smart_drilldown::table::csv::{read_csv, RecordReader};
use smart_drilldown::table::{LiveTable, LiveTableConfig, TableError, TableStore};
use std::io::{self, BufRead, BufReader};
use std::sync::Arc;

/// The CSV record reader as it was before it walked buffered slices: one
/// `fill_buf()`/`consume(1)` per byte, a `Vec<u8>` → `String` per field.
/// Kept verbatim as the differential oracle for [`RecordReader`] — records,
/// `record_line()`, `count_remaining` and every error with its line number
/// must agree on any input.
struct OracleReader<R: BufRead> {
    input: R,
    line: usize,
    record_line: usize,
    done: bool,
}

impl<R: BufRead> OracleReader<R> {
    fn new(input: R) -> Self {
        Self {
            input,
            line: 1,
            record_line: 1,
            done: false,
        }
    }

    fn line(&self) -> usize {
        self.line
    }

    fn record_line(&self) -> usize {
        self.record_line
    }

    fn peek_byte(&mut self) -> io::Result<Option<u8>> {
        Ok(self.input.fill_buf()?.first().copied())
    }

    fn next_byte(&mut self) -> io::Result<Option<u8>> {
        let b = self.peek_byte()?;
        if b.is_some() {
            self.input.consume(1);
        }
        Ok(b)
    }

    fn count_remaining(&mut self) -> Result<usize, TableError> {
        let mut count = 0usize;
        let mut in_quotes = false;
        let mut any_content = false;
        let mut field_len = 0usize; // only to detect mid-field stray quotes
        loop {
            let b = self.next_byte()?;
            let Some(b) = b else {
                self.done = true;
                if in_quotes {
                    return Err(TableError::Csv {
                        line: self.line,
                        message: "unterminated quoted field".to_owned(),
                    });
                }
                if any_content {
                    count += 1;
                }
                return Ok(count);
            };
            if in_quotes {
                match b {
                    b'"' => {
                        if self.peek_byte()? == Some(b'"') {
                            self.input.consume(1);
                            field_len += 1;
                        } else {
                            in_quotes = false;
                        }
                    }
                    b'\n' => {
                        self.line += 1;
                        field_len += 1;
                    }
                    _ => field_len += 1,
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
                    any_content = true;
                }
                b',' => {
                    any_content = true;
                    field_len = 0;
                }
                b'\r' | b'\n' => {
                    if b == b'\r' && self.peek_byte()? == Some(b'\n') {
                        self.input.consume(1);
                    }
                    self.line += 1;
                    if any_content {
                        count += 1;
                        any_content = false;
                    }
                    field_len = 0;
                }
                _ => {
                    field_len += 1;
                    any_content = true;
                }
            }
        }
    }
}

fn oracle_finish_field(field: &mut Vec<u8>, line: usize) -> Result<String, TableError> {
    String::from_utf8(std::mem::take(field)).map_err(|_| TableError::Csv {
        line,
        message: "invalid UTF-8 in field".to_owned(),
    })
}

impl<R: BufRead> Iterator for OracleReader<R> {
    type Item = Result<Vec<String>, TableError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut record: Vec<String> = Vec::new();
        let mut field: Vec<u8> = Vec::new();
        let mut in_quotes = false;
        let mut any_content = false;
        loop {
            let b = match self.next_byte() {
                Ok(b) => b,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            };
            let Some(b) = b else {
                self.done = true;
                if in_quotes {
                    return Some(Err(TableError::Csv {
                        line: self.line,
                        message: "unterminated quoted field".to_owned(),
                    }));
                }
                if any_content || !record.is_empty() {
                    match oracle_finish_field(&mut field, self.line) {
                        Ok(s) => record.push(s),
                        Err(e) => return Some(Err(e)),
                    }
                    return Some(Ok(record));
                }
                return None;
            };
            if in_quotes {
                match b {
                    b'"' => match self.peek_byte() {
                        Ok(Some(b'"')) => {
                            self.input.consume(1);
                            field.push(b'"');
                        }
                        Ok(_) => in_quotes = false,
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e.into()));
                        }
                    },
                    b'\n' => {
                        self.line += 1;
                        field.push(b);
                    }
                    _ => field.push(b),
                }
                continue;
            }
            match b {
                b'"' => {
                    if !field.is_empty() {
                        self.done = true;
                        return Some(Err(TableError::Csv {
                            line: self.line,
                            message: "quote in the middle of an unquoted field".to_owned(),
                        }));
                    }
                    in_quotes = true;
                    if !any_content {
                        self.record_line = self.line;
                    }
                    any_content = true;
                }
                b',' => {
                    match oracle_finish_field(&mut field, self.line) {
                        Ok(s) => record.push(s),
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                    }
                    if !any_content {
                        self.record_line = self.line;
                    }
                    any_content = true;
                }
                b'\r' | b'\n' => {
                    if b == b'\r' {
                        match self.peek_byte() {
                            Ok(Some(b'\n')) => self.input.consume(1),
                            Ok(_) => {}
                            Err(e) => {
                                self.done = true;
                                return Some(Err(e.into()));
                            }
                        }
                    }
                    self.line += 1;
                    if any_content || !record.is_empty() {
                        match oracle_finish_field(&mut field, self.line - 1) {
                            Ok(s) => record.push(s),
                            Err(e) => {
                                self.done = true;
                                return Some(Err(e));
                            }
                        }
                        return Some(Ok(record));
                    }
                    // Blank line: keep scanning for the next record.
                }
                _ => {
                    field.push(b);
                    if !any_content {
                        self.record_line = self.line;
                    }
                    any_content = true;
                }
            }
        }
    }
}

/// Everything observable about reading `input` through a `cap`-byte
/// buffer: each yielded item with the `record_line()` and `line()` after
/// it, then `count_remaining` from the start and from after the first
/// record (the streaming ingest's pass 1).
type ReadTrace = (
    Vec<(Result<Vec<String>, TableError>, usize, usize)>,
    Result<usize, TableError>,
    Result<usize, TableError>,
);

macro_rules! read_trace {
    ($reader:ident, $input:expr, $cap:expr) => {{
        let open = || $reader::new(BufReader::with_capacity($cap, $input));
        let mut r = open();
        let mut items = Vec::new();
        while let Some(item) = r.next() {
            items.push((item, r.record_line(), r.line()));
        }
        // Counting resumes a reader only after a good header; past an error
        // a reader is finished and has no count worth comparing.
        let mut after_header = open();
        let counted_after_header = match after_header.next() {
            Some(Err(_)) => Ok(0),
            _ => after_header.count_remaining(),
        };
        (items, open().count_remaining(), counted_after_header)
    }};
}

/// Pieces of CSV: mostly well-formed fields and separators (so records run
/// long), every line ending, quoted fields holding commas, newlines, CRs and
/// doubled quotes, a two-byte UTF-8 sequence (which a small buffer splits),
/// and the breakage — a stray quote, an invalid byte.
const CSV_SOUP: [&[u8]; 16] = [
    b"a",
    b"bc",
    b" ",
    b",",
    b",",
    b"\n",
    b"\r\n",
    b"\r",
    b"\"x,y\"",
    b"\"l1\nl2\"",
    b"\"q\"\"q\r\"",
    b"\"\"",
    b"\xC3\xA9",
    b"\n\n",
    b"\"",
    b"\xFF",
];

/// Pieces of the JSON grammar and its breakage — truncated literals and
/// escapes, a lone surrogate, a control byte, invalid UTF-8.
const JSON_SOUP: [&[u8]; 24] = [
    b"{",
    b"}",
    b"[",
    b"]",
    b",",
    b":",
    b"\"k\"",
    b"\"",
    b"\\",
    b"\\u",
    b"\\ud83d",
    b"\\ude00",
    b"null",
    b"tru",
    b"-",
    b"0",
    b"12",
    b".",
    b"e",
    b"E+",
    b" ",
    b"\x01",
    b"\xC3\xA9",
    b"\xFF",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The slice-walking reader agrees with the per-byte oracle on
    /// quote/CR/LF/blank-line soup — records, `record_line()`, `line()`,
    /// `count_remaining` and every error with its line number — through
    /// buffers small enough to split every lookahead and large enough to
    /// hold the input whole.
    #[test]
    fn csv_reader_matches_the_per_byte_oracle(picks in proptest::collection::vec(0usize..CSV_SOUP.len(), 0..60)) {
        let input: Vec<u8> = picks.iter().flat_map(|&i| CSV_SOUP[i]).copied().collect();
        for cap in [1usize, 2, 3, 7, 8192] {
            let want: ReadTrace = read_trace!(OracleReader, input.as_slice(), cap);
            let got: ReadTrace = read_trace!(RecordReader, input.as_slice(), cap);
            prop_assert_eq!(&got, &want, "buffer of {}, input {:?}", cap, String::from_utf8_lossy(&input));
        }
    }

    /// Arbitrary bytes-as-text never panic the CSV parser.
    #[test]
    fn csv_parser_never_panics(input in ".{0,200}") {
        let _ = read_csv(&input); // Ok or Err — both fine, no panic.
    }

    /// CSV with quote/comma/newline soup never panics.
    #[test]
    fn csv_parser_survives_quote_soup(parts in proptest::collection::vec("[\",\\n\\r a-z]{0,12}", 0..20)) {
        let input = parts.join("");
        let _ = read_csv(&input);
    }

    /// The protocol's JSON parser reads raw client bytes: soup of its own
    /// grammar, arbitrary bytes, and deep nesting around a long number run
    /// each parse or fail with an in-bounds offset, never panic, and what
    /// parses prints back to parseable text. Nesting past the depth limit
    /// (64) is an error, never a stack overflow.
    #[test]
    fn json_parser_never_panics(
        picks in proptest::collection::vec(0usize..JSON_SOUP.len(), 0..80),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        depth in 0usize..200,
        digits in 1usize..2000,
    ) {
        let soup: Vec<u8> = picks.iter().flat_map(|&i| JSON_SOUP[i]).copied().collect();
        let deep = format!("{}-{}.5e-3{}", "[".repeat(depth), "9".repeat(digits), "]".repeat(depth));
        prop_assert_eq!(Json::parse(&deep).is_ok(), depth <= 64, "depth {}", depth);
        for text in [String::from_utf8_lossy(&soup), String::from_utf8_lossy(&bytes), deep.into()] {
            match Json::parse(&text) {
                Ok(v) => prop_assert!(Json::parse(&v.to_string()).is_ok(), "{:?} -> {}", text, v),
                Err(e) => prop_assert!(e.offset <= text.len(), "{:?}: {}", text, e),
            }
        }
    }

    /// Bucketizers reject or handle any finite input without panicking.
    #[test]
    fn bucketizers_never_panic(values in proptest::collection::vec(-1e12f64..1e12, 0..50), n in 0usize..12) {
        let _ = equal_width(&values, n);
        let _ = equal_depth(&values, n);
        if n > 0 && !values.is_empty() {
            let h = hierarchy(&values, n.max(2), 2).unwrap();
            prop_assert_eq!(h.assignments[0].len(), values.len());
        }
    }

    /// Session navigation with random (often invalid) paths returns errors,
    /// never panics, and keeps the tree consistent.
    #[test]
    fn session_random_navigation(ops in proptest::collection::vec((0u8..4, proptest::collection::vec(0usize..5, 0..3)), 1..25)) {
        let table = Table::from_rows(
            Schema::new(["A", "B"]).unwrap(),
            &[
                &["a", "x"], &["a", "x"], &["a", "y"], &["b", "y"],
                &["b", "z"], &["c", "x"], &["c", "x"], &["a", "z"],
            ],
        ).unwrap();
        let table = std::sync::Arc::new(table);
        let config = ExplorerConfig { k: 2, ..ExplorerConfig::exact(table.n_rows()) };
        let mut ex = Explorer::new(table.clone(), Box::new(SizeWeight), config);
        for (op, path) in &ops {
            match op {
                0 => { let _ = ex.expand(path); }
                1 => { let _ = ex.expand_star(path, path.first().copied().unwrap_or(0) % 2); }
                2 => { let _ = ex.collapse(path); }
                _ => { let _ = ex.render(); }
            }
            // Invariants: every visible child is a strict super-rule of its
            // parent and covers no more rows than it; counts are exact and
            // do not exceed the table size.
            let visible = ex.visible();
            for (i, (depth, r)) in visible.iter().enumerate() {
                prop_assert!(r.exact);
                prop_assert!(r.count <= table.n_rows() as f64 + 1e-9);
                if *depth == 0 {
                    continue;
                }
                let parent = visible[..i].iter().rev().find(|(d, _)| d + 1 == *depth).unwrap().1;
                prop_assert!(r.rule.is_strict_super_rule_of(&parent.rule));
                prop_assert!(r.count <= parent.count + 1e-9);
            }
        }
    }
}

/// One `append` line over a `Store,Product` live table, which carries no
/// measures: `n_rows` rows, the one at `at` flawed by `kind` (a short or
/// long row, a number or null cell, a row that is no array; kinds 5.. leave
/// it whole), and measure columns of shape `shape` (none, one of the
/// batch's length, one too long or too short, two, an empty list, a
/// non-number value) — of which only none and the empty list fit. Returns
/// the line and whether the batch fits the table.
fn append_line(n_rows: usize, (kind, at): (usize, usize), shape: usize) -> (String, bool) {
    let at = at % n_rows.max(1);
    let mut rows_fit = true;
    let rows: Vec<String> = (0..n_rows)
        .map(|r| {
            let cells = format!("\"s{}\",\"p{}\"", r % 4, r % 7);
            if r == at {
                rows_fit = kind > 4;
            }
            match (r == at, kind) {
                (true, 0) => format!("[\"s{}\"]", r % 4),
                (true, 1) => format!("[{cells},\"x\"]"),
                (true, 2) => format!("[\"s0\",{r}]"),
                (true, 3) => "[null,\"p0\"]".to_owned(),
                (true, 4) => "\"row\"".to_owned(),
                _ => format!("[{cells}]"),
            }
        })
        .collect();
    let col = |len: usize| {
        let values: Vec<String> = (0..len).map(|i| format!("{i}.5")).collect();
        format!("[{}]", values.join(","))
    };
    let measures = match shape {
        0 => String::new(),
        1..=3 => format!(",\"measures\":[{}]", col(n_rows)),
        4 => format!(",\"measures\":[{}]", col(n_rows + 1)),
        5 => format!(",\"measures\":[{}]", col(n_rows.saturating_sub(1))),
        6 | 7 => format!(",\"measures\":[{c},{c}]", c = col(n_rows)),
        8 => ",\"measures\":[]".to_owned(),
        _ => ",\"measures\":[[\"x\"]]".to_owned(),
    };
    let line = format!(r#"{{"op":"append","rows":[{}]{measures}}}"#, rows.join(","));
    let measures_fit = matches!(shape, 0 | 8);
    (line, rows_fit && measures_fit && n_rows <= 10_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `append` lines from a soup of ragged rows, non-string cells, measure
    /// columns a live table does not take, and batches around the
    /// 10 000-row cap never panic a live engine, and never half-apply: each
    /// publishes exactly one epoch of exactly its rows when the batch fits
    /// the table, and leaves the table as it was when it does not.
    #[test]
    fn live_append_lines_never_panic_or_half_apply(
        batches in proptest::collection::vec(((0usize..10, 0usize..12), (any::<usize>(), 0usize..10)), 1..5),
    ) {
        let live = LiveTable::new(
            Schema::new(["Store", "Product"]).unwrap(),
            vec![],
            &LiveTableConfig::in_memory(64),
        )
        .unwrap();
        let config = EngineConfig { tail: Some(TailConfig::default()), ..EngineConfig::default() };
        let engine = Engine::with_store(TableStore::from(Arc::new(live)), config);
        for ((size, kind), (at, shape)) in batches {
            // A few rows (none twice as often), or around the cap.
            let n_rows = [0, 0, 1, 2, 3, 5, 9_998, 9_999, 10_000, 10_001][size];
            let (line, fits) = append_line(n_rows, (kind, at), shape);
            let (epoch, rows) = engine.live_info().unwrap();
            let (resp, _) = engine.handle_line(&line);
            let want = if fits { (epoch + 1, rows + n_rows) } else { (epoch, rows) };
            prop_assert_eq!(engine.live_info(), Some(want), "{} rows, flaw {}, shape {}: {}", n_rows, kind, shape, resp);
            prop_assert_eq!(resp.contains(r#""ok":true"#), fits, "{}", resp);
        }
    }
}

/// A long randomized interaction against the SampleHandler keeps memory
/// within the cap and every estimate within a loose factor of the truth.
#[test]
fn handler_stateful_random_ops() {
    let table = std::sync::Arc::new(retail(42));
    let view = table.view();
    let rules = [
        Rule::trivial(3),
        Rule::from_pairs(&table, &[("Store", "Walmart")]).unwrap(),
        Rule::from_pairs(&table, &[("Region", "MA-3")]).unwrap(),
        Rule::from_pairs(&table, &[("Product", "comforters")]).unwrap(),
        Rule::from_pairs(&table, &[("Store", "Target"), ("Product", "bicycles")]).unwrap(),
        Rule::from_pairs(&table, &[("Store", "Walmart"), ("Product", "cookies")]).unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(4242);
    let mut handler = SampleHandler::new(
        table.clone(),
        SampleHandlerConfig {
            capacity: 3_000,
            min_sample_size: 600,
            seed: 9,
        },
    );

    for step in 0..120 {
        match rng.gen_range(0..10) {
            0 => handler.clear(),
            1 => {
                let parent = rules[rng.gen_range(0..2)].clone();
                let entries: Vec<PrefetchEntry> = (0..2)
                    .map(|_| {
                        let r = rules[rng.gen_range(0..rules.len())].clone();
                        PrefetchEntry {
                            rule: r,
                            probability: 0.5,
                            selectivity: rng.gen_range(0.05..1.0),
                        }
                    })
                    .filter(|e| parent.is_sub_rule_of(&e.rule))
                    .collect();
                let _ = handler.try_prefetch(&parent, &entries).unwrap();
            }
            _ => {
                let rule = &rules[rng.gen_range(0..rules.len())];
                let sample = handler.try_get_sample(rule).unwrap();
                let est = sample.view.total_weight();
                let truth = smart_drilldown::core::rule_count(&view, rule);
                assert!(
                    (est - truth).abs() / truth.max(1.0) < 0.6,
                    "step {step}: estimate {est} too far from {truth} for {}",
                    rule.display(&table)
                );
            }
        }
        assert!(
            handler.memory_used() <= 3_000,
            "step {step}: memory {} over cap",
            handler.memory_used()
        );
    }
    // The workload must have exercised all three mechanisms.
    let stats = handler.stats;
    assert!(stats.finds > 0 && stats.creates > 0, "{stats:?}");
}

/// Zero-row and single-row tables flow through the whole stack.
#[test]
fn degenerate_tables_are_handled() {
    let empty = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &[] as &[&[&str]]).unwrap();
    let res = Brs::new(&SizeWeight).run(&empty.view(), 3);
    assert!(res.rules.is_empty());

    let single = Table::from_rows(Schema::new(["A", "B"]).unwrap(), &[&["x", "y"]]).unwrap();
    let res = Brs::new(&SizeWeight).run(&single.view(), 3);
    assert_eq!(res.rules.len(), 1);
    assert_eq!(res.rules[0].count, 1.0);
    assert_eq!(res.rules[0].rule.size(), 2);

    let config = ExplorerConfig {
        k: 3,
        ..ExplorerConfig::exact(single.n_rows())
    };
    let mut ex = Explorer::new(std::sync::Arc::new(single), Box::new(SizeWeight), config);
    ex.expand(&[]).unwrap();
    assert_eq!(ex.visible().len(), 2);
}

/// A table with one column and one value: the optimizer terminates with
/// the single possible rule.
#[test]
fn constant_table() {
    let rows: Vec<[&str; 1]> = vec![["same"]; 50];
    let t = Table::from_rows(Schema::new(["A"]).unwrap(), &rows).unwrap();
    let res = Brs::new(&SizeWeight).run(&t.view(), 5);
    assert_eq!(res.rules.len(), 1);
    assert_eq!(res.rules[0].count, 50.0);
}
