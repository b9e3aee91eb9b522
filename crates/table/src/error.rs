use std::fmt;

/// Errors produced by table construction and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row had a different number of fields than the schema, or a live
    /// table was handed measure columns (it takes none).
    ArityMismatch {
        /// Number of values expected (columns, or no measure columns).
        expected: usize,
        /// Number of values the offending row carried, or of measure
        /// columns passed.
        got: usize,
    },
    /// A column name was referenced that does not exist in the schema.
    UnknownColumn(String),
    /// A measure column was requested that the CSV header does not name.
    UnknownMeasure(String),
    /// Two columns were declared with the same name.
    DuplicateColumn(String),
    /// The CSV input was structurally malformed.
    Csv {
        /// 1-based line where the problem was detected.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A value could not be parsed as a number where one was required.
    ParseNumber(String),
    /// The table (or input) was empty where data was required.
    Empty,
    /// An I/O failure during streaming ingest or spill (message of the
    /// underlying [`std::io::Error`]; kept as a string so the error stays
    /// `Clone + Eq`).
    Io(String),
    /// A spill file failed structural validation (bad magic, truncated,
    /// shape mismatch, out-of-range local code). Distinct from [`Io`]:
    /// the bytes were readable but are not a valid segment — the file was
    /// damaged after it was written.
    ///
    /// [`Io`]: TableError::Io
    Corrupt(String),
    /// A row id named a row the table does not hold.
    RowOutOfRange {
        /// The offending row id.
        row: usize,
        /// Rows the table holds.
        n_rows: usize,
    },
    /// A shard index named a shard the table does not have.
    ShardOutOfRange {
        /// The offending shard index.
        shard: usize,
        /// Shards the table has.
        n_shards: usize,
    },
    /// A streaming shard build received a different number of rows than it
    /// declared up front (the span layout is a function of the total).
    RowCount {
        /// Rows the builder was created for.
        declared: usize,
        /// Rows actually pushed.
        got: usize,
    },
}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e.to_string())
    }
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected} values, got {got}")
            }
            TableError::UnknownColumn(name) => write!(f, "unknown column: {name:?}"),
            TableError::UnknownMeasure(name) => write!(f, "unknown measure column: {name:?}"),
            TableError::DuplicateColumn(name) => write!(f, "duplicate column name: {name:?}"),
            TableError::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
            TableError::ParseNumber(s) => write!(f, "cannot parse {s:?} as a number"),
            TableError::Empty => write!(f, "input is empty"),
            TableError::Io(message) => write!(f, "i/o error: {message}"),
            TableError::Corrupt(message) => write!(f, "corrupt spill file: {message}"),
            TableError::RowOutOfRange { row, n_rows } => {
                write!(f, "row {row} out of range: the table holds {n_rows} rows")
            }
            TableError::ShardOutOfRange { shard, n_shards } => {
                write!(
                    f,
                    "shard {shard} out of range: the table has {n_shards} shards"
                )
            }
            TableError::RowCount { declared, got } => {
                write!(f, "row count mismatch: declared {declared} rows, got {got}")
            }
        }
    }
}

impl std::error::Error for TableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TableError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.to_string().contains("2"));
        assert!(TableError::UnknownColumn("x".into())
            .to_string()
            .contains("x"));
        assert!(TableError::Csv {
            line: 7,
            message: "bad quote".into()
        }
        .to_string()
        .contains("line 7"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&TableError::Empty);
    }
}
