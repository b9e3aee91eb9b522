use crate::csv::RowSink;
use crate::view::{RowId, TableView};
use crate::{Codes, Dictionary, Schema, TableError};
use std::sync::Arc;

/// An immutable, dictionary-encoded, column-major relational table.
///
/// This is the paper's denormalized table `D` (§2.1): every column is
/// categorical (bucketize numeric data first, see [`crate::bucketize`]), and
/// cell values are stored as dense dictionary codes for cache-friendly
/// scans, each column at the narrowest width its dictionary fits ([`Codes`]:
/// `u8` up to 256 values, `u16` up to 65 536, `u32` beyond). Optional *measure* columns hold finite, non-negative `f64` values for the `Sum`
/// aggregate of §6.3 — they are never instantiated by rules, and only a
/// monolithic table carries them (sharded, spilled and live tables hold
/// the categorical columns alone).
///
/// Dictionaries are held by `Arc`, so derived tables that keep the same
/// code space — shard segments, [`Table::gather_rows`] outputs, sharded
/// tables' zero-row headers — share one dictionary allocation with
/// their source instead of deep-cloning it per copy.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    dicts: Vec<Arc<Dictionary>>,
    cols: Vec<Codes>,
    measures: Vec<(String, Vec<f64>)>,
    n_rows: usize,
}

impl Table {
    /// Starts building a table with the given schema.
    pub fn builder(schema: Schema) -> TableBuilder {
        TableBuilder::new(schema)
    }

    /// Assembles a measureless table from pre-validated parts (the sharded
    /// substrate's segment loader). Callers guarantee that every code is
    /// within its dictionary and all lengths equal `n_rows`. A column
    /// narrower than its dictionary needs — codes sealed before the
    /// dictionary outgrew their width — is widened here, so every table's
    /// columns are exactly as wide as its dictionaries.
    pub(crate) fn from_parts(
        schema: Schema,
        dicts: Vec<Arc<Dictionary>>,
        mut cols: Vec<Codes>,
        n_rows: usize,
    ) -> Table {
        for (col, dict) in cols.iter_mut().zip(&dicts) {
            col.fit(dict.len());
        }
        debug_assert_eq!(cols.len(), schema.n_columns());
        debug_assert!(cols.iter().all(|c| c.len() == n_rows));
        Table {
            schema,
            dicts,
            cols,
            measures: Vec::new(),
            n_rows,
        }
    }

    /// Convenience constructor from string rows.
    ///
    /// ```
    /// use sdd_table::{Schema, Table};
    /// let t = Table::from_rows(
    ///     Schema::new(["Store", "Product"]).unwrap(),
    ///     &[&["Walmart", "cookies"], &["Target", "bicycles"]],
    /// ).unwrap();
    /// assert_eq!(t.n_rows(), 2);
    /// ```
    pub fn from_rows<R: AsRef<[S]>, S: AsRef<str>>(
        schema: Schema,
        rows: &[R],
    ) -> Result<Self, TableError> {
        let mut b = TableBuilder::new(schema);
        for row in rows {
            b.push_row(row.as_ref())?;
        }
        b.build()
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows, the paper's `|T|`.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of categorical columns, the paper's `|C|`.
    pub fn n_columns(&self) -> usize {
        self.schema.n_columns()
    }

    /// The dictionary of column `col`. Panics if out of range.
    pub fn dictionary(&self, col: usize) -> &Dictionary {
        self.dicts[col].as_ref()
    }

    /// The shared handle of column `col`'s dictionary. Tables derived
    /// without re-interning (shard segments, gathers, headers) return
    /// pointer-identical handles to their source's — the Arc-sharing
    /// invariant the substrate property suite pins down.
    pub fn dictionary_arc(&self, col: usize) -> &Arc<Dictionary> {
        &self.dicts[col]
    }

    /// All dictionary handles, in column order.
    pub(crate) fn dictionaries(&self) -> &[Arc<Dictionary>] {
        &self.dicts
    }

    /// Number of distinct values in column `col` (the paper's `|c|`).
    pub fn cardinality(&self, col: usize) -> usize {
        self.dicts[col].len()
    }

    /// The dictionary code at (`row`, `col`). Panics if out of range.
    #[inline]
    pub fn code(&self, row: RowId, col: usize) -> u32 {
        self.cols[col].at(row as usize)
    }

    /// The raw code column `col` (one entry per row), at the narrowest width
    /// its dictionary fits.
    #[inline]
    pub fn column(&self, col: usize) -> &Codes {
        &self.cols[col]
    }

    /// The string value at (`row`, `col`).
    pub fn value(&self, row: RowId, col: usize) -> &str {
        self.dicts[col]
            .value_of(self.code(row, col))
            .expect("code out of dictionary range: corrupt table")
    }

    /// Copies the codes of `row` into `buf` (resized to `n_columns`).
    pub fn row_codes(&self, row: RowId, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|c| c.at(row as usize)));
    }

    /// Names of the measure columns, in declaration order.
    pub fn measure_names(&self) -> impl Iterator<Item = &str> {
        self.measures.iter().map(|(n, _)| n.as_str())
    }

    /// The values of measure column `name` (one per row).
    pub fn measure(&self, name: &str) -> Result<&[f64], TableError> {
        self.measures
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
            .ok_or_else(|| TableError::UnknownMeasure(name.to_owned()))
    }

    /// A view over all rows with unit weights (plain `Count` semantics).
    pub fn view(&self) -> TableView<'_> {
        TableView::all(self)
    }

    /// A view over all rows weighted by measure column `name`
    /// (`Sum` semantics, §6.3 of the paper). The view borrows the measure
    /// column as its weights, which are finite and non-negative: a table
    /// holds no other measure value (see [`TableBuilder::build`]), and the
    /// `mw` prune of BRS is sound only for such weights.
    pub fn view_weighted_by(&self, name: &str) -> Result<TableView<'_>, TableError> {
        Ok(TableView::all_with_weights(self, self.measure(name)?))
    }

    /// Materializes a new `Table` keeping only the first `n` columns —
    /// the paper's display convention ("we restrict the tables to the first
    /// 7 columns", §5). Measures are carried over.
    pub fn project_first_columns(&self, n: usize) -> Table {
        let n = n.min(self.n_columns());
        let schema = Schema::new((0..n).map(|c| self.schema.column_name(c).to_owned()))
            .expect("subset of unique names stays unique");
        let mut b = TableBuilder::new(schema);
        b.reserve(self.n_rows);
        let mut row: Vec<&str> = Vec::with_capacity(n);
        for r in 0..self.n_rows as RowId {
            row.clear();
            for c in 0..n {
                row.push(self.value(r, c));
            }
            b.push_row(&row).expect("arity preserved");
        }
        for (name, vals) in &self.measures {
            b.add_measure(name.clone(), vals.clone())
                .expect("measure names stay unique");
        }
        b.build().expect("lengths preserved")
    }

    /// Materializes a new `Table` containing only `rows` (in the given
    /// order) while **preserving this table's dictionaries verbatim**: the
    /// gathered table has the same schema, the same code space, and the
    /// same per-column cardinalities as `self`.
    ///
    /// This is the bit-compatibility primitive behind the sharded substrate
    /// ([`crate::ShardedTable::try_gather_rows`] and the sampling layer's
    /// materialized samples): any computation over the gathered rows sees
    /// exactly the code sequence, weights, and cardinalities the same rows
    /// would produce in `self`, so rule weights, candidate layouts, and
    /// float accumulation orders are identical.
    pub fn gather_rows(&self, rows: &[RowId]) -> Table {
        Table::gather_multi(&[(self, rows)])
    }

    /// [`Table::gather_rows`] over multiple source tables sharing one code
    /// space: concatenates the gathers in part order. All sources must have
    /// identical schemas and per-column cardinalities (the caller guarantees
    /// they were gathered from one logical table); dictionaries are taken
    /// from the first part. Panics when `parts` is empty or the sources
    /// disagree. Used by the sampling layer's Combine over materialized
    /// sharded samples.
    pub fn gather_multi(parts: &[(&Table, &[RowId])]) -> Table {
        let (first, _) = parts.first().expect("gather_multi needs at least one part");
        let n_cols = first.n_columns();
        let total: usize = parts.iter().map(|(_, rows)| rows.len()).sum();
        let mut cols: Vec<Codes> = (0..n_cols)
            .map(|c| Codes::with_capacity(first.dicts[c].len(), total))
            .collect();
        for (src, rows) in parts {
            assert_eq!(src.schema, first.schema, "gather_multi sources disagree");
            for (c, col) in cols.iter_mut().enumerate() {
                assert_eq!(
                    src.dicts[c].len(),
                    first.dicts[c].len(),
                    "gather_multi sources must share one code space"
                );
                col.extend_gather(src.column(c), rows);
            }
        }
        let measures = first
            .measures
            .iter()
            .enumerate()
            .map(|(mi, (name, _))| {
                let mut vals = Vec::with_capacity(total);
                for (src, rows) in parts {
                    let (_, src_vals) = &src.measures[mi];
                    vals.extend(rows.iter().map(|&r| src_vals[r as usize]));
                }
                (name.clone(), vals)
            })
            .collect();
        Table {
            schema: first.schema.clone(),
            dicts: first.dicts.clone(),
            cols,
            measures,
            n_rows: total,
        }
    }
}

/// The one interning push every table is built with: interns one row's
/// values (one per column, which the caller guarantees) into `dicts` in
/// first-appearance order and appends each code to its column at that
/// column's width. A column whose dictionary outgrows its width is widened
/// once, then and there.
pub(crate) fn push_interned<'v>(
    cols: &mut [Codes],
    dicts: &mut [Dictionary],
    values: impl Iterator<Item = &'v str>,
) {
    for ((col, dict), v) in cols.iter_mut().zip(dicts).zip(values) {
        col.push(dict.intern(v));
    }
}

/// Incremental builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    dicts: Vec<Dictionary>,
    cols: Vec<Codes>,
    measures: Vec<(String, Vec<f64>)>,
    n_rows: usize,
}

impl TableBuilder {
    /// Creates a builder for `schema`.
    pub fn new(schema: Schema) -> Self {
        let n = schema.n_columns();
        Self {
            schema,
            dicts: vec![Dictionary::new(); n],
            cols: vec![Codes::for_cardinality(0); n],
            measures: Vec::new(),
            n_rows: 0,
        }
    }

    /// Reserves capacity for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.cols {
            c.reserve(additional);
        }
    }

    /// Appends one row of string values.
    pub fn push_row<S: AsRef<str>>(&mut self, row: &[S]) -> Result<(), TableError> {
        if row.len() != self.schema.n_columns() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.n_columns(),
                got: row.len(),
            });
        }
        self.push(row.iter().map(AsRef::as_ref))
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Attaches a numeric measure column (length checked at [`build`]).
    ///
    /// [`build`]: TableBuilder::build
    pub fn add_measure(
        &mut self,
        name: impl Into<String>,
        values: Vec<f64>,
    ) -> Result<(), TableError> {
        let name = name.into();
        let names = self.measures.iter().map(|(n, _)| n.as_str());
        self.schema
            .require_distinct_measures(names.chain([name.as_str()]))?;
        self.measures.push((name, values));
        Ok(())
    }

    /// Finalizes the table, validating measure lengths and values.
    ///
    /// # Errors
    ///
    /// [`TableError::ArityMismatch`] when a measure column does not hold
    /// one value per row (`expected` rows, `got` values);
    /// [`TableError::BadMeasure`] for the first negative, NaN or infinite
    /// value, which no `Sum` weight may be.
    pub fn build(self) -> Result<Table, TableError> {
        for (name, vals) in &self.measures {
            if vals.len() != self.n_rows {
                return Err(TableError::ArityMismatch {
                    expected: self.n_rows,
                    got: vals.len(),
                });
            }
            if let Some(row) = vals.iter().position(|&v| !is_weight(v)) {
                let name = name.clone();
                return Err(TableError::BadMeasure { name, row });
            }
        }
        Ok(Table {
            schema: self.schema,
            dicts: self.dicts.into_iter().map(Arc::new).collect(),
            cols: self.cols,
            measures: self.measures,
            n_rows: self.n_rows,
        })
    }
}

/// Whether `v` can weigh a row: finite and non-negative, the precondition
/// of the `mw` bound BRS prunes by.
pub(crate) fn is_weight(v: f64) -> bool {
    (0.0..f64::INFINITY).contains(&v)
}

/// The record loop's sink for a monolithic table.
impl RowSink for TableBuilder {
    fn push<'v>(&mut self, cats: impl Iterator<Item = &'v str>) -> Result<(), TableError> {
        push_interned(&mut self.cols, &mut self.dicts, cats);
        self.n_rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_table() -> Table {
        Table::from_rows(
            Schema::new(["Store", "Product", "Region"]).unwrap(),
            &[
                &["Walmart", "cookies", "CA-1"],
                &["Target", "bicycles", "MA-3"],
                &["Walmart", "comforters", "MA-3"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_and_reads_back_values() {
        let t = store_table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_columns(), 3);
        assert_eq!(t.value(0, 0), "Walmart");
        assert_eq!(t.value(1, 1), "bicycles");
        assert_eq!(t.value(2, 2), "MA-3");
    }

    #[test]
    fn codes_are_shared_within_a_column() {
        let t = store_table();
        assert_eq!(t.code(0, 0), t.code(2, 0)); // both Walmart
        assert_ne!(t.code(0, 0), t.code(1, 0));
        assert_eq!(t.cardinality(0), 2);
        assert_eq!(t.cardinality(2), 2);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut b = TableBuilder::new(Schema::new(["a", "b"]).unwrap());
        let err = b.push_row(&["only-one"]).unwrap_err();
        assert_eq!(
            err,
            TableError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn measures_roundtrip_and_validate() {
        let mut b = TableBuilder::new(Schema::new(["Store"]).unwrap());
        b.push_row(&["Walmart"]).unwrap();
        b.push_row(&["Target"]).unwrap();
        b.add_measure("Sales", vec![10.0, 20.0]).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.measure("Sales").unwrap(), &[10.0, 20.0]);
        assert!(t.measure("Profit").is_err());
        assert_eq!(t.measure_names().collect::<Vec<_>>(), vec!["Sales"]);
    }

    #[test]
    fn measure_length_mismatch_fails_build() {
        let mut b = TableBuilder::new(Schema::new(["Store"]).unwrap());
        b.push_row(&["Walmart"]).unwrap();
        b.add_measure("Sales", vec![1.0, 2.0]).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            TableError::ArityMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn measure_name_clashing_with_column_rejected() {
        let mut b = TableBuilder::new(Schema::new(["Store"]).unwrap());
        assert!(b.add_measure("Store", vec![]).is_err());
    }

    #[test]
    fn project_first_columns_keeps_prefix_and_measures() {
        let mut b = TableBuilder::new(Schema::new(["a", "b", "c"]).unwrap());
        b.push_row(&["1", "2", "3"]).unwrap();
        b.push_row(&["4", "5", "6"]).unwrap();
        b.add_measure("m", vec![9.0, 8.0]).unwrap();
        let t = b.build().unwrap();
        let p = t.project_first_columns(2);
        assert_eq!(p.n_columns(), 2);
        assert_eq!(p.n_rows(), 2);
        assert_eq!(p.value(1, 1), "5");
        assert_eq!(p.measure("m").unwrap(), &[9.0, 8.0]);
        // Over-asking is clamped.
        assert_eq!(t.project_first_columns(99).n_columns(), 3);
    }

    #[test]
    fn row_codes_fills_buffer() {
        let t = store_table();
        let mut buf = Vec::new();
        t.row_codes(1, &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf[0], t.code(1, 0));
    }

    #[test]
    fn zero_row_table_is_fine() {
        let t = Table::from_rows(Schema::new(["a"]).unwrap(), &[] as &[&[&str]]).unwrap();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.cardinality(0), 0);
    }
}
