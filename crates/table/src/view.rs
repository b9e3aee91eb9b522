use crate::Table;
use std::sync::Arc;

/// Index of a row within a [`Table`]. `u32` keeps candidate structures small
/// (perf-book guidance: smaller integers for indices).
pub type RowId = u32;

/// One element yielded when scanning a [`TableView`]: a row and its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedRow {
    /// Row index into the underlying [`Table`].
    pub row: RowId,
    /// Per-tuple weight.
    ///
    /// * `1.0` for plain `Count` semantics,
    /// * the measure value for `Sum` semantics (paper §6.3),
    /// * the sample scale factor `N_s` when scanning combined samples
    ///   (paper §4.3), so count estimates stay unbiased even when samples
    ///   with different rates are merged.
    pub weight: f64,
}

#[derive(Debug, Clone)]
enum Rows {
    /// All rows `0..n` of the table.
    All(u32),
    /// An explicit subset (not necessarily sorted, duplicates allowed —
    /// combined samples may legitimately repeat a row).
    Subset(Vec<RowId>),
}

/// A borrowed, possibly weighted, subset of a [`Table`]'s rows.
///
/// This is the unit of work the optimizer operates on: the full table, a
/// drill-down filter `T_r`, or an in-memory sample all present the same
/// interface, so Algorithm 1/2 of the paper have exactly one code path.
#[derive(Debug, Clone)]
pub struct TableView<'a> {
    table: &'a Table,
    rows: Rows,
    /// Parallel to the row sequence; `None` means unit weights.
    weights: Option<Vec<f64>>,
}

impl<'a> TableView<'a> {
    /// A view over every row of `table`, unit weights.
    pub fn all(table: &'a Table) -> Self {
        Self {
            table,
            rows: Rows::All(table.n_rows() as u32),
            weights: None,
        }
    }

    /// A view over an explicit row subset, unit weights.
    pub fn with_rows(table: &'a Table, rows: Vec<RowId>) -> Self {
        debug_assert!(rows.iter().all(|&r| (r as usize) < table.n_rows()));
        Self {
            table,
            rows: Rows::Subset(rows),
            weights: None,
        }
    }

    /// A view over an explicit row subset with per-tuple weights.
    ///
    /// Panics if lengths differ.
    pub fn with_rows_and_weights(table: &'a Table, rows: Vec<RowId>, weights: Vec<f64>) -> Self {
        assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
        debug_assert!(rows.iter().all(|&r| (r as usize) < table.n_rows()));
        Self {
            table,
            rows: Rows::Subset(rows),
            weights: Some(weights),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Number of (row, weight) entries in the view.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::All(n) => *n as usize,
            Rows::Subset(v) => v.len(),
        }
    }

    /// True if the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row id at position `i` of the view.
    #[inline]
    pub fn row_at(&self, i: usize) -> RowId {
        match &self.rows {
            Rows::All(_) => i as RowId,
            Rows::Subset(v) => v[i],
        }
    }

    /// The weight at position `i` of the view.
    #[inline]
    pub fn weight_at(&self, i: usize) -> f64 {
        match &self.weights {
            Some(w) => w[i],
            None => 1.0,
        }
    }

    /// Sum of all weights — the view's total (estimated) count or sum.
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.len() as f64,
        }
    }

    /// Iterates `(row, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = WeightedRow> + '_ {
        (0..self.len()).map(move |i| WeightedRow {
            row: self.row_at(i),
            weight: self.weight_at(i),
        })
    }

    /// The explicit row-id slice, or `None` when the view covers all rows
    /// in order (position `i` *is* row `i`).
    #[inline]
    pub fn row_ids(&self) -> Option<&[RowId]> {
        match &self.rows {
            Rows::All(_) => None,
            Rows::Subset(v) => Some(v),
        }
    }

    /// The per-tuple weight slice, or `None` for unit weights.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// The whole view as one [`ViewChunk`].
    #[inline]
    pub fn as_chunk(&self) -> ViewChunk<'_> {
        self.chunk(0, self.len())
    }

    /// The sub-range `[start, start + len)` of view positions as a
    /// [`ViewChunk`]. Panics if out of bounds.
    pub fn chunk(&self, start: usize, len: usize) -> ViewChunk<'_> {
        assert!(start + len <= self.len(), "chunk out of bounds");
        ViewChunk {
            offset: start,
            rows: match &self.rows {
                Rows::All(_) => ChunkRows::Contiguous {
                    start: start as RowId,
                },
                Rows::Subset(v) => ChunkRows::Gather(&v[start..start + len]),
            },
            len,
            weights: self.weights.as_ref().map(|w| &w[start..start + len]),
        }
    }

    /// Splits the view into at most `max_chunks` chunks of near-equal size
    /// (at least one chunk, even when empty). Chunk boundaries come from
    /// [`chunk_spans`] and depend only on `len` and `max_chunks`, so
    /// per-chunk processing merged in chunk order is deterministic
    /// regardless of the executing thread count — the foundation of the
    /// sliced coverage scans in `sdd-core`.
    pub fn chunks(&self, max_chunks: usize) -> Vec<ViewChunk<'_>> {
        chunk_spans(self.len(), max_chunks)
            .into_iter()
            .map(|r| self.chunk(r.start, r.len()))
            .collect()
    }

    /// Returns a new view keeping only positions whose row satisfies `pred`.
    pub fn filter(&self, mut pred: impl FnMut(RowId) -> bool) -> TableView<'a> {
        let mut rows = Vec::new();
        let mut weights = self.weights.as_ref().map(|_| Vec::new());
        for i in 0..self.len() {
            let r = self.row_at(i);
            if pred(r) {
                rows.push(r);
                if let Some(w) = &mut weights {
                    w.push(self.weight_at(i));
                }
            }
        }
        TableView {
            table: self.table,
            rows: Rows::Subset(rows),
            weights,
        }
    }

    /// Returns a copy of this view with every weight multiplied by `factor`
    /// (used to rescale a sample into full-table estimates).
    pub fn scaled(&self, factor: f64) -> TableView<'a> {
        let weights: Vec<f64> = (0..self.len())
            .map(|i| self.weight_at(i) * factor)
            .collect();
        let rows: Vec<RowId> = (0..self.len()).map(|i| self.row_at(i)).collect();
        TableView {
            table: self.table,
            rows: Rows::Subset(rows),
            weights: Some(weights),
        }
    }

    /// Concatenates two views over the same table, preserving weights.
    ///
    /// Panics if the views reference different tables.
    pub fn concat(&self, other: &TableView<'a>) -> TableView<'a> {
        assert!(
            std::ptr::eq(self.table, other.table),
            "cannot concat views over different tables"
        );
        let mut rows: Vec<RowId> = Vec::with_capacity(self.len() + other.len());
        let mut weights: Vec<f64> = Vec::with_capacity(self.len() + other.len());
        for v in [self, other] {
            for i in 0..v.len() {
                rows.push(v.row_at(i));
                weights.push(v.weight_at(i));
            }
        }
        TableView {
            table: self.table,
            rows: Rows::Subset(rows),
            weights: Some(weights),
        }
    }
}

/// An **owned**, `Send + Sync` view over every row of its own table, with
/// optional per-tuple weights — the shape of a materialised sample. The
/// table is held by [`Arc`] rather than borrowed, so the view can live
/// inside long-lived session state (a server registry entry, a background
/// prefetch job) and cross thread boundaries freely.
///
/// Owned views are the *state* representation; all computation runs on
/// borrowed [`TableView`]s — call [`OwnedTableView::as_view`] at the point of
/// use. Position `i` *is* row `i`, so no row-id vector exists and column
/// scans read contiguous slices (`as_view` copies the weight vector — cheap
/// next to any scan that follows).
#[derive(Debug, Clone)]
pub struct OwnedTableView {
    table: Arc<Table>,
    /// One weight per row; `None` means unit weights.
    weights: Option<Vec<f64>>,
}

impl OwnedTableView {
    /// A view over every row of `table`, unit weights.
    pub fn all(table: Arc<Table>) -> Self {
        Self {
            table,
            weights: None,
        }
    }

    /// A view over every row of `table` in order, with per-tuple weights.
    ///
    /// Panics if `weights` does not hold one weight per row.
    pub fn all_with_weights(table: Arc<Table>, weights: Vec<f64>) -> Self {
        assert_eq!(
            table.n_rows(),
            weights.len(),
            "rows/weights length mismatch"
        );
        Self {
            table,
            weights: Some(weights),
        }
    }

    /// The borrowed [`TableView`] over this owned view's data — the bridge
    /// into every compute path (BRS, kernels, coverage scans).
    #[inline]
    pub fn as_view(&self) -> TableView<'_> {
        TableView {
            table: &self.table,
            rows: Rows::All(self.table.n_rows() as u32),
            weights: self.weights.clone(),
        }
    }

    /// The shared table handle.
    #[inline]
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// Number of (row, weight) entries in the view.
    pub fn len(&self) -> usize {
        self.table.n_rows()
    }

    /// True if the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all weights — the view's total (estimated) count or sum.
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.len() as f64,
        }
    }

    /// The per-tuple weight slice, or `None` for unit weights.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }
}

/// Splits `[0, n)` into at most `max_chunks` near-equal spans (at least one
/// span, even when `n == 0`; never an empty span when `n > 0`).
///
/// This is the **chunk plan** shared by [`TableView::chunks`] and the
/// sliced coverage scans in `sdd-core`: boundaries are a pure function of `n`
/// and `max_chunks` — never of thread count — so any per-span computation
/// merged back in span order is reproducible on every machine.
pub fn chunk_spans(n: usize, max_chunks: usize) -> Vec<std::ops::Range<usize>> {
    let k = max_chunks.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k; // first `extra` spans get one more element
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[derive(Debug, Clone, Copy)]
enum ChunkRows<'v> {
    /// View positions map to consecutive row ids starting at `start` —
    /// column scans over this chunk read contiguous code-slice runs.
    Contiguous { start: RowId },
    /// Explicit row ids (a gather per column access).
    Gather(&'v [RowId]),
}

/// A borrowed sub-range of a [`TableView`]'s positions — the unit the
/// columnar counting kernel processes (one chunk per worker thread).
///
/// A chunk knows whether its rows are contiguous (`Table::column` slices can
/// be scanned directly) or an explicit gather list, and carries the aligned
/// weight slice when the view is weighted.
#[derive(Debug, Clone, Copy)]
pub struct ViewChunk<'v> {
    offset: usize,
    rows: ChunkRows<'v>,
    len: usize,
    weights: Option<&'v [f64]>,
}

impl<'v> ViewChunk<'v> {
    /// Number of positions in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the chunk holds no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of this chunk's first position within the parent view —
    /// aligns the chunk with view-positional arrays such as the optimizer's
    /// covered-weight vector.
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The row id at chunk-local position `i`.
    #[inline]
    pub fn row_at(&self, i: usize) -> RowId {
        debug_assert!(i < self.len);
        match self.rows {
            ChunkRows::Contiguous { start } => start + i as RowId,
            ChunkRows::Gather(ids) => ids[i],
        }
    }

    /// The weight at chunk-local position `i`.
    #[inline]
    pub fn weight_at(&self, i: usize) -> f64 {
        match self.weights {
            Some(w) => w[i],
            None => 1.0,
        }
    }

    /// The aligned weight slice, or `None` for unit weights.
    #[inline]
    pub fn weights(&self) -> Option<&'v [f64]> {
        self.weights
    }

    /// The explicit row-id gather list, or `None` when contiguous.
    #[inline]
    pub fn row_ids(&self) -> Option<&'v [RowId]> {
        match self.rows {
            ChunkRows::Contiguous { .. } => None,
            ChunkRows::Gather(ids) => Some(ids),
        }
    }

    /// For contiguous chunks, the row range covered — callers slice
    /// [`Table::column`] with it for run-length column scans.
    #[inline]
    pub fn contiguous_rows(&self) -> Option<std::ops::Range<usize>> {
        match self.rows {
            ChunkRows::Contiguous { start } => Some(start as usize..start as usize + self.len),
            ChunkRows::Gather(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn t() -> Table {
        Table::from_rows(
            Schema::new(["Store", "Product"]).unwrap(),
            &[
                &["Walmart", "cookies"],
                &["Target", "bicycles"],
                &["Walmart", "comforters"],
                &["Costco", "cookies"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_view_covers_every_row_with_unit_weight() {
        let table = t();
        let v = table.view();
        assert_eq!(v.len(), 4);
        assert!((v.total_weight() - 4.0).abs() < 1e-12);
        let rows: Vec<_> = v.iter().map(|wr| wr.row).collect();
        assert_eq!(rows, vec![0, 1, 2, 3]);
        assert!(v.iter().all(|wr| wr.weight == 1.0));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let table = t();
        let walmart = table.dictionary(0).code_of("Walmart").unwrap();
        let v = table.view().filter(|r| table.code(r, 0) == walmart);
        assert_eq!(v.len(), 2);
        assert_eq!(v.row_at(0), 0);
        assert_eq!(v.row_at(1), 2);
    }

    #[test]
    fn weighted_view_sums_weights() {
        let table = t();
        let v = TableView::with_rows_and_weights(&table, vec![0, 3], vec![2.5, 0.5]);
        assert_eq!(v.len(), 2);
        assert!((v.total_weight() - 3.0).abs() < 1e-12);
        assert_eq!(v.weight_at(0), 2.5);
    }

    #[test]
    fn filter_preserves_weights() {
        let table = t();
        let v = TableView::with_rows_and_weights(&table, vec![0, 1, 2], vec![1.0, 2.0, 3.0]);
        let cookies = table.dictionary(1).code_of("cookies").unwrap();
        let f = v.filter(|r| table.code(r, 1) == cookies);
        assert_eq!(f.len(), 1);
        assert_eq!(f.weight_at(0), 1.0);
    }

    #[test]
    fn scaled_multiplies_weights() {
        let table = t();
        let v = table.view().scaled(10.0);
        assert!((v.total_weight() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn concat_preserves_order_and_weights() {
        let table = t();
        let a = TableView::with_rows_and_weights(&table, vec![0], vec![2.0]);
        let b = TableView::with_rows(&table, vec![1, 2]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.row_at(0), 0);
        assert_eq!(c.weight_at(0), 2.0);
        assert_eq!(c.weight_at(2), 1.0);
    }

    #[test]
    fn duplicate_rows_are_allowed_in_subsets() {
        let table = t();
        let v = TableView::with_rows(&table, vec![0, 0, 0]);
        assert_eq!(v.len(), 3);
        assert!((v.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_weights_panic() {
        let table = t();
        let _ = TableView::with_rows_and_weights(&table, vec![0, 1], vec![1.0]);
    }

    #[test]
    fn all_view_chunks_are_contiguous() {
        let table = t();
        let v = table.view();
        assert!(v.row_ids().is_none());
        assert!(v.weights().is_none());
        let chunks = v.chunks(3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), v.len());
        let mut pos = 0;
        for c in &chunks {
            assert_eq!(c.offset(), pos);
            let range = c.contiguous_rows().expect("all-view chunks contiguous");
            assert_eq!(range.len(), c.len());
            for i in 0..c.len() {
                assert_eq!(c.row_at(i), v.row_at(pos + i));
                assert_eq!(c.weight_at(i), 1.0);
            }
            pos += c.len();
        }
    }

    #[test]
    fn subset_view_chunks_gather_rows_and_weights() {
        let table = t();
        let v = TableView::with_rows_and_weights(&table, vec![3, 1, 0], vec![0.5, 1.5, 2.5]);
        assert_eq!(v.row_ids(), Some(&[3, 1, 0][..]));
        assert_eq!(v.weights(), Some(&[0.5, 1.5, 2.5][..]));
        let chunks = v.chunks(2);
        assert_eq!(chunks.len(), 2);
        assert!(chunks[0].contiguous_rows().is_none());
        let mut pos = 0;
        for c in &chunks {
            for i in 0..c.len() {
                assert_eq!(c.row_at(i), v.row_at(pos + i));
                assert_eq!(c.weight_at(i), v.weight_at(pos + i));
            }
            pos += c.len();
        }
        assert_eq!(pos, 3);
    }

    #[test]
    fn chunk_count_is_clamped() {
        let table = t();
        let v = table.view();
        assert_eq!(v.chunks(100).len(), v.len()); // no empty chunks
        assert_eq!(v.chunks(1).len(), 1);
        let empty = v.filter(|_| false);
        assert_eq!(empty.chunks(4).len(), 1);
        assert!(empty.chunks(4)[0].is_empty());
    }

    #[test]
    fn chunk_spans_partition_the_range() {
        for n in [0usize, 1, 4, 7, 100] {
            for k in 1..=9 {
                let spans = chunk_spans(n, k);
                assert!(!spans.is_empty());
                assert!(spans.len() <= k.max(1));
                let mut pos = 0;
                for s in &spans {
                    assert_eq!(s.start, pos, "n={n} k={k}");
                    assert!(n == 0 || !s.is_empty(), "empty span for n={n} k={k}");
                    pos = s.end;
                }
                assert_eq!(pos, n);
            }
        }
    }

    #[test]
    fn owned_view_matches_borrowed_view() {
        let table = Arc::new(t());
        let owned = OwnedTableView::all(table.clone());
        assert_eq!(owned.len(), 4);
        assert!((owned.total_weight() - 4.0).abs() < 1e-12);
        let v = owned.as_view();
        assert_eq!(v.len(), owned.len());
        assert!(v.row_ids().is_none() && v.weights().is_none());

        let weighted = OwnedTableView::all_with_weights(table, vec![0.5, 2.5, 1.0, 1.0]);
        assert_eq!(weighted.weights(), Some(&[0.5, 2.5, 1.0, 1.0][..]));
        let wv = weighted.as_view();
        assert!(wv.row_ids().is_none(), "position i is row i");
        assert_eq!(wv.weights(), weighted.weights());
        assert!((wv.total_weight() - 5.0).abs() < 1e-12);
        // Owned views are Send + Sync (compile-time check).
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&weighted);
    }

    #[test]
    fn as_chunk_covers_whole_view() {
        let table = t();
        let v = table.view();
        let c = v.as_chunk();
        assert_eq!(c.len(), v.len());
        assert_eq!(c.offset(), 0);
        assert_eq!(c.contiguous_rows(), Some(0..4));
    }
}
