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

/// Every row of a [`Table`], in order, with optional per-tuple weights.
///
/// This is the unit of work the optimizer operates on, and it has exactly
/// one form: position `i` of the view *is* row `i` of [`TableView::table`],
/// so every column scan reads a contiguous code slice. A subset of rows —
/// a drill-down filter `T_r`, an in-memory sample — is never an index
/// vector over a bigger table but a *gathered* small table
/// ([`TableView::gather`], [`Table::gather_rows`]) viewed whole, so
/// Algorithm 1/2 of the paper have exactly one code path.
///
/// The view borrows both the table and the weights; it is two pointers
/// wide and `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    table: &'a Table,
    /// One weight per row; `None` means unit weights.
    weights: Option<&'a [f64]>,
}

impl<'a> TableView<'a> {
    /// A view over every row of `table`, unit weights.
    pub fn all(table: &'a Table) -> Self {
        Self {
            table,
            weights: None,
        }
    }

    /// A view over every row of `table` with per-tuple weights.
    ///
    /// Every weight must be finite and non-negative: the `mw` prune of BRS
    /// bounds a rule's score by its covered weight, which only holds for
    /// such weights (a negative one can make the pruned search return a
    /// worse list than the unpruned one). Panics if `weights` does not hold
    /// one weight per row.
    pub fn all_with_weights(table: &'a Table, weights: &'a [f64]) -> Self {
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

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// Number of (row, weight) entries in the view.
    pub fn len(&self) -> usize {
        self.table.n_rows()
    }

    /// True if the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The weight of row `i`.
    #[inline]
    pub fn weight_at(&self, i: usize) -> f64 {
        match self.weights {
            Some(w) => w[i],
            None => 1.0,
        }
    }

    /// Sum of all weights — the view's total (estimated) count or sum.
    pub fn total_weight(&self) -> f64 {
        match self.weights {
            Some(w) => w.iter().sum(),
            None => self.len() as f64,
        }
    }

    /// Iterates `(row, weight)` pairs in row order.
    pub fn iter(&self) -> impl Iterator<Item = WeightedRow> + '_ {
        (0..self.len()).map(move |i| WeightedRow {
            row: i as RowId,
            weight: self.weight_at(i),
        })
    }

    /// The per-tuple weight slice, or `None` for unit weights.
    #[inline]
    pub fn weights(&self) -> Option<&'a [f64]> {
        self.weights
    }

    /// The subset `rows` (any order, duplicates allowed) as a view of its
    /// own: the rows gathered into a small table sharing this table's
    /// dictionaries ([`Table::gather_rows`]) plus their weights. Row `i` of
    /// the result is row `rows[i]` of this view, so a scan of the result
    /// performs the same operations in the same order as a scan of this
    /// view restricted to `rows` would.
    pub fn gather(&self, rows: &[RowId]) -> OwnedTableView {
        OwnedTableView {
            table: Arc::new(self.table.gather_rows(rows)),
            weights: self
                .weights
                .map(|w| rows.iter().map(|&r| w[r as usize]).collect()),
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
/// use (it borrows the table and the weights; nothing is copied).
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

    /// A view over every row of `table` in order, with per-tuple weights,
    /// each finite and non-negative (see [`TableView::all_with_weights`]).
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
            weights: self.weights.as_deref(),
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
        self.as_view().total_weight()
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
/// This is the **chunk plan** of the shard layout and of the sliced
/// coverage scans in `sdd-core`: boundaries are a pure function of `n` and
/// `max_chunks` — never of thread count — so any per-span computation
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
        assert!(v.weights().is_none());
    }

    #[test]
    fn weighted_view_sums_weights() {
        let table = t();
        let weights = [2.5, 0.5, 1.0, 1.0];
        let v = TableView::all_with_weights(&table, &weights);
        assert_eq!(v.len(), 4);
        assert!((v.total_weight() - 5.0).abs() < 1e-12);
        assert_eq!(v.weight_at(0), 2.5);
        assert_eq!(v.weights(), Some(&weights[..]));
    }

    #[test]
    fn gather_keeps_rows_in_the_given_order() {
        let table = t();
        let g = table.view().gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert!(g.weights().is_none());
        assert_eq!(g.table().value(0, 1), "comforters");
        assert_eq!(g.table().value(1, 1), "cookies");
        // Same code space as the source: rules stay valid on the subset.
        assert_eq!(g.table().code(1, 0), table.code(0, 0));
        assert_eq!(g.table().cardinality(0), table.cardinality(0));
    }

    #[test]
    fn gather_carries_the_gathered_rows_weights() {
        let table = t();
        let weights = [1.0, 2.0, 3.0, 4.0];
        let v = TableView::all_with_weights(&table, &weights);
        let g = v.gather(&[3, 1, 0]);
        assert_eq!(g.weights(), Some(&[4.0, 2.0, 1.0][..]));
        assert_eq!(g.table().value(0, 0), "Costco");
        assert!((g.total_weight() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn gather_allows_duplicates_and_nothing() {
        let table = t();
        let v = table.view().gather(&[0, 0, 0]);
        assert_eq!(v.len(), 3);
        assert!((v.total_weight() - 3.0).abs() < 1e-12);
        let empty = table.view().gather(&[]);
        assert!(empty.is_empty());
        assert!(empty.as_view().is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_weights_panic() {
        let table = t();
        let _ = TableView::all_with_weights(&table, &[1.0]);
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
    fn owned_view_lends_its_table_and_weights() {
        let table = Arc::new(t());
        let owned = OwnedTableView::all(table.clone());
        assert_eq!(owned.len(), 4);
        assert!((owned.total_weight() - 4.0).abs() < 1e-12);
        let v = owned.as_view();
        assert_eq!(v.len(), owned.len());
        assert!(v.weights().is_none());

        let weighted = OwnedTableView::all_with_weights(table.clone(), vec![0.5, 2.5, 1.0, 1.0]);
        assert_eq!(weighted.weights(), Some(&[0.5, 2.5, 1.0, 1.0][..]));
        let wv = weighted.as_view();
        assert!(std::ptr::eq(wv.table(), &*table), "the table is borrowed");
        assert!(
            std::ptr::eq(wv.weights().unwrap(), weighted.weights().unwrap()),
            "the weights are borrowed, not copied"
        );
        assert!((wv.total_weight() - 5.0).abs() < 1e-12);
        // Owned views are Send + Sync (compile-time check).
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&weighted);
    }
}
