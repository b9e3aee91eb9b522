//! Surface that exists only because the repository benchmark compiles
//! against it: [`ShardedView`] and three storage-counter shims. Delete
//! this file with ROADMAP items 1(d) and 9(d).

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use super::sharded::ShardedTable;
use crate::RowId;
use std::sync::Arc;

/// Rows of a [`ShardedTable`] named by id, with optional per-row weights:
/// every row in order ([`ShardedView::all`]) or an explicit subset. It
/// carries no scan surface — searches run on gathered rows
/// ([`ShardedTable::try_gather_rows`]); this type only names which rows,
/// for `sdd_core::try_find_best_marginal_rule_sharded`.
#[derive(Debug, Clone)]
pub struct ShardedView {
    table: Arc<ShardedTable>,
    /// `None` = all rows in order (position `i` *is* row `i`).
    rows: Option<Vec<RowId>>,
    weights: Option<Vec<f64>>,
}

impl ShardedView {
    /// A view over every row, unit weights.
    pub fn all(table: Arc<ShardedTable>) -> Self {
        Self {
            table,
            rows: None,
            weights: None,
        }
    }

    /// A view over an explicit row subset, unit weights.
    pub fn with_rows(table: Arc<ShardedTable>, rows: Vec<RowId>) -> Self {
        debug_assert!(rows.iter().all(|&r| (r as usize) < table.n_rows()));
        Self {
            table,
            rows: Some(rows),
            weights: None,
        }
    }

    /// A view over an explicit row subset with per-tuple weights. Panics if
    /// lengths differ.
    pub fn with_rows_and_weights(
        table: Arc<ShardedTable>,
        rows: Vec<RowId>,
        weights: Vec<f64>,
    ) -> Self {
        // source-rules: allow(P001) precondition on two vectors the caller builds together; no I/O or request path constructs a view
        assert_eq!(rows.len(), weights.len(), "rows/weights length mismatch");
        debug_assert!(rows.iter().all(|&r| (r as usize) < table.n_rows()));
        Self {
            table,
            rows: Some(rows),
            weights: Some(weights),
        }
    }

    /// The underlying sharded table.
    pub fn table(&self) -> &Arc<ShardedTable> {
        &self.table
    }

    /// Number of (row, weight) entries in the view.
    pub fn len(&self) -> usize {
        match &self.rows {
            None => self.table.n_rows(),
            Some(v) => v.len(),
        }
    }

    /// True if the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The explicit row-id slice, or `None` when the view covers all rows
    /// in order.
    #[inline]
    pub fn row_ids(&self) -> Option<&[RowId]> {
        self.rows.as_deref()
    }

    /// The per-tuple weight slice, or `None` for unit weights.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }
}

impl ShardedTable {
    /// Always `0`: nothing is cached, so nothing is evicted. Kept only for
    /// the repository benchmark; delete it with ROADMAP item 1(d).
    pub fn evictions(&self) -> u64 {
        0
    }

    /// The number of resident segments. Kept only for the repository
    /// benchmark's `table.peak_resident`; delete it with ROADMAP item 1(d).
    pub fn peak_resident(&self) -> usize {
        self.n_shards() - self.spills() as usize
    }

    /// Does nothing: no spilled shard is kept decoded. Kept only for the
    /// repository benchmark; delete it with ROADMAP item 1(d).
    pub fn evict_all(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testutil::t;
    use crate::shard::ShardConfig;

    #[test]
    fn empty_table_shards_cleanly() {
        let table = t(0);
        let st = ShardedTable::from_table(&table, &ShardConfig::in_memory(3)).unwrap();
        assert_eq!(st.n_rows(), 0);
        assert!(ShardedView::all(Arc::new(st)).is_empty());
    }
}
