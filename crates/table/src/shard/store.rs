//! [`TableStore`]: the one handle the session stack holds over any storage.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use super::live::{LiveSnapshot, LiveTable};
use super::sharded::ShardedTable;
use crate::{RowId, Schema, Table, TableError};
use std::sync::Arc;

/// A [`LiveTable`] handle plus the epoch snapshot this holder is pinned
/// to. Scans always run against the pinned snapshot — an ordinary frozen
/// [`ShardedTable`] — so a holder observes one consistent epoch until it
/// explicitly re-pins; appends land concurrently without disturbing it.
#[derive(Debug, Clone)]
pub struct LiveStore {
    live: Arc<LiveTable>,
    pinned: LiveSnapshot,
}

impl LiveStore {
    /// Pins the table's current snapshot.
    pub fn new(live: Arc<LiveTable>) -> Self {
        let pinned = live.snapshot();
        LiveStore { live, pinned }
    }

    /// The underlying live table.
    pub fn live(&self) -> &Arc<LiveTable> {
        &self.live
    }

    /// The snapshot this holder currently observes.
    pub fn pinned(&self) -> &LiveSnapshot {
        &self.pinned
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.pinned.epoch
    }

    /// The table's newest epoch (may be ahead of [`LiveStore::epoch`]).
    pub fn latest_epoch(&self) -> u64 {
        self.live.epoch()
    }

    /// Pins a specific snapshot. Holders advance only through this method,
    /// at points of their choosing (a session's sample handler syncs to one
    /// [`LiveTable::snapshot`] at operation prologues; see the determinism
    /// notes there). The snapshot must come from this store's live table;
    /// pins never move backwards (an older snapshot is ignored).
    pub fn pin(&mut self, snap: LiveSnapshot) {
        if snap.epoch >= self.pinned.epoch {
            self.pinned = snap;
        }
    }
}

/// The storage behind a drill-down session: one monolithic in-memory
/// [`Table`], a [`ShardedTable`] whose segments may live on disk, or a
/// pinned snapshot of an append-only [`LiveTable`].
///
/// The sampling layer, explorer, and server hold a `TableStore`; the
/// full-table scans over it (covered rows, exact counts) dispatch on the
/// store kind in one place, `sdd_core::shard`, and row materialisation in
/// [`TableStore::try_gather_batch`]; all *metadata* access (schema,
/// dictionaries, cardinalities — everything weight functions and display
/// need) goes through [`TableStore::header`], which for sharded storage is
/// the always-resident zero-row header table.
///
/// Cloning a `TableStore::Live` clones the pin: the copy observes the same
/// epoch until it re-pins.
#[derive(Debug, Clone)]
pub enum TableStore {
    /// A monolithic in-memory table.
    Whole(Arc<Table>),
    /// A sharded table with an optional spill tier.
    Sharded(Arc<ShardedTable>),
    /// An append-only live table, pinned to one epoch's snapshot.
    Live(LiveStore),
}

impl TableStore {
    /// Total number of rows (at the pinned epoch, for live storage).
    pub fn n_rows(&self) -> usize {
        match self {
            TableStore::Whole(t) => t.n_rows(),
            TableStore::Sharded(s) => s.n_rows(),
            TableStore::Live(l) => l.pinned.table.n_rows(),
        }
    }

    /// Number of categorical columns.
    pub fn n_columns(&self) -> usize {
        match self {
            TableStore::Whole(t) => t.n_columns(),
            TableStore::Sharded(s) => s.n_columns(),
            TableStore::Live(l) => l.pinned.table.n_columns(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        match self {
            TableStore::Whole(t) => t.schema(),
            TableStore::Sharded(s) => s.schema(),
            TableStore::Live(l) => l.pinned.table.schema(),
        }
    }

    /// The metadata table: the table itself for [`TableStore::Whole`], the
    /// zero-row header for sharded and live storage. Carries schema and
    /// dictionaries — never rows; do not scan it.
    pub fn header(&self) -> &Arc<Table> {
        match self {
            TableStore::Whole(t) => t,
            TableStore::Sharded(s) => s.header(),
            TableStore::Live(l) => l.pinned.table.header(),
        }
    }

    /// The pinned epoch: `0` for frozen storage (a frozen table is a live
    /// table that never appends), the holder's pinned epoch for live.
    pub fn epoch(&self) -> u64 {
        match self {
            TableStore::Whole(_) | TableStore::Sharded(_) => 0,
            TableStore::Live(l) => l.epoch(),
        }
    }

    /// Storage-tier counters `(loads, evictions, spills, peak_resident)`:
    /// spill reads, `0`, spilled shards and resident shards — the table's
    /// own for `Sharded`, [`LiveTable::storage_counters`] (loads across all
    /// epochs) for `Live`, `None` for [`TableStore::Whole`], which has no
    /// tier to count.
    pub fn storage_counters(&self) -> Option<(u64, u64, u64, usize)> {
        match self {
            TableStore::Whole(_) => None,
            TableStore::Sharded(s) => {
                Some((s.loads(), s.evictions(), s.spills(), s.peak_resident()))
            }
            TableStore::Live(l) => Some(l.live.storage_counters()),
        }
    }

    /// `(epoch, visible_rows)` of the **latest** published state of live
    /// storage — not this holder's pin — and `None` for frozen storage.
    pub fn latest(&self) -> Option<(u64, usize)> {
        self.as_live().map(|l| (l.live.epoch(), l.live.n_rows()))
    }

    /// The pinned [`ShardedTable`] view for segmented storage (`None` for
    /// [`TableStore::Whole`]): the shared table for `Sharded`, the pinned
    /// snapshot for `Live`. The store-kind dispatch in `sdd_core::shard`
    /// matches on this.
    pub fn as_sharded(&self) -> Option<&Arc<ShardedTable>> {
        match self {
            TableStore::Whole(_) => None,
            TableStore::Sharded(s) => Some(s),
            TableStore::Live(l) => Some(&l.pinned.table),
        }
    }

    /// Materializes every row list of `batch` (global ids, in the given
    /// order) into its own small in-memory [`Table`] sharing the store's
    /// dictionaries and code space — [`Table::gather_rows`] per list for
    /// monolithic storage, [`ShardedTable::try_gather_batch`] (one visit
    /// per touched shard for the whole batch) for segmented storage. The
    /// two produce identical tables for identical rows, so everything
    /// downstream of a gather (the sampling layer's stored samples) is
    /// storage-agnostic.
    ///
    /// # Errors
    ///
    /// As [`ShardedTable::try_gather_batch`]; monolithic storage never
    /// fails.
    pub fn try_gather_batch(&self, batch: &[&[RowId]]) -> Result<Vec<Table>, TableError> {
        match self.as_sharded() {
            None => Ok(batch
                .iter()
                .map(|rows| self.header().gather_rows(rows))
                .collect()),
            Some(st) => st.try_gather_batch(batch),
        }
    }

    /// The live handle, if this store is live.
    pub fn as_live(&self) -> Option<&LiveStore> {
        match self {
            TableStore::Live(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable live handle (for pinning a newer snapshot), if this store is
    /// live.
    pub fn as_live_mut(&mut self) -> Option<&mut LiveStore> {
        match self {
            TableStore::Live(l) => Some(l),
            _ => None,
        }
    }
}

impl From<Arc<Table>> for TableStore {
    fn from(t: Arc<Table>) -> Self {
        TableStore::Whole(t)
    }
}

impl From<Arc<ShardedTable>> for TableStore {
    fn from(s: Arc<ShardedTable>) -> Self {
        TableStore::Sharded(s)
    }
}

impl From<Arc<LiveTable>> for TableStore {
    fn from(l: Arc<LiveTable>) -> Self {
        TableStore::Live(LiveStore::new(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testutil::{live_rows, t};
    use crate::shard::{LiveTableConfig, ShardConfig};

    #[test]
    fn table_store_surfaces_metadata() {
        let table = Arc::new(t(9));
        let whole = TableStore::from(table.clone());
        assert_eq!(whole.n_rows(), 9);
        let st = Arc::new(ShardedTable::from_table(&table, &ShardConfig::in_memory(2)).unwrap());
        let sharded = TableStore::from(st);
        assert_eq!(sharded.n_rows(), 9);
        assert_eq!(sharded.n_columns(), 2);
        assert_eq!(sharded.header().n_rows(), 0, "header carries no rows");
        assert_eq!(sharded.header().cardinality(0), table.cardinality(0));
        // Only a segmented store has a tier to count; only a live one moves.
        assert_eq!(whole.storage_counters(), None);
        assert_eq!(sharded.storage_counters(), Some((0, 0, 0, 2)));
        assert_eq!((whole.latest(), sharded.latest()), (None, None));
    }

    #[test]
    fn live_store_pins_and_repins_epochs() {
        let live = Arc::new(
            LiveTable::new(
                Schema::new(["A", "B"]).unwrap(),
                vec![],
                &LiveTableConfig::in_memory(4),
            )
            .unwrap(),
        );
        let mut store = TableStore::from(Arc::clone(&live));
        assert!(
            store.as_sharded().is_some(),
            "live stores scan via the sharded paths"
        );
        assert_eq!(store.epoch(), 0);
        let rows = live_rows(5);
        live.try_append(&rows, &[]).unwrap();
        // The pin holds until the holder re-pins.
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.n_rows(), 0);
        assert_eq!(store.as_live().unwrap().latest_epoch(), 1);
        assert_eq!(store.latest(), Some((1, 5)), "the head, not the pin");
        assert_eq!(store.storage_counters(), Some(live.storage_counters()));
        let live_store = store.as_live_mut().unwrap();
        live_store.pin(live.snapshot());
        assert_eq!(live_store.epoch(), 1);
        assert_eq!(store.n_rows(), 5);
        assert_eq!(store.header().cardinality(0), 5);
        // A clone carries the pin, not the live head.
        let clone = store.clone();
        live.try_append(&rows[..1], &[]).unwrap();
        assert_eq!(clone.epoch(), 1);
        assert_eq!(store.as_sharded().unwrap().n_rows(), 5);
    }
}
