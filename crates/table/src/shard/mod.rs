//! Sharded columnar storage for larger-than-memory drill-down.
//!
//! A [`ShardedTable`] partitions a table's rows into **fixed,
//! deterministic contiguous segments** (the shard *layout* is [`chunk_spans`] of the row
//! count and shard count — a pure function of both, never of machine or
//! thread count). Each shard is, for the table's whole life, **resident or
//! spilled**:
//!
//! * **resident** — a [`ShardSegment`]: a small [`Table`] whose columns
//!   are the shard's rows in the **global** code space (codes identical to
//!   the monolithic table's), so any scan over a segment performs exactly
//!   the operations the same rows would produce in the monolithic table.
//!   Every shard of a table built without a spill directory is resident, as
//!   are a live table's unsealed tail and, without a spill directory, its
//!   sealed segments;
//! * **spilled** — a file on disk, written once at construction and read
//!   on demand. The spill format (`SDDSHRD2`) is local-dictionary coded:
//!   per column a `remap` array lists the global codes in first-appearance
//!   order within the shard, and the rows store local codes at the
//!   narrowest byte width (1/2/4) that fits the shard-local cardinality; a
//!   per-column offset table in the header lets readers fetch individual
//!   columns with positioned range reads. Decoding remaps local → global,
//!   so a spill → decode round-trip reproduces the segment bit-for-bit.
//!   The spill coding is also directly scannable **without** decoding:
//!   [`ShardedTable::read_columns`] range-reads individual columns as
//!   [`RawColumn`]s (`remap` + packed [`Codes`]), and `sdd-core`'s
//!   pushdown scans translate predicates into local code space and run
//!   over the packed bytes. It is the **one** spill reader: a segment
//!   decode and a gather read every column through it. Each read validates
//!   the header and checks the file length against the offset table before
//!   reading a blob, so every buffer is sized from validated offsets and a
//!   read allocates what the format allows, never what the file holds.
//!
//! A read of a spilled shard is **transient**: scans and gathers drop what
//! they read, and [`ShardedTable::try_segment`] decodes a fresh segment on
//! every call and hands it over. No spilled shard is ever decoded and kept,
//! so a spilling table holds its header and its resident shards — nothing
//! that grows with use.
//!
//! Every table is built by **one segment writer**, which interns rows,
//! seals each full segment through one function that spills it or keeps
//! it resident, and freezes its sealed segments and open rows into a
//! [`ShardedTable`]. Three producers drive it: [`ShardedTable::from_table`]
//! slices an already-materialized [`Table`] over that table's
//! dictionaries; [`stream_csv_file`] **streams** a CSV file in without
//! ever materializing the monolithic table — sealing and spilling each
//! segment the moment its span fills, so ingest peak memory is one segment
//! plus dictionaries (see its docs for why the two builds are
//! bit-identical); and [`LiveTable`] seals every `rows_per_segment` rows
//! as the segment fills and freezes once per append or seed.
//!
//! ## Determinism contract
//!
//! The shard layout partitions `[0, n_rows)` in order, so iterating shards
//! in index order visits rows in exactly the monolithic row order. The
//! segment scans in `sdd-core` exploit this: per-shard hit lists
//! concatenate and per-shard integer counts add up to exactly the
//! monolithic result, for **any** shard count, resident or spilled: a
//! spilled shard decodes to exactly the resident segment's bytes.
//!
//! [`chunk_spans`]: crate::chunk_spans
//! [`stream_csv_file`]: crate::csv::stream_csv_file
//! [`Codes`]: crate::Codes
//! [`Table`]: crate::Table

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

mod compat;
mod live;
mod sharded;
mod spill;
mod store;
mod writer;

pub use compat::ShardedView;
pub use live::{LiveSnapshot, LiveTable, LiveTableConfig};
pub use sharded::{ShardConfig, ShardSegment, ShardedTable};
pub use spill::RawColumn;
pub use store::{LiveStore, TableStore};
pub(crate) use writer::{Batch, SegmentWriter};

#[cfg(test)]
mod testutil {
    use crate::{Schema, Table};
    use std::path::PathBuf;

    pub(super) fn t(n: usize) -> Table {
        let rows: Vec<[String; 2]> = (0..n)
            .map(|i| [format!("a{}", i % 5), format!("b{}", i % 3)])
            .collect();
        Table::from_rows(Schema::new(["A", "B"]).unwrap(), &rows).unwrap()
    }

    pub(super) fn spill_dir() -> PathBuf {
        std::env::temp_dir()
    }

    pub(super) fn live_rows(n: usize) -> Vec<[String; 2]> {
        (0..n)
            .map(|i| [format!("a{}", i % 5), format!("b{}", i % 3)])
            .collect()
    }
}
