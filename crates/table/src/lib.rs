//! # sdd-table
//!
//! The relational-table substrate for the smart drill-down reproduction
//! (Joglekar, Garcia-Molina, Parameswaran — ICDE 2016).
//!
//! The paper assumes a single denormalized table `D` with categorical columns
//! (numerical columns bucketized beforehand, §3/§6.2 of the paper). This crate
//! provides exactly that substrate, built from scratch:
//!
//! * [`Dictionary`] — per-column string ⇄ `u32` code interning,
//! * [`Codes`] — a column of codes stored at the narrowest width (`u8`,
//!   `u16` or `u32`) its dictionary fits,
//! * [`Schema`] / [`ColumnDef`] — column metadata,
//! * [`Table`] / [`TableBuilder`] — immutable dictionary-encoded columnar
//!   storage of categorical columns, nothing else,
//! * [`TableView`] / [`OwnedTableView`] — every row of a table with optional
//!   per-tuple weights (the mechanism that lets one algorithm code path
//!   serve Count, Sum, and scale-weighted samples; a `Sum` weighs each row
//!   by a numeric column read beside the table,
//!   [`csv::read_csv_with_measures`]); a subset of rows is a
//!   gathered small table ([`Table::gather_rows`]) viewed whole, never an
//!   index vector,
//! * [`stats`] — per-column frequency statistics used by weighting functions
//!   and the `minSS` guidance,
//! * [`csv`] — a small self-contained CSV reader/writer,
//! * [`bucketize`] — equi-width / equi-depth bucketization of numeric data,
//! * [`shard`] — the larger-than-memory tier: [`ShardedTable`] partitions
//!   a table into fixed columnar shards, each resident (a decoded segment) or
//!   spilled (a file on disk, read on demand and never kept decoded),
//!   [`csv::stream_csv_file`] streams a file in without materializing the
//!   monolithic table, and [`TableStore`] lets the session stack hold either storage
//!   form behind one handle. The shard layout and spill round-trip are
//!   deterministic, so sharded scans reproduce the monolithic results
//!   bit-for-bit (see the module docs for the contract).
//!
//! Everything is deterministic; "disk scans" in the sampling layer are
//! modelled as full passes over a [`Table`] (or, in the sharded tier, real
//! per-segment spill reads).

// D001, D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod bucketize;
mod codes;
pub mod csv;
mod dictionary;
mod error;
mod schema;
pub mod shard;
pub mod stats;
mod table;
mod view;

pub use codes::{Code, Codes};
pub use dictionary::Dictionary;
pub use error::TableError;
pub use schema::{ColumnDef, Schema};
pub use shard::{
    LiveSnapshot, LiveStore, LiveTable, LiveTableConfig, RawColumn, ShardConfig, ShardSegment,
    ShardedTable, ShardedView, TableStore,
};
pub use table::{Table, TableBuilder};
pub use view::{chunk_spans, OwnedTableView, RowId, TableView, WeightedRow};
