//! # sdd-explorer
//!
//! The interactive smart drill-down **explorer** — the architecture of the
//! paper's prototype tool (§4.3, §5): a click-driven session whose
//! expansions are served by the [`sdd_sampling::SampleHandler`] instead of
//! full-table scans, with
//!
//! * **estimated counts with confidence intervals** ("since the sample is
//!   uniformly random, we can also compute confidence intervals on the
//!   estimated count of each displayed rule" — the paper computes but does
//!   not display them; we display them),
//! * **pre-fetching** after every expansion ("while the user is busy
//!   reading the current rule-list ... we can start ... making a pass
//!   through the table to create new samples"),
//! * **exact-count refresh** ("while we are making the pass in the
//!   background, we can find the exact counts for currently displayed
//!   rules ... and update them when our pass is complete") — exposed as
//!   [`Explorer::try_refresh_exact_counts`], schedulable off the request
//!   path via [`Explorer::request_refresh`],
//! * **live tables**: a session over an append-only
//!   [`sdd_table::LiveTable`] advances to the newest epoch at each
//!   operation prologue ([`Explorer::try_advance_epoch`]), incrementally
//!   maintaining its stored samples over the appended rows.
//!
//! It is the workspace's one session tree. Built with
//! [`ExplorerConfig::exact`], every sample is the complete covered set at
//! scale 1, so the same tree shows the paper's exact tables (Tables 1–3,
//! Figs. 1–3, 6–7); navigation errors are [`SessionError`].

// D001, D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![warn(missing_docs)]

mod cache;
mod click_model;
mod explorer;

pub use cache::{rules_bit_identical, CachedRules, ResultCache, SharedResultCache};
pub use click_model::ClickModel;
pub use explorer::{
    allocate_table_id, DisplayedRule, Explorer, ExplorerConfig, ExplorerStats, PrefetchMode,
    SessionError,
};
