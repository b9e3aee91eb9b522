//! # sdd-olap
//!
//! The **traditional drill-down / roll-up baseline** the paper compares
//! against (§1, §5.1), plus interaction-cost accounting.
//!
//! A traditional drill-down on column `c` lists *every* distinct value of
//! `c` (within the current filter) with its count — no selection, no
//! multi-column combinations. The paper's motivating observation is that
//! this overwhelms the analyst on high-cardinality columns and requires a
//! separate click per column; [`compare`] quantifies that by counting
//! clicks and displayed rows needed to reach a target pattern under each
//! operator.

// D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod compare;
pub mod drilldown;

pub use compare::{smart_effort, traditional_effort, Effort};
pub use drilldown::{DrillDownLevel, GroupRow, TraditionalDrillDown};
