//! # sdd-core
//!
//! The smart drill-down operator — the primary contribution of *“Interactive
//! Data Exploration with Smart Drill-Down”* (Joglekar, Garcia-Molina,
//! Parameswaran — ICDE 2016) — implemented from scratch.
//!
//! ## The problem (paper §2)
//!
//! Given a table `T`, a monotone non-negative weighting function `W`, and a
//! budget `k`, find the list `R` of `k` rules maximizing
//!
//! ```text
//! Score(R) = Σ_{r ∈ R} W(r) · MCount(r, R)
//! ```
//!
//! where a *rule* fixes some columns to values and wildcards (`?`) the rest,
//! and `MCount(r, R)` counts tuples covered by `r` but by no earlier rule.
//! The problem is NP-hard (Lemma 2 — see [`reduction`] for the executable
//! reduction); `Score` is submodular (Lemma 3), so a greedy algorithm gives
//! a `1 − 1/e` approximation.
//!
//! ## Shape (paper §3–§4)
//!
//! Searches — BRS, Algorithm 2, rule and star drill-down — always run over
//! an in-memory [`sdd_table::TableView`]: every row of one table, scanned
//! as contiguous column slices. In the product that table is a materialised
//! sample; a drill-down into rows the view's table does not consist of
//! gathers them into one first ([`filter_to_rule`]). The full table, however it is stored, is only ever
//! scanned for covered rows, counted exactly, and gathered from. There is
//! one search stack and one fallible scan API, and every request runs on
//! its calling thread; results are bit-identical for any shard layout,
//! whether shards are resident or spilled.
//!
//! This crate holds the operator, not the interaction: the displayed rule
//! tree the analyst expands, star-expands and rolls up (§2.3, §4's `U`)
//! is `sdd_explorer::Explorer`, which serves exact counts when built with
//! `ExplorerConfig::exact`.
//!
//! ## Modules
//!
//! * [`rule`] — the [`Rule`] pattern type and the sub-/super-rule lattice,
//! * [`weight`] — the [`WeightFn`] trait and the paper's weighting functions,
//! * [`score`] — `Count`/`MCount`/`Score` over rule lists and sets,
//! * [`marginal`] — Algorithm 2: the a-priori-style best-marginal-rule search,
//! * [`kernel`] — the columnar counting kernel behind Algorithm 2
//!   (column by column, group by group, bit-identical to the row-at-a-time
//!   reference), plus the one columnar implementation of "covered rows"
//!   and "exact count" over a span of global codes,
//! * [`exec`] — the worker pool that runs independent jobs (server
//!   connections, background prefetch), never one request,
//! * [`accel`] — the block-mask scan behind every covered-row and exact
//!   count scan, resident and spill-tier pushdown alike (portable, generic
//!   over the 1/2/4-byte code widths), plus the chunked single-predicate
//!   counts,
//! * [`brs`] — Algorithm 1: the greedy BRS optimizer,
//! * [`cachekey`] — canonical NaN-safe key derivation for shared
//!   drill-down result caches (floats keyed by bits, normalized bases,
//!   content-digested views),
//! * [`drilldown`] — rule and star drill-down (Problem 1 → 2/3 reductions),
//! * [`shard`] — the segment tier: the three scans the product runs over
//!   sharded (`sdd_table::ShardedTable`) storage — covered rows, covered
//!   rows of an appended range, exact counts — and their store-kind
//!   dispatch; a resident shard is scanned in place, a spilled one
//!   range-read and scanned in its packed spill coding,
//! * [`exact`] — brute-force oracle for tests and ablations,
//! * [`mw_estimate`] — sampling-based estimation of the `mw` parameter (§6.1),
//! * [`reduction`] — Lemma 2's MCP reduction, executable.

// D001, D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod accel;
pub mod brs;
pub mod cachekey;
pub mod drilldown;
pub mod exact;
pub mod exec;
pub mod kernel;
pub mod marginal;
pub mod mw_estimate;
pub mod reduction;
pub mod rule;
pub mod score;
pub mod shard;
pub mod weight;

pub use brs::{Brs, BrsResult, ScoredRule};
pub use cachekey::{canonical_f64_bits, drill_key, view_digest, DrillKey, KeyHasher};
pub use drilldown::{
    drill_down, drill_down_with, filter_to_rule, star_drill_down, star_drill_down_with,
    DrillDownKind, FilteredView,
};
pub use exact::{enumerate_support_rules, exact_best_rule_set, greedy_guarantee};
pub use kernel::{count_rules, covered_rows, SearchScratch};
pub use marginal::{
    find_best_marginal_rule, find_best_marginal_rule_rowwise, find_best_marginal_rule_with_scratch,
    BestMarginal, SearchOptions, SearchStats,
};
pub use mw_estimate::estimate_mw;
pub use reduction::{McpInstance, McpWeight};
pub use rule::{Rule, RuleValue, STAR};
pub use score::{
    rule_count, score_list, score_set, sort_by_weight_desc, top_assignment, ListScore, RuleScore,
};
pub use shard::{
    try_count_rules_in_store, try_count_rules_sharded, try_covered_rows_sharded,
    try_covered_rows_sharded_range, try_find_best_marginal_rule_sharded, try_scan_rules_in_store,
};
pub use weight::{
    check_monotone_on, BitsWeight, ColumnWeight, RequireColumn, SizeMinusOne, SizeWeight,
    TraditionalEmulation, WeightFn,
};
