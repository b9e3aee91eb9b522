//! # sdd-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5); `PAPER.md` has the paper's abstract.
//!
//! * Experiment binaries live in `src/bin/exp_*.rs`; each prints a
//!   human-readable report and writes CSV under `target/experiments/`.
//!
//! Environment knobs (all optional):
//!
//! * `SDD_CENSUS_ROWS` — row count for the census-shaped dataset
//!   (default 250 000; the paper's full scale is 2 458 285),
//! * `SDD_REPS` — repetitions per timing point (default 5; paper uses
//!   10–50).

#![warn(missing_docs)]

pub mod datasets;
pub mod report;
pub mod timing;

/// An explorer whose every displayed count is exact
/// ([`sdd_explorer::ExplorerConfig::exact`]): the tree the paper's
/// qualitative tables and figures show.
pub fn exact_explorer(
    table: &std::sync::Arc<sdd_table::Table>,
    weight: Box<dyn sdd_core::WeightFn>,
    k: usize,
    max_weight: Option<f64>,
) -> sdd_explorer::Explorer {
    let config = sdd_explorer::ExplorerConfig {
        k,
        max_weight,
        ..sdd_explorer::ExplorerConfig::exact(table.n_rows())
    };
    sdd_explorer::Explorer::new(table.clone(), weight, config)
}

/// Reads `SDD_CENSUS_ROWS` (default 250k).
pub fn census_rows() -> usize {
    std::env::var("SDD_CENSUS_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250_000)
}

/// Reads `SDD_REPS` (default 5).
pub fn reps() -> usize {
    std::env::var("SDD_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}
