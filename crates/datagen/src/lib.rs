//! # sdd-datagen
//!
//! Synthetic dataset generators for the smart drill-down reproduction.
//!
//! The paper evaluates on two real datasets (the Stanford *Marketing*
//! survey and the UCI *US Census 1990* extract) plus a department-store
//! walkthrough example. None of those can be shipped here, so this crate
//! generates synthetic equivalents that preserve the properties the
//! algorithms are sensitive to — row counts, per-column cardinalities,
//! frequency skew, and planted correlation structure. Each generator module
//! records its substitution and why it preserves the paper's behaviour.
//!
//! All generators are deterministic given their seed.

#![warn(missing_docs)]

pub mod census;
pub mod marketing;
pub mod retail;
pub mod zipf;

pub use census::{census, census_first_columns};
pub use marketing::marketing;
pub use retail::{retail, retail_with_sales};
