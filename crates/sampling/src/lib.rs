//! # sdd-sampling
//!
//! Dynamic sample maintenance for smart drill-down on large tables
//! (paper §4).
//!
//! BRS makes multiple passes over the data; on large tables it runs on an
//! in-memory sample instead, trading accuracy for response time. This crate
//! implements the paper's full sampling stack:
//!
//! * [`reservoir`] — single-pass uniform sampling (Vitter),
//! * [`alloc`] — the sample-memory allocation problem (Problem 5) and the
//!   uniform baseline,
//! * [`alloc_dp`] — the paper's approximate DP solver (§4.1),
//! * [`alloc_convex`] — the hinge-loss convex relaxation (§4.2, Problem 6),
//! * [`knapsack`] — Lemma 4's NP-hardness reduction, executable,
//! * [`handler`] — the SampleHandler: Find / Combine / Create mechanisms,
//!   LRU eviction, and one-scan pre-fetching (§4.3); the create/prefetch
//!   scan offers every rule's hits to a reservoir seeded from
//!   `(config.seed, rule)`, so stored samples are identical for any batch
//!   composition,
//! * [`estimate`] — count estimates with confidence intervals,
//! * [`minss`] — guidance for choosing `minSS` (§4.2).

// D001, D002, E001 (docs/DETERMINISM.md); the banned lists are in clippy.toml.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod alloc;
pub mod alloc_convex;
pub mod alloc_dp;
pub mod estimate;
pub mod handler;
pub mod knapsack;
pub mod minss;
pub mod reservoir;

pub use alloc::{solve_uniform, Allocation, AllocationProblem, AllocationStrategy};
pub use alloc_convex::{project_capped_simplex, solve_convex, solve_convex_with, ConvexConfig};
pub use alloc_dp::solve_dp;
pub use estimate::{count_estimate, percent_error, CountEstimate};
pub use handler::{
    FetchMechanism, HandlerStats, PrefetchEntry, PrefetchJob, SampleHandler, SampleHandlerConfig,
    SampleView, StoredSampleInfo,
};
pub use knapsack::{lemma4_reduction, Knapsack, Lemma4Instance};
pub use minss::{min_ss_for_fraction, recommended_min_ss};
pub use reservoir::Reservoir;
