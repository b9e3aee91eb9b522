//! # sdd-benchmark
//!
//! The repository's benchmark: four fixed-tape workloads, six end-to-end
//! metrics, a per-layer traced run, and the `compare` tool that judges two
//! sets of runs. `README.md` in this directory is the catalogue; this
//! crate sees the product only through the public functions of its crates.

#![warn(missing_docs)]

pub mod canary;
pub mod catalogue;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod ladder;
pub mod probes;
pub mod report;
pub mod rng;
pub mod scale;
pub mod shadow;
pub mod stats;
pub mod stores;
pub mod tape;
pub mod targets;
pub mod trace;
pub mod work;
pub mod workloads;
