//! # smart-drilldown
//!
//! Facade crate for the *smart drill-down* workspace — a from-scratch Rust
//! reproduction of **“Interactive Data Exploration with Smart Drill-Down”**
//! (Joglekar, Garcia-Molina, Parameswaran — ICDE 2016).
//!
//! Smart drill-down is an OLAP interaction operator that expands a rule (a
//! tuple pattern with `?` wildcards) into the `k` most *interesting*
//! sub-patterns — maximizing `Σ W(r) · MCount(r, R)`, the weighted marginal
//! coverage of the rule list — instead of listing every distinct value like a
//! traditional drill-down does.
//!
//! ## Crates
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`table`] | `sdd-table` | dictionary-encoded columnar table, views, CSV, bucketization |
//! | [`datagen`] | `sdd-datagen` | synthetic retail / Marketing / Census datasets |
//! | [`core`] | `sdd-core` | rules, weighting functions, Score, the BRS optimizer, drill-down ops |
//! | [`sampling`] | `sdd-sampling` | SampleHandler, reservoir sampling, DP/convex sample-memory allocation |
//! | [`olap`] | `sdd-olap` | traditional drill-down baseline and comparison utilities |
//! | [`explorer`] | `sdd-explorer` | the interactive session tree: sampled, prefetching and CI-annotated, or exact (`ExplorerConfig::exact`) |
//! | [`server`] | `sdd-server` | concurrent multi-session TCP server (line-delimited JSON, background prefetch) |
//!
//! ## Quickstart
//!
//! ```
//! use smart_drilldown::prelude::*;
//!
//! // A tiny table: three columns, a handful of rows.
//! let table = Table::from_rows(
//!     Schema::new(["Store", "Product", "Region"]).unwrap(),
//!     &[
//!         &["Walmart", "cookies", "CA-1"],
//!         &["Walmart", "cookies", "WA-5"],
//!         &["Walmart", "bicycles", "CA-1"],
//!         &["Target", "bicycles", "MA-3"],
//!         &["Target", "bicycles", "MA-3"],
//!     ],
//! ).unwrap();
//!
//! // Expand the trivial (all-?) rule into the best 2 rules under Size weighting.
//! let result = Brs::new(&SizeWeight).with_max_weight(3.0).run(&table.view(), 2);
//! assert_eq!(result.rules.len(), 2);
//! for scored in &result.rules {
//!     println!("{}  count={}", scored.rule.display(&table), scored.count);
//! }
//! ```

pub use sdd_core as core;
pub use sdd_datagen as datagen;
pub use sdd_explorer as explorer;
pub use sdd_olap as olap;
pub use sdd_sampling as sampling;
pub use sdd_server as server;
pub use sdd_table as table;

/// Commonly used items, re-exported flat for examples and tests.
pub mod prelude {
    pub use sdd_core::{
        drill_down, star_drill_down, BitsWeight, Brs, BrsResult, DrillDownKind, Rule, RuleValue,
        ScoredRule, SizeMinusOne, SizeWeight, WeightFn,
    };
    pub use sdd_datagen::{census, marketing, retail};
    pub use sdd_explorer::{Explorer, ExplorerConfig};
    pub use sdd_olap::TraditionalDrillDown;
    pub use sdd_sampling::{AllocationStrategy, SampleHandler, SampleHandlerConfig};
    pub use sdd_table::{Schema, Table, TableBuilder, TableView};
}
