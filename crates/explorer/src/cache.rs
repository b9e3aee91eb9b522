//! The shared drill-down result cache interface.
//!
//! Every expansion an [`crate::Explorer`] performs is a pure function of
//! (table, sample-view content, base rule, star column, `k`, weight
//! function, `mw`) — the sampling layer seeds every reservoir per
//! `(seed, rule)`, so sessions replaying the same drill path feed the BRS
//! optimizer byte-identical inputs. A server hosting many sessions over one
//! table can therefore share one result cache across all of them: under
//! Zipf-shaped traffic most expansions are recomputations of bit-identical
//! results.
//!
//! This module defines only the *interface* plus the key derivation hook;
//! the concrete lock-striped cache lives in `sdd-server` (this crate is in
//! the deterministic set and stays free of server policy like capacity and
//! eviction). The **cache-transparency invariant** (docs/DETERMINISM.md):
//! a cache hit must be bit-identical to recomputation — same rules, same
//! `f64` bit patterns, same order. [`Explorer`](crate::Explorer) verifies
//! every hit against a fresh computation when debug assertions are
//! enabled, and the cache-parity suites assert it end to end.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use sdd_core::{DrillKey, ScoredRule};
use std::sync::Arc;

/// A cached drill-down result: the BRS rule list in display order, shared
/// by `Arc` so hits are allocation-free.
pub type CachedRules = Arc<Vec<ScoredRule>>;

/// A concurrent, shareable drill-down result cache.
///
/// Implementations must be thread-safe (sessions on different worker
/// threads consult the cache concurrently) and may evict at will — the
/// cache is an accelerator, never a source of truth. They must return
/// entries exactly as inserted: the explorer treats a hit as the search
/// result, bit for bit.
pub trait ResultCache: Send + Sync {
    /// The cached result for `key`, if present.
    fn get(&self, key: &DrillKey) -> Option<CachedRules>;

    /// True when `key` is present. Unlike [`ResultCache::get`] this is a
    /// pure peek: implementations should not count it toward hit/miss
    /// statistics (background speculation probes with it).
    fn contains(&self, key: &DrillKey) -> bool;

    /// Stores the result for `key`. The value must be the bit-exact search
    /// result for the inputs `key` was derived from.
    fn insert(&self, key: DrillKey, value: CachedRules);
}

/// A cloneable handle to a shared [`ResultCache`], wrapped so
/// configuration structs keep their derived `Debug`.
#[derive(Clone)]
pub struct SharedResultCache(pub Arc<dyn ResultCache>);

impl std::fmt::Debug for SharedResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedResultCache")
    }
}

/// Bit-exact equality of two scored-rule lists: rules, order, and every
/// `f64` compared by bit pattern (`==` would pass `-0.0` vs `0.0` and fail
/// equal NaNs — exactly the hazards the cache key already avoids).
pub fn rules_bit_identical(a: &[ScoredRule], b: &[ScoredRule]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.rule == y.rule
                && x.weight.to_bits() == y.weight.to_bits()
                && x.count.to_bits() == y.count.to_bits()
                && x.mcount.to_bits() == y.mcount.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::Rule;

    fn scored(count: f64) -> ScoredRule {
        ScoredRule {
            rule: Rule::trivial(2),
            weight: 1.0,
            count,
            mcount: count,
        }
    }

    #[test]
    fn bit_identity_is_stricter_than_float_equality() {
        assert!(rules_bit_identical(&[scored(2.0)], &[scored(2.0)]));
        assert!(!rules_bit_identical(&[scored(0.0)], &[scored(-0.0)]));
        // NaN payload-for-payload: identical bits compare equal even
        // though `==` on the floats would not.
        assert!(rules_bit_identical(
            &[scored(f64::NAN)],
            &[scored(f64::NAN)]
        ));
        assert!(!rules_bit_identical(&[scored(1.0)], &[]));
    }
}
