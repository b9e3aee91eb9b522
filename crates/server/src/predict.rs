//! Transition-frequency prediction for think-time prefetch.
//!
//! The deferred-prefetch worker already refreshes samples during analyst
//! think-time. This module lets it go one step further: a shared
//! [`TransitionModel`] counts, across *all* sessions of an engine, which
//! child rule analysts actually drill into after looking at a given parent
//! rule's expansion. When the same parent comes up again and one child
//! dominates the history — at least [`TransitionModel::MIN_OBSERVATIONS`]
//! observations, with the mode holding at least
//! [`TransitionModel::MIN_CONFIDENCE`] of them — the worker precomputes
//! that child's expansion into the shared result cache before the analyst
//! clicks.
//!
//! Prediction is *advisory only*: a right guess warms the cache, a wrong
//! guess wastes background cycles, and neither changes a single response
//! byte (the cache-transparency invariant; see docs/DETERMINISM.md).
//! Predictions are confidence-gated rather than always-on so cold or
//! uniform click histories don't trigger speculative searches that rarely
//! pay off. Ties break deterministically (highest count, then smallest
//! rule codes lexicographically) so the same history always predicts the
//! same child regardless of map iteration order.
//!
//! Panic-free (lint rule P001): lock poisoning is absorbed, never
//! unwrapped.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use rustc_hash::{FxHashMap, FxHasher};
use sdd_core::Rule;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Snapshot of the model's work counters (observability only; predictions
/// never influence response bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictCounters {
    /// Parent→child transitions observed.
    pub records: u64,
    /// Confident predictions issued to the prefetch worker.
    pub predictions: u64,
    /// Predictions the worker actually precomputed into the cache.
    pub speculations: u64,
}

type Transitions = FxHashMap<Rule, FxHashMap<Rule, u64>>;

/// Lock-striped parent→child drill-down frequency model. See module docs.
pub struct TransitionModel {
    stripes: Vec<Mutex<Transitions>>,
    records: AtomicU64,
    predictions: AtomicU64,
    speculations: AtomicU64,
}

impl TransitionModel {
    /// Minimum drill-downs observed from a parent before predicting.
    pub const MIN_OBSERVATIONS: u64 = 3;
    /// Minimum fraction of those drill-downs the predicted child must hold.
    pub const MIN_CONFIDENCE: f64 = 0.5;

    /// A model with `stripes.max(1)` stripes.
    pub fn new(stripes: usize) -> Self {
        Self {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(Transitions::default()))
                .collect(),
            records: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            speculations: AtomicU64::new(0),
        }
    }

    fn stripe(&self, parent: &Rule) -> &Mutex<Transitions> {
        let mut h = FxHasher::default();
        parent.hash(&mut h);
        &self.stripes[(h.finish() as usize) % self.stripes.len()]
    }

    fn lock(m: &Mutex<Transitions>) -> std::sync::MutexGuard<'_, Transitions> {
        // Poisoning only means a holder panicked; counts stay usable.
        m.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Observes one analyst drill-down from `parent` into `child`.
    pub fn record(&self, parent: &Rule, child: &Rule) {
        let mut map = Self::lock(self.stripe(parent));
        *map.entry(parent.clone())
            .or_default()
            .entry(child.clone())
            .or_insert(0) += 1;
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    /// The confidently-predicted next drill-down from `parent`, if the
    /// history clears both gates. Deterministic for a given history.
    pub fn predict(&self, parent: &Rule) -> Option<Rule> {
        let map = Self::lock(self.stripe(parent));
        let children = map.get(parent)?;
        let total: u64 = children.values().sum();
        if total < Self::MIN_OBSERVATIONS {
            return None;
        }
        // Deterministic argmax: count descending, then rule codes
        // ascending — independent of hash-map iteration order.
        let best = children
            .iter()
            .max_by(|(ra, ca), (rb, cb)| ca.cmp(cb).then_with(|| rb.codes().cmp(ra.codes())))?;
        if (*best.1 as f64) < Self::MIN_CONFIDENCE * total as f64 {
            return None;
        }
        let predicted = best.0.clone();
        drop(map);
        self.predictions.fetch_add(1, Ordering::Relaxed);
        Some(predicted)
    }

    /// Marks one prediction as actually precomputed by the worker.
    pub fn note_speculation(&self) {
        self.speculations.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the work counters.
    pub fn counters(&self) -> PredictCounters {
        PredictCounters {
            records: self.records.load(Ordering::Relaxed),
            predictions: self.predictions.load(Ordering::Relaxed),
            speculations: self.speculations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(codes: &[u32]) -> Rule {
        Rule::from_codes(codes.to_vec())
    }

    #[test]
    fn cold_parent_predicts_nothing() {
        let m = TransitionModel::new(4);
        let p = rule(&[1, 0]);
        assert_eq!(m.predict(&p), None);
        m.record(&p, &rule(&[1, 2]));
        m.record(&p, &rule(&[1, 2]));
        // Two observations: still below MIN_OBSERVATIONS.
        assert_eq!(m.predict(&p), None);
    }

    #[test]
    fn dominant_child_is_predicted_once_warm() {
        let m = TransitionModel::new(4);
        let p = rule(&[1, 0]);
        let hot = rule(&[1, 2]);
        m.record(&p, &hot);
        m.record(&p, &hot);
        m.record(&p, &rule(&[1, 3]));
        // 2/3 ≥ 0.5 with 3 observations.
        assert_eq!(m.predict(&p), Some(hot));
        assert_eq!(m.counters().predictions, 1);
    }

    #[test]
    fn uniform_history_stays_below_the_confidence_gate() {
        let m = TransitionModel::new(4);
        let p = rule(&[9]);
        m.record(&p, &rule(&[1]));
        m.record(&p, &rule(&[2]));
        m.record(&p, &rule(&[3]));
        // Mode holds 1/3 < 0.5: no prediction.
        assert_eq!(m.predict(&p), None);
    }

    #[test]
    fn ties_break_to_the_smallest_rule_deterministically() {
        let p = rule(&[7, 7]);
        let a = rule(&[1, 9]);
        let b = rule(&[2, 0]);
        for _ in 0..16 {
            let m = TransitionModel::new(4);
            // Interleave insertion orders; prediction must not depend on
            // map iteration order.
            m.record(&p, &b);
            m.record(&p, &a);
            m.record(&p, &b);
            m.record(&p, &a);
            assert_eq!(m.predict(&p), Some(a.clone()));
        }
    }

    #[test]
    fn parents_are_independent() {
        let m = TransitionModel::new(1);
        let p1 = rule(&[1]);
        let p2 = rule(&[2]);
        let c = rule(&[3]);
        for _ in 0..4 {
            m.record(&p1, &c);
        }
        assert_eq!(m.predict(&p1), Some(c));
        assert_eq!(m.predict(&p2), None);
        assert_eq!(m.counters().records, 4);
    }
}
