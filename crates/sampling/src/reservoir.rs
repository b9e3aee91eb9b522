//! Reservoir sampling (Vitter's Algorithm R; paper §4.3 cites refs 26 and 35).
//!
//! "We can use reservoir sampling to get a uniformly random sample of given
//! size in a single pass through the table."
//!
//! Two offer flavors exist:
//!
//! * [`Reservoir::offer`] draws from a caller-supplied sequential RNG — the
//!   textbook form.
//! * [`Reservoir::offer_keyed`] derives each draw from `(key, seen)` with a
//!   stateless SplitMix64 mix. The reservoir's contents then depend only on
//!   the key and the offered stream — **not** on how the stream was split
//!   across calls or sessions. This is what makes the live-table sample
//!   maintenance incremental-equals-rebuild: continuing a stored reservoir
//!   over appended rows (via [`Reservoir::from_parts`]) lands in exactly
//!   the state a from-scratch pass over the grown stream produces, which in
//!   turn equals a scan of a pre-grown frozen table — bit-identical, with
//!   no epoch bookkeeping inside the reservoir at all.

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use rand::Rng;

/// One round of the SplitMix64 mixing function — the crate's stateless
/// deterministic mixer (also used for per-rule seeds in the handler).
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-capacity uniform reservoir over a stream of items.
///
/// After observing `n ≥ capacity` items, the reservoir holds a uniformly
/// random `capacity`-subset of them.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Creates an empty reservoir of the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Reassembles a reservoir from stored state: `items` drawn so far,
    /// the stream count `seen` they were drawn from, and the original
    /// `capacity`. Continuing to offer the rest of a stream to the result
    /// is bit-identical to having offered the whole stream to one fresh
    /// reservoir (with [`Reservoir::offer_keyed`] and the same key) — the
    /// incremental half of live-table sample maintenance.
    pub fn from_parts(items: Vec<T>, seen: u64, capacity: usize) -> Self {
        debug_assert!(items.len() <= capacity);
        debug_assert!(items.len() as u64 <= seen);
        Self {
            capacity,
            seen,
            items,
        }
    }

    /// Offers one item from the stream.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else if self.capacity > 0 {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Offers one item with the draw derived statelessly from
    /// `(key, seen)`: Algorithm R with `j = mix(key, t) mod t` at stream
    /// position `t`. Equally-keyed reservoirs fed the same stream hold the
    /// same items no matter how the stream is split across calls — see the
    /// module docs. (The modulo bias is ≤ `t / 2^64` per draw —
    /// statistically irrelevant, and determinism is exact.)
    pub fn offer_keyed(&mut self, item: T, key: u64) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else if self.capacity > 0 {
            let j = splitmix64(key ^ self.seen) % self.seen;
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// The most items the reservoir holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stream items observed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sampled items (length ≤ capacity).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consumes the reservoir, returning `(items, seen)`.
    pub fn into_parts(self) -> (Vec<T>, u64) {
        (self.items, self.seen)
    }

    /// The scale factor `N_s = seen / |items|` translating sample counts to
    /// stream-level estimates (`1.0` when the whole stream fit, including
    /// the empty stream).
    ///
    /// A drained zero-capacity reservoir (`capacity == 0`, `seen > 0`)
    /// returns the honest ratio `+∞`: it observed tuples but can represent
    /// none of them, so no finite per-item weight reconstructs the stream.
    /// Callers holding such a reservoir have an empty item list, so the
    /// infinity never multiplies a real tuple weight.
    pub fn scale(&self) -> f64 {
        if self.seen == 0 {
            1.0
        } else if self.items.is_empty() {
            f64::INFINITY
        } else {
            self.seen as f64 / self.items.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn keeps_everything_when_under_capacity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Reservoir::new(10);
        for i in 0..5 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
        assert_eq!(r.scale(), 1.0);
    }

    #[test]
    fn holds_exactly_capacity_after_overflow() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut r = Reservoir::new(8);
        for i in 0..1000 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.items().len(), 8);
        assert_eq!(r.seen(), 1000);
        assert!((r.scale() - 125.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_approximately_uniform() {
        // Each of 100 items should land in a 10-slot reservoir ~10% of runs.
        let mut hits = vec![0u32; 100];
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = Reservoir::new(10);
            for i in 0..100 {
                r.offer(i, &mut rng);
            }
            for &i in r.items() {
                hits[i as usize] += 1;
            }
        }
        // Expected 200 hits each; allow generous tolerance.
        for (i, &h) in hits.iter().enumerate() {
            assert!((120..=280).contains(&h), "item {i} selected {h} times");
        }
    }

    #[test]
    fn zero_capacity_reservoir_is_legal() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = Reservoir::new(0);
        assert_eq!(r.scale(), 1.0, "empty stream scales by 1");
        for i in 0..10 {
            r.offer(i, &mut rng);
        }
        assert!(r.items().is_empty());
        assert_eq!(r.seen(), 10);
        // Drained but saw tuples: the honest ratio is infinite, not 1.0.
        assert_eq!(r.scale(), f64::INFINITY);
    }

    #[test]
    fn keyed_offers_are_split_invariant() {
        // The property live-table maintenance rests on: offering a stream
        // in any number of installments (resuming via from_parts) lands in
        // the same state as one continuous pass.
        let key = 0xABCD_1234_u64;
        let stream: Vec<u32> = (0..500).collect();
        let mut whole = Reservoir::new(16);
        for &i in &stream {
            whole.offer_keyed(i, key);
        }
        for split in [0usize, 1, 17, 250, 499, 500] {
            let mut a = Reservoir::new(16);
            for &i in &stream[..split] {
                a.offer_keyed(i, key);
            }
            let (items, seen) = a.into_parts();
            let mut b = Reservoir::from_parts(items, seen, 16);
            for &i in &stream[split..] {
                b.offer_keyed(i, key);
            }
            assert_eq!(b.items(), whole.items(), "split at {split}");
            assert_eq!(b.seen(), whole.seen());
        }
    }

    #[test]
    fn keyed_sampling_is_approximately_uniform() {
        let mut hits = vec![0u32; 100];
        for key in 0..2000u64 {
            let mut r = Reservoir::new(10);
            for i in 0..100 {
                r.offer_keyed(i, splitmix64(key));
            }
            for &i in r.items() {
                hits[i as usize] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!((120..=280).contains(&h), "item {i} selected {h} times");
        }
    }

    #[test]
    fn into_parts_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut r = Reservoir::new(3);
        for i in 0..3 {
            r.offer(i, &mut rng);
        }
        let (items, seen) = r.into_parts();
        assert_eq!(items.len(), 3);
        assert_eq!(seen, 3);
    }
}
