//! Reservoir sampling (Vitter's Algorithm R; paper §4.3 cites refs 26 and 35).
//!
//! "We can use reservoir sampling to get a uniformly random sample of given
//! size in a single pass through the table."
//!
//! [`Reservoir::offer_keyed`] derives each draw from `(key, seen)` with a
//! stateless SplitMix64 mix, reduced to a slot index by Lemire's
//! multiply-shift (no division). The reservoir's contents then depend only
//! on the key and the offered stream — **not** on how the stream was split
//! across calls or sessions. The handler's scan hands each rule's hits over
//! a 2 048-row block at a time, and a live sync resumes a stored reservoir
//! over appended rows (via [`Reservoir::from_parts`]); either way the
//! reservoir lands in exactly the state one continuous pass over the whole
//! stream produces, which in turn equals a scan of a pre-grown frozen table
//! — bit-identical, with no epoch bookkeeping inside the reservoir at all.
//! On a 2-vCPU x86-64 host (one thread), scanning a 10⁶-row census table
//! for the trivial rule and offering every row to a 5 000-slot reservoir
//! takes 2.8–3.2 ms, against 4.1–4.4 ms when the draw divided (`mix mod t`).

// P001: no panics outside tests (docs/DETERMINISM.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use sdd_core::cachekey::splitmix64;

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

    /// Offers one item with the draw derived statelessly from
    /// `(key, seen)`: Algorithm R with `j = ⌊mix(key, t) · t / 2⁶⁴⌋` at
    /// stream position `t` — Lemire's multiply-shift range reduction, one
    /// widening multiply where `mix mod t` took a division. Equally-keyed
    /// reservoirs fed the same stream hold the same items no matter how the
    /// stream is split across calls — see the module docs. (The reduction's
    /// bias is ≤ `t / 2⁶⁴` per draw — statistically irrelevant, and
    /// determinism is exact.)
    pub fn offer_keyed(&mut self, item: T, key: u64) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else if self.capacity > 0 {
            // The high word of a 64 × 64-bit product: below `seen`.
            let j = ((splitmix64(key ^ self.seen) as u128 * self.seen as u128) >> 64) as u64;
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

    #[test]
    fn keeps_everything_when_under_capacity() {
        let mut r = Reservoir::new(10);
        for i in 0..5 {
            r.offer_keyed(i, 1);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4]);
        assert_eq!(r.seen(), 5);
        assert_eq!(r.scale(), 1.0);
    }

    #[test]
    fn holds_exactly_capacity_after_overflow() {
        let mut r = Reservoir::new(8);
        for i in 0..1000 {
            r.offer_keyed(i, 2);
        }
        assert_eq!(r.items().len(), 8);
        assert_eq!(r.seen(), 1000);
        assert!((r.scale() - 125.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_reservoir_is_legal() {
        let mut r = Reservoir::new(0);
        assert_eq!(r.scale(), 1.0, "empty stream scales by 1");
        for i in 0..10 {
            r.offer_keyed(i, 3);
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
        // the same state as one continuous pass — for every capacity, and
        // for split points on both sides of 2¹⁶ offers.
        let key = 0xABCD_1234_u64;
        let stream: Vec<u32> = (0..70_000).collect();
        for cap in [0, 1, 16] {
            let mut whole = Reservoir::new(cap);
            for &i in &stream {
                whole.offer_keyed(i, key);
            }
            for split in [0, 1, 17, 250, 499, 65_535, 65_536, 65_537, 69_999, 70_000] {
                let mut a = Reservoir::new(cap);
                for &i in &stream[..split] {
                    a.offer_keyed(i, key);
                }
                let (items, seen) = a.into_parts();
                let mut b = Reservoir::from_parts(items, seen, cap);
                for &i in &stream[split..] {
                    b.offer_keyed(i, key);
                }
                assert_eq!(b.items(), whole.items(), "capacity {cap}, split at {split}");
                assert_eq!(b.seen(), whole.seen());
            }
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
    fn keyed_sampling_is_uniform_over_long_streams() {
        // Draw t reduces a 64-bit mix to 0..t; on a long stream t runs far
        // past the reservoir, so a biased reduction would favour some
        // stream positions. Each of N positions lands in a C-slot
        // reservoir with probability C/N; over K keys the chi-square
        // statistic of the inclusion counts — per position, and per run of
        // 100 positions, which sees a bias spread over many of them — must
        // stay within five standard deviations of its degrees of freedom.
        const N: usize = 10_000;
        const C: usize = 64;
        const K: u64 = 6_000;
        let mut hits = vec![0u32; N];
        for key in 0..K {
            let mut r = Reservoir::new(C);
            for i in 0..N {
                r.offer_keyed(i, splitmix64(key));
            }
            for &i in r.items() {
                hits[i] += 1;
            }
        }
        for width in [1, 100] {
            let bins: Vec<u32> = hits.chunks(width).map(|c| c.iter().sum()).collect();
            let expect = (K as usize * C * width) as f64 / N as f64;
            let chi2: f64 = bins
                .iter()
                .map(|&h| (f64::from(h) - expect).powi(2) / expect)
                .sum();
            let df = (bins.len() - 1) as f64;
            assert!(
                (chi2 - df).abs() < 5.0 * (2.0 * df).sqrt(),
                "chi-square {chi2:.0} over {df} degrees of freedom, {width} positions a bin"
            );
        }
    }

    #[test]
    fn into_parts_roundtrip() {
        let mut r = Reservoir::new(3);
        for i in 0..3 {
            r.offer_keyed(i, 4);
        }
        let (items, seen) = r.into_parts();
        assert_eq!(items.len(), 3);
        assert_eq!(seen, 3);
    }
}
