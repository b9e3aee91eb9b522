//! The harness's own deterministic generator and digest. Nothing here
//! comes from the product or from a vendored crate, so a change to either
//! can never move a tape or a digest.

/// SplitMix64: one `u64` of state, full period, stable on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Zipf(`s`) distribution over ranks `0..n`, sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `r` (0-based) has weight `1 / (r + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over 64 bits, fed incrementally. Every reply of a run goes
/// through one of these (length-prefixed, so reply boundaries count), and
/// runs of one commit must agree on the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one record: its length, then its bytes.
    pub fn record(&mut self, text: &str) {
        self.bytes(&(text.len() as u64).to_le_bytes());
        self.bytes(text.as_bytes());
    }

    /// Folds another digest's value (combining per-session digests in a
    /// fixed order).
    pub fn absorb(&mut self, other: Digest) {
        self.bytes(&other.0.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], SplitMix64::new(43).next_u64());
        let u = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16, 1.1);
        let mut rng = SplitMix64::new(1);
        let mut hist = [0usize; 16];
        for _ in 0..10_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[4] && hist[4] > hist[15]);
        assert!(hist[15] > 0);
    }

    #[test]
    fn digest_counts_record_boundaries() {
        let mut a = Digest::default();
        a.record("ab");
        a.record("c");
        let mut b = Digest::default();
        b.record("a");
        b.record("bc");
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }
}
