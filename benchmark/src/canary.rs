//! Host-phase canaries: two fixed pieces of work that touch nothing of the
//! product, timed at the start, middle and end of every run. When a
//! metric moves and the canaries moved with it, the machine was slow, not
//! the program.

use crate::rng::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the serial hash loop (compute-bound, no memory traffic).
const HASH_ITERATIONS: u64 = 20_000_000;
/// Bytes of the scan canary (larger than the reference box's last-level
/// cache share, so it reads memory bandwidth).
const SCAN_BYTES: usize = 32 << 20;

/// Milliseconds a fixed serial hash chain takes.
pub fn hash_loop_ms() -> f64 {
    let t = Instant::now();
    let mut rng = SplitMix64::new(black_box(0x5eed));
    let mut acc = 0u64;
    for _ in 0..HASH_ITERATIONS {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// A 32 MiB buffer summed front to back. Only traced runs own one: in a
/// timed run it would be the larger part of a small workload's peak RSS.
pub struct ScanCanary(Vec<u64>);

impl Default for ScanCanary {
    fn default() -> Self {
        Self((0..(SCAN_BYTES / 8) as u64).collect())
    }
}

impl ScanCanary {
    /// Milliseconds one pass over the buffer takes.
    pub fn scan_ms(&self) -> f64 {
        let t = Instant::now();
        let sum = black_box(&self.0)
            .iter()
            .fold(0u64, |a, &x| a.wrapping_add(x));
        black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The canary readings of one run, in the order taken.
#[derive(Default)]
pub struct Canaries {
    scan: Option<ScanCanary>,
    /// Hash-loop readings (ms).
    pub hash_ms: Vec<f64>,
    /// Scan readings (ms); empty in timed runs.
    pub scan_ms: Vec<f64>,
}

impl Canaries {
    /// Canaries for a run; `with_scan` for traced runs.
    pub fn new(with_scan: bool) -> Canaries {
        Canaries {
            scan: with_scan.then(ScanCanary::default),
            ..Canaries::default()
        }
    }

    /// Takes one reading of each canary.
    pub fn read(&mut self) {
        self.hash_ms.push(hash_loop_ms());
        if let Some(scan) = &self.scan {
            self.scan_ms.push(scan.scan_ms());
        }
    }

    /// The readings as JSON, for provenance.
    pub fn to_json(&self) -> sdd_server::Json {
        use sdd_server::Json;
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::num(x)).collect());
        Json::obj([
            ("hash_loop_ms", arr(&self.hash_ms)),
            ("scan_32mib_ms", arr(&self.scan_ms)),
        ])
    }
}
