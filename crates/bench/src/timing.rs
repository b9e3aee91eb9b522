//! Wall-clock timing helpers for the experiment binaries.

use std::time::Instant;

/// Times `f` once, returning `(elapsed_ms, result)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Runs `f` `reps` times and returns the mean elapsed milliseconds.
pub fn time_mean(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps > 0);
    let mut total = 0.0;
    for _ in 0..reps {
        let (ms, ()) = time_once(&mut f);
        total += ms;
    }
    total / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (ms, v) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn time_mean_averages() {
        let mut n = 0;
        let ms = time_mean(3, || n += 1);
        assert_eq!(n, 3);
        assert!(ms >= 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_reps_panics() {
        let _ = time_mean(0, || {});
    }
}
