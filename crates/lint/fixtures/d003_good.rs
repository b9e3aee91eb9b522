//! Known-good fixture for D003: the loop justifies its fixed operation
//! order with a `det-order:` doc line.

/// Sums a slice front to back.
///
/// det-order: sequential scan in input order on one thread; no partials
/// to merge, so the operation order is fixed by construction.
pub fn total(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += *x;
    }
    acc
}
