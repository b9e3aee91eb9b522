//! Known-bad fixture for D003: a float accumulation loop with no
//! justification comment.

pub fn total(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += *x;
    }
    acc
}
