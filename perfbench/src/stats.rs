//! Order statistics over latency samples.

use aqe_bench::geomean;

/// Sort a sample in place (total order; NaN-free inputs assumed).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Linear-interpolated quantile of a sorted sample (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs.to_vec()), 0.5)
}

/// Geometric mean of each group's `q` quantile, skipping empty groups.
pub fn geomean_of_quantiles(groups: &[Vec<f64>], q: f64) -> f64 {
    let qs: Vec<f64> =
        groups.iter().filter(|g| !g.is_empty()).map(|g| quantile(&sorted(g.clone()), q)).collect();
    geomean(&qs)
}

/// An instance whose typical latency exceeds this multiple of the
/// median instance's counts as latched: its adaptive controller settled
/// on slow tiers for good.
pub const LATCH_FACTOR: f64 = 2.0;

/// Share of instances whose typical latency is over [`LATCH_FACTOR`]
/// times the median instance's.
pub fn latched_frac(typical: &[f64]) -> f64 {
    let m = median(typical);
    typical.iter().filter(|&&t| t > LATCH_FACTOR * m).count() as f64 / typical.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!((quantile(&s, 0.5) - 2.5).abs() < 1e-12);
        assert!(
            (geomean_of_quantiles(&[vec![1.0, 1.0, 9.0], vec![], vec![4.0]], 0.5) - 2.0).abs()
                < 1e-12
        );
    }
}
