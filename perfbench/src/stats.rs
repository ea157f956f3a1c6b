//! Order statistics used by every workload.

/// Median of `values` (mean of the two middle values for an even count;
/// NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `q`-th percentile (`0 < q <= 100`) in a
/// sample of `n`: the smallest rank whose cumulative share reaches `q`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    (((q / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples that lie strictly beyond the `q`-th percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q).min(n)
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that it is the noise of a few outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-th percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it. Infinite samples (failed
/// requests) sort last, so dropping requests never improves a percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || samples_beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[nearest_rank(v.len(), q) - 1])
}
