//! Order statistics for timing samples.

use vrex_system::queueing::percentile_sorted;

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// A tail must leave at least this many samples beyond it; fewer and
/// the "percentile" is one or two outliers, not a property of the run.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median of the two middle samples (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// The highest ladder percentile, capped at `cap`, that leaves at
/// least [`MIN_BEYOND`] samples beyond it — and the value there. With
/// too few samples for any tail this is the median (percentile 50).
pub fn tail(samples: &[f64], cap: f64) -> (f64, f64) {
    let v = sorted(samples);
    let p = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= cap && beyond(v.len(), p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    (p, percentile_sorted(&v, p))
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Least-squares slope of `y` over `x` (0 when `x` does not vary).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x / n, sy + y / n));
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(sxy, sxx), (x, y)| {
        (sxy + (x - mx) * (y - my), sxx + (x - mx) * (x - mx))
    });
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 240 frames: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(tail(&ramp(240), 99.0), (95.0, 228.0));
        // 199 samples: p95 leaves 9 beyond, so the tail falls to p90.
        assert_eq!(tail(&ramp(199), 99.0).0, 90.0);
        // 1000 samples reach p99 (10 beyond); the cap holds it at p95.
        assert_eq!(tail(&ramp(1000), 99.0).0, 99.0);
        assert_eq!(tail(&ramp(1000), 95.0).0, 95.0);
        // Too few samples for any tail: the median.
        assert_eq!(tail(&ramp(19), 99.0), (50.0, 10.0));
        assert_eq!(tail(&ramp(1), 99.0), (50.0, 1.0));
    }

    #[test]
    fn slope_recovers_a_line() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 3.0 + 0.5 * i as f64)).collect();
        assert!((slope(&pts) - 0.5).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), 0.0);
    }
}
