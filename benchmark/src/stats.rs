//! Order statistics the benchmark reports with.
//!
//! Kept separate from `parallax_telemetry::stats` on purpose: the
//! benchmark measures that crate, so the yardstick does not move when
//! the measured code does.

/// Samples that must lie beyond a percentile before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// Percentiles tried, highest first, when a tail is asked for.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(n, q) - 1],
    }
}

/// Whether `n` samples leave [`SAMPLES_BEYOND`] of them above the
/// nearest-rank `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= SAMPLES_BEYOND
}

/// The highest percentile of the ladder, not above `want`, that `n`
/// samples support; the median when none does.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    LADDER
        .into_iter()
        .find(|&q| q <= want && supports(n, q))
        .unwrap_or(0.50)
}

/// `want`-th percentile of `samples`, stepped down the ladder until ten
/// samples lie beyond it. Returns `(percentile used, value)`.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let sorted = ascending(samples);
    let q = supported_percentile(sorted.len(), want);
    (q, percentile(&sorted, q))
}

/// Ascending copy of `samples`.
pub fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the middle two for even counts; `NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = ascending(samples);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (`0` when empty, so an idle layer reads as idle).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), which is what the acceptance check of the benchmark uses.
/// Needs at least two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let sorted = ascending(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Element-wise minimum over replays of the same deterministic work:
/// step `i` does bit-identical work in every replay, so the smallest of
/// its walls is the one least disturbed by the host.
pub fn replay_min<R: AsRef<[f64]>>(replays: &[R]) -> Vec<f64> {
    let Some(first) = replays.first() else {
        return Vec::new();
    };
    let mut out = first.as_ref().to_vec();
    for replay in &replays[1..] {
        for (best, &wall) in out.iter_mut().zip(replay.as_ref()) {
            *best = best.min(wall);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 200 samples: rank 190 leaves exactly ten beyond p95, p99 only two.
        assert!(supports(200, 0.95));
        assert!(!supports(200, 0.99));
        assert!(!supports(199, 0.95));
        assert!(supports(1000, 0.99));
        assert_eq!(supported_percentile(200, 0.95), 0.95);
        assert_eq!(supported_percentile(200, 0.99), 0.95);
        assert_eq!(supported_percentile(1000, 0.95), 0.95);
        assert_eq!(supported_percentile(100, 0.95), 0.90);
        assert_eq!(supported_percentile(10, 0.95), 0.50);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.95), (0.90, 90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(
            quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]),
            Some((1.5, 3.0, 8.5))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn replay_minimum_filter() {
        let replays = vec![
            vec![5.0, 2.0, 9.0],
            vec![4.0, 3.0, 9.5],
            vec![6.0, 2.5, 8.0],
        ];
        assert_eq!(replay_min(&replays), vec![4.0, 2.0, 8.0]);
        assert_eq!(replay_min::<Vec<f64>>(&[]), Vec::<f64>::new());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
