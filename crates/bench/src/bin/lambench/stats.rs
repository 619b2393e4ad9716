//! Sample statistics: nearest-rank percentiles with the "enough samples
//! beyond it" rule, Python-compatible quartiles for run-to-run spread,
//! and the open-loop due-time latency accounting.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported tail percentile. Below that a
/// percentile is a guess, so it is not reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-percentile among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p * n as f64).ceil() as usize).clamp(1, n))
}

/// Nearest-rank `p`-percentile (`0 < p ≤ 1`) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// [`percentile`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let r = rank(sorted.len(), p)?;
    (sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// Sort a copy ascending (total order; the inputs are finite timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them, so the spread printed here is the spread a Python
/// check of the same numbers sees.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    // Python's formula verbatim: the index is clamped to the interior,
    // the weight is not, so small samples extrapolate past their ends.
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// An open-loop schedule: request `k` is due at `start + k * interval`,
/// whether or not earlier requests have been answered.
#[derive(Clone, Copy)]
pub struct Schedule {
    /// Due time of request 0.
    pub start: Instant,
    /// Gap between consecutive due times.
    pub interval: Duration,
}

impl Schedule {
    /// A schedule at `rate` requests per second.
    pub fn at_rate(start: Instant, rate: f64) -> Self {
        Self {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval * u32::try_from(k).unwrap_or(u32::MAX)
    }

    /// Latency of request `k` answered at `done`, timed from its due time
    /// (not its send time), so a stall also charges the requests it kept
    /// from being sent.
    pub fn latency(&self, k: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(k))
    }

    /// How late the generator sent request `k`.
    pub fn lag(&self, k: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 lie beyond.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&ramp(100), 0.99), None);
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&ramp(10)), 5.5);
        assert!((relative_iqr(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let start = Instant::now();
        let s = Schedule::at_rate(start, 1000.0); // 1 ms apart
        assert_eq!(s.due(3), start + Duration::from_millis(3));
        // Request 3 sent 2 ms late and answered 0.5 ms after sending:
        // its latency is 2.5 ms, not 0.5 ms.
        let sent = start + Duration::from_millis(5);
        let done = sent + Duration::from_micros(500);
        assert_eq!(s.lag(3, sent), Duration::from_millis(2));
        assert_eq!(s.latency(3, done), Duration::from_micros(2500));
        // An answer before the due time (clock skew) is never negative.
        assert_eq!(s.latency(9, start), Duration::ZERO);
    }
}
