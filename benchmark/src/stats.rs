//! The estimator: per-round summaries and the median over rounds.
//!
//! Every timing the benchmark reports is the median over rounds of a
//! per-round value, never a whole-run aggregate: one disturbed round
//! (a neighbour on the shared box) then moves nothing.

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest sample with at least `p` of the
/// samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The geometric mean of positive `values`.
pub fn gmean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One timed round: its wall time and every op's latency.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall time from the first op's start to the last op's end.
    pub secs: f64,
    /// Per-op latencies in nanoseconds, in execution order.
    pub lat_ns: Vec<u64>,
}

/// What one round contributes to the medians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// Ops completed per second of round wall time.
    pub rate: f64,
    /// Median op latency, µs.
    pub p50_us: f64,
    /// 90th-percentile op latency, µs.
    pub p90_us: f64,
    /// 99th-percentile op latency, µs.
    pub p99_us: f64,
    /// Slowest op, µs.
    pub max_us: f64,
}

impl Round {
    /// Summarises the round.
    pub fn summary(&self) -> RoundSummary {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        let us = |p: f64| percentile_sorted(&sorted, p) as f64 / 1e3;
        RoundSummary {
            rate: self.lat_ns.len() as f64 / self.secs,
            p50_us: us(0.50),
            p90_us: us(0.90),
            p99_us: us(0.99),
            max_us: us(1.0),
        }
    }
}

/// The median over rounds of one field of the round summaries.
pub fn median_of(rounds: &[RoundSummary], field: impl Fn(&RoundSummary) -> f64) -> f64 {
    median(&rounds.iter().map(field).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_nearest_rank_on_hand_made_data() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 5);
        assert_eq!(percentile_sorted(&s, 0.9), 9);
        assert_eq!(percentile_sorted(&s, 0.91), 10);
        assert_eq!(percentile_sorted(&s, 1.0), 10);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn gmean_of_powers_of_two() {
        assert!((gmean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_rounds_ignores_one_disturbed_round() {
        // Three rounds of 4 ops; the middle round ran 10x slow. The
        // whole-run mean would move, the median over rounds does not.
        let quiet = Round {
            secs: 4e-6,
            lat_ns: vec![1000, 1000, 1000, 1000],
        };
        let noisy = Round {
            secs: 40e-6,
            lat_ns: vec![10_000, 10_000, 10_000, 10_000],
        };
        let rounds = [quiet.summary(), noisy.summary(), quiet.summary()];
        assert_eq!(median_of(&rounds, |r| r.rate), 1e6);
        assert_eq!(median_of(&rounds, |r| r.p50_us), 1.0);
        assert_eq!(median_of(&rounds, |r| r.p90_us), 1.0);
        assert_eq!(rounds[1].max_us, 10.0);
    }
}
