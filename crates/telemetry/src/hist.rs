//! A log-linear histogram for nonnegative integer samples.
//!
//! The bucket layout is the classic HDR shape: values below
//! `LINEAR_CUTOFF` (16) get exact one-per-value buckets, and every
//! power of two above it is split into `SUB_BUCKETS` (16) linear
//! sub-buckets, so the relative quantile error is bounded by `1 / SUB_BUCKETS`
//! (6.25%) at any magnitude while the whole structure stays a flat
//! array of counters — no allocation per sample, no sample retention.
//! Exact `min`/`max`/`sum`/`count` are tracked on the side so the tails
//! are reported precisely even though interior quantiles are bucketed.

/// Values below this get exact single-value buckets.
const LINEAR_CUTOFF: u64 = 16;
/// Linear sub-buckets per power-of-two range above the cutoff.
const SUB_BUCKETS: u64 = 16;
/// Total bucket count: 16 exact + 16 per power of two from 2^4 to 2^63.
const BUCKETS: usize = (LINEAR_CUTOFF + (64 - 4) * SUB_BUCKETS) as usize;

/// A fixed-memory log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("sum", &self.sum)
            .finish_non_exhaustive()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    // `v >= 16`, so the leading one sits at bit position >= 4.
    let msb = 63 - v.leading_zeros() as u64;
    let sub = (v >> (msb - 4)) - SUB_BUCKETS; // top 4 bits below the leading one
    (LINEAR_CUTOFF + (msb - 4) * SUB_BUCKETS + sub) as usize
}

/// Lowest value that lands in bucket `idx` (the bucket representative
/// reported by quantiles — a deliberate under-estimate, never above the
/// true quantile's bucket).
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_CUTOFF {
        return idx;
    }
    let msb = (idx - LINEAR_CUTOFF) / SUB_BUCKETS + 4;
    let sub = (idx - LINEAR_CUTOFF) % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (msb - 4)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by nearest rank over the bucket
    /// counts, reported as the floor of the bucket the rank falls in —
    /// within `1/16` relative error of the exact order statistic. The
    /// extreme quantiles are exact: `q = 0` returns [`Histogram::min`]
    /// and `q = 1` returns [`Histogram::max`]. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Clamp to the exact extremes: the lowest and highest
                // occupied buckets can only contain min/max-side mass.
                return bucket_floor(idx).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = None;
        for v in (0..2000u64).chain([1 << 20, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(bucket_floor(idx) <= v, "floor above value for {v}");
            if let Some((pv, pi)) = prev {
                assert!(idx >= pi, "index not monotone at {pv}->{v}");
            }
            prev = Some((v, idx));
        }
        // Bucket floors invert their own index.
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(idx)), idx, "idx {idx}");
        }
    }

    #[test]
    fn exact_below_cutoff() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 3, 7, 9] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.9), 9);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 9);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 25);
    }

    #[test]
    fn uniform_distribution_percentiles_within_bound() {
        // 1..=10_000 uniformly: exact p50 = 5000, p95 = 9500.
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p95 = h.quantile(0.95) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 1.0 / 16.0, "p50 {p50}");
        assert!((p95 - 9500.0).abs() / 9500.0 < 1.0 / 16.0, "p95 {p95}");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.mean(), 5000.5);
    }

    #[test]
    fn skewed_distribution_percentiles() {
        // 99 small samples and one huge outlier: p50 stays small, max
        // is exact.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(100);
        }
        h.observe(1_000_000_000);
        let p50 = h.quantile(0.5);
        assert!((96..=104).contains(&p50), "p50 {p50}");
        assert_eq!(h.max(), 1_000_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000_000);
        // p99 by nearest rank over 100 samples is the 99th sample
        // (still 100); only the very last rank reaches the outlier.
        assert!(h.quantile(0.99) <= 104);
    }

    #[test]
    fn constant_distribution_is_tight() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.observe(123_456);
        }
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            let got = h.quantile(q) as f64;
            assert!(
                (got - 123_456.0).abs() / 123_456.0 <= 1.0 / 16.0,
                "q={q} got {got}"
            );
        }
        // The extremes are exact even though the interior is bucketed.
        assert_eq!(h.quantile(0.0), 123_456);
        assert_eq!(h.quantile(1.0), 123_456);
    }

    #[test]
    fn merge_combines_two_histograms() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500u64 {
            a.observe(v);
        }
        for v in 501..=1000u64 {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1000);
        let p50 = a.quantile(0.5) as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 1.0 / 16.0, "p50 {p50}");
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
