//! Fixed-bucket latency histogram.
//!
//! Buckets are log2-spaced: bucket `i` covers values `v` with
//! `BUCKET_BOUNDS[i-1] < v <= BUCKET_BOUNDS[i]` (bucket 0 covers `0..=1`).
//! The final bucket is an overflow bucket for values above the last bound.
//! With microsecond samples the covered range is 1 µs .. ~2^39 µs (≈ 6 days),
//! which comfortably spans both per-operator processing times and end-to-end
//! virtual-time latencies.

/// Number of power-of-two bucket boundaries (1, 2, 4, … 2^(N-1) µs).
pub(crate) const BUCKETS: usize = 40;

/// Upper (inclusive) bound of bucket `i`, in the recorded unit.
#[must_use]
pub(crate) fn bucket_bound(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    1u64 << i
}

fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    // ceil(log2(v)) = 64 - leading_zeros(v - 1); clamp overflow into the
    // final slot (which doubles as the overflow bucket).
    ((64 - (v - 1).leading_zeros()) as usize).min(BUCKETS)
}

/// A fixed-bucket histogram over `u64` samples (by convention microseconds).
///
/// Recording is O(1); percentile queries walk the 41 bucket counts. Exact
/// `min`/`max` are tracked on the side so percentile answers never leave the
/// observed range — in particular a single-sample histogram reports that
/// sample exactly for every percentile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `BUCKETS` log-spaced buckets plus one overflow bucket.
    counts: [u64; BUCKETS + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Arithmetic mean of recorded samples, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket upper bound clamped to the
    /// observed `[min, max]` range. `None` when empty.
    ///
    /// The answer is the upper bound of the bucket containing the sample of
    /// rank `ceil(q * count)`, so it over-estimates by at most one bucket
    /// width (a factor of 2 in this log2 scheme) and is exact for
    /// single-sample histograms.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = if i < BUCKETS {
                    bucket_bound(i)
                } else {
                    self.max
                };
                return Some(bound.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 95th percentile (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    /// 99th percentile (see [`Histogram::percentile`]).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// Write this histogram's summary into `snap` under `name`, if it
    /// holds a sample.
    pub fn put_into(&self, snap: &mut crate::MetricsSnapshot, name: &str) {
        if self.count > 0 {
            snap.hists
                .insert(name.to_string(), crate::HistSummary::of(self));
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
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
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        // v = 0 and v = 1 share bucket 0; each power of two sits at the top
        // of its own bucket; one past it spills into the next.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 0..BUCKETS {
            let bound = bucket_bound(i);
            assert_eq!(
                bucket_index(bound),
                i,
                "bound {bound} must land in bucket {i}"
            );
            if i + 1 < BUCKETS {
                assert_eq!(bucket_index(bound + 1), i + 1);
            }
        }
        // Values past the last bound land in the overflow bucket.
        assert_eq!(bucket_index(u64::MAX), BUCKETS);
    }

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.p99(), None);
    }

    #[test]
    fn single_sample_is_exact_at_every_percentile() {
        let mut h = Histogram::new();
        h.record(777); // not a power of two: bucket bound is 1024, clamped to max
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(777));
        }
        assert_eq!(h.min(), Some(777));
        assert_eq!(h.max(), Some(777));
        assert_eq!(h.mean(), Some(777.0));
    }

    #[test]
    fn percentiles_are_monotone_and_bucket_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50().unwrap();
        let p95 = h.p95().unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // True p50 is 500; the log2 bucket answer may overshoot by at most 2x.
        assert!((500..=1000).contains(&p50), "p50 = {p50}");
        assert!((950..=1000).contains(&p95), "p95 = {p95}");
        assert_eq!(h.percentile(1.0), Some(1000));
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(5);
        b.record(40_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 10 + 20 + 5 + 40_000);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(40_000));
        let mut all = Histogram::new();
        for v in [10, 20, 5, 40_000] {
            all.record(v);
        }
        assert_eq!(a, all);
    }

    #[test]
    fn zero_and_overflow_samples_are_representable() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
        assert_eq!(h.percentile(0.0), Some(0));
    }
}
