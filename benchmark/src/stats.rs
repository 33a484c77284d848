//! Order statistics for the benchmark's reports: nearest-rank percentiles,
//! the highest percentile a sample can support, medians and spreads.

/// Percentiles the reports may quote, ascending.
const CANDIDATES: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` in `(0, 1]` of an ascending slice.
///
/// # Panics
/// On an empty slice: every caller has at least one sample by construction.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median is not supported.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|q| samples_beyond(n, *q) >= MIN_BEYOND)
}

/// One line stating which tail a latency sample supports, with its count.
pub fn tail_statement(sorted: &[f64]) -> String {
    match highest_supported(sorted.len()) {
        Some(q) => format!(
            "p{} = {:.1} over {} samples ({} beyond)",
            q * 100.0,
            percentile(sorted, q),
            sorted.len(),
            samples_beyond(sorted.len(), q)
        ),
        None => format!("{} samples: too few for any percentile", sorted.len()),
    }
}

/// Sort ascending (values are finite measurements).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Relative spread of repeated measurements: `max / min - 1`.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if values.is_empty() || min <= 0.0 {
        0.0
    } else {
        max / min - 1.0
    }
}

/// 64-bit FNV-1a, the digest the output checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64: the benchmark's own seeded generator (query windows), so the
/// package needs no dependency beyond the system under test.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        // 3 200 queries: 32 beyond p99, 3 beyond p99.9.
        assert_eq!(highest_supported(3200), Some(0.99));
        assert_eq!(samples_beyond(3200, 0.99), 32);
        assert_eq!(samples_beyond(3200, 0.999), 3);
        // 64 samples support the median only; 19 support nothing.
        assert_eq!(highest_supported(64), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn tail_statement_states_the_sample_count() {
        let s: Vec<f64> = (1..=3200).map(f64::from).collect();
        let line = tail_statement(&s);
        assert!(line.starts_with("p99 = 3168.0 over 3200 samples"), "{line}");
        assert!(line.contains("32 beyond"));
        assert!(tail_statement(&[1.0]).contains("too few"));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((spread(&[2.0, 2.2, 2.1]) - 0.1).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn generators_are_deterministic() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.unit() < 1.0 && a.below(10) < 10);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
