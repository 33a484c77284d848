//! Scalar instruments: monotonic counters and point-in-time gauges.

use crate::MetricsSnapshot;

/// A monotonically increasing event counter; saturates at `u64::MAX`. It
/// remembers whether it was ever updated (an `add(0)` included): a
/// snapshot lists it from then on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
    touched: bool,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
        self.touched = true;
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Write the count into `snap` under `name`, if it was ever updated.
    pub fn put_into(&self, snap: &mut MetricsSnapshot, name: &str) {
        if self.touched {
            snap.counters.insert(name.to_string(), self.value);
        }
    }
}

/// A gauge: a signed value that can move in either direction (queue depths,
/// queued bytes, in-flight work). Like a [`Counter`], a snapshot lists it
/// once it was set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
    /// Largest value ever set, for high-water-mark reporting.
    peak: i64,
    touched: bool,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the current value.
    pub fn set(&mut self, v: i64) {
        self.value = v;
        self.peak = self.peak.max(v);
        self.touched = true;
    }

    /// Adjust the current value by `delta` (may be negative).
    pub fn add(&mut self, delta: i64) {
        self.set(self.value.saturating_add(delta));
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value
    }

    /// Highest value the gauge has ever held (zero if never set above zero).
    #[must_use]
    pub fn peak(&self) -> i64 {
        self.peak
    }

    /// Write the value into `snap` under `name`, if it was ever set.
    pub fn put_into(&self, snap: &mut MetricsSnapshot, name: &str) {
        if self.touched {
            snap.gauges.insert(name.to_string(), self.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone_and_saturating() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn inc_saturates_at_the_top() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let mut g = Gauge::new();
        g.set(10);
        g.add(-4);
        assert_eq!(g.get(), 6);
        assert_eq!(g.peak(), 10);
        g.add(20);
        assert_eq!(g.peak(), 26);
        g.set(-3);
        assert_eq!(g.get(), -3);
        assert_eq!(g.peak(), 26);
    }
}
