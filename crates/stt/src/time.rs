//! The temporal dimension: timestamps, durations, intervals, and the
//! **temporal granularity** lattice.
//!
//! Granularities are central to the STT model: they "are used for identifying
//! correlations among data produced by different sensors and for imposing
//! consistency constraints in the composition of sensor data produced by
//! heterogeneous devices" (paper §3). A granularity partitions the time line
//! into *granules*; converting a timestamp to a granule index, mapping a
//! granule back to its interval, and comparing granularities in the
//! finer/coarser partial order are the operations the rest of the system
//! needs.
//!
//! All timestamps are UTC epoch milliseconds. Calendar granularities (day,
//! month, year) use the proleptic Gregorian civil calendar.

use crate::error::SttError;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Milliseconds since the Unix epoch (UTC). The single time representation
/// used across the simulator, operators and warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

/// A length of time in milliseconds. Always non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Timestamp {
    /// The Unix epoch itself.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Build from epoch milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    /// Build from epoch seconds.
    pub const fn from_secs(s: i64) -> Self {
        Timestamp(s * 1000)
    }

    /// Epoch milliseconds.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// Epoch seconds (truncated toward negative infinity).
    pub const fn as_secs(self) -> i64 {
        self.0.div_euclid(1000)
    }

    /// The earlier of two timestamps.
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two timestamps.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Duration from `earlier` to `self`; zero if `earlier` is in the future.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_millis(u64::try_from(self.0 - earlier.0).unwrap_or(0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0 as i64))
    }

    /// Civil date `(year, month 1-12, day 1-31)` of this timestamp in UTC.
    pub fn civil_date(self) -> (i32, u32, u32) {
        civil_from_days(self.0.div_euclid(86_400_000))
    }

    /// `(hour, minute, second)` of the day in UTC.
    pub fn time_of_day(self) -> (u32, u32, u32) {
        let ms = self.0.rem_euclid(86_400_000) as u64;
        let s = ms / 1000;
        ((s / 3600) as u32, ((s % 3600) / 60) as u32, (s % 60) as u32)
    }

    /// Build a timestamp from a UTC civil date and time of day.
    pub fn from_civil(year: i32, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Timestamp {
        let days = days_from_civil(i64::from(year), month, day);
        Timestamp(
            days * 86_400_000
                + i64::from(hour) * 3_600_000
                + i64::from(min) * 60_000
                + i64::from(sec) * 1000,
        )
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d) = self.civil_date();
        let (h, mi, s) = self.time_of_day();
        let ms = self.0.rem_euclid(1000);
        write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}.{ms:03}Z")
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0 as i64)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0 as i64;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, d: Duration) -> Timestamp {
        Timestamp(self.0 - d.0 as i64)
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Build from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    /// Build from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1000)
    }

    /// Build from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        Duration(m * 60_000)
    }

    /// Build from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        Duration(h * 3_600_000)
    }

    /// Milliseconds in this duration.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scalar multiplication, saturating.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl fmt::Display for Duration {
    /// Compact `1h2m3s` / `250ms` rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ms = self.0;
        if ms == 0 {
            return write!(f, "0ms");
        }
        let h = ms / 3_600_000;
        ms %= 3_600_000;
        let m = ms / 60_000;
        ms %= 60_000;
        let s = ms / 1000;
        ms %= 1000;
        let mut wrote = false;
        if h > 0 {
            write!(f, "{h}h")?;
            wrote = true;
        }
        if m > 0 {
            write!(f, "{m}m")?;
            wrote = true;
        }
        if s > 0 {
            write!(f, "{s}s")?;
            wrote = true;
        }
        if ms > 0 || !wrote {
            write!(f, "{ms}ms")?;
        }
        Ok(())
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

/// A half-open interval of time `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeInterval {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl TimeInterval {
    /// Build an interval; panics in debug builds if `end < start`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        debug_assert!(end >= start, "interval end before start");
        TimeInterval { start, end }
    }

    /// True if `t` lies inside the half-open interval.
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// True if the two intervals share at least one instant.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Length of the interval.
    pub fn length(&self) -> Duration {
        self.end.since(self.start)
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A temporal granularity: a partition of the time line into granules.
///
/// Fixed-size granularities (from milliseconds up to weeks, plus
/// [`TemporalGranularity::Custom`]) partition the line into equal spans
/// anchored at the epoch; calendar granularities ([`Month`], [`Year`]) follow
/// the civil calendar.
///
/// [`Month`]: TemporalGranularity::Month
/// [`Year`]: TemporalGranularity::Year
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalGranularity {
    /// One-millisecond granules (the finest granularity).
    Millisecond,
    /// One-second granules.
    Second,
    /// One-minute granules.
    Minute,
    /// One-hour granules.
    Hour,
    /// One-day granules (UTC civil days).
    Day,
    /// Seven-day granules anchored at the epoch (1970-01-01 was a Thursday).
    Week,
    /// Civil-calendar months.
    Month,
    /// Civil-calendar years.
    Year,
    /// A custom fixed period in milliseconds (must be > 0).
    Custom(u64),
}

impl TemporalGranularity {
    /// All the named (non-custom) granularities, finest first.
    pub const NAMED: [TemporalGranularity; 8] = [
        TemporalGranularity::Millisecond,
        TemporalGranularity::Second,
        TemporalGranularity::Minute,
        TemporalGranularity::Hour,
        TemporalGranularity::Day,
        TemporalGranularity::Week,
        TemporalGranularity::Month,
        TemporalGranularity::Year,
    ];

    /// Fixed granule length in milliseconds, or `None` for calendar
    /// granularities whose granules vary in length.
    pub fn fixed_millis(self) -> Option<u64> {
        match self {
            TemporalGranularity::Millisecond => Some(1),
            TemporalGranularity::Second => Some(1000),
            TemporalGranularity::Minute => Some(60_000),
            TemporalGranularity::Hour => Some(3_600_000),
            TemporalGranularity::Day => Some(86_400_000),
            TemporalGranularity::Week => Some(604_800_000),
            TemporalGranularity::Custom(ms) => Some(ms),
            TemporalGranularity::Month | TemporalGranularity::Year => None,
        }
    }

    /// Index of the granule containing `t`.
    ///
    /// For fixed granularities this is `floor(ms / period)`; for months it is
    /// `(year - 1970) * 12 + month0`; for years `year - 1970`.
    pub fn granule_of(self, t: Timestamp) -> i64 {
        if let Some(p) = self.fixed_millis() {
            return t.as_millis().div_euclid(p as i64);
        }
        let (y, m, _) = t.civil_date();
        let years = i64::from(y) - 1970;
        match self {
            TemporalGranularity::Month => years * 12 + i64::from(m) - 1,
            _ => years,
        }
    }

    /// The time interval covered by granule `idx`.
    pub fn granule_interval(self, idx: i64) -> TimeInterval {
        if let Some(p) = self.fixed_millis() {
            let p = p as i64;
            return TimeInterval::new(
                Timestamp::from_millis(idx * p),
                Timestamp::from_millis((idx + 1) * p),
            );
        }
        // Calendar granules, as month indexes counted from 1970-01.
        let (first, months) = match self {
            TemporalGranularity::Month => (idx, 1),
            _ => (idx * 12, 12),
        };
        TimeInterval::new(month_start(first), month_start(first + months))
    }

    /// Truncate `t` to the start of its granule (e.g. `Hour` → top of hour).
    pub fn truncate(self, t: Timestamp) -> Timestamp {
        self.granule_interval(self.granule_of(t)).start
    }

    /// True if `self` is *finer than or equal to* `other`: every granule of
    /// `other` is a union of granules of `self`.
    ///
    /// For fixed granularities this is divisibility of the periods. The
    /// calendar chain is `Millisecond ≤ … ≤ Day ≤ Month ≤ Year`; `Week` is
    /// only comparable with granularities that divide a week (it does not
    /// align with months or years).
    pub fn finer_or_equal(self, other: TemporalGranularity) -> bool {
        use TemporalGranularity::*;
        if self == other {
            return true;
        }
        match (self, other) {
            (Month, Year) => true,
            // Month/Year are unions of civil days, which are unions of any
            // divisor of a day.
            (a, Month | Year) => a
                .fixed_millis()
                .is_some_and(|p| p != 0 && 86_400_000 % p == 0),
            (Month | Year, _) => false,
            (a, b) => match (a.fixed_millis(), b.fixed_millis()) {
                (Some(pa), Some(pb)) => pa != 0 && pb % pa == 0,
                _ => false,
            },
        }
    }

    /// True if the two granularities are comparable in the lattice.
    pub fn comparable(self, other: TemporalGranularity) -> bool {
        self.finer_or_equal(other) || other.finer_or_equal(self)
    }

    /// Coarsen granule `idx` of `self` to the index of the containing granule
    /// of `coarser`. Errors if `coarser` is not actually coarser-or-equal.
    pub fn coarsen(self, idx: i64, coarser: TemporalGranularity) -> Result<i64, SttError> {
        if !self.finer_or_equal(coarser) {
            return Err(SttError::IncomparableGranularities {
                from: self.to_string(),
                to: coarser.to_string(),
            });
        }
        Ok(coarser.granule_of(self.granule_interval(idx).start))
    }

    /// The greatest lower bound of two granularities when they are
    /// comparable, otherwise the finest common refinement among the named
    /// fixed granularities (falls back to [`Millisecond`]).
    ///
    /// Used by the dataflow validator to pick the granularity of a joined or
    /// merged stream.
    ///
    /// [`Millisecond`]: TemporalGranularity::Millisecond
    pub fn meet(self, other: TemporalGranularity) -> TemporalGranularity {
        if self.finer_or_equal(other) {
            self
        } else if other.finer_or_equal(self) {
            other
        } else {
            // Incomparable (e.g. Week vs Month): find the coarsest named
            // granularity finer than both.
            TemporalGranularity::NAMED
                .iter()
                .rev()
                .copied()
                .find(|g| g.finer_or_equal(self) && g.finer_or_equal(other))
                .unwrap_or(TemporalGranularity::Millisecond)
        }
    }
}

impl fmt::Display for TemporalGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalGranularity::Millisecond => write!(f, "millisecond"),
            TemporalGranularity::Second => write!(f, "second"),
            TemporalGranularity::Minute => write!(f, "minute"),
            TemporalGranularity::Hour => write!(f, "hour"),
            TemporalGranularity::Day => write!(f, "day"),
            TemporalGranularity::Week => write!(f, "week"),
            TemporalGranularity::Month => write!(f, "month"),
            TemporalGranularity::Year => write!(f, "year"),
            TemporalGranularity::Custom(ms) => write!(f, "custom({ms}ms)"),
        }
    }
}

/// Days-from-civil algorithm (Howard Hinnant): days since 1970-01-01 for a
/// proleptic Gregorian date.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = y - i64::from(m <= 2);
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // [0, 11]
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// Midnight on the first day of the month `idx` months after 1970-01.
fn month_start(idx: i64) -> Timestamp {
    let y = 1970 + idx.div_euclid(12);
    let m = idx.rem_euclid(12) as u32 + 1;
    Timestamp(days_from_civil(y, m, 1) * 86_400_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use TemporalGranularity::*;

    #[test]
    fn civil_round_trip_known_dates() {
        // 1970-01-01 is day 0.
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        // 2000-03-01 (leap year).
        let d = days_from_civil(2000, 3, 1);
        assert_eq!(civil_from_days(d), (2000, 3, 1));
        // 2016-03-15 — the EDBT 2016 conference start date.
        let t = Timestamp::from_civil(2016, 3, 15, 9, 30, 0);
        assert_eq!(t.civil_date(), (2016, 3, 15));
        assert_eq!(t.time_of_day(), (9, 30, 0));
    }

    #[test]
    fn civil_handles_pre_epoch() {
        let t = Timestamp::from_civil(1969, 12, 31, 23, 0, 0);
        assert!(t.as_millis() < 0);
        assert_eq!(t.civil_date(), (1969, 12, 31));
        assert_eq!(t.time_of_day(), (23, 0, 0));
    }

    #[test]
    fn display_iso_like() {
        let t = Timestamp::from_civil(2016, 3, 15, 9, 5, 7);
        assert_eq!(t.to_string(), "2016-03-15T09:05:07.000Z");
    }

    #[test]
    fn duration_arithmetic() {
        let t = Timestamp::from_secs(100);
        assert_eq!((t + Duration::from_secs(20)).as_secs(), 120);
        assert_eq!((t - Duration::from_secs(30)).as_secs(), 70);
        assert_eq!(t.since(Timestamp::from_secs(40)), Duration::from_secs(60));
        // since() saturates at zero.
        assert_eq!(
            Timestamp::from_secs(1).since(Timestamp::from_secs(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::from_millis(0).to_string(), "0ms");
        assert_eq!(Duration::from_millis(250).to_string(), "250ms");
        assert_eq!(Duration::from_secs(90).to_string(), "1m30s");
        assert_eq!(
            (Duration::from_hours(2) + Duration::from_millis(5)).to_string(),
            "2h5ms"
        );
    }

    #[test]
    fn interval_contains_and_overlaps() {
        let i = TimeInterval::new(Timestamp::from_secs(10), Timestamp::from_secs(20));
        assert!(i.contains(Timestamp::from_secs(10)));
        assert!(i.contains(Timestamp::from_secs(19)));
        assert!(!i.contains(Timestamp::from_secs(20)));
        let j = TimeInterval::new(Timestamp::from_secs(19), Timestamp::from_secs(25));
        let k = TimeInterval::new(Timestamp::from_secs(20), Timestamp::from_secs(25));
        assert!(i.overlaps(&j));
        assert!(!i.overlaps(&k));
        assert_eq!(i.length(), Duration::from_secs(10));
    }

    #[test]
    fn granule_of_fixed() {
        let t = Timestamp::from_millis(7_250);
        assert_eq!(Second.granule_of(t), 7);
        assert_eq!(Minute.granule_of(t), 0);
        assert_eq!(Custom(500).granule_of(t), 14);
        // Negative timestamps floor correctly.
        assert_eq!(Second.granule_of(Timestamp::from_millis(-1)), -1);
    }

    #[test]
    fn granule_interval_fixed_round_trip() {
        for g in [Second, Minute, Hour, Day, Week, Custom(750)] {
            for ms in [-100_000i64, 0, 1, 123_456_789] {
                let t = Timestamp::from_millis(ms);
                let idx = g.granule_of(t);
                let iv = g.granule_interval(idx);
                assert!(iv.contains(t), "{g} granule {idx} should contain {t}");
            }
        }
    }

    #[test]
    fn granule_month_year() {
        let t = Timestamp::from_civil(2016, 3, 15, 12, 0, 0);
        let midx = Month.granule_of(t);
        assert_eq!(midx, (2016 - 1970) * 12 + 2);
        let iv = Month.granule_interval(midx);
        assert_eq!(iv.start, Timestamp::from_civil(2016, 3, 1, 0, 0, 0));
        assert_eq!(iv.end, Timestamp::from_civil(2016, 4, 1, 0, 0, 0));
        let yidx = Year.granule_of(t);
        assert_eq!(yidx, 46);
        assert!(Year.granule_interval(yidx).contains(t));
    }

    #[test]
    fn december_month_interval_crosses_year() {
        let t = Timestamp::from_civil(2015, 12, 20, 0, 0, 0);
        let iv = Month.granule_interval(Month.granule_of(t));
        assert_eq!(iv.end, Timestamp::from_civil(2016, 1, 1, 0, 0, 0));
    }

    #[test]
    fn truncate_to_hour() {
        let t = Timestamp::from_civil(2016, 3, 15, 9, 45, 30);
        assert_eq!(
            Hour.truncate(t),
            Timestamp::from_civil(2016, 3, 15, 9, 0, 0)
        );
        assert_eq!(Day.truncate(t), Timestamp::from_civil(2016, 3, 15, 0, 0, 0));
    }

    #[test]
    fn finer_or_equal_chain() {
        let chain = [Millisecond, Second, Minute, Hour, Day, Month, Year];
        for (i, a) in chain.iter().enumerate() {
            for (j, b) in chain.iter().enumerate() {
                assert_eq!(a.finer_or_equal(*b), i <= j, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn week_is_incomparable_with_month() {
        assert!(!Week.finer_or_equal(Month));
        assert!(!Month.finer_or_equal(Week));
        assert!(!Week.comparable(Year));
        assert!(Day.finer_or_equal(Week));
        assert!(Hour.finer_or_equal(Week));
    }

    #[test]
    fn custom_divisibility() {
        assert!(Custom(500).finer_or_equal(Second));
        assert!(!Custom(700).finer_or_equal(Second));
        assert!(Second.finer_or_equal(Custom(5000)));
        assert!(Custom(1000).finer_or_equal(Custom(3000)));
        // A custom granularity that divides a day is finer than Month.
        assert!(Custom(43_200_000).finer_or_equal(Month));
        assert!(!Custom(43_200_001).finer_or_equal(Month));
    }

    #[test]
    fn coarsen_hour_to_day() {
        let t = Timestamp::from_civil(2016, 3, 15, 23, 0, 0);
        let h = Hour.granule_of(t);
        let d = Hour.coarsen(h, Day).unwrap();
        assert_eq!(d, Day.granule_of(t));
        assert!(Month.coarsen(5, Day).is_err());
        assert!(Week.coarsen(3, Month).is_err());
    }

    #[test]
    fn meet_picks_finer() {
        assert_eq!(Hour.meet(Day), Hour);
        assert_eq!(Day.meet(Hour), Hour);
        assert_eq!(Week.meet(Month), Day); // coarsest named refinement of both
        assert_eq!(Month.meet(Month), Month);
    }

    #[test]
    fn timestamp_min_max() {
        let a = Timestamp::from_secs(1);
        let b = Timestamp::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
