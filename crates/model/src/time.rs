//! The time axis: instants and durations in seconds.
//!
//! The paper models time as `T ≅ IR`; we use `f64` seconds relative to an
//! arbitrary recording epoch. Newtypes keep instants and durations from
//! being confused and centralize finiteness checking.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the recording time axis, seconds since an arbitrary epoch.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Timestamp(f64);

/// A signed span of time, seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TimeDelta(f64);

impl Timestamp {
    /// The recording epoch (t = 0 s).
    pub const EPOCH: Timestamp = Timestamp(0.0);

    /// Creates a timestamp from seconds since the epoch.
    #[inline]
    pub const fn from_secs(secs: f64) -> Self {
        Timestamp(secs)
    }

    /// Seconds since the epoch.
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Whether the value is finite (not NaN/∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Linear interpolation between two instants (`self` at `f = 0`).
    #[inline]
    pub fn lerp(self, other: Timestamp, f: f64) -> Timestamp {
        Timestamp(self.0 + (other.0 - self.0) * f)
    }

    /// The fraction of the way `self` lies from `a` to `b`, i.e. the
    /// paper's time-interval ratio `Δi / Δe` (§3.2).
    ///
    /// Returns `None` when the interval is zero-length — or when its
    /// span is NaN, which would otherwise poison the ratio.
    #[inline]
    pub fn ratio_within(self, a: Timestamp, b: Timestamp) -> Option<f64> {
        let span = b.0 - a.0;
        if traj_geom::numeric::approx_zero(span, 0.0) {
            None
        } else {
            Some((self.0 - a.0) / span)
        }
    }
}

impl TimeDelta {
    /// The zero duration.
    pub const ZERO: TimeDelta = TimeDelta(0.0);

    /// Creates a delta from seconds.
    #[inline]
    pub const fn from_secs(secs: f64) -> Self {
        TimeDelta(secs)
    }

    /// Creates a delta from minutes.
    #[inline]
    pub fn from_mins(mins: f64) -> Self {
        TimeDelta(mins * 60.0)
    }

    /// The span in seconds.
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// The span in minutes.
    #[inline]
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Whether the value is finite (not NaN/∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Absolute value of the span.
    #[inline]
    pub fn abs(self) -> TimeDelta {
        TimeDelta(self.0.abs())
    }

    /// Whether the span is strictly positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }

    /// Number of `width_secs`-wide buckets needed to cover this span
    /// (ceiling division), saturating into the `usize` range.
    ///
    /// The checked replacement for `(d.as_secs() / w).ceil() as usize`:
    /// NaN and negative spans yield 0 buckets, a non-positive or NaN
    /// width is degenerate (0 buckets) instead of ∞.
    #[inline]
    pub fn bucket_count(self, width_secs: f64) -> usize {
        // NaN widths are incomparable and fall into the degenerate arm.
        if !matches!(
            width_secs.partial_cmp(&0.0),
            Some(std::cmp::Ordering::Greater)
        ) {
            return 0;
        }
        // Float → usize `as` saturates ([0, usize::MAX]) and maps NaN
        // to 0; this module is the audited home for that conversion.
        (self.0 / width_secs).ceil() as usize
    }
}

impl Sub for Timestamp {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl SubAssign<TimeDelta> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Mul<f64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: f64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<f64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: f64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl Div for TimeDelta {
    type Output = f64;
    #[inline]
    fn div(self, rhs: TimeDelta) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for TimeDelta {
    /// Formats as `HH:MM:SS`, the notation of the paper's Table 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0.abs().round() as u64;
        let sign = if self.0 < 0.0 { "-" } else { "" };
        write!(f, "{}{:02}:{:02}:{:02}", sign, total / 3600, (total % 3600) / 60, total % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = Timestamp::from_secs(100.0);
        let d = TimeDelta::from_secs(40.0);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        let mut m = t;
        m += d;
        m -= d;
        assert_eq!(m, t);
    }

    #[test]
    fn ratio_within_interval() {
        let a = Timestamp::from_secs(10.0);
        let b = Timestamp::from_secs(20.0);
        assert_eq!(Timestamp::from_secs(15.0).ratio_within(a, b), Some(0.5));
        assert_eq!(Timestamp::from_secs(10.0).ratio_within(a, b), Some(0.0));
        assert_eq!(Timestamp::from_secs(20.0).ratio_within(a, b), Some(1.0));
        // Extrapolation outside the interval is well defined.
        assert_eq!(Timestamp::from_secs(30.0).ratio_within(a, b), Some(2.0));
        // Zero-length interval.
        assert_eq!(Timestamp::from_secs(10.0).ratio_within(a, a), None);
    }

    #[test]
    fn lerp_between_instants() {
        let a = Timestamp::from_secs(0.0);
        let b = Timestamp::from_secs(10.0);
        assert_eq!(a.lerp(b, 0.25), Timestamp::from_secs(2.5));
    }

    #[test]
    fn delta_conversions() {
        assert_eq!(TimeDelta::from_mins(2.0).as_secs(), 120.0);
        assert_eq!(TimeDelta::from_secs(90.0).as_mins(), 1.5);
        assert_eq!(TimeDelta::from_secs(-5.0).abs(), TimeDelta::from_secs(5.0));
        assert!(TimeDelta::from_secs(1.0).is_positive());
        assert!(!TimeDelta::ZERO.is_positive());
    }

    #[test]
    fn delta_ratio_division() {
        let a = TimeDelta::from_secs(30.0);
        let b = TimeDelta::from_secs(60.0);
        assert_eq!(a / b, 0.5);
        assert_eq!(b / 2.0, TimeDelta::from_secs(30.0));
        assert_eq!(a * 2.0, b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TimeDelta::from_secs(1936.0).to_string(), "00:32:16");
        assert_eq!(TimeDelta::from_secs(-61.0).to_string(), "-00:01:01");
        assert_eq!(Timestamp::from_secs(1.5).to_string(), "1.500s");
    }

    #[test]
    fn ratio_within_nan_span_is_degenerate() {
        let nan = Timestamp::from_secs(f64::NAN);
        let a = Timestamp::from_secs(1.0);
        assert_eq!(a.ratio_within(a, nan), None);
        assert_eq!(a.ratio_within(nan, a), None);
    }

    #[test]
    fn bucket_count_ceils_and_saturates() {
        assert_eq!(TimeDelta::from_secs(0.0).bucket_count(60.0), 0);
        assert_eq!(TimeDelta::from_secs(1.0).bucket_count(60.0), 1);
        assert_eq!(TimeDelta::from_secs(60.0).bucket_count(60.0), 1);
        assert_eq!(TimeDelta::from_secs(61.0).bucket_count(60.0), 2);
        assert_eq!(TimeDelta::from_secs(-5.0).bucket_count(60.0), 0);
        assert_eq!(TimeDelta::from_secs(f64::NAN).bucket_count(60.0), 0);
        assert_eq!(TimeDelta::from_secs(10.0).bucket_count(0.0), 0);
    }

    #[test]
    fn finiteness() {
        assert!(Timestamp::from_secs(1.0).is_finite());
        assert!(!Timestamp::from_secs(f64::NAN).is_finite());
        assert!(!TimeDelta::from_secs(f64::INFINITY).is_finite());
    }
}
