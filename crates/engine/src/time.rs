//! Simulation time.
//!
//! Time is a monotone `u64` count of **nanoseconds** since the start of the
//! simulation. A 400-second run (the paper's duration) is `4e11` ns, leaving
//! ~46 bits of headroom before overflow; all arithmetic that could overflow
//! is checked or saturating.
//!
//! [`SimTime`] is an absolute instant; [`Duration`] is a length of time.
//! They are deliberately separate types: adding two instants is meaningless
//! and does not compile.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Create a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Create a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Create a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Create a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Create a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1e9).round() as u64)
    }

    /// Nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, truncating.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds, truncating.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating sum of two durations.
    #[inline]
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Saturating difference (`0` if `rhs > self`).
    #[inline]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Integer scaling.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("Duration overflow"))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("Duration underflow"))
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, k: u64) -> Duration {
        Duration(self.0.checked_mul(k).expect("Duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

/// An absolute instant of simulation time (nanoseconds since t=0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds since t=0.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from fractional seconds since t=0.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime::ZERO + Duration::from_secs_f64(s)
    }

    /// Nanoseconds since t=0.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since t=0.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: negative elapsed time"),
        )
    }

    /// Duration elapsed since `earlier`, clamped to zero if negative.
    #[inline]
    pub const fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0.checked_add(d.as_nanos()).expect("SimTime overflow"))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: Duration) -> SimTime {
        SimTime(self.0.checked_sub(d.as_nanos()).expect("SimTime underflow"))
    }
}

impl Sub for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.9}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Duration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Duration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn duration_from_secs_f64_clamps_bad_input() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NEG_INFINITY), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_micros(10);
        let b = Duration::from_micros(3);
        assert_eq!((a + b).as_micros(), 13);
        assert_eq!((a - b).as_micros(), 7);
        assert_eq!((a * 4).as_micros(), 40);
        assert_eq!((a / 2).as_micros(), 5);
        assert_eq!(a.saturating_sub(Duration::from_secs(1)), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_sub_underflow_panics() {
        let _ = Duration::from_nanos(1) - Duration::from_nanos(2);
    }

    #[test]
    fn simtime_ordering_and_elapsed() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_millis(5);
        let t2 = t1 + Duration::from_millis(5);
        assert!(t0 < t1 && t1 < t2);
        assert_eq!(t2.since(t0), Duration::from_millis(10));
        assert_eq!(t2 - t1, Duration::from_millis(5));
        assert_eq!(t0.saturating_since(t2), Duration::ZERO);
    }

    #[test]
    fn simtime_roundtrip_seconds() {
        let t = SimTime::from_secs_f64(399.999_999);
        assert!((t.as_secs_f64() - 399.999_999).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", Duration::from_nanos(42)), "42ns");
        assert_eq!(format!("{}", Duration::from_micros(20)), "20.000us");
        assert_eq!(format!("{}", Duration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000000s");
    }
}
