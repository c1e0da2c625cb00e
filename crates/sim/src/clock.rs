//! Virtual time: nanosecond fixed-point instants and durations.
//!
//! All experiment-facing quantities in the paper are expressed in
//! seconds (timeslices of 1–20 s, iteration periods of 0.16–145 s), but
//! message latencies are microseconds, so we keep nanosecond resolution
//! in a `u64`: that covers ~584 years of virtual time, far beyond any
//! run.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from a fractional second count (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9) as u64)
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference between two instants.
    pub fn saturating_sub(&self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9) as u64)
    }

    /// The span as fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether the duration is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Duration needed to move `bytes` bytes at `bytes_per_sec`.
    pub(crate) fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        // Round up: a transfer is not done until the last byte lands.
        SimDuration((bytes as u128 * 1_000_000_000 / bytes_per_sec as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        assert!(self.0 >= rhs.0, "negative duration: {self:?} - {rhs:?}");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(self.0 >= rhs.0, "negative duration");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_secs(2).0, 2_000_000_000);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_micros(3).0, 3_000);
        assert!((SimTime::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_secs(4) / 2, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(2) * 3, SimDuration::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn transfer_duration_rounds_sanely() {
        // 900 MB/s NIC moving 9 MB takes 10 ms.
        let d = SimDuration::for_transfer(9_000_000, 900_000_000);
        assert_eq!(d, SimDuration::from_millis(10));
        // Zero bytes take zero time.
        assert_eq!(SimDuration::for_transfer(0, 1), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration(500).to_string(), "500ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.0us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.0ms");
        assert_eq!(SimDuration::from_secs(1).to_string(), "1.000s");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn saturating_sub() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_secs(2));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1u64, 2, 3].iter().map(|&s| SimDuration::from_secs(s)).sum();
        assert_eq!(total, SimDuration::from_secs(6));
    }
}
