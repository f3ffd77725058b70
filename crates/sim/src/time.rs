//! Virtual time for the discrete-event simulation.
//!
//! Time is kept as an integer number of **nanoseconds** so that event
//! ordering is exact and runs are bit-reproducible. One nanosecond of
//! resolution is ample for modelling PCIe transfers (microseconds) and
//! kernels (milliseconds); `u64` nanoseconds covers ~584 years of
//! simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the start of the simulation.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the simulation.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking so that defensive metric code cannot crash a run.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero — cost
    /// models occasionally produce `-0.0` or tiny negatives from float
    /// error and a simulation must never move backwards in time.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
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
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
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
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_duration_to_time() {
        let t = SimTime(10) + SimDuration::from_nanos(5);
        assert_eq!(t, SimTime(15));
    }

    #[test]
    fn subtract_times_gives_duration() {
        assert_eq!(SimTime(100) - SimTime(40), SimDuration(60));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9), SimDuration(2));
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration(1_000_000));
    }

    #[test]
    fn from_secs_f64_clamps_pathological_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NEG_INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn saturating_since_never_underflows() {
        assert_eq!(SimTime(5).saturating_since(SimTime(9)), SimDuration::ZERO);
        assert_eq!(SimTime(9).saturating_since(SimTime(5)), SimDuration(4));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration(999).to_string(), "999ns");
        assert_eq!(SimDuration(1_500).to_string(), "1.50us");
        assert_eq!(SimDuration(2_500_000).to_string(), "2.50ms");
        assert_eq!(SimDuration(3_000_000_000).to_string(), "3.000s");
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
        let d = SimDuration::from_secs_f64(0.25);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_on_durations() {
        let a = SimDuration(10);
        let b = SimDuration(4);
        assert_eq!(a + b, SimDuration(14));
        assert_eq!(a - b, SimDuration(6));
        assert_eq!(a * 3, SimDuration(30));
        assert_eq!(a / 2, SimDuration(5));
        let total: SimDuration = [a, b].into_iter().sum();
        assert_eq!(total, SimDuration(14));
    }
}
