//! Simulated time.
//!
//! Time is kept in integer picoseconds so that both nanosecond-scale
//! interconnect latencies (CXL: 150 ns) and sub-nanosecond core cycles
//! (2 GHz ⇒ 500 ps) are exactly representable. `u64` picoseconds covers
//! ~213 days of simulated time, far beyond any experiment in the paper.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
///
/// `Time` is used for both instants and durations; the arithmetic operators
/// behave like plain integer arithmetic on picoseconds.
///
/// # Example
///
/// ```
/// use cord_sim::Time;
///
/// let t = Time::from_ns(150) + Time::from_ps(500);
/// assert_eq!(t.as_ps(), 150_500);
/// assert!((t.as_ns_f64() - 150.5).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The zero instant (simulation start).
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);
    /// The largest time a fault spec may name — a delay, a jitter bound, a
    /// window bound, a crash time, or a retransmission timeout at its
    /// backoff cap: 10^12 ns, 1,000 simulated seconds. That is far beyond
    /// any experiment, yet a 1/18,000th of the clock, so the sums the
    /// simulator forms from spec values (a send time plus a delay plus a
    /// jitter, a deadline plus a capped backoff) stay far from overflow.
    pub const SPEC_MAX: Time = Time::from_ns(1_000_000_000_000);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from nanoseconds, or `None` if the picosecond value
    /// overflows (above ≈1.8e16 ns) — for parsing untrusted input.
    pub const fn checked_from_ns(ns: u64) -> Option<Self> {
        match ns.checked_mul(1_000) {
            Some(ps) => Some(Time(ps)),
            None => None,
        }
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Returns the time in whole picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time in nanoseconds, rounding down.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time in nanoseconds as a float (no rounding).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time in microseconds as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction: returns `ZERO` instead of wrapping.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A clock frequency, used to convert between cycles and [`Time`].
///
/// # Example
///
/// ```
/// use cord_sim::{Freq, Time};
///
/// let f = Freq::ghz(2);
/// assert_eq!(f.cycles(10), Time::from_ns(5));
/// assert_eq!(f.period(), Time::from_ps(500));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Freq {
    period_ps: u64,
}

impl Freq {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is zero or does not divide 1000 ps evenly
    /// (all frequencies used by the simulator — 1, 2, 4 GHz — do).
    pub fn ghz(ghz: u64) -> Self {
        assert!(ghz > 0, "frequency must be positive");
        assert_eq!(1000 % ghz, 0, "unrepresentable period for {ghz} GHz");
        Freq {
            period_ps: 1000 / ghz,
        }
    }

    /// Duration of one clock cycle.
    pub fn period(self) -> Time {
        Time::from_ps(self.period_ps)
    }

    /// Duration of `n` clock cycles.
    pub fn cycles(self, n: u64) -> Time {
        Time::from_ps(self.period_ps * n)
    }
}

impl Default for Freq {
    /// The simulator's default core clock: 2 GHz (paper §5.1).
    fn default() -> Self {
        Freq::ghz(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Time::from_ns(7).as_ps(), 7_000);
        assert_eq!(Time::checked_from_ns(7), Some(Time::from_ns(7)));
        assert_eq!(Time::checked_from_ns(u64::MAX / 1_000 + 1), None);
        assert!(Time::SPEC_MAX.as_ps() < u64::MAX / 16_000);
        assert_eq!(Time::from_us(3).as_ns(), 3_000);
        assert_eq!(Time::from_ps(1_499).as_ns(), 1);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(a * 3, Time::from_ns(30));
        assert_eq!(a / 2, Time::from_ns(5));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1u64, 2, 3].iter().map(|&n| Time::from_ns(n)).sum();
        assert_eq!(total, Time::from_ns(6));
    }

    #[test]
    fn freq_cycles() {
        let f = Freq::ghz(2);
        assert_eq!(f.cycles(2), Time::from_ns(1));
        assert_eq!(Freq::ghz(1).cycles(10), Time::from_ns(10));
        assert_eq!(Freq::default(), Freq::ghz(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Time::from_ps(12)), "12ps");
        assert_eq!(format!("{}", Time::from_ns(150)), "150.000ns");
        assert_eq!(format!("{}", Time::from_us(2)), "2.000us");
        assert_eq!(format!("{:?}", Time::from_ns(1)), "1000ps");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_freq_panics() {
        let _ = Freq::ghz(0);
    }
}
