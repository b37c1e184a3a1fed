//! Virtual time: the unit of measurement for every experiment in this
//! workspace.
//!
//! Wall-clock time on a development machine cannot reproduce the relative
//! costs of MPI vs. SHMEM calls on a Cray XK7 Gemini interconnect, which is
//! what the paper's figures plot. Instead, every rank in the simulated SPMD
//! program owns a logical clock measured in [`Time`] (nanoseconds), advanced
//! by the interconnect cost model. Virtual time is deterministic for a fixed
//! program and model, machine-independent, and directly comparable across
//! communication-library targets.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Time` is used both as an absolute per-rank clock value and as a duration;
/// the arithmetic is saturating on subtraction so that model parameter abuse
/// cannot panic deep inside the transport.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The zero instant (program start on every rank).
    pub const ZERO: Time = Time(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Construct from a floating-point number of nanoseconds (rounded).
    #[inline]
    pub fn from_nanos_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative virtual time");
        Time(ns.round() as u64)
    }

    /// Nanoseconds since the epoch / span length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as floating-point microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time as floating-point milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Saturating difference between two instants.
    #[inline]
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        Time(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_micros(3), Time::from_nanos(3_000));
        assert_eq!(Time::from_millis(2), Time::from_nanos(2_000_000));
        assert_eq!(Time::from_nanos_f64(2.6), Time::from_nanos(3));
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_nanos(100);
        let b = Time::from_nanos(40);
        assert_eq!(a + b, Time::from_nanos(140));
        assert_eq!(a - b, Time::from_nanos(60));
        // subtraction saturates instead of panicking
        assert_eq!(b - a, Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn accumulate() {
        let mut t = Time::ZERO;
        t += Time::from_nanos(5);
        t += Time::from_nanos(7);
        assert_eq!(t.as_nanos(), 12);
        let total: Time = [Time(1), Time(2), Time(3)].into_iter().sum();
        assert_eq!(total, Time(6));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Time::from_nanos(999)), "999ns");
        assert_eq!(format!("{}", Time::from_nanos(1500)), "1.500us");
        assert_eq!(format!("{}", Time::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Time::from_millis(2_000)), "2.000s");
    }

    #[test]
    fn conversions_roundtrip() {
        let t = Time::from_nanos(1_234_567_890);
        assert!((t.as_secs_f64() - 1.23456789).abs() < 1e-12);
        assert_eq!(Time::from_nanos_f64(t.as_secs_f64() * 1e9), t);
    }
}
