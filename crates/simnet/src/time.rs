//! Virtual time for the discrete-event engine.
//!
//! Time is an absolute instant in microseconds since engine start; [`Dur`]
//! is a span in microseconds. Microsecond resolution is fine-grained enough
//! to model 2 ms stub links and 10 Mbps transmission of 64-byte messages
//! (51.2 µs) without rounding everything to zero.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the engine clock, in microseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);
    /// A time later than any reachable simulation instant.
    pub const MAX: Time = Time(u64::MAX);

    pub fn from_secs_f64(s: f64) -> Time {
        Time((s * 1e6) as u64)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Span from an earlier instant to `self`; saturates at zero.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The following microsecond tick — the smallest instant strictly
    /// after `self` (saturating at [`Time::MAX`]). Turns an inclusive
    /// deadline into the exclusive bound the window-execution loop
    /// expects.
    pub fn next(self) -> Time {
        Time(self.0.saturating_add(1))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    pub fn from_micros(us: u64) -> Dur {
        Dur(us)
    }

    pub fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000)
    }

    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> Dur {
        Dur((s * 1e6).max(0.0) as u64)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn saturating_mul(self, k: u64) -> Dur {
        Dur(self.0.saturating_mul(k))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, d: Dur) -> Dur {
        Dur(self.0.saturating_add(d.0))
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, d: Dur) -> Dur {
        Dur(self.0.saturating_sub(d.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000);
        assert_eq!((t + Dur::from_millis(250)).as_secs_f64(), 1.75);
        assert_eq!(Time(2_000_000).since(Time(500_000)), Dur(1_500_000));
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        assert_eq!(Time(5).since(Time(10)), Dur::ZERO);
    }

    #[test]
    fn dur_constructors_agree() {
        assert_eq!(Dur::from_secs(2), Dur::from_millis(2000));
        assert_eq!(Dur::from_secs(2), Dur::from_secs_f64(2.0));
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
    }

    #[test]
    fn add_saturates_at_max() {
        assert_eq!(Time::MAX + Dur::from_secs(1), Time::MAX);
    }
}
