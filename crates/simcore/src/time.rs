//! Cycle-typed simulation time and clock-frequency conversions.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in NPU clock cycles.
///
/// `SimTime` is a newtype over `u64` so that cycle counts cannot be confused
/// with byte counts or other integers flowing through the simulator.
///
/// ```
/// use ace_simcore::SimTime;
/// let t = SimTime::from_cycles(100) + SimTime::from_cycles(20);
/// assert_eq!(t.cycles(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw cycle count.
    pub const fn from_cycles(cycles: u64) -> Self {
        SimTime(cycles)
    }

    /// Returns the raw cycle count.
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Returns the later of `self` and `other`.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of `self` and `other`.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Saturating subtraction: the duration from `earlier` to `self`,
    /// clamped at zero if `earlier` is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Converts this time to seconds under clock `freq`.
    pub fn to_seconds(self, freq: Frequency) -> f64 {
        self.0 as f64 / freq.hz()
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for SimTime {
    type Output = u64;
    /// Duration in cycles from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// A clock frequency, used to convert between cycles, seconds, and
/// bandwidth figures quoted in GB/s.
///
/// ```
/// use ace_simcore::Frequency;
/// let f = Frequency::from_mhz(1245.0);
/// // 200 GB/s intra-package link at 1245 MHz moves ~160.6 bytes per cycle.
/// let bpc = f.bytes_per_cycle(200.0);
/// assert!((bpc - 160.64).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive and finite.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
        Frequency { hz: mhz * 1e6 }
    }

    /// Returns the frequency in hertz.
    pub fn hz(self) -> f64 {
        self.hz
    }

    /// Converts a bandwidth in GB/s (decimal gigabytes) to bytes per cycle.
    pub fn bytes_per_cycle(self, gbps: f64) -> f64 {
        gbps * 1e9 / self.hz
    }

    /// Converts a bytes-per-cycle figure back to GB/s.
    pub fn gbps(self, bytes_per_cycle: f64) -> f64 {
        bytes_per_cycle * self.hz / 1e9
    }

    /// The number of cycles needed to move `bytes` at `gbps`, rounded up,
    /// and always at least one cycle for a non-empty transfer.
    pub fn transfer_cycles(self, bytes: u64, gbps: f64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let cycles = bytes as f64 / self.bytes_per_cycle(gbps);
        (cycles.ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let a = SimTime::from_cycles(10);
        let b = a + 5;
        assert_eq!(b.cycles(), 15);
        assert_eq!(b - a, 5);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn simtime_saturating_since_clamps() {
        let early = SimTime::from_cycles(5);
        let late = SimTime::from_cycles(9);
        assert_eq!(late.saturating_since(early), 4);
        assert_eq!(early.saturating_since(late), 0);
    }

    #[test]
    fn simtime_display_mentions_cycles() {
        assert_eq!(SimTime::from_cycles(42).to_string(), "42cyc");
    }

    #[test]
    fn frequency_conversions_are_consistent() {
        let f = Frequency::from_mhz(1245.0);
        let bpc = f.bytes_per_cycle(900.0);
        assert!((f.gbps(bpc) - 900.0).abs() < 1e-9);
    }

    #[test]
    fn seconds_conversion() {
        let f = Frequency::from_mhz(1000.0);
        let t = SimTime::from_cycles(1_000_000);
        assert!((t.to_seconds(f) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn transfer_cycles_rounds_up_and_has_floor() {
        let f = Frequency::from_mhz(1245.0);
        // 256-byte packet on a 25 GB/s inter-package link: ~12.75 cycles.
        assert_eq!(f.transfer_cycles(256, 25.0), 13);
        assert_eq!(f.transfer_cycles(0, 25.0), 0);
        assert_eq!(f.transfer_cycles(1, 10_000.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_mhz(0.0);
    }
}
