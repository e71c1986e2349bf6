//! Strongly-typed physical quantities.
//!
//! Each quantity is a transparent newtype over `f64` in SI base units
//! (volts, amperes, seconds, farads, ohms, watts, metres, kelvin, hertz,
//! joules). The newtypes implement the arithmetic that is physically
//! meaningful in this codebase — same-type addition/subtraction, scaling
//! by `f64`, and the handful of cross-type products that come up in
//! delay/power analysis (`Ohms * Farads = Seconds`,
//! `Volts * Amps = Watts`, `Watts * Seconds = Joules`, …).
//!
//! The inner value is public (`quantity.0`) for the numeric kernels; the
//! types exist so *interfaces* cannot confuse, say, a threshold voltage
//! with a channel length.
//!
//! # Example
//!
//! ```
//! use lnoc_tech::units::{Ohms, Farads, Seconds};
//! let tau: Seconds = Ohms(1.0e3) * Farads(50.0e-15);
//! assert!((tau.0 - 50.0e-12).abs() < 1e-24);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the raw value in SI base units.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write_engineering(f, self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(v: f64) -> Self {
                Self(v)
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Amps,
    "A"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Length in metres.
    Meters,
    "m"
);
quantity!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);

/// Formats `value` with an engineering (SI) prefix, e.g. `61.40 ps`.
fn write_engineering(f: &mut fmt::Formatter<'_>, value: f64, unit: &str) -> fmt::Result {
    if value == 0.0 {
        return write!(f, "0 {unit}");
    }
    if !value.is_finite() {
        return write!(f, "{value} {unit}");
    }
    const PREFIXES: [(f64, &str); 9] = [
        (1e12, "T"),
        (1e9, "G"),
        (1e6, "M"),
        (1e3, "k"),
        (1.0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
    ];
    let magnitude = value.abs();
    for (scale, prefix) in PREFIXES {
        if magnitude >= scale {
            let precision = f.precision().unwrap_or(3);
            return write!(f, "{:.*} {}{}", precision, value / scale, prefix, unit);
        }
    }
    let precision = f.precision().unwrap_or(3);
    write!(f, "{:.*} f{}", precision, value / 1e-15, unit)
}

// --- Cross-type products used across the workspace -----------------------

impl Mul<Farads> for Ohms {
    type Output = Seconds;
    /// RC time constant.
    #[inline]
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

impl Mul<Ohms> for Farads {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Ohms) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

impl Mul<Amps> for Volts {
    type Output = Watts;
    /// Instantaneous power.
    #[inline]
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy over an interval.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Volts> for Farads {
    type Output = Coulombs;
    /// Charge on a capacitor.
    #[inline]
    fn mul(self, rhs: Volts) -> Coulombs {
        Coulombs(self.0 * rhs.0)
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power over an interval.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// Breakeven time for an energy cost against a power savings rate.
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

quantity!(
    /// Electric charge in coulombs.
    Coulombs,
    "C"
);

impl Mul<Volts> for Coulombs {
    type Output = Joules;
    /// CV² style energies: `Q * V`.
    #[inline]
    fn mul(self, rhs: Volts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Volts> for Amps {
    type Output = Siemens;
    /// Conductance.
    #[inline]
    fn div(self, rhs: Volts) -> Siemens {
        Siemens(self.0 / rhs.0)
    }
}

quantity!(
    /// Conductance in siemens.
    Siemens,
    "S"
);

impl Hertz {
    /// The period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the frequency is not positive.
    #[inline]
    pub fn period(self) -> Seconds {
        debug_assert!(self.0 > 0.0, "period of a non-positive frequency");
        Seconds(1.0 / self.0)
    }
}

impl Seconds {
    /// The frequency whose period is this duration.
    #[inline]
    pub fn frequency(self) -> Hertz {
        debug_assert!(self.0 > 0.0, "frequency of a non-positive period");
        Hertz(1.0 / self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_time() {
        let tau = Ohms(2.0e3) * Farads(10.0e-15);
        assert!((tau.0 - 20.0e-12).abs() < 1e-26);
    }

    #[test]
    fn vi_product_is_power() {
        let p = Volts(1.0) * Amps(2.0e-3);
        assert!((p.0 - 2.0e-3).abs() < 1e-18);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Joules(4.0e-12) / Seconds(2.0e-9);
        assert!((p.0 - 2.0e-3).abs() < 1e-18);
    }

    #[test]
    fn like_ratio_is_dimensionless() {
        let r = Seconds(10.0e-12) / Seconds(5.0e-12);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_uses_engineering_prefixes() {
        assert_eq!(format!("{:.2}", Seconds(61.4e-12)), "61.40 ps");
        assert_eq!(format!("{:.2}", Watts(182.81e-3)), "182.81 mW");
        assert_eq!(format!("{:.1}", Hertz(3.0e9)), "3.0 GHz");
        assert_eq!(format!("{}", Volts(0.0)), "0 V");
    }

    #[test]
    fn display_femto_fallback() {
        assert_eq!(format!("{:.1}", Farads(50.0e-15)), "50.0 fF");
    }

    #[test]
    fn period_frequency_roundtrip() {
        let f = Hertz(3.0e9);
        let t = f.period();
        assert!((t.frequency().0 - f.0).abs() / f.0 < 1e-12);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Watts = [Watts(1.0), Watts(2.5), Watts(0.5)].into_iter().sum();
        assert!((total.0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn negation_and_abs() {
        let v = Volts(-0.3);
        assert!((v.abs().0 - 0.3).abs() < 1e-15);
        assert!(((-v).0 - 0.3).abs() < 1e-15);
    }

    #[test]
    fn min_max() {
        assert_eq!(Volts(1.0).max(Volts(2.0)), Volts(2.0));
        assert_eq!(Volts(1.0).min(Volts(2.0)), Volts(1.0));
    }
}
