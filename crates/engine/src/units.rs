//! RF power units.
//!
//! The propagation model and the paper's protocol logic both work in linear
//! watts/milliwatts (tolerances add linearly); humans and the 802.11
//! literature speak dBm. [`Milliwatts`] is the canonical representation;
//! [`Dbm`] is a display/entry convenience. Conversions are exact up to
//! floating point.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Linear power in milliwatts. The workhorse unit: interference sums,
/// tolerances and propagation gains all operate on this.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct Milliwatts(pub f64);

/// Logarithmic power in dB-milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Dbm(pub f64);

impl Milliwatts {
    /// Zero power.
    pub const ZERO: Milliwatts = Milliwatts(0.0);

    /// From watts.
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        Milliwatts(w * 1e3)
    }

    /// To watts.
    #[inline]
    pub fn watts(self) -> f64 {
        self.0 * 1e-3
    }

    /// Raw milliwatt value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// To dBm. Zero or negative power maps to −∞ dBm.
    #[inline]
    pub fn to_dbm(self) -> Dbm {
        Dbm(10.0 * self.0.log10())
    }

    /// `true` if the value is a finite, non-negative power.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Linear ratio `self / other` (e.g. an SINR). Returns `+inf` when
    /// `other` is zero and `self` is positive.
    #[inline]
    pub fn ratio(self, other: Milliwatts) -> f64 {
        self.0 / other.0
    }

    /// Clamp from below at zero (interference bookkeeping can accumulate
    /// −1e-18-style float dust when removing contributions).
    #[inline]
    pub fn clamp_non_negative(self) -> Milliwatts {
        Milliwatts(self.0.max(0.0))
    }
}

impl Dbm {
    /// To linear milliwatts.
    #[inline]
    pub fn to_milliwatts(self) -> Milliwatts {
        Milliwatts(10f64.powf(self.0 / 10.0))
    }
}

impl Add for Milliwatts {
    type Output = Milliwatts;
    #[inline]
    fn add(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 + rhs.0)
    }
}

impl AddAssign for Milliwatts {
    #[inline]
    fn add_assign(&mut self, rhs: Milliwatts) {
        self.0 += rhs.0;
    }
}

impl Sub for Milliwatts {
    type Output = Milliwatts;
    #[inline]
    fn sub(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 - rhs.0)
    }
}

impl SubAssign for Milliwatts {
    #[inline]
    fn sub_assign(&mut self, rhs: Milliwatts) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Milliwatts {
    type Output = Milliwatts;
    #[inline]
    fn mul(self, k: f64) -> Milliwatts {
        Milliwatts(self.0 * k)
    }
}

impl Div<f64> for Milliwatts {
    type Output = Milliwatts;
    #[inline]
    fn div(self, k: f64) -> Milliwatts {
        Milliwatts(self.0 / k)
    }
}

impl fmt::Display for Milliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} mW", self.0)
        } else {
            write!(f, "{:.3e} mW", self.0)
        }
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_roundtrip() {
        for mw in [0.001, 1.0, 281.8, 1000.0] {
            let back = Milliwatts(mw).to_dbm().to_milliwatts();
            assert!((back.0 - mw).abs() / mw < 1e-12);
        }
    }

    #[test]
    fn known_conversions() {
        assert!((Milliwatts(1.0).to_dbm().0 - 0.0).abs() < 1e-12);
        assert!((Milliwatts(100.0).to_dbm().0 - 20.0).abs() < 1e-12);
        assert!((Dbm(30.0).to_milliwatts().0 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn watts_roundtrip() {
        let p = Milliwatts::from_watts(0.28183815);
        assert!((p.0 - 281.83815).abs() < 1e-9);
        assert!((p.watts() - 0.28183815).abs() < 1e-15);
    }

    #[test]
    fn zero_power_maps_to_neg_inf_dbm() {
        assert_eq!(Milliwatts::ZERO.to_dbm().0, f64::NEG_INFINITY);
    }

    #[test]
    fn linear_arithmetic() {
        let a = Milliwatts(2.0) + Milliwatts(3.0);
        assert_eq!(a, Milliwatts(5.0));
        assert_eq!(a - Milliwatts(1.0), Milliwatts(4.0));
        assert_eq!(a * 2.0, Milliwatts(10.0));
        assert_eq!(a / 5.0, Milliwatts(1.0));
        assert_eq!(Milliwatts(10.0).ratio(Milliwatts(2.0)), 5.0);
    }

    #[test]
    fn clamp_cleans_float_dust() {
        let p = Milliwatts(1.0) - Milliwatts(1.0 + 1e-18);
        assert!(p.0 <= 0.0);
        assert_eq!(p.clamp_non_negative(), Milliwatts::ZERO);
    }
}
