//! Path-loss models.
//!
//! The central quantity is the **propagation gain** `g` between two
//! positions: received power = transmitted power × `g`. Gains are symmetric
//! (the paper's assumption 2: `G_sd = G_ds`), dimensionless, and ≤ 1.
//!
//! [`TwoRayGround`] reproduces ns-2's model exactly: free-space (Friis)
//! attenuation `1/d²` out to the crossover distance `d_c = 4π·h_t·h_r/λ`,
//! then ground-reflection attenuation `1/d⁴` beyond it. With the Lucent
//! WaveLAN constants (914 MHz, 1.5 m antennas, unity gains and system loss)
//! the crossover sits at ≈ 86.2 m, and the paper's power-level → range
//! table emerges from the formula (see `levels` tests).

use pcmac_engine::{Milliwatts, Point};
use serde::{Deserialize, Serialize};

/// Speed of light (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// ns-2's `TwoRayGround` model with a Friis near-field.
///
/// * `d ≤ d_c`:  `g = G_t·G_r·(λ / 4πd)² / L`
/// * `d > d_c`:  `g = G_t·G_r·h_t²·h_r² / d⁴·L`
///
/// where `d_c = 4π·h_t·h_r / λ` makes the two branches continuous.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TwoRayGround {
    /// Carrier wavelength λ (m).
    pub lambda: f64,
    /// Transmit antenna height (m).
    pub ht: f64,
    /// Receive antenna height (m).
    pub hr: f64,
    /// Antenna gains (dimensionless, product `G_t·G_r`).
    pub antenna_gain: f64,
    /// System loss L ≥ 1 (dimensionless).
    pub system_loss: f64,
    /// Cached crossover distance (m).
    crossover: f64,
    /// Cached Friis numerator `G·(λ/4π)²/L`.
    friis_c: f64,
    /// Cached two-ray numerator `G·h_t²·h_r²/L`.
    two_ray_c: f64,
}

impl TwoRayGround {
    /// Build from a carrier frequency in Hz.
    pub fn new(frequency_hz: f64, ht: f64, hr: f64, antenna_gain: f64, system_loss: f64) -> Self {
        assert!(frequency_hz > 0.0 && ht > 0.0 && hr > 0.0);
        assert!(antenna_gain > 0.0 && system_loss >= 1.0);
        let lambda = SPEED_OF_LIGHT / frequency_hz;
        let crossover = 4.0 * std::f64::consts::PI * ht * hr / lambda;
        let friis_c = antenna_gain * (lambda / (4.0 * std::f64::consts::PI)).powi(2) / system_loss;
        let two_ray_c = antenna_gain * ht * ht * hr * hr / system_loss;
        TwoRayGround {
            lambda,
            ht,
            hr,
            antenna_gain,
            system_loss,
            crossover,
            friis_c,
            two_ray_c,
        }
    }

    /// The ns-2 / Lucent WaveLAN configuration used throughout the paper:
    /// 914 MHz, 1.5 m antennas, unity gains and loss.
    pub fn ns2_default() -> Self {
        TwoRayGround::new(914e6, 1.5, 1.5, 1.0, 1.0)
    }

    /// Crossover distance `d_c` between the Friis and ground-reflection
    /// regimes (m).
    #[inline]
    pub fn crossover(&self) -> f64 {
        self.crossover
    }

    /// Gain as a function of distance alone.
    #[inline]
    pub fn gain_at(&self, d: f64) -> f64 {
        if d <= 0.0 {
            // Co-located nodes: cap the gain at 1 (no amplification).
            return 1.0;
        }
        let g = if d <= self.crossover {
            self.friis_c / (d * d)
        } else {
            self.two_ray_c / (d * d * d * d)
        };
        g.min(1.0)
    }

    /// Dimensionless gain `g` such that `P_rx = g · P_tx`.
    #[inline]
    pub fn gain(&self, a: Point, b: Point) -> f64 {
        self.gain_at(a.distance(b))
    }

    /// The distance at which a transmission at `p_tx` drops to `threshold`,
    /// i.e. the radius of the zone where `P_rx ≥ threshold`.
    pub fn range_for(&self, p_tx: Milliwatts, threshold: Milliwatts) -> f64 {
        assert!(threshold.value() > 0.0, "threshold must be positive");
        if p_tx.value() <= 0.0 {
            return 0.0;
        }
        let ratio = p_tx.value() / threshold.value();
        let d_friis = (self.friis_c * ratio).sqrt();
        if d_friis <= self.crossover {
            d_friis
        } else {
            (self.two_ray_c * ratio).powf(0.25)
        }
    }

    /// Minimum transmit power for which `threshold` is still received at
    /// distance `d` (inverse of [`TwoRayGround::range_for`]).
    pub fn power_for_range(&self, d: f64, threshold: Milliwatts) -> Milliwatts {
        let g = self.gain_at(d);
        if g <= 0.0 {
            return Milliwatts(f64::INFINITY);
        }
        Milliwatts(threshold.value() / g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TwoRayGround {
        TwoRayGround::ns2_default()
    }

    /// The maximum power used by the paper / ns-2's Lucent WaveLAN default.
    const P_MAX: Milliwatts = Milliwatts(281.83815);

    /// ns-2's decode threshold (3.652e-10 W) in mW.
    const RX_THRESH: Milliwatts = Milliwatts(3.652e-7);

    /// ns-2's carrier-sense threshold (1.559e-11 W) in mW.
    const CS_THRESH: Milliwatts = Milliwatts(1.559e-8);

    #[test]
    fn crossover_is_about_86m() {
        let c = model().crossover();
        assert!(
            (86.0..86.5).contains(&c),
            "crossover {c} outside expected window"
        );
    }

    #[test]
    fn branches_are_continuous_at_crossover() {
        let m = model();
        let c = m.crossover();
        let below = m.gain_at(c - 1e-9);
        let above = m.gain_at(c + 1e-9);
        assert!((below - above).abs() / below < 1e-6);
    }

    #[test]
    fn decode_range_at_max_power_is_250m() {
        let d = model().range_for(P_MAX, RX_THRESH);
        assert!((d - 250.0).abs() < 0.5, "decode range {d} != 250 m");
    }

    #[test]
    fn sense_range_at_max_power_is_550m() {
        let d = model().range_for(P_MAX, CS_THRESH);
        assert!((d - 550.0).abs() < 1.0, "sense range {d} != 550 m");
    }

    #[test]
    fn received_power_matches_ns2_thresholds() {
        let m = model();
        let a = Point::new(0.0, 0.0);
        // At exactly 250 m the received power equals RXThresh.
        let pr = P_MAX * m.gain(a, Point::new(250.0, 0.0));
        assert!((pr.value() - RX_THRESH.value()).abs() / RX_THRESH.value() < 5e-3);
        // At 550 m it equals CSThresh.
        let ps = P_MAX * m.gain(a, Point::new(550.0, 0.0));
        assert!((ps.value() - CS_THRESH.value()).abs() / CS_THRESH.value() < 5e-3);
    }

    #[test]
    fn gain_is_monotone_decreasing() {
        let m = model();
        let mut last = f64::INFINITY;
        for d in 1..700 {
            let g = m.gain_at(d as f64);
            assert!(g <= last, "gain increased at d={d}");
            last = g;
        }
    }

    #[test]
    fn gain_is_symmetric() {
        let m = model();
        let a = Point::new(12.0, 70.0);
        let b = Point::new(300.0, 5.0);
        assert_eq!(m.gain(a, b), m.gain(b, a));
    }

    #[test]
    fn colocated_gain_capped_at_one() {
        let m = model();
        let p = Point::new(1.0, 1.0);
        assert_eq!(m.gain(p, p), 1.0);
        // Very short distances must not amplify either.
        assert!(m.gain_at(0.01) <= 1.0);
    }

    #[test]
    fn power_for_range_inverts_range_for() {
        let m = model();
        for d in [30.0, 86.0, 90.0, 150.0, 250.0, 400.0] {
            let p = m.power_for_range(d, RX_THRESH);
            let back = m.range_for(p, RX_THRESH);
            assert!((back - d).abs() < 1e-6, "d={d} back={back}");
        }
    }

    #[test]
    fn friis_regime_is_inverse_square() {
        let m = model();
        // Both distances below crossover: doubling distance quarters gain.
        let g20 = m.gain_at(20.0);
        let g40 = m.gain_at(40.0);
        assert!((g20 / g40 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn two_ray_regime_is_inverse_fourth() {
        let m = model();
        let g100 = m.gain_at(100.0);
        let g200 = m.gain_at(200.0);
        assert!((g100 / g200 - 16.0).abs() < 1e-9);
    }
}
