//! Log-normal shadowing over a base path-loss model.
//!
//! The paper (assumption 2) requires reciprocal gains: `G_sd = G_ds`.
//! Real channels add log-normal shadowing, and if the shadowing field is
//! not perfectly symmetric the gain PCMAC *estimates* from a received
//! frame differs from the gain its own transmission will see — its power
//! choices and tolerance checks become noisy. This module supplies both
//! flavours so the robustness of the protocol to its own assumption can
//! be measured (the `reciprocity` ablation):
//!
//! * symmetric: one shadowing value per unordered position pair —
//!   assumption 2 holds exactly;
//! * asymmetric: independent values per *ordered* pair — assumption 2 is
//!   violated with controllable σ.
//!
//! Shadowing is deterministic: the value for a pair is derived by hashing
//! the quantized endpoint cells with the scenario seed, so runs remain
//! reproducible and positions close to each other see coherent shadowing
//! (a crude spatial correlation, cell-sized).

use pcmac_engine::Point;

use crate::propagation::TwoRayGround;

/// Log-normal shadowing over the two-ray ground model.
#[derive(Debug, Clone)]
pub struct Shadowed {
    base: TwoRayGround,
    /// Standard deviation of the shadowing term (dB). 0 disables.
    sigma_db: f64,
    /// Spatial quantisation cell (m); endpoints within the same cell see
    /// the same shadowing.
    cell_m: f64,
    /// Scenario seed folded into the hash.
    seed: u64,
    /// `true` → one value per unordered pair (reciprocal channel).
    symmetric: bool,
}

impl Shadowed {
    /// Wrap `base` with log-normal shadowing of `sigma_db`.
    pub fn new(base: TwoRayGround, sigma_db: f64, symmetric: bool, seed: u64) -> Self {
        assert!(sigma_db >= 0.0);
        Shadowed {
            base,
            sigma_db,
            cell_m: 10.0,
            seed,
            symmetric,
        }
    }

    /// The underlying model: the median channel, which range queries
    /// use (shadowing has median 1).
    pub fn base(&self) -> &TwoRayGround {
        &self.base
    }

    /// Standard deviation of the shadowing term (dB).
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }

    fn cell(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell_m).floor() as i64,
            (p.y / self.cell_m).floor() as i64,
        )
    }

    /// Deterministic standard-normal draw for an (ordered) cell pair.
    fn normal_for(&self, a: (i64, i64), b: (i64, i64)) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [a.0, a.1, b.0, b.1] {
            h ^= v as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
            h ^= h >> 29;
        }
        // Irwin–Hall(12) − 6 approximates N(0,1) and needs only cheap
        // integer hashing.
        let mut sum = 0.0;
        let mut state = h;
        for _ in 0..12 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sum += (state >> 11) as f64 / (1u64 << 53) as f64;
        }
        sum - 6.0
    }

    /// The shadowing multiplier for a directed link.
    fn shadow_gain(&self, from: Point, to: Point) -> f64 {
        if self.sigma_db == 0.0 {
            return 1.0;
        }
        let (ca, cb) = (self.cell(from), self.cell(to));
        let (x, y) = if self.symmetric && (cb < ca) {
            (cb, ca)
        } else {
            (ca, cb)
        };
        let db = self.normal_for(x, y) * self.sigma_db;
        10f64.powf(db / 10.0)
    }

    /// Dimensionless gain `g` such that `P_rx = g · P_tx`: the base gain
    /// times the link's shadowing, never above unity.
    #[inline]
    pub fn gain(&self, a: Point, b: Point) -> f64 {
        self.gain_over(a, b, a.distance(b))
    }

    /// [`Shadowed::gain`]`(a, b)` given `d = a.distance(b)`, bit for bit.
    #[inline]
    pub fn gain_over(&self, a: Point, b: Point, d: f64) -> f64 {
        (self.base.gain_at(d) * self.shadow_gain(a, b)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(sigma: f64, symmetric: bool) -> Shadowed {
        Shadowed::new(TwoRayGround::ns2_default(), sigma, symmetric, 7)
    }

    #[test]
    fn zero_sigma_is_transparent() {
        let m = model(0.0, true);
        let a = Point::new(10.0, 10.0);
        let b = Point::new(200.0, 300.0);
        assert_eq!(m.gain(a, b), m.base().gain(a, b));
    }

    #[test]
    fn symmetric_mode_is_reciprocal() {
        let m = model(8.0, true);
        for i in 0..50 {
            let a = Point::new(13.0 * i as f64, 40.0);
            let b = Point::new(500.0, 7.0 * i as f64);
            assert_eq!(m.gain(a, b), m.gain(b, a), "pair {i}");
        }
    }

    #[test]
    fn asymmetric_mode_breaks_reciprocity() {
        let m = model(8.0, false);
        let broken = (0..50)
            .filter(|i| {
                let a = Point::new(13.0 * *i as f64, 40.0);
                let b = Point::new(500.0, 7.0 * *i as f64);
                m.gain(a, b) != m.gain(b, a)
            })
            .count();
        assert!(broken > 30, "only {broken}/50 pairs asymmetric");
    }

    #[test]
    fn shadowing_is_deterministic() {
        let m1 = model(6.0, true);
        let m2 = model(6.0, true);
        let a = Point::new(100.0, 100.0);
        let b = Point::new(300.0, 250.0);
        assert_eq!(m1.gain(a, b), m2.gain(a, b));
    }

    #[test]
    fn different_seeds_shadow_differently() {
        let m1 = Shadowed::new(TwoRayGround::ns2_default(), 6.0, true, 1);
        let m2 = Shadowed::new(TwoRayGround::ns2_default(), 6.0, true, 2);
        let a = Point::new(100.0, 100.0);
        let b = Point::new(300.0, 250.0);
        assert_ne!(m1.gain(a, b), m2.gain(a, b));
    }

    #[test]
    fn gain_stays_physical() {
        let m = model(12.0, true);
        for i in 0..200 {
            let a = Point::new(5.0 * i as f64, 3.0 * i as f64);
            let b = Point::new(999.0 - i as f64, 500.0);
            let g = m.gain(a, b);
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn shadowing_spread_grows_with_sigma() {
        // Empirical check: the dispersion of gain ratios vs the base
        // model grows with sigma.
        let spread = |sigma: f64| {
            let m = model(sigma, true);
            let mut ratios = Vec::new();
            for i in 0..300 {
                let a = Point::new((i * 17 % 997) as f64, (i * 29 % 991) as f64);
                let b = Point::new((i * 41 % 983) as f64, (i * 53 % 977) as f64);
                let base = m.base().gain(a, b);
                if base > 0.0 && base < 1.0 {
                    ratios.push((m.gain(a, b) / base).ln().abs());
                }
            }
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        let narrow = spread(2.0);
        let wide = spread(10.0);
        assert!(
            wide > 2.0 * narrow,
            "sigma 10 spread {wide:.3} vs sigma 2 spread {narrow:.3}"
        );
    }

    #[test]
    fn same_cell_pairs_share_shadowing() {
        let m = model(8.0, true);
        // Points within the same 10 m cells → identical shadowing.
        let a1 = Point::new(101.0, 101.0);
        let a2 = Point::new(104.0, 108.0);
        let b = Point::new(507.0, 333.0);
        let r1 = m.gain(a1, b) / m.base().gain(a1, b);
        let r2 = m.gain(a2, b) / m.base().gain(a2, b);
        assert!((r1 - r2).abs() < 1e-12);
    }
}
