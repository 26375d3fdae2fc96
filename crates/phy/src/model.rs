//! Closed propagation-model enum.
//!
//! The simulator's channel fan-out sits on the hottest path of every
//! run: one gain evaluation per (transmission, candidate receiver).
//! [`PropagationModel`] closes the set of models the simulator supports —
//! plain two-ray ground, or two-ray with log-normal shadowing — so gain
//! evaluation is a direct (inlineable) match, hoisted out of the batch
//! loops, instead of a call through a trait object.

use pcmac_engine::{Milliwatts, Point};

use crate::propagation::TwoRayGround;
use crate::shadowing::Shadowed;

/// The shadowing amplitude bound: the deterministic Irwin–Hall(12)−6
/// draw lies in `[-6, 6]`, so a link's shadowing never exceeds
/// `6 · sigma_db` decibels above the median channel.
const SHADOW_SIGMA_SPAN: f64 = 6.0;

/// Every propagation model the simulator can run, dispatched statically.
#[derive(Debug, Clone)]
pub enum PropagationModel {
    /// ns-2's two-ray ground model.
    TwoRay(TwoRayGround),
    /// Two-ray ground with deterministic log-normal shadowing.
    Shadowed(Shadowed),
}

impl PropagationModel {
    /// Dimensionless gain between two positions.
    #[inline]
    pub fn gain(&self, a: Point, b: Point) -> f64 {
        match self {
            PropagationModel::TwoRay(m) => m.gain(a, b),
            PropagationModel::Shadowed(m) => m.gain(a, b),
        }
    }

    /// Batch-evaluate the gain from `tx` to every candidate position in
    /// one pass, replacing `out`'s contents. The variant match is hoisted
    /// out of the loop, so the inner iteration is a tight run over the
    /// model's precomputed per-link terms (the two-ray crossover
    /// constants, the shadowing base) with no per-candidate dispatch.
    /// Values are bit-identical to per-pair [`PropagationModel::gain`]
    /// calls — this is purely a memory-layout/dispatch optimization.
    pub fn gains_into(&self, tx: Point, candidates: &[Point], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(candidates.len());
        match self {
            PropagationModel::TwoRay(m) => {
                out.extend(candidates.iter().map(|&p| m.gain(tx, p)));
            }
            PropagationModel::Shadowed(m) => {
                out.extend(candidates.iter().map(|&p| m.gain(tx, p)));
            }
        }
    }

    /// Each candidate's exact distance from `tx` and the gain over it,
    /// `(tx.distance(p), gain)`, in one pass over an index list into a
    /// shared position array — the shape the simulator's candidate sets
    /// have — replacing `out`'s contents: the distance is computed once
    /// and serves both. Gains are bit-identical to per-pair
    /// [`PropagationModel::gain`] calls; the variant match is hoisted out
    /// of the loop as in [`PropagationModel::gains_into`].
    pub fn distance_gains_into_indexed(
        &self,
        tx: Point,
        positions: &[Point],
        idx: &[u32],
        out: &mut Vec<(f64, f64)>,
    ) {
        out.clear();
        out.reserve(idx.len());
        match self {
            PropagationModel::TwoRay(m) => {
                out.extend(idx.iter().map(|&j| {
                    let d = tx.distance(positions[j as usize]);
                    (d, m.gain_at(d))
                }));
            }
            PropagationModel::Shadowed(m) => {
                out.extend(idx.iter().map(|&j| {
                    let p = positions[j as usize];
                    let d = tx.distance(p);
                    (d, m.gain_over(tx, p, d))
                }));
            }
        }
    }

    /// An upper bound on the radius where `p_tx` can still arrive at or
    /// above `threshold` under **any** realisation of this model — the
    /// spatial-index culling radius. For the two-ray model this is the
    /// exact range; under shadowing the bound inflates the median range
    /// by the maximum shadowing boost (`6σ` dB), because a constructive
    /// shadow can lift a link far beyond its median reach. A σ so large
    /// that the boosted threshold underflows to zero bounds nothing: the
    /// radius is infinite.
    pub fn max_range_for(&self, p_tx: Milliwatts, threshold: Milliwatts) -> f64 {
        match self {
            PropagationModel::TwoRay(m) => m.range_for(p_tx, threshold),
            PropagationModel::Shadowed(m) => {
                let boost = 10f64.powf(SHADOW_SIGMA_SPAN * m.sigma_db() / 10.0);
                let effective = Milliwatts(threshold.value() / boost);
                if effective.value() > 0.0 {
                    m.base().range_for(p_tx, effective)
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(120.0, 40.0),
            Point::new(600.0, 900.0),
            Point::new(333.0, 333.0),
            Point::new(333.5, 333.5),
        ]
    }

    #[test]
    fn batched_gains_match_per_pair_calls_bitwise() {
        let pts = positions();
        for model in [
            PropagationModel::TwoRay(TwoRayGround::ns2_default()),
            PropagationModel::Shadowed(Shadowed::new(TwoRayGround::ns2_default(), 6.0, false, 9)),
        ] {
            let tx = Point::new(250.0, 400.0);
            let mut batch = Vec::new();
            model.gains_into(tx, &pts, &mut batch);
            assert_eq!(batch.len(), pts.len());
            for (k, &p) in pts.iter().enumerate() {
                assert_eq!(batch[k].to_bits(), model.gain(tx, p).to_bits());
            }
        }
    }

    /// The fused pass prices a candidate exactly as `gain(a, b)` does and
    /// measures it exactly as `Point::distance` does: on the two-ray
    /// model and under both shadowing symmetries, from a transmitter on
    /// either side of each pair and across the two-ray crossover.
    #[test]
    fn fused_distance_gains_match_per_pair_calls_bitwise() {
        let mut pts = positions();
        pts.extend((0..40).map(|k| Point::new(250.0 + 3.1 * k as f64, 400.0 - 2.3 * k as f64)));
        let idx: Vec<u32> = (0..pts.len() as u32).collect();
        for model in [
            PropagationModel::TwoRay(TwoRayGround::ns2_default()),
            PropagationModel::Shadowed(Shadowed::new(TwoRayGround::ns2_default(), 6.0, true, 9)),
            PropagationModel::Shadowed(Shadowed::new(TwoRayGround::ns2_default(), 6.0, false, 9)),
        ] {
            for tx in [Point::new(250.0, 400.0), pts[1], Point::new(-7.5, 1e3)] {
                let mut fused = Vec::new();
                model.distance_gains_into_indexed(tx, &pts, &idx, &mut fused);
                assert_eq!(fused.len(), pts.len());
                for (k, (&p, &(d, g))) in pts.iter().zip(&fused).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        model.gain(tx, p).to_bits(),
                        "{model:?} gain to {k}"
                    );
                    assert_eq!(d.to_bits(), tx.distance(p).to_bits(), "distance to {k}");
                }
            }
        }
    }

    #[test]
    fn max_range_covers_any_shadow_boost() {
        let sigma = 6.0;
        let model =
            PropagationModel::Shadowed(Shadowed::new(TwoRayGround::ns2_default(), sigma, true, 7));
        let p = Milliwatts(281.83815);
        let floor = Milliwatts(1.559e-10);
        let r_max = model.max_range_for(p, floor);
        let r_median = TwoRayGround::ns2_default().range_for(p, floor);
        assert!(r_max > r_median, "shadowing must widen the culling radius");
        // Beyond r_max the strongest possible shadow still falls below
        // the floor: check on a dense distance sweep.
        for k in 0..100 {
            let d = r_max * (1.0 + k as f64 / 50.0) + 1.0;
            let boost = 10f64.powf(6.0 * sigma / 10.0);
            let best_gain = match &model {
                PropagationModel::Shadowed(m) => m.base().gain_at(d) * boost,
                _ => unreachable!(),
            };
            assert!(
                (p * best_gain.min(1.0)).value() <= floor.value() * (1.0 + 1e-9),
                "distance {d} could still beat the floor"
            );
        }
    }

    #[test]
    fn two_ray_max_range_equals_range() {
        let model = PropagationModel::TwoRay(TwoRayGround::ns2_default());
        let p = Milliwatts(75.8);
        let floor = Milliwatts(1.559e-10);
        let bare = TwoRayGround::ns2_default();
        assert_eq!(model.max_range_for(p, floor), bare.range_for(p, floor));
    }
}
