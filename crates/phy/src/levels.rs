//! The paper's discrete transmit power levels.
//!
//! §IV of the paper adopts ten levels (the same set as Jung & Vaidya's
//! power-control MAC study): 1, 2, 3.45, 4.8, 7.25, 10.6, 15, 36.6, 75.8
//! and 281.8 mW, "roughly corresponding" to decode ranges of 40–250 m under
//! the two-ray ground model. Senders pick the smallest level that satisfies
//! the needed power; a failed RTS raises the level one class at a time up
//! to the maximum (paper §III step 2).

use std::sync::Arc;

use pcmac_engine::Milliwatts;
use serde::Serialize;

/// An ordered set of discrete transmit power levels.
///
/// Immutable once built, and held behind an [`Arc`]: a scenario's MAC
/// configuration, which all its stations share, holds the one copy, and
/// cloning it shares the list instead of copying it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PowerLevels {
    /// Strictly increasing power values.
    levels: Arc<[Milliwatts]>,
}

impl PowerLevels {
    /// The paper's ten levels. The maximum (281.83815 mW) is ns-2's exact
    /// Lucent WaveLAN default transmit power, quoted as "281.8 mW" in the
    /// paper.
    pub fn paper_defaults() -> Self {
        PowerLevels::new(vec![
            Milliwatts(1.0),
            Milliwatts(2.0),
            Milliwatts(3.45),
            Milliwatts(4.8),
            Milliwatts(7.25),
            Milliwatts(10.6),
            Milliwatts(15.0),
            Milliwatts(36.6),
            Milliwatts(75.8),
            Milliwatts(281.83815),
        ])
    }

    /// A single-level set: every frame at `p` (models basic 802.11, which
    /// has no power control).
    pub fn fixed(p: Milliwatts) -> Self {
        PowerLevels::new(vec![p])
    }

    /// Build from an arbitrary strictly-increasing level list.
    ///
    /// # Panics
    /// If `levels` is empty, non-increasing, or contains non-positive power.
    pub fn new(levels: Vec<Milliwatts>) -> Self {
        assert!(!levels.is_empty(), "need at least one power level");
        for w in levels.windows(2) {
            assert!(
                w[0].value() < w[1].value(),
                "levels must be strictly increasing"
            );
        }
        assert!(levels[0].value() > 0.0, "levels must be positive");
        PowerLevels {
            levels: levels.into(),
        }
    }

    /// Number of classes.
    #[inline]
    pub fn count(&self) -> usize {
        self.levels.len()
    }

    /// All levels, ascending.
    #[inline]
    pub fn all(&self) -> &[Milliwatts] {
        &self.levels
    }

    /// The minimum (first) level.
    #[inline]
    pub fn min(&self) -> Milliwatts {
        self.levels[0]
    }

    /// The maximum (last) level — the "normal" power in the paper's terms.
    #[inline]
    pub fn max(&self) -> Milliwatts {
        *self.levels.last().unwrap()
    }

    /// The smallest level `≥ needed`, or `None` if even the maximum is
    /// insufficient (callers then either give up or use the maximum and
    /// accept the risk — PCMAC uses the maximum for unknown neighbours).
    pub fn quantize_up(&self, needed: Milliwatts) -> Option<Milliwatts> {
        self.levels
            .iter()
            .copied()
            .find(|l| l.value() >= needed.value())
    }

    /// Like [`PowerLevels::quantize_up`] but saturating at the maximum.
    pub fn quantize_up_or_max(&self, needed: Milliwatts) -> Milliwatts {
        self.quantize_up(needed).unwrap_or_else(|| self.max())
    }

    /// Index of the given level, if it is one of the classes.
    pub fn class_of(&self, p: Milliwatts) -> Option<usize> {
        self.levels
            .iter()
            .position(|l| (l.value() - p.value()).abs() < 1e-12)
    }

    /// The next class up from `p` (paper §III step 2: "increases its power
    /// level by one class until it gets to the maximal level"). If `p` is
    /// between classes, returns the next class above it. Saturates at max.
    pub fn step_up(&self, p: Milliwatts) -> Milliwatts {
        match self.class_of(p) {
            Some(i) if i + 1 < self.levels.len() => self.levels[i + 1],
            Some(_) => self.max(),
            None => self.quantize_up_or_max(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::TwoRayGround;

    #[test]
    fn paper_has_ten_levels() {
        let l = PowerLevels::paper_defaults();
        assert_eq!(l.count(), 10);
        assert_eq!(l.min(), Milliwatts(1.0));
        assert!((l.max().value() - 281.83815).abs() < 1e-9);
    }

    /// The fidelity anchor from DESIGN.md §4: the paper's level → decode
    /// range mapping must emerge from our propagation model. The paper
    /// itself says the ranges "roughly correspond", so we allow ±4 m.
    #[test]
    fn paper_range_table_reproduces() {
        let model = TwoRayGround::ns2_default();
        let rx_thresh = Milliwatts(3.652e-7);
        let expected = [
            (1.0, 40.0),
            (2.0, 60.0),
            (3.45, 80.0),
            (4.8, 90.0),
            (7.25, 100.0),
            (10.6, 110.0),
            (15.0, 120.0),
            (36.6, 150.0),
            (75.8, 180.0),
            (281.83815, 250.0),
        ];
        for (mw, want_range) in expected {
            let got = model.range_for(Milliwatts(mw), rx_thresh);
            assert!(
                (got - want_range).abs() <= 4.0,
                "{mw} mW: computed range {got:.2} m vs paper {want_range} m"
            );
        }
    }

    #[test]
    fn quantize_up_picks_next_class() {
        let l = PowerLevels::paper_defaults();
        assert_eq!(l.quantize_up(Milliwatts(0.5)), Some(Milliwatts(1.0)));
        assert_eq!(l.quantize_up(Milliwatts(1.0)), Some(Milliwatts(1.0)));
        assert_eq!(l.quantize_up(Milliwatts(1.01)), Some(Milliwatts(2.0)));
        assert_eq!(l.quantize_up(Milliwatts(20.0)), Some(Milliwatts(36.6)));
        assert_eq!(l.quantize_up(Milliwatts(300.0)), None);
        assert!((l.quantize_up_or_max(Milliwatts(300.0)).value() - 281.83815).abs() < 1e-9);
    }

    #[test]
    fn quantize_is_idempotent() {
        let l = PowerLevels::paper_defaults();
        for &p in l.all() {
            assert_eq!(l.quantize_up(p), Some(p));
        }
    }

    #[test]
    fn step_up_walks_the_ladder() {
        let l = PowerLevels::paper_defaults();
        assert_eq!(l.step_up(Milliwatts(1.0)), Milliwatts(2.0));
        assert_eq!(l.step_up(Milliwatts(2.0)), Milliwatts(3.45));
        // saturates at max
        assert_eq!(l.step_up(l.max()), l.max());
        // off-class input snaps to the next class above
        assert_eq!(l.step_up(Milliwatts(5.0)), Milliwatts(7.25));
    }

    #[test]
    fn class_of_finds_exact_levels_only() {
        let l = PowerLevels::paper_defaults();
        assert_eq!(l.class_of(Milliwatts(7.25)), Some(4));
        assert_eq!(l.class_of(Milliwatts(7.0)), None);
    }

    #[test]
    fn fixed_set_has_one_level() {
        let l = PowerLevels::fixed(Milliwatts(281.83815));
        assert_eq!(l.count(), 1);
        assert_eq!(l.min(), l.max());
        assert_eq!(l.step_up(l.max()), l.max());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_levels() {
        PowerLevels::new(vec![Milliwatts(2.0), Milliwatts(1.0)]);
    }
}
