//! The channel's test oracle: the plainest correct way to decide who
//! hears a transmission, kept as independent code so the equivalence
//! suite (`tests/channel_equivalence.rs`, `tests/lazy_refresh.rs`) has
//! something to hold the production path to.
//!
//! It shares nothing with the machinery it checks: no spatial index (the
//! candidates are every node but the transmitter), no refresh deadlines
//! or drift pad (every node's position is re-sampled whenever a
//! transmission finds the clock has moved), no stored rows and no batched
//! evaluation (one propagation call per pair). Reachable only through
//! `Simulator::new_reference`.

use pcmac_engine::SimTime;
use pcmac_phy::PropagationModel;

use crate::soa::HotState;

/// O(N) receiver scan over eagerly re-sampled positions.
#[derive(Debug, Default)]
pub(crate) struct ReferenceScan {
    /// Instant of the last rescan: transmissions at one instant — several
    /// nodes reacting to the same timer tick — share it.
    positions_at: Option<SimTime>,
    /// `(node, gain)` of the last scan.
    gains: Vec<(u32, f64)>,
}

impl ReferenceScan {
    /// Bring every position in `hot` up to `now` (a static field has no
    /// movement models and its positions never change) and evaluate the
    /// gain from node `i` to every other node, one model call per pair,
    /// in id order.
    pub(crate) fn gains(
        &mut self,
        model: &PropagationModel,
        hot: &mut HotState,
        i: usize,
        now: SimTime,
    ) -> &[(u32, f64)] {
        if self.positions_at != Some(now) {
            for (p, m) in hot.positions.iter_mut().zip(&mut hot.mobility) {
                *p = m.position(now);
            }
            self.positions_at = Some(now);
        }
        let positions = &hot.positions;
        self.gains.clear();
        self.gains.extend(
            (0..positions.len() as u32)
                .filter(|&j| j as usize != i)
                .map(|j| (j, model.gain(positions[i], positions[j as usize]))),
        );
        &self.gains
    }
}
