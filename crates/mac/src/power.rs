//! Transmit power selection: the one place a unicast frame's level is
//! chosen.
//!
//! [`PowerHistory`] is the paper's per-neighbour table of needed power
//! levels: every decoded frame carries its transmit power in the header,
//! so the hearer computes the propagation gain `g = S / P_tx` and from it
//! the minimum power that would still decode at this distance,
//! `P_need = rx_thresh / g`, quantised up to the next discrete class.
//! Entries expire after 3 s; unknown neighbours get the maximum ("normal")
//! power.
//!
//! [`PowerPolicy::frame_power`] is the table of paper §IV: given a frame
//! kind, the needed level toward its receiver and the maximum, the level
//! the frame rides at under each of the evaluation's protocols.
//! `noise_sized_level` is PCMAC's refinement of §III step 3, a class
//! sized to clear the noise measured at the far end as well. The DCF
//! engine asks these two and nothing else (broadcasts always go at the
//! maximum; PCMAC's RTS ladder starts from the table and steps up on
//! CTS timeouts).

use std::collections::HashMap;

use pcmac_engine::{Duration, Milliwatts, NodeId, SimTime};
use pcmac_phy::PowerLevels;

use crate::config::MacConfig;
use crate::frame::FrameKind;

/// Which frames use the learned "needed" power level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerPolicy {
    /// Basic 802.11: every frame at maximum power.
    AllMax,
    /// Scheme 1: RTS/CTS at maximum, DATA/ACK at needed power.
    RtsCtsMax,
    /// Scheme 2 and PCMAC: every unicast frame at needed power.
    AllNeeded,
}

impl PowerPolicy {
    /// Power for a unicast `kind` frame toward a neighbour whose learned
    /// level is `needed` (paper §IV).
    pub fn frame_power(self, kind: FrameKind, needed: Milliwatts, max: Milliwatts) -> Milliwatts {
        use FrameKind::{Ack, Cts, Data, Rts};
        match (self, kind) {
            (PowerPolicy::AllMax, _) | (PowerPolicy::RtsCtsMax, Rts | Cts) => max,
            (PowerPolicy::RtsCtsMax, Data | Ack) | (PowerPolicy::AllNeeded, _) => needed,
        }
    }
}

/// PCMAC §III step 3: the smallest class that, through `gain`, arrives
/// above both the decode threshold and `η_cp` times the `noise` measured
/// at the far end — `P = η_cp · N · P_t / S` in the paper's terms, with
/// `gain = S / P_t` taken off the RTS just heard.
pub(crate) fn noise_sized_level(cfg: &MacConfig, noise: Milliwatts, gain: f64) -> Milliwatts {
    let need_rx = cfg
        .rx_thresh
        .value()
        .max(cfg.pcmac.capture_ratio * noise.value());
    cfg.levels.quantize_up_or_max(Milliwatts(need_rx / gain))
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct HistoryEntry {
    level: Milliwatts,
    updated_at: SimTime,
}

/// The per-neighbour needed-power table (paper §III: "each mobile terminal
/// also keeps a power history table, recording the needed power level to
/// reach every other terminal", 3 s expiry).
#[derive(Debug, Clone)]
pub struct PowerHistory {
    entries: HashMap<NodeId, HistoryEntry>,
    expiry: Duration,
    levels: PowerLevels,
    /// Decode threshold the needed power must clear.
    rx_thresh: Milliwatts,
    /// Multiplicative headroom on the decode threshold (1.0 = none; the
    /// discrete quantisation already adds margin).
    margin: f64,
}

impl PowerHistory {
    /// The paper's configuration: 3-second expiry over the ten classes.
    pub fn new(levels: PowerLevels, rx_thresh: Milliwatts) -> Self {
        PowerHistory {
            entries: HashMap::new(),
            expiry: Duration::from_secs(3),
            levels,
            rx_thresh,
            margin: 1.0,
        }
    }

    /// Override the expiry (ablations).
    pub fn with_expiry(mut self, expiry: Duration) -> Self {
        self.expiry = expiry;
        self
    }

    /// Override the threshold margin (ablations).
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!(margin >= 1.0);
        self.margin = margin;
        self
    }

    /// Adopt `shared` as the level set when it holds the same levels: a
    /// table read back from a snapshot owns a private copy of the list,
    /// and this returns it to the one its MAC's configuration holds.
    pub fn sharing_levels(mut self, shared: &PowerLevels) -> Self {
        if self.levels == *shared {
            self.levels = shared.clone();
        }
        self
    }

    /// The level set in use.
    pub fn levels(&self) -> &PowerLevels {
        &self.levels
    }

    /// Learn from a decoded frame: `heard_at` is the measured receive
    /// power, `sent_at` the transmit power from the frame header.
    pub fn observe(
        &mut self,
        from: NodeId,
        heard_at: Milliwatts,
        sent_at: Milliwatts,
        now: SimTime,
    ) {
        if heard_at.value() <= 0.0 || sent_at.value() <= 0.0 {
            return;
        }
        let gain = heard_at.value() / sent_at.value();
        let needed = Milliwatts(self.rx_thresh.value() * self.margin / gain);
        let level = self.levels.quantize_up_or_max(needed);
        self.entries.insert(
            from,
            HistoryEntry {
                level,
                updated_at: now,
            },
        );
    }

    /// The power to use toward `to`: the learned level if fresh, otherwise
    /// the maximum ("if A has no power level record as to B, A uses the
    /// normal power level").
    pub fn level_for(&self, to: NodeId, now: SimTime) -> Milliwatts {
        match self.entries.get(&to) {
            Some(e) if now.saturating_since(e.updated_at) < self.expiry => e.level,
            _ => self.levels.max(),
        }
    }

    /// `true` if a fresh entry exists for `to`.
    pub fn knows(&self, to: NodeId, now: SimTime) -> bool {
        matches!(self.entries.get(&to),
                 Some(e) if now.saturating_since(e.updated_at) < self.expiry)
    }

    /// Record that `level` was explicitly tried toward `to` (the paper's
    /// step-up on CTS timeout): keeps the table consistent with what the
    /// retry ladder actually used.
    pub fn record_level(&mut self, to: NodeId, level: Milliwatts, now: SimTime) {
        self.entries.insert(
            to,
            HistoryEntry {
                level,
                updated_at: now,
            },
        );
    }
}

mod snap {
    use super::{HistoryEntry, PowerHistory};

    pcmac_snap::snap_struct!(HistoryEntry { level, updated_at });

    pcmac_snap::snap_struct!(PowerHistory {
        entries,
        expiry,
        levels,
        rx_thresh,
        margin,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PowerHistory {
        PowerHistory::new(PowerLevels::paper_defaults(), Milliwatts(3.652e-7))
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn unknown_neighbour_gets_max() {
        let h = table();
        assert_eq!(h.level_for(NodeId(9), t(0)), h.levels().max());
        assert!(!h.knows(NodeId(9), t(0)));
    }

    #[test]
    fn observe_learns_quantized_needed_power() {
        let mut h = table();
        // Heard a max-power frame at gain 1e-8: P_rx = 281.83815e-8 mW.
        let p_max = h.levels().max();
        h.observe(NodeId(2), p_max * 1e-8, p_max, t(0));
        // needed = 3.652e-7 / 1e-8 = 36.52 mW → class 36.6 mW.
        assert_eq!(h.level_for(NodeId(2), t(0)), Milliwatts(36.6));
    }

    #[test]
    fn close_neighbour_needs_minimum_class() {
        let mut h = table();
        let p_max = h.levels().max();
        // gain 1e-3: needed = 3.652e-4 mW → class 1 mW.
        h.observe(NodeId(2), p_max * 1e-3, p_max, t(0));
        assert_eq!(h.level_for(NodeId(2), t(0)), Milliwatts(1.0));
    }

    #[test]
    fn entries_expire_after_three_seconds() {
        let mut h = table();
        let p_max = h.levels().max();
        h.observe(NodeId(2), p_max * 1e-3, p_max, t(0));
        assert!(h.knows(NodeId(2), t(2)));
        assert!(!h.knows(NodeId(2), t(3)), "3 s is already expired");
        assert_eq!(h.level_for(NodeId(2), t(3)), h.levels().max());
    }

    #[test]
    fn fresh_observation_renews_expiry() {
        let mut h = table();
        let p_max = h.levels().max();
        h.observe(NodeId(2), p_max * 1e-3, p_max, t(0));
        h.observe(NodeId(2), p_max * 1e-3, p_max, t(2));
        assert!(h.knows(NodeId(2), t(4)));
    }

    #[test]
    fn weak_signal_requires_more_power_than_strong() {
        let mut h = table();
        let p_max = h.levels().max();
        h.observe(NodeId(2), p_max * 1e-3, p_max, t(0)); // strong
        h.observe(NodeId(3), p_max * 1e-8, p_max, t(0)); // weak
        assert!(h.level_for(NodeId(3), t(0)).value() > h.level_for(NodeId(2), t(0)).value());
    }

    #[test]
    fn margin_raises_needed_class() {
        let p_max = PowerLevels::paper_defaults().max();
        let mut plain = table();
        let mut margined =
            PowerHistory::new(PowerLevels::paper_defaults(), Milliwatts(3.652e-7)).with_margin(3.0);
        // gain such that plain needs just under 36.6 → margined jumps class.
        plain.observe(NodeId(2), p_max * 1e-8, p_max, t(0));
        margined.observe(NodeId(2), p_max * 1e-8, p_max, t(0));
        assert!(
            margined.level_for(NodeId(2), t(0)).value() >= plain.level_for(NodeId(2), t(0)).value()
        );
    }

    #[test]
    fn power_table_matches_paper_section_iv() {
        use crate::config::Variant;
        use FrameKind::{Ack, Cts, Data, Rts};

        let max = Milliwatts(281.83815);
        let need = Milliwatts(2.0);
        // Every (policy, frame kind) cell: RTS, CTS, DATA, ACK.
        for (policy, row) in [
            (PowerPolicy::AllMax, [max, max, max, max]),
            (PowerPolicy::RtsCtsMax, [max, max, need, need]),
            (PowerPolicy::AllNeeded, [need, need, need, need]),
        ] {
            for (kind, want) in [Rts, Cts, Data, Ack].into_iter().zip(row) {
                assert_eq!(
                    policy.frame_power(kind, need, max),
                    want,
                    "{policy:?} {kind:?}"
                );
            }
        }
        // Every variant: its policy, whether it learns levels, whether the
        // PCMAC machinery (control channel, three-way handshake) is live.
        for variant in Variant::ALL {
            let (policy, learns, pcmac) = match variant {
                Variant::Basic => (PowerPolicy::AllMax, false, false),
                Variant::Scheme1 => (PowerPolicy::RtsCtsMax, true, false),
                Variant::Scheme2 => (PowerPolicy::AllNeeded, true, false),
                Variant::Pcmac => (PowerPolicy::AllNeeded, true, true),
            };
            assert_eq!(variant.power_policy(), policy, "{variant:?}");
            assert_eq!(variant.uses_power_history(), learns, "{variant:?}");
            assert_eq!(variant.is_pcmac(), pcmac, "{variant:?}");
        }
    }
}
