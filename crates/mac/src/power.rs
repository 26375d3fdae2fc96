//! Transmit power selection.
//!
//! [`PowerHistory`] is the paper's per-neighbour table of needed power
//! levels: every decoded frame carries its transmit power in the header,
//! so the hearer computes the propagation gain `g = S / P_tx` and from it
//! the minimum power that would still decode at this distance,
//! `P_need = rx_thresh / g`, quantised up to the next discrete class.
//! Entries expire after 3 s; unknown neighbours get the maximum ("normal")
//! power.
//!
//! [`PowerPolicy`] maps the four protocols of the evaluation to per-frame
//! power choices (paper §IV): which frames ride at the needed level and
//! which stay at maximum.

use std::collections::HashMap;

use pcmac_engine::{Duration, Milliwatts, NodeId, SimTime};
use pcmac_phy::PowerLevels;

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
    /// Power for an RTS toward `needed`-power neighbour.
    pub fn rts_power(self, needed: Milliwatts, max: Milliwatts) -> Milliwatts {
        match self {
            PowerPolicy::AllMax | PowerPolicy::RtsCtsMax => max,
            PowerPolicy::AllNeeded => needed,
        }
    }

    /// Power for a CTS reply.
    pub fn cts_power(self, needed: Milliwatts, max: Milliwatts) -> Milliwatts {
        match self {
            PowerPolicy::AllMax | PowerPolicy::RtsCtsMax => max,
            PowerPolicy::AllNeeded => needed,
        }
    }

    /// Power for a unicast DATA frame.
    pub fn data_power(self, needed: Milliwatts, max: Milliwatts) -> Milliwatts {
        match self {
            PowerPolicy::AllMax => max,
            PowerPolicy::RtsCtsMax | PowerPolicy::AllNeeded => needed,
        }
    }

    /// Power for an ACK.
    pub fn ack_power(self, needed: Milliwatts, max: Milliwatts) -> Milliwatts {
        match self {
            PowerPolicy::AllMax => max,
            PowerPolicy::RtsCtsMax | PowerPolicy::AllNeeded => needed,
        }
    }
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

    /// Drop expired entries (paper: "if the record has not been updated
    /// within the expiration time, it is deleted"). Called opportunistically.
    pub fn purge(&mut self, now: SimTime) {
        let expiry = self.expiry;
        self.entries
            .retain(|_, e| now.saturating_since(e.updated_at) < expiry);
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
    fn purge_removes_stale_entries() {
        let mut h = table();
        let p_max = h.levels().max();
        h.observe(NodeId(2), p_max * 1e-3, p_max, t(0));
        h.observe(NodeId(3), p_max * 1e-3, p_max, t(4));
        h.purge(t(5));
        assert!(!h.knows(NodeId(2), t(5)));
        assert!(h.knows(NodeId(3), t(5)));
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
    fn policy_matrix_matches_paper_table() {
        let max = Milliwatts(281.83815);
        let need = Milliwatts(2.0);
        // Basic 802.11
        assert_eq!(PowerPolicy::AllMax.rts_power(need, max), max);
        assert_eq!(PowerPolicy::AllMax.data_power(need, max), max);
        // Scheme 1
        assert_eq!(PowerPolicy::RtsCtsMax.rts_power(need, max), max);
        assert_eq!(PowerPolicy::RtsCtsMax.cts_power(need, max), max);
        assert_eq!(PowerPolicy::RtsCtsMax.data_power(need, max), need);
        assert_eq!(PowerPolicy::RtsCtsMax.ack_power(need, max), need);
        // Scheme 2 / PCMAC
        assert_eq!(PowerPolicy::AllNeeded.rts_power(need, max), need);
        assert_eq!(PowerPolicy::AllNeeded.cts_power(need, max), need);
        assert_eq!(PowerPolicy::AllNeeded.data_power(need, max), need);
    }
}
