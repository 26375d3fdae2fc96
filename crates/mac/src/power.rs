//! Transmit power control: the one place a unicast frame's level is
//! chosen, and the one place a station's power-control state lives.
//!
//! [`PowerControl`] is paper §III's three parts for one station:
//!
//! * the per-neighbour table of needed power levels: every decoded frame
//!   carries its transmit power in the header, so the hearer computes the
//!   propagation gain `g = S / P_tx` and from it the minimum power that
//!   would still decode at this distance, `P_need = rx_thresh / g`,
//!   quantised up to the next discrete class. Entries expire after 3 s;
//!   unknown neighbours get the maximum ("normal") power;
//! * PCMAC's RTS ladder (step 2): a job's RTS starts from the table's
//!   level and climbs one class per CTS timeout, up to the maximum;
//! * the noise last measured at the station's radio, which a PCMAC RTS
//!   advertises and a PCMAC responder sizes the DATA it dictates to
//!   (step 3).
//!
//! [`PowerControl::level`] is the table of paper §IV: given a frame kind
//! and its receiver, the level the frame rides at under each of the
//! evaluation's protocols. Every parameter — the classes, the decode
//! threshold, the expiry, the capture ratio, the variant — is read from
//! the [`MacConfig`] every station of a scenario shares, so the state is
//! the three pieces above and nothing else. Broadcasts never ask: they
//! always go at the maximum.

use pcmac_engine::{Milliwatts, NodeId, SimTime, VecMap};

use crate::config::{MacConfig, Variant};
use crate::counters::MacCounters;
use crate::frame::FrameKind;

#[derive(Debug, Clone, Copy)]
struct Entry {
    level: Milliwatts,
    updated_at: SimTime,
}

/// One station's power control (paper §III: "each mobile terminal also
/// keeps a power history table, recording the needed power level to reach
/// every other terminal", plus PCMAC's RTS ladder and measured noise).
#[derive(Debug, Clone)]
pub struct PowerControl {
    /// Needed level toward each neighbour heard, and when it was learned.
    entries: VecMap<NodeId, Entry>,
    /// PCMAC's RTS level for the current job: the ladder's rung.
    rts: Milliwatts,
    /// Latest noise measured at this station's radio.
    noise: Milliwatts,
}

impl PowerControl {
    /// A station that has heard nothing and has no job.
    pub fn new(cfg: &MacConfig) -> Self {
        PowerControl {
            entries: VecMap::new(),
            rts: cfg.max_power(),
            noise: Milliwatts::ZERO,
        }
    }

    /// The level a unicast `kind` frame toward `peer` rides at (paper
    /// §IV), PCMAC's RTS riding its ladder.
    pub fn level(
        &self,
        cfg: &MacConfig,
        kind: FrameKind,
        peer: NodeId,
        now: SimTime,
    ) -> Milliwatts {
        use FrameKind::{Cts, Rts};
        match (cfg.variant, kind) {
            (Variant::Basic, _) | (Variant::Scheme1, Rts | Cts) => cfg.max_power(),
            (Variant::Pcmac, Rts) => self.rts,
            _ => self.needed(cfg, peer, now),
        }
    }

    /// The table's level toward `peer`: the learned one if fresh, otherwise
    /// the maximum ("if A has no power level record as to B, A uses the
    /// normal power level").
    fn needed(&self, cfg: &MacConfig, peer: NodeId, now: SimTime) -> Milliwatts {
        self.learned(cfg, peer, now)
            .unwrap_or_else(|| cfg.max_power())
    }

    /// The fresh entry toward `peer`, if the table holds one.
    fn learned(&self, cfg: &MacConfig, peer: NodeId, now: SimTime) -> Option<Milliwatts> {
        self.entries
            .get(&peer)
            .filter(|e| now.saturating_since(e.updated_at) < cfg.pcmac.history_expiry)
            .map(|e| e.level)
    }

    /// A frame from `from` decoded: `heard` is the measured receive power,
    /// `sent` the transmit power from its header. Every protocol but
    /// Basic 802.11 learns the needed level toward the sender.
    pub fn learn(
        &mut self,
        cfg: &MacConfig,
        from: NodeId,
        heard: Milliwatts,
        sent: Milliwatts,
        now: SimTime,
    ) {
        if cfg.variant == Variant::Basic || heard.value() <= 0.0 || sent.value() <= 0.0 {
            return;
        }
        let gain = heard.value() / sent.value();
        let level = cfg
            .levels
            .quantize_up_or_max(Milliwatts(cfg.rx_thresh.value() / gain));
        self.entries.insert(
            from,
            Entry {
                level,
                updated_at: now,
            },
        );
    }

    /// A job toward `peer` begins: the RTS ladder starts from the table.
    /// A broadcast job reads the maximum here too: nothing is ever
    /// recorded under the broadcast address.
    pub(crate) fn start_job(&mut self, cfg: &MacConfig, peer: NodeId, now: SimTime) {
        self.rts = self.needed(cfg, peer, now);
    }

    /// An RTS toward `peer` went unanswered (paper §III step 2: "A
    /// increases its power level by one class until it gets to the
    /// maximal level"). Under PCMAC the rung rises one class, the table
    /// records it for `peer` and `counters` counts the step.
    pub(crate) fn cts_timeout(
        &mut self,
        cfg: &MacConfig,
        peer: NodeId,
        now: SimTime,
        counters: &mut MacCounters,
    ) {
        if !cfg.variant.is_pcmac() {
            return;
        }
        let stepped = cfg.levels.step_up(self.rts);
        if stepped.value() <= self.rts.value() {
            return;
        }
        counters.power_step_ups += 1;
        self.rts = stepped;
        self.entries.insert(
            peer,
            Entry {
                level: stepped,
                updated_at: now,
            },
        );
    }

    /// A PCMAC responder's levels for an RTS heard at `heard`, sent at
    /// `sent`, whose sender advertised `sender_noise` (paper §III step 3):
    /// the CTS clears the noise at the requester, and the DATA it dictates
    /// clears the noise measured here — "P = η_cp · N_B · P_t / S".
    pub(crate) fn respond(
        &self,
        cfg: &MacConfig,
        heard: Milliwatts,
        sent: Milliwatts,
        sender_noise: Option<Milliwatts>,
    ) -> (Milliwatts, Milliwatts) {
        let gain = (heard.value() / sent.value()).max(1e-30);
        let noise_sized = |noise: Milliwatts| {
            let need_rx = cfg
                .rx_thresh
                .value()
                .max(cfg.pcmac.capture_ratio * noise.value());
            cfg.levels.quantize_up_or_max(Milliwatts(need_rx / gain))
        };
        (
            noise_sized(sender_noise.unwrap_or(Milliwatts::ZERO)),
            noise_sized(self.noise),
        )
    }

    /// The radio measured `noise`.
    pub(crate) fn set_noise(&mut self, noise: Milliwatts) {
        self.noise = noise;
    }

    /// The noise an RTS advertises: PCMAC's alone.
    pub(crate) fn advertised_noise(&self, cfg: &MacConfig) -> Option<Milliwatts> {
        cfg.variant.is_pcmac().then_some(self.noise)
    }
}

mod snap {
    use super::{Entry, PowerControl};

    pcmac_snap::snap_struct!(Entry { level, updated_at });

    pcmac_snap::snap_struct!(PowerControl {
        entries,
        rts,
        noise,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_engine::Duration;

    fn cfg() -> MacConfig {
        MacConfig::paper_default(Variant::Scheme2)
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    fn level_for(h: &PowerControl, to: NodeId, now: SimTime) -> Milliwatts {
        h.level(&cfg(), FrameKind::Data, to, now)
    }

    fn observe(
        h: &mut PowerControl,
        from: NodeId,
        heard: Milliwatts,
        sent: Milliwatts,
        now: SimTime,
    ) {
        h.learn(&cfg(), from, heard, sent, now);
    }

    #[test]
    fn unknown_neighbour_gets_max() {
        let h = PowerControl::new(&cfg());
        assert_eq!(level_for(&h, NodeId(9), t(0)), cfg().max_power());
        assert!(h.learned(&cfg(), NodeId(9), t(0)).is_none());
    }

    #[test]
    fn observe_learns_quantized_needed_power() {
        let mut h = PowerControl::new(&cfg());
        // Heard a max-power frame at gain 1e-8: P_rx = 281.83815e-8 mW.
        let p_max = cfg().max_power();
        observe(&mut h, NodeId(2), p_max * 1e-8, p_max, t(0));
        // needed = 3.652e-7 / 1e-8 = 36.52 mW → class 36.6 mW.
        assert_eq!(level_for(&h, NodeId(2), t(0)), Milliwatts(36.6));
    }

    #[test]
    fn close_neighbour_needs_minimum_class() {
        let mut h = PowerControl::new(&cfg());
        let p_max = cfg().max_power();
        // gain 1e-3: needed = 3.652e-4 mW → class 1 mW.
        observe(&mut h, NodeId(2), p_max * 1e-3, p_max, t(0));
        assert_eq!(level_for(&h, NodeId(2), t(0)), Milliwatts(1.0));
    }

    #[test]
    fn entries_expire_after_three_seconds() {
        let mut h = PowerControl::new(&cfg());
        let p_max = cfg().max_power();
        observe(&mut h, NodeId(2), p_max * 1e-3, p_max, t(0));
        assert!(h.learned(&cfg(), NodeId(2), t(2)).is_some());
        assert!(
            h.learned(&cfg(), NodeId(2), t(3)).is_none(),
            "3 s is already expired"
        );
        assert_eq!(level_for(&h, NodeId(2), t(3)), p_max);
    }

    #[test]
    fn fresh_observation_renews_expiry() {
        let mut h = PowerControl::new(&cfg());
        let p_max = cfg().max_power();
        observe(&mut h, NodeId(2), p_max * 1e-3, p_max, t(0));
        observe(&mut h, NodeId(2), p_max * 1e-3, p_max, t(2));
        assert!(h.learned(&cfg(), NodeId(2), t(4)).is_some());
    }

    #[test]
    fn weak_signal_requires_more_power_than_strong() {
        let mut h = PowerControl::new(&cfg());
        let p_max = cfg().max_power();
        observe(&mut h, NodeId(2), p_max * 1e-3, p_max, t(0)); // strong
        observe(&mut h, NodeId(3), p_max * 1e-8, p_max, t(0)); // weak
        assert!(level_for(&h, NodeId(3), t(0)).value() > level_for(&h, NodeId(2), t(0)).value());
    }

    #[test]
    fn power_table_matches_paper_section_iv() {
        use FrameKind::{Ack, Cts, Data, Rts};

        let max = Milliwatts(281.83815);
        let need = Milliwatts(2.0);
        let rung = Milliwatts(7.25);
        let peer = NodeId(2);
        // Every (variant, frame kind) cell: RTS, CTS, DATA, ACK; whether
        // the variant learns levels; whether the PCMAC machinery (control
        // channel, three-way handshake, RTS ladder) is live.
        for (variant, row, learns, pcmac) in [
            (Variant::Basic, [max, max, max, max], false, false),
            (Variant::Scheme1, [max, max, need, need], true, false),
            (Variant::Scheme2, [need, need, need, need], true, false),
            (Variant::Pcmac, [rung, need, need, need], true, true),
        ] {
            let cfg = MacConfig::paper_default(variant);
            let mut h = PowerControl::new(&cfg);
            // A frame heard through a gain that needs 1.5 mW: class 2 mW.
            h.learn(&cfg, peer, max * (cfg.rx_thresh.value() / 1.5), max, t(0));
            assert_eq!(h.learned(&cfg, peer, t(0)).is_some(), learns, "{variant:?}");
            if learns {
                assert_eq!(h.needed(&cfg, peer, t(0)), need, "{variant:?}");
            }
            h.rts = rung;
            for (kind, want) in [Rts, Cts, Data, Ack].into_iter().zip(row) {
                assert_eq!(
                    h.level(&cfg, kind, peer, t(0)),
                    want,
                    "{variant:?} {kind:?}"
                );
            }
            assert_eq!(variant.is_pcmac(), pcmac, "{variant:?}");
            assert_eq!(h.advertised_noise(&cfg).is_some(), pcmac, "{variant:?}");
        }
    }

    #[test]
    fn only_pcmac_climbs_the_ladder() {
        for variant in Variant::ALL {
            let cfg = MacConfig::paper_default(variant);
            let mut h = PowerControl::new(&cfg);
            let mut counters = MacCounters::default();
            h.rts = Milliwatts(75.8);
            let pcmac = variant.is_pcmac();
            h.cts_timeout(&cfg, NodeId(2), t(0), &mut counters);
            assert_eq!(counters.power_step_ups, u64::from(pcmac), "{variant:?}");
            assert_eq!(h.learned(&cfg, NodeId(2), t(0)).is_some(), pcmac);
            if pcmac {
                assert_eq!(h.rts, cfg.max_power());
                h.cts_timeout(&cfg, NodeId(2), t(0), &mut counters);
                assert_eq!(counters.power_step_ups, 1, "stops at the maximum");
            }
        }
    }
}
