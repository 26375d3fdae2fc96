//! MAC configuration: the four protocol variants of the evaluation.

use pcmac_engine::{Duration, Milliwatts};
use pcmac_phy::PowerLevels;
use serde::{Deserialize, Serialize};

use crate::timing::Dot11Timing;

/// Which of the paper's four MAC protocols a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Unmodified IEEE 802.11: all frames at maximum power, four-way
    /// handshake.
    Basic,
    /// "Scheme 1": RTS/CTS at maximum power, DATA/ACK at the needed level.
    Scheme1,
    /// "Scheme 2": every unicast frame at the needed level.
    Scheme2,
    /// The paper's contribution: Scheme 2's power discipline plus the
    /// power-control channel and the three-way data handshake.
    Pcmac,
}

impl Variant {
    /// All four, in the paper's presentation order.
    pub const ALL: [Variant; 4] = [
        Variant::Basic,
        Variant::Pcmac,
        Variant::Scheme1,
        Variant::Scheme2,
    ];

    /// `true` for PCMAC's control channel + three-way handshake machinery.
    pub fn is_pcmac(self) -> bool {
        matches!(self, Variant::Pcmac)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Basic => "Basic 802.11",
            Variant::Scheme1 => "Scheme 1",
            Variant::Scheme2 => "Scheme 2",
            Variant::Pcmac => "PCMAC",
        }
    }
}

/// PCMAC-specific parameters (paper §III).
#[derive(Debug, Clone, Serialize)]
pub struct PcmacParams {
    /// The redundancy coefficient on the advertised tolerance (0.7).
    pub safety_factor: f64,
    /// Capture threshold η_cp used in the tolerance computation (10).
    pub capture_ratio: f64,
    /// Power-control channel bandwidth (500 kbps).
    pub ctrl_rate_bps: u64,
    /// Power history entry lifetime (3 s).
    pub history_expiry: Duration,
    /// Cap on implicit-ack retransmissions of one stored packet.
    pub max_retx: u8,
    /// Ablation: keep the four-way handshake (ACKs) even under PCMAC,
    /// isolating the contribution of the three-way handshake. The paper's
    /// protocol sets this `false`.
    pub four_way_handshake: bool,
}

impl Default for PcmacParams {
    fn default() -> Self {
        PcmacParams {
            safety_factor: 0.7,
            capture_ratio: 10.0,
            ctrl_rate_bps: 500_000,
            history_expiry: Duration::from_secs(3),
            max_retx: 4,
            four_way_handshake: false,
        }
    }
}

/// Full MAC configuration for one node.
#[derive(Debug, Clone, Serialize)]
pub struct MacConfig {
    /// Protocol variant.
    pub variant: Variant,
    /// 802.11 timing parameters.
    pub timing: Dot11Timing,
    /// Discrete transmit power classes.
    pub levels: PowerLevels,
    /// Decode threshold of the radio (needed-power computations).
    pub rx_thresh: Milliwatts,
    /// Interface queue capacity (ns-2: 50).
    pub queue_capacity: usize,
    /// dot11RTSThreshold: unicast frames whose on-air size is at most
    /// this many bytes skip the RTS/CTS exchange and go straight to
    /// DATA(+ACK). `0` (the paper's and ns-2's setting) forces RTS for
    /// everything. PCMAC data frames always use RTS — the CTS carries the
    /// implicit acknowledgment the three-way handshake depends on.
    pub rts_threshold: u32,
    /// PCMAC parameters (ignored by other variants).
    pub pcmac: PcmacParams,
}

impl MacConfig {
    /// The paper's configuration for a given variant.
    pub fn paper_default(variant: Variant) -> Self {
        MacConfig {
            variant,
            timing: Dot11Timing::ns2_default(),
            levels: PowerLevels::paper_defaults(),
            rx_thresh: Milliwatts(3.652e-7),
            queue_capacity: 50,
            rts_threshold: 0,
            pcmac: PcmacParams::default(),
        }
    }

    /// Maximum ("normal") power level.
    pub fn max_power(&self) -> Milliwatts {
        self.levels.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iv() {
        let c = MacConfig::paper_default(Variant::Pcmac);
        assert_eq!(c.queue_capacity, 50);
        assert_eq!(c.pcmac.ctrl_rate_bps, 500_000);
        assert!((c.pcmac.safety_factor - 0.7).abs() < 1e-12);
        assert_eq!(c.pcmac.history_expiry, Duration::from_secs(3));
        assert!((c.max_power().value() - 281.83815).abs() < 1e-9);
    }
}
