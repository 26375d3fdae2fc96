//! IEEE 802.11 DSSS timing.
//!
//! All interframe spaces, slot times and frame airtimes for the 2 Mbps
//! DSSS PHY that ns-2 (and therefore the paper) models: long PLCP preamble
//! and header at 1 Mbps (192 µs), control frames at the 1 Mbps basic rate,
//! data at 2 Mbps.
//!
//! `EIFS = SIFS + DIFS + airtime(ACK at basic rate)` — the defer used by
//! stations that sensed a frame they could not decode, sized so a third
//! party cannot stomp on the ACK of an exchange it could not hear properly
//! (this is the mechanism the asymmetric-link problem defeats, see paper
//! §II).

use pcmac_engine::Duration;
use serde::Serialize;

use crate::frame::{ACK_BYTES, CTS_BYTES, RTS_BYTES};

/// Timing and rate parameters of the 802.11 DSSS PHY/MAC.
#[derive(Debug, Clone, Serialize)]
pub struct Dot11Timing {
    /// Slot time (µs 20).
    pub slot: Duration,
    /// Short interframe space (µs 10).
    pub sifs: Duration,
    /// PLCP preamble + header airtime (192 µs at 1 Mbps, long preamble).
    pub plcp: Duration,
    /// Basic rate for control frames and broadcasts (bit/s).
    pub basic_rate: u64,
    /// Data rate for unicast data frames (bit/s).
    pub data_rate: u64,
    /// Minimum contention window (slots − 1): 31.
    pub cw_min: u32,
    /// Maximum contention window: 1023.
    pub cw_max: u32,
    /// Short retry limit (RTS attempts): 7.
    pub retry_short: u8,
    /// Long retry limit (DATA attempts): 4.
    pub retry_long: u8,
}

impl Dot11Timing {
    /// The ns2.1b8a / Lucent WaveLAN parameter set used in the paper.
    pub fn ns2_default() -> Self {
        Dot11Timing {
            slot: Duration::from_micros(20),
            sifs: Duration::from_micros(10),
            plcp: Duration::from_micros(192),
            basic_rate: 1_000_000,
            data_rate: 2_000_000,
            cw_min: 31,
            cw_max: 1023,
            retry_short: 7,
            retry_long: 4,
        }
    }

    /// DIFS = SIFS + 2 × slot (50 µs with defaults).
    #[inline]
    pub fn difs(&self) -> Duration {
        self.sifs + self.slot * 2
    }

    /// EIFS = SIFS + DIFS + ACK airtime at the basic rate (364 µs with
    /// defaults).
    #[inline]
    pub fn eifs(&self) -> Duration {
        self.sifs + self.difs() + self.airtime_basic(ACK_BYTES)
    }

    /// Airtime of `bytes` at the basic rate, including PLCP overhead.
    #[inline]
    pub fn airtime_basic(&self, bytes: u32) -> Duration {
        self.plcp + Self::payload_time(bytes, self.basic_rate)
    }

    /// Airtime of `bytes` at the data rate, including PLCP overhead.
    #[inline]
    pub fn airtime_data(&self, bytes: u32) -> Duration {
        self.plcp + Self::payload_time(bytes, self.data_rate)
    }

    fn payload_time(bytes: u32, rate_bps: u64) -> Duration {
        let bits = bytes as u64 * 8;
        // ns resolution: bits * 1e9 / rate. 540-byte frames at 2 Mbps are
        // ~2.2e6 ns, far from overflow.
        Duration::from_nanos(bits * 1_000_000_000 / rate_bps)
    }

    /// RTS airtime (352 µs with defaults).
    #[inline]
    pub fn rts_time(&self) -> Duration {
        self.airtime_basic(RTS_BYTES)
    }

    /// CTS airtime (304 µs with defaults).
    #[inline]
    pub fn cts_time(&self) -> Duration {
        self.airtime_basic(CTS_BYTES)
    }

    /// ACK airtime (304 µs with defaults).
    #[inline]
    pub fn ack_time(&self) -> Duration {
        self.airtime_basic(ACK_BYTES)
    }

    /// How long the sender waits for a CTS after its RTS ends before
    /// declaring the attempt failed: SIFS + CTS airtime + 2 slots of grace
    /// (propagation and turnaround).
    #[inline]
    pub fn cts_timeout(&self) -> Duration {
        self.sifs + self.cts_time() + self.slot * 2
    }

    /// ACK wait after a DATA frame ends, sized like
    /// [`Dot11Timing::cts_timeout`].
    #[inline]
    pub fn ack_timeout(&self) -> Duration {
        self.sifs + self.ack_time() + self.slot * 2
    }

    /// On-air time of a full frame: control frames and broadcasts ride the
    /// basic rate, unicast data the data rate (ns-2's convention).
    pub fn frame_airtime(&self, frame: &crate::frame::Frame) -> Duration {
        use crate::frame::FrameKind;
        match frame.kind {
            FrameKind::Rts | FrameKind::Cts | FrameKind::Ack => {
                self.airtime_basic(frame.size_bytes())
            }
            FrameKind::Data => {
                if frame.is_broadcast() {
                    self.airtime_basic(frame.size_bytes())
                } else {
                    self.airtime_data(frame.size_bytes())
                }
            }
        }
    }
}

impl Default for Dot11Timing {
    fn default() -> Self {
        Dot11Timing::ns2_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ifs_values() {
        let t = Dot11Timing::ns2_default();
        assert_eq!(t.difs(), Duration::from_micros(50));
        // EIFS = 10 + 50 + (192 + 112) = 364 µs
        assert_eq!(t.eifs(), Duration::from_micros(364));
    }

    #[test]
    fn control_frame_airtimes() {
        let t = Dot11Timing::ns2_default();
        assert_eq!(t.rts_time(), Duration::from_micros(192 + 160));
        assert_eq!(t.cts_time(), Duration::from_micros(192 + 112));
        assert_eq!(t.ack_time(), Duration::from_micros(192 + 112));
    }

    #[test]
    fn paper_data_frame_airtime() {
        let t = Dot11Timing::ns2_default();
        // 512 B payload + 28 B UDP/IP + 28 B MAC = 568 B at 2 Mbps.
        let data = t.airtime_data(568);
        assert_eq!(data, Duration::from_micros(192 + 568 * 4));
    }

    #[test]
    fn airtime_scales_linearly_with_size() {
        let t = Dot11Timing::ns2_default();
        let a = t.airtime_data(100);
        let b = t.airtime_data(200);
        assert_eq!(
            (b - t.plcp).as_nanos(),
            2 * (a - t.plcp).as_nanos(),
            "payload time must be linear in bytes"
        );
    }

    #[test]
    fn timeouts_cover_response_airtime() {
        let t = Dot11Timing::ns2_default();
        assert!(t.cts_timeout() > t.sifs + t.cts_time());
        assert!(t.ack_timeout() > t.sifs + t.ack_time());
    }

    #[test]
    fn eifs_exceeds_ack_airtime() {
        // The whole point of EIFS: it must outlast SIFS + ACK so the
        // un-decoding bystander cannot clobber the ACK.
        let t = Dot11Timing::ns2_default();
        assert!(t.eifs() > t.sifs + t.ack_time());
    }
}
