//! Per-node radio reception state machine.
//!
//! Each node owns one `Radio` per channel (PCMAC adds a second, the power
//! control channel). The radio tracks **every** transmission arriving at
//! the node — not just decodable ones — because interference is cumulative:
//! several individually-harmless interferers can jointly corrupt a locked
//! frame. This is precisely the failure mode PCMAC's noise-tolerance
//! broadcasts guard against (hence the paper's 0.7 safety factor for
//! "other terminals also wanting to transmit at the same time").
//!
//! ## Reception rules
//!
//! * The radio locks onto an arrival iff it is currently idle (not
//!   transmitting, not already locked) and the arrival's power is at least
//!   the decode threshold `rx_thresh`. There is no re-locking onto a
//!   stronger later frame (matches ns-2).
//! * A locked frame is *corrupted* when its SINR — locked power over noise
//!   floor plus the sum of all other in-air power — drops below the capture
//!   ratio (ns-2's `CPThresh`, 10). Under [`CapturePolicy::Continuous`]
//!   (default) this is evaluated at lock time and whenever a new arrival
//!   starts; under [`CapturePolicy::StartOnly`] the radio reproduces ns-2's
//!   weaker pairwise check (locked/new ≥ ratio) — kept as an ablation.
//! * Transmitting is half-duplex: starting a transmission aborts any
//!   reception in progress, and arrivals during transmission are
//!   interference only.
//! * The channel is *busy* (physical carrier sense) while transmitting,
//!   receiving, or whenever total in-air power reaches the carrier-sense
//!   threshold `cs_thresh`. Busy/idle **edges** are reported as events so
//!   the MAC can freeze and resume backoff.

use pcmac_engine::{Milliwatts, SimTime};
use serde::{Deserialize, Serialize};

/// When the SINR of a locked frame is (re-)evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapturePolicy {
    /// ns-2 compatible: pairwise locked/new power ratio on each new arrival.
    StartOnly,
    /// Cumulative SINR against all concurrent interference (default).
    Continuous,
}

/// Radio configuration. Defaults reproduce ns-2's Lucent WaveLAN card.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RadioConfig {
    /// Minimum power to decode a frame (ns-2 `RXThresh`): 3.652e-10 W.
    pub rx_thresh: Milliwatts,
    /// Minimum power to sense the channel busy (ns-2 `CSThresh`): 1.559e-11 W.
    pub cs_thresh: Milliwatts,
    /// Linear SINR required for successful decode (ns-2 `CPThresh`): 10.
    pub capture_ratio: f64,
    /// Receiver noise floor; well below `cs_thresh` so it never triggers
    /// carrier sense but keeps SINR finite in a quiet channel.
    pub noise_floor: Milliwatts,
    /// SINR evaluation policy.
    pub capture_policy: CapturePolicy,
}

impl RadioConfig {
    /// The ns-2 / paper configuration.
    pub fn ns2_default() -> Self {
        RadioConfig {
            rx_thresh: Milliwatts(3.652e-7),
            cs_thresh: Milliwatts(1.559e-8),
            capture_ratio: 10.0,
            noise_floor: Milliwatts(1.0e-9),
            capture_policy: CapturePolicy::Continuous,
        }
    }
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig::ns2_default()
    }
}

/// Indications from the radio to the MAC.
#[derive(Debug, Clone, PartialEq)]
pub enum RadioEvent<F> {
    /// Physical carrier sense went idle → busy.
    CarrierBusy,
    /// Physical carrier sense went busy → idle.
    CarrierIdle,
    /// The radio locked onto an arriving frame. The frame content is
    /// header-level information; a MAC may only use it for decisions the
    /// real hardware could make from a decoded PLCP/MAC header (e.g.
    /// PCMAC's "I have started receiving DATA addressed to me" broadcast).
    /// Whether the frame survives is only known at [`RadioEvent::RxEnd`].
    RxStart {
        /// Transmission key (matches the later `RxEnd`).
        key: u64,
        /// Received signal power.
        power: Milliwatts,
        /// The arriving frame (clone of the transmitted one).
        frame: F,
    },
    /// A locked frame finished arriving.
    RxEnd {
        /// Transmission key (matches the earlier `RxStart`).
        key: u64,
        /// Received signal power.
        power: Milliwatts,
        /// The frame.
        frame: F,
        /// `true` if decodable (never fell below capture SINR); `false`
        /// means the MAC heard garbage and must defer EIFS.
        ok: bool,
    },
}

/// One transmission currently arriving at this node.
#[derive(Debug, Clone)]
struct Arrival {
    key: u64,
    power: Milliwatts,
    /// Kept for diagnostics; removal is keyed, not time-driven.
    #[allow(dead_code)]
    end: SimTime,
}

#[derive(Debug, Clone)]
enum Lock<F> {
    Idle,
    Rx {
        key: u64,
        power: Milliwatts,
        frame: F,
        corrupted: bool,
    },
    Tx {
        /// When the transmission ends (diagnostics; the MAC drives `end_tx`).
        #[allow(dead_code)]
        until: SimTime,
    },
}

/// The per-node, per-channel radio.
///
/// The arrival list is allocated by the first transmission that reaches
/// the node, so the radio of a station nothing ever reaches — and the
/// control-channel radio outside PCMAC — owns no heap memory.
#[derive(Debug, Clone)]
pub struct Radio<F> {
    cfg: RadioConfig,
    lock: Lock<F>,
    arrivals: Vec<Arrival>,
    /// Sum of the power of all arrivals (including a locked frame).
    total_in_air: Milliwatts,
    /// Last carrier state reported to the MAC.
    reported_busy: bool,
}

impl<F: Clone> Radio<F> {
    /// A fresh idle radio.
    pub fn new(cfg: RadioConfig) -> Self {
        Radio {
            cfg,
            lock: Lock::Idle,
            arrivals: Vec::new(),
            total_in_air: Milliwatts::ZERO,
            reported_busy: false,
        }
    }

    /// The radio's configuration.
    pub fn config(&self) -> &RadioConfig {
        &self.cfg
    }

    /// Replace the receiver noise floor (transient channel impairments).
    ///
    /// Affects SINR and [`Radio::noise_power`] from the next evaluation
    /// on; already-locked frames keep the corruption verdicts reached so
    /// far. The floor stays below any sane carrier-sense threshold, so
    /// no busy/idle edge can result and no event vector is needed.
    pub fn set_noise_floor(&mut self, floor: Milliwatts) {
        debug_assert!(floor.is_valid());
        self.cfg.noise_floor = floor;
    }

    /// `true` while a transmission of ours is on the air.
    pub fn is_transmitting(&self) -> bool {
        matches!(self.lock, Lock::Tx { .. })
    }

    /// `true` while locked onto an arriving frame.
    pub fn is_receiving(&self) -> bool {
        matches!(self.lock, Lock::Rx { .. })
    }

    /// Physical carrier sense: busy while transmitting, receiving, or when
    /// total in-air power reaches the carrier-sense threshold.
    pub fn carrier_busy(&self) -> bool {
        !matches!(self.lock, Lock::Idle) || self.total_in_air.value() >= self.cfg.cs_thresh.value()
    }

    /// Noise-plus-interference observed by this node, excluding the locked
    /// frame's own power. This is the `N_r` of the paper's tolerance
    /// computation.
    pub fn noise_power(&self) -> Milliwatts {
        let locked = match &self.lock {
            Lock::Rx { power, .. } => *power,
            _ => Milliwatts::ZERO,
        };
        (self.cfg.noise_floor + self.total_in_air - locked).clamp_non_negative()
    }

    /// Total in-air power (diagnostics).
    pub fn in_air_power(&self) -> Milliwatts {
        self.total_in_air
    }

    /// A transmission begins arriving at this node.
    ///
    /// `key` must be unique per transmission; `power` is the received (post
    /// path-loss) power; `end` is when the arrival finishes. Indications
    /// are appended to `out`.
    pub fn on_arrival_start(
        &mut self,
        key: u64,
        power: Milliwatts,
        end: SimTime,
        frame: &F,
        out: &mut Vec<RadioEvent<F>>,
    ) {
        debug_assert!(power.is_valid());
        self.arrivals.push(Arrival { key, power, end });
        self.total_in_air += power;
        // Report the busy edge before any RxStart so the MAC already sees
        // the channel as busy when it learns a frame is arriving.
        self.emit_carrier_edge(out);

        match &mut self.lock {
            Lock::Idle => {
                if power.value() >= self.cfg.rx_thresh.value() {
                    // Lock on. Initial SINR check against everything else
                    // already in the air (both policies check at lock).
                    let interference =
                        (self.cfg.noise_floor + self.total_in_air - power).clamp_non_negative();
                    let corrupted = power.ratio(interference) < self.cfg.capture_ratio;
                    self.lock = Lock::Rx {
                        key,
                        power,
                        frame: frame.clone(),
                        corrupted,
                    };
                    out.push(RadioEvent::RxStart {
                        key,
                        power,
                        frame: frame.clone(),
                    });
                }
                // Below rx_thresh: interference / carrier sense only.
            }
            Lock::Rx {
                power: locked_power,
                corrupted,
                ..
            } => {
                // Existing reception: the newcomer can corrupt it.
                let survives = match self.cfg.capture_policy {
                    CapturePolicy::StartOnly => {
                        // ns-2: pairwise capture check against the newcomer.
                        locked_power.ratio(power) >= self.cfg.capture_ratio
                    }
                    CapturePolicy::Continuous => {
                        let interference = (self.cfg.noise_floor + self.total_in_air
                            - *locked_power)
                            .clamp_non_negative();
                        locked_power.ratio(interference) >= self.cfg.capture_ratio
                    }
                };
                if !survives {
                    *corrupted = true;
                }
            }
            Lock::Tx { .. } => {
                // Half-duplex: we cannot hear anything while transmitting.
            }
        }
        // Locking cannot change the busy verdict (a decodable arrival is
        // already above cs_thresh), but keep the edge detector consistent.
        self.emit_carrier_edge(out);
    }

    /// A transmission finishes arriving at this node.
    pub fn on_arrival_end(&mut self, key: u64, out: &mut Vec<RadioEvent<F>>) {
        let Some(idx) = self.arrivals.iter().position(|a| a.key == key) else {
            debug_assert!(false, "arrival end for unknown key {key}");
            return;
        };
        let arrival = self.arrivals.swap_remove(idx);
        self.total_in_air = (self.total_in_air - arrival.power).clamp_non_negative();
        if self.arrivals.is_empty() {
            // Squash float dust so a quiet channel reads exactly zero.
            self.total_in_air = Milliwatts::ZERO;
        }

        if let Lock::Rx {
            key: locked_key,
            power,
            corrupted,
            ..
        } = &self.lock
        {
            if *locked_key == key {
                let (power, ok) = (*power, !*corrupted);
                let Lock::Rx { frame, .. } = std::mem::replace(&mut self.lock, Lock::Idle) else {
                    unreachable!()
                };
                out.push(RadioEvent::RxEnd {
                    key,
                    power,
                    frame,
                    ok,
                });
            }
        }
        self.emit_carrier_edge(out);
    }

    /// Begin transmitting until `until`. Any reception in progress is
    /// aborted (its frame is lost; the arrival remains as interference for
    /// other bookkeeping but can no longer be delivered).
    pub fn start_tx(&mut self, until: SimTime, out: &mut Vec<RadioEvent<F>>) {
        debug_assert!(
            !self.is_transmitting(),
            "start_tx while already transmitting"
        );
        self.lock = Lock::Tx { until };
        self.emit_carrier_edge(out);
    }

    /// Our transmission ended. The radio returns to idle; ongoing arrivals
    /// stay undecodable (we missed their beginnings) but keep contributing
    /// interference and carrier sense.
    pub fn end_tx(&mut self, out: &mut Vec<RadioEvent<F>>) {
        debug_assert!(self.is_transmitting(), "end_tx while not transmitting");
        self.lock = Lock::Idle;
        self.emit_carrier_edge(out);
    }

    fn emit_carrier_edge(&mut self, out: &mut Vec<RadioEvent<F>>) {
        let busy = self.carrier_busy();
        if busy != self.reported_busy {
            self.reported_busy = busy;
            out.push(if busy {
                RadioEvent::CarrierBusy
            } else {
                RadioEvent::CarrierIdle
            });
        }
    }
}

mod snap {
    //! Checkpoint capture of the radio state machine: the lock, every
    //! in-flight arrival, the interference sum, and the carrier edge
    //! detector travel bit-exactly.

    use super::{Arrival, CapturePolicy, Lock, Radio, RadioConfig};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for CapturePolicy {
        fn save(&self, w: &mut SnapWriter) {
            w.u8(match self {
                CapturePolicy::StartOnly => 0,
                CapturePolicy::Continuous => 1,
            });
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(CapturePolicy::StartOnly),
                1 => Ok(CapturePolicy::Continuous),
                _ => Err(SnapError::Corrupt("capture policy tag")),
            }
        }
    }

    pcmac_snap::snap_struct!(RadioConfig {
        rx_thresh,
        cs_thresh,
        capture_ratio,
        noise_floor,
        capture_policy,
    });

    pcmac_snap::snap_struct!(Arrival { key, power, end });

    impl<F: Snap> Snap for Lock<F> {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                Lock::Idle => w.u8(0),
                Lock::Rx {
                    key,
                    power,
                    frame,
                    corrupted,
                } => {
                    w.u8(1);
                    key.save(w);
                    power.save(w);
                    frame.save(w);
                    corrupted.save(w);
                }
                Lock::Tx { until } => {
                    w.u8(2);
                    until.save(w);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(Lock::Idle),
                1 => Ok(Lock::Rx {
                    key: Snap::load(r)?,
                    power: Snap::load(r)?,
                    frame: Snap::load(r)?,
                    corrupted: Snap::load(r)?,
                }),
                2 => Ok(Lock::Tx {
                    until: Snap::load(r)?,
                }),
                _ => Err(SnapError::Corrupt("radio lock tag")),
            }
        }
    }

    impl<F: Snap> Snap for Radio<F> {
        fn save(&self, w: &mut SnapWriter) {
            self.cfg.save(w);
            self.lock.save(w);
            self.arrivals.save(w);
            self.total_in_air.save(w);
            self.reported_busy.save(w);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Radio {
                cfg: Snap::load(r)?,
                lock: Snap::load(r)?,
                arrivals: Snap::load(r)?,
                total_in_air: Snap::load(r)?,
                reported_busy: Snap::load(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_engine::Duration;

    fn radio() -> Radio<&'static str> {
        Radio::new(RadioConfig::ns2_default())
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Duration::from_micros(us)
    }

    const STRONG: Milliwatts = Milliwatts(1e-3); // comfortably decodable
    const MID: Milliwatts = Milliwatts(1e-5); // decodable
    const SENSE_ONLY: Milliwatts = Milliwatts(1e-7); // below rx, above cs
    const FAINT: Milliwatts = Milliwatts(1e-9); // below cs

    #[test]
    fn arrival_list_is_allocated_by_the_first_arrival() {
        let mut r = radio();
        assert_eq!(r.arrivals.capacity(), 0);
        r.on_arrival_start(1, FAINT, t(100), &"x", &mut Vec::new());
        assert!(r.arrivals.capacity() >= 1);
    }

    #[test]
    fn clean_reception_delivers_ok() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, STRONG, t(100), &"hello", &mut out);
        assert!(matches!(out[0], RadioEvent::CarrierBusy));
        assert!(matches!(
            out[1],
            RadioEvent::RxStart {
                key: 1,
                frame: "hello",
                ..
            }
        ));
        out.clear();
        r.on_arrival_end(1, &mut out);
        assert!(matches!(
            out[0],
            RadioEvent::RxEnd {
                key: 1,
                frame: "hello",
                ok: true,
                ..
            }
        ));
        assert!(matches!(out[1], RadioEvent::CarrierIdle));
        assert!(!r.carrier_busy());
    }

    #[test]
    fn carrier_edge_order_is_busy_before_rxstart() {
        // The MAC must already consider the channel busy when it learns a
        // frame is arriving.
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, STRONG, t(100), &"x", &mut out);
        assert!(matches!(out[0], RadioEvent::CarrierBusy));
    }

    #[test]
    fn sense_only_arrival_sets_busy_but_no_rx() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, SENSE_ONLY, t(100), &"x", &mut out);
        assert_eq!(out, vec![RadioEvent::CarrierBusy]);
        assert!(!r.is_receiving());
        out.clear();
        r.on_arrival_end(1, &mut out);
        assert_eq!(out, vec![RadioEvent::CarrierIdle]);
    }

    #[test]
    fn faint_arrival_is_invisible_to_carrier_sense() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, FAINT, t(100), &"x", &mut out);
        assert!(out.is_empty());
        assert!(!r.carrier_busy());
        // ... but it does raise the measured noise.
        assert!(r.noise_power().value() > r.config().noise_floor.value());
    }

    #[test]
    fn comparable_overlap_corrupts_locked_frame() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, MID, t(100), &"victim", &mut out);
        // Same power: SINR ≈ 1 < 10 → collision.
        r.on_arrival_start(2, MID, t(120), &"interferer", &mut out);
        out.clear();
        r.on_arrival_end(1, &mut out);
        assert!(
            matches!(out[0], RadioEvent::RxEnd { ok: false, .. }),
            "locked frame must be corrupted: {out:?}"
        );
    }

    #[test]
    fn strong_frame_captures_over_weak_interferer() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, STRONG, t(100), &"victim", &mut out);
        // 100× weaker: SINR 100 ≥ 10 → capture, reception survives.
        r.on_arrival_start(2, MID, t(120), &"interferer", &mut out);
        out.clear();
        r.on_arrival_end(1, &mut out);
        assert!(matches!(out[0], RadioEvent::RxEnd { ok: true, .. }));
    }

    #[test]
    fn no_relock_onto_stronger_later_frame() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, MID, t(100), &"first", &mut out);
        out.clear();
        r.on_arrival_start(2, STRONG, t(120), &"second", &mut out);
        // No RxStart for the stronger frame; the first is corrupted.
        assert!(out.iter().all(|e| !matches!(e, RadioEvent::RxStart { .. })));
        out.clear();
        r.on_arrival_end(2, &mut out);
        assert!(out.is_empty(), "interferer end is silent: {out:?}");
        r.on_arrival_end(1, &mut out);
        assert!(matches!(out[0], RadioEvent::RxEnd { ok: false, .. }));
    }

    #[test]
    fn cumulative_interference_corrupts_under_continuous_policy() {
        // One interferer at 1/12 the power keeps SINR = 12 ≥ 10 (fine), but
        // two of them push SINR to 6 < 10 → corrupted. StartOnly's pairwise
        // check (12 ≥ 10 each) misses this.
        let victim = Milliwatts(1.2e-4);
        let interferer = Milliwatts(1e-5);

        let mut cont = Radio::new(RadioConfig::ns2_default());
        let mut out = Vec::new();
        cont.on_arrival_start(1, victim, t(100), &"v", &mut out);
        cont.on_arrival_start(2, interferer, t(100), &"i1", &mut out);
        cont.on_arrival_start(3, interferer, t(100), &"i2", &mut out);
        out.clear();
        cont.on_arrival_end(1, &mut out);
        assert!(matches!(out[0], RadioEvent::RxEnd { ok: false, .. }));

        let mut start_only = Radio::new(RadioConfig {
            capture_policy: CapturePolicy::StartOnly,
            ..RadioConfig::ns2_default()
        });
        let mut out = Vec::new();
        start_only.on_arrival_start(1, victim, t(100), &"v", &mut out);
        start_only.on_arrival_start(2, interferer, t(100), &"i1", &mut out);
        start_only.on_arrival_start(3, interferer, t(100), &"i2", &mut out);
        out.clear();
        start_only.on_arrival_end(1, &mut out);
        assert!(
            matches!(out[0], RadioEvent::RxEnd { ok: true, .. }),
            "StartOnly's pairwise check must miss cumulative interference"
        );
    }

    #[test]
    fn tx_aborts_reception_and_blocks_hearing() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, STRONG, t(100), &"doomed", &mut out);
        out.clear();
        r.start_tx(t(50), &mut out);
        assert!(r.is_transmitting());
        // Frame arriving during our TX is never locked.
        r.on_arrival_start(2, STRONG, t(80), &"unheard", &mut out);
        assert!(out.iter().all(|e| !matches!(e, RadioEvent::RxStart { .. })));
        out.clear();
        // The aborted frame's end produces no RxEnd.
        r.on_arrival_end(1, &mut out);
        assert!(out.iter().all(|e| !matches!(e, RadioEvent::RxEnd { .. })));
        r.end_tx(&mut out);
        r.on_arrival_end(2, &mut out);
        assert!(!r.carrier_busy());
    }

    #[test]
    fn missed_beginning_means_no_decode_after_tx() {
        let mut r = radio();
        let mut out = Vec::new();
        r.start_tx(t(50), &mut out);
        r.on_arrival_start(1, STRONG, t(200), &"partial", &mut out);
        out.clear();
        r.end_tx(&mut out);
        // Still busy: the partial arrival is in the air above CSThresh.
        assert!(r.carrier_busy());
        assert!(!r.is_receiving());
        r.on_arrival_end(1, &mut out);
        assert!(out.iter().all(|e| !matches!(e, RadioEvent::RxEnd { .. })));
    }

    #[test]
    fn noise_power_excludes_locked_frame() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, STRONG, t(100), &"locked", &mut out);
        let quiet_noise = r.noise_power();
        assert!((quiet_noise.value() - r.config().noise_floor.value()).abs() < 1e-15);
        r.on_arrival_start(2, MID, t(100), &"intf", &mut out);
        let loud_noise = r.noise_power();
        assert!((loud_noise.value() - (r.config().noise_floor + MID).value()).abs() < 1e-12);
    }

    #[test]
    fn busy_until_last_arrival_ends() {
        let mut r = radio();
        let mut out = Vec::new();
        r.on_arrival_start(1, SENSE_ONLY, t(100), &"a", &mut out);
        r.on_arrival_start(2, SENSE_ONLY, t(200), &"b", &mut out);
        out.clear();
        r.on_arrival_end(1, &mut out);
        assert!(out.is_empty(), "still busy from arrival 2");
        r.on_arrival_end(2, &mut out);
        assert_eq!(out, vec![RadioEvent::CarrierIdle]);
    }

    #[test]
    fn in_air_power_returns_to_zero() {
        let mut r = radio();
        let mut out = Vec::new();
        for k in 0..10 {
            r.on_arrival_start(k, MID, t(100), &"x", &mut out);
        }
        for k in 0..10 {
            r.on_arrival_end(k, &mut out);
        }
        assert_eq!(r.in_air_power(), Milliwatts::ZERO);
    }
}
