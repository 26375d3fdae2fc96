//! Per-node, per-channel reception state.
//!
//! Every station keeps one [`RxRow`] per channel (PCMAC adds a second, the
//! power control channel). The row accounts for **every** transmission
//! arriving at the node — not just decodable ones — because interference
//! is cumulative: several individually-harmless interferers can jointly
//! corrupt a locked frame. This is precisely the failure mode PCMAC's
//! noise-tolerance broadcasts guard against (hence the paper's 0.7 safety
//! factor for "other terminals also wanting to transmit at the same
//! time").
//!
//! ## Reception rules
//!
//! * A station locks onto an arrival iff it is currently idle (not
//!   transmitting, not already locked) and the arrival's power is at least
//!   the decode threshold `rx_thresh`. There is no re-locking onto a
//!   stronger later frame (matches ns-2).
//! * A locked frame is *corrupted* when its SINR — locked power over noise
//!   floor plus the sum of all other in-air power — drops below the capture
//!   ratio (ns-2's `CPThresh`, 10). Under [`CapturePolicy::Continuous`]
//!   (default) this is evaluated at lock time and whenever a new arrival
//!   starts; under [`CapturePolicy::StartOnly`] the row reproduces ns-2's
//!   weaker pairwise check (locked/new ≥ ratio) — kept as an ablation.
//! * Transmitting is half-duplex: starting a transmission aborts any
//!   reception in progress, and arrivals during transmission are
//!   interference only.
//! * The channel is *busy* (physical carrier sense) while transmitting,
//!   receiving, or whenever total in-air power reaches the carrier-sense
//!   threshold `cs_thresh`. Busy/idle **edges** are indicated so the MAC
//!   can freeze and resume backoff.
//!
//! ## The row, and why an arrival's end carries its power
//!
//! The rules live once, on [`RxRow`]: 32 bytes of plain data — the in-air
//! power sum, how many arrivals make it up, the locked frame's key and
//! power, the mode, the corruption verdict, the last carrier state
//! indicated — with the thresholds passed in by reference, so a simulator
//! holds one [`RadioConfig`] and one row per station in a flat array, and
//! an arrival that decodes nothing is arithmetic on one cache line. The
//! row keeps **no list** of what is on the air: whoever ends an arrival
//! hands back the power it started with (a transmission's receiver list
//! already holds it), the row subtracts it, and the count says when the
//! sum must read exactly zero again. What a row operation means for the
//! MAC comes back as a [`Heard`] flag set; the frame a locked row is
//! decoding is the caller's to hold.
//!
//! [`Radio`] is a self-contained adapter over one row for callers that
//! end an arrival by key alone and want [`RadioEvent`]s: it owns the
//! configuration, the row, the `(key, power)` pairs on the air and the
//! locked frame, and contains no reception arithmetic of its own.

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
#[derive(Debug, Clone, Serialize)]
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

/// What a station is doing on one channel (half-duplex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    #[default]
    Idle,
    /// Locked onto an arriving frame.
    Rx,
    /// A transmission of ours is on the air.
    Tx,
}

/// What one [`RxRow`] operation indicates to the MAC, in delivery order:
/// a carrier edge *before* the reception indication, the reception
/// indication itself (a lock-on, or a locked frame's end), a carrier edge
/// *after* it. An operation flips carrier sense at most once, so the
/// direction of either edge is [`RxRow::reported_busy`] right after the
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Heard(u8);

impl Heard {
    const EDGE_BEFORE: u8 = 1;
    const RX_START: u8 = 1 << 1;
    const RX_END: u8 = 1 << 2;
    const RX_OK: u8 = 1 << 3;
    const EDGE_AFTER: u8 = 1 << 4;
    const EDGES: u8 = Heard::EDGE_BEFORE | Heard::EDGE_AFTER;

    /// Nothing to indicate: the operation only moved the interference sum.
    #[inline]
    pub fn is_silent(self) -> bool {
        self.0 == 0
    }

    /// A carrier edge and nothing else.
    #[inline]
    pub fn edge_only(self) -> bool {
        self.0 != 0 && self.0 & !Heard::EDGES == 0
    }

    /// Carrier sense flipped before the reception indication — the busy
    /// edge the MAC must see before it learns a frame is arriving.
    #[inline]
    pub fn edge_before(self) -> bool {
        self.0 & Heard::EDGE_BEFORE != 0
    }

    /// The row locked onto the arrival that just started.
    #[inline]
    pub fn rx_start(self) -> bool {
        self.0 & Heard::RX_START != 0
    }

    /// The locked frame finished arriving: `Some(true)` if it never fell
    /// below the capture SINR, `Some(false)` if the MAC heard garbage.
    #[inline]
    pub fn rx_end(self) -> Option<bool> {
        (self.0 & Heard::RX_END != 0).then_some(self.0 & Heard::RX_OK != 0)
    }

    /// Carrier sense flipped after the reception indication.
    #[inline]
    pub fn edge_after(self) -> bool {
        self.0 & Heard::EDGE_AFTER != 0
    }
}

/// The receive side of one station on one channel: the reception rules of
/// the module docs over 32 bytes of plain data. Thresholds and the noise
/// floor come in with every call, so any number of rows share one
/// [`RadioConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RxRow {
    /// Sum of the power of all arrivals on the air (a locked frame's
    /// included).
    in_air: Milliwatts,
    /// Power and key of the locked frame (zero unless locked).
    locked_power: Milliwatts,
    locked_key: u64,
    /// How many arrivals `in_air` sums.
    on_air: u32,
    mode: Mode,
    /// The locked frame's SINR has been below the capture ratio.
    corrupted: bool,
    /// Last carrier state indicated.
    reported_busy: bool,
}

impl RxRow {
    /// `true` while a transmission of ours is on the air.
    #[inline]
    pub fn is_transmitting(&self) -> bool {
        self.mode == Mode::Tx
    }

    /// `true` while locked onto an arriving frame.
    #[inline]
    pub fn is_receiving(&self) -> bool {
        self.mode == Mode::Rx
    }

    /// Physical carrier sense: busy while transmitting, receiving, or when
    /// total in-air power reaches the carrier-sense threshold.
    #[inline]
    pub fn carrier_busy(&self, cfg: &RadioConfig) -> bool {
        self.mode != Mode::Idle || self.in_air.value() >= cfg.cs_thresh.value()
    }

    /// The carrier state last indicated — after an operation that
    /// indicated an edge, that edge's direction.
    #[inline]
    pub fn reported_busy(&self) -> bool {
        self.reported_busy
    }

    /// Noise-plus-interference observed by this station, excluding the
    /// locked frame's own power. This is the `N_r` of the paper's
    /// tolerance computation.
    #[inline]
    pub fn noise_power(&self, cfg: &RadioConfig) -> Milliwatts {
        (cfg.noise_floor + self.in_air - self.locked_power).clamp_non_negative()
    }

    /// Total in-air power (diagnostics).
    #[inline]
    pub fn in_air_power(&self) -> Milliwatts {
        self.in_air
    }

    /// Arrivals on the air: started here and not yet ended.
    #[inline]
    pub fn on_air(&self) -> u32 {
        self.on_air
    }

    /// A transmission begins arriving at `power` (received, post
    /// path-loss). `key` must be unique per transmission; the matching
    /// [`RxRow::arrival_end`] must hand the same `power` back.
    #[inline]
    pub fn arrival_start(&mut self, cfg: &RadioConfig, key: u64, power: Milliwatts) -> Heard {
        debug_assert!(power.is_valid());
        self.on_air += 1;
        self.in_air += power;
        // Indicate the busy edge before any lock-on so the MAC already
        // sees the channel as busy when it learns a frame is arriving.
        let mut heard = self.carrier_edge(cfg, Heard::EDGE_BEFORE);
        match self.mode {
            Mode::Idle => {
                if power.value() >= cfg.rx_thresh.value() {
                    // Lock on. Initial SINR check against everything else
                    // already in the air (both policies check at lock).
                    let interference = (cfg.noise_floor + self.in_air - power).clamp_non_negative();
                    self.mode = Mode::Rx;
                    self.locked_key = key;
                    self.locked_power = power;
                    self.corrupted = power.ratio(interference) < cfg.capture_ratio;
                    heard |= Heard::RX_START;
                }
                // Below rx_thresh: interference / carrier sense only.
            }
            Mode::Rx => {
                // Existing reception: the newcomer can corrupt it.
                let survives = match cfg.capture_policy {
                    // ns-2: pairwise capture check against the newcomer.
                    CapturePolicy::StartOnly => self.locked_power.ratio(power) >= cfg.capture_ratio,
                    CapturePolicy::Continuous => {
                        self.locked_power.ratio(self.noise_power(cfg)) >= cfg.capture_ratio
                    }
                };
                if !survives {
                    self.corrupted = true;
                }
            }
            // Half-duplex: we cannot hear anything while transmitting.
            Mode::Tx => {}
        }
        // A decodable arrival is above cs_thresh in every sane
        // configuration, so locking cannot flip carrier sense — but with
        // rx_thresh below cs_thresh it does, and this is that edge.
        Heard(heard | self.carrier_edge(cfg, Heard::EDGE_AFTER))
    }

    /// The arrival keyed `key`, which started at `power`, finished.
    ///
    /// # Panics
    /// If nothing is on the air: an end without its start would leave a
    /// stale power in the interference sum of every later reception.
    #[inline]
    pub fn arrival_end(&mut self, cfg: &RadioConfig, key: u64, power: Milliwatts) -> Heard {
        assert!(
            self.on_air > 0,
            "arrival end for key {key:#x} with nothing on the air"
        );
        self.on_air -= 1;
        self.in_air = if self.on_air == 0 {
            // Squash float dust so a quiet channel reads exactly zero.
            Milliwatts::ZERO
        } else {
            (self.in_air - power).clamp_non_negative()
        };
        let mut heard = 0;
        if self.mode == Mode::Rx && self.locked_key == key {
            debug_assert_eq!(
                self.locked_power, power,
                "the locked arrival ends at the power it started with"
            );
            heard = Heard::RX_END | if self.corrupted { 0 } else { Heard::RX_OK };
            self.leave_rx(Mode::Idle);
        }
        Heard(heard | self.carrier_edge(cfg, Heard::EDGE_AFTER))
    }

    /// Begin transmitting. Any reception in progress is aborted (its
    /// frame is lost; the arrival remains as interference but can no
    /// longer be delivered).
    #[inline]
    pub fn start_tx(&mut self, cfg: &RadioConfig) -> Heard {
        debug_assert!(
            !self.is_transmitting(),
            "start_tx while already transmitting"
        );
        self.leave_rx(Mode::Tx);
        Heard(self.carrier_edge(cfg, Heard::EDGE_AFTER))
    }

    /// Our transmission ended. The station returns to idle; ongoing
    /// arrivals stay undecodable (we missed their beginnings) but keep
    /// contributing interference and carrier sense.
    #[inline]
    pub fn end_tx(&mut self, cfg: &RadioConfig) -> Heard {
        debug_assert!(self.is_transmitting(), "end_tx while not transmitting");
        self.mode = Mode::Idle;
        Heard(self.carrier_edge(cfg, Heard::EDGE_AFTER))
    }

    /// Switch to `mode`, forgetting any locked frame.
    #[inline]
    fn leave_rx(&mut self, mode: Mode) {
        self.mode = mode;
        self.locked_key = 0;
        self.locked_power = Milliwatts::ZERO;
        self.corrupted = false;
    }

    /// `flag` if carrier sense differs from what was last indicated (and
    /// now it is indicated), 0 otherwise.
    #[inline]
    fn carrier_edge(&mut self, cfg: &RadioConfig, flag: u8) -> u8 {
        let busy = self.carrier_busy(cfg);
        if busy == self.reported_busy {
            return 0;
        }
        self.reported_busy = busy;
        flag
    }
}

/// Indications from a [`Radio`] to the MAC.
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

/// One station's radio on one channel as a self-contained object: an
/// [`RxRow`] with its configuration, the frame it is locked onto and the
/// `(key, power)` of everything on the air, so an arrival ends by key
/// alone and indications come out as [`RadioEvent`]s. Every reception
/// decision is the row's.
#[derive(Debug, Clone)]
pub struct Radio<F> {
    cfg: RadioConfig,
    row: RxRow,
    /// What the row is summing, so an end can hand its power back.
    on_air: Vec<(u64, Milliwatts)>,
    /// The frame the row is locked onto.
    locked: Option<F>,
}

impl<F: Clone> Radio<F> {
    /// A fresh idle radio.
    pub fn new(cfg: RadioConfig) -> Self {
        Radio {
            cfg,
            row: RxRow::default(),
            on_air: Vec::new(),
            locked: None,
        }
    }

    /// The radio's configuration.
    pub fn config(&self) -> &RadioConfig {
        &self.cfg
    }

    /// `true` while a transmission of ours is on the air.
    pub fn is_transmitting(&self) -> bool {
        self.row.is_transmitting()
    }

    /// `true` while locked onto an arriving frame.
    pub fn is_receiving(&self) -> bool {
        self.row.is_receiving()
    }

    /// Physical carrier sense ([`RxRow::carrier_busy`]).
    pub fn carrier_busy(&self) -> bool {
        self.row.carrier_busy(&self.cfg)
    }

    /// Noise-plus-interference excluding the locked frame
    /// ([`RxRow::noise_power`]).
    pub fn noise_power(&self) -> Milliwatts {
        self.row.noise_power(&self.cfg)
    }

    /// Total in-air power (diagnostics).
    pub fn in_air_power(&self) -> Milliwatts {
        self.row.in_air_power()
    }

    /// A transmission begins arriving at this node.
    ///
    /// `key` must be unique per transmission; `power` is the received (post
    /// path-loss) power; `end` is when the arrival finishes (unused: ends
    /// are keyed, not time-driven). Indications are appended to `out`.
    pub fn on_arrival_start(
        &mut self,
        key: u64,
        power: Milliwatts,
        _end: SimTime,
        frame: &F,
        out: &mut Vec<RadioEvent<F>>,
    ) {
        let heard = self.row.arrival_start(&self.cfg, key, power);
        self.on_air.push((key, power));
        if heard.edge_before() {
            out.push(self.carrier_event());
        }
        if heard.rx_start() {
            self.locked = Some(frame.clone());
            out.push(RadioEvent::RxStart {
                key,
                power,
                frame: frame.clone(),
            });
        }
        if heard.edge_after() {
            out.push(self.carrier_event());
        }
    }

    /// A transmission finishes arriving at this node.
    ///
    /// # Panics
    /// If no arrival keyed `key` is on the air.
    pub fn on_arrival_end(&mut self, key: u64, out: &mut Vec<RadioEvent<F>>) {
        let idx = self
            .on_air
            .iter()
            .position(|&(k, _)| k == key)
            .unwrap_or_else(|| panic!("arrival end for unknown key {key}"));
        let (_, power) = self.on_air.swap_remove(idx);
        let heard = self.row.arrival_end(&self.cfg, key, power);
        if let Some(ok) = heard.rx_end() {
            let frame = self.locked.take().expect("a locked row's frame is held");
            out.push(RadioEvent::RxEnd {
                key,
                power,
                frame,
                ok,
            });
        }
        if heard.edge_after() {
            out.push(self.carrier_event());
        }
    }

    /// Begin transmitting (until `until`, which only the caller tracks).
    /// Any reception in progress is aborted.
    pub fn start_tx(&mut self, _until: SimTime, out: &mut Vec<RadioEvent<F>>) {
        self.locked = None;
        if self.row.start_tx(&self.cfg).edge_after() {
            out.push(self.carrier_event());
        }
    }

    /// Our transmission ended.
    pub fn end_tx(&mut self, out: &mut Vec<RadioEvent<F>>) {
        if self.row.end_tx(&self.cfg).edge_after() {
            out.push(self.carrier_event());
        }
    }

    /// The edge the row has just indicated, as an event.
    fn carrier_event(&self) -> RadioEvent<F> {
        if self.row.reported_busy() {
            RadioEvent::CarrierBusy
        } else {
            RadioEvent::CarrierIdle
        }
    }
}

mod snap {
    //! Checkpoint capture of a row: the interference sum, its count, the
    //! lock and the carrier edge detector travel bit-exactly.

    use super::{Mode, RxRow};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for Mode {
        fn save(&self, w: &mut SnapWriter) {
            w.u8(match self {
                Mode::Idle => 0,
                Mode::Rx => 1,
                Mode::Tx => 2,
            });
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(Mode::Idle),
                1 => Ok(Mode::Rx),
                2 => Ok(Mode::Tx),
                _ => Err(SnapError::Corrupt("radio mode tag")),
            }
        }
    }

    pcmac_snap::snap_struct!(RxRow {
        in_air,
        locked_power,
        locked_key,
        on_air,
        mode,
        corrupted,
        reported_busy,
    });
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
    #[should_panic(expected = "nothing on the air")]
    fn an_arrival_end_without_its_start_panics_in_every_build() {
        let cfg = RadioConfig::ns2_default();
        let mut row = RxRow::default();
        row.arrival_start(&cfg, 1, MID);
        row.arrival_end(&cfg, 1, MID);
        row.arrival_end(&cfg, 2, MID);
    }

    #[test]
    #[should_panic(expected = "unknown key 2")]
    fn the_adapter_refuses_an_end_for_a_key_it_never_saw() {
        let mut r = radio();
        r.on_arrival_start(1, MID, t(100), &"x", &mut Vec::new());
        r.on_arrival_end(2, &mut Vec::new());
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
