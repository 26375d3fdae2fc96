//! The 802.11 DCF engine with power control.
//!
//! One state machine implements all four protocols of the evaluation —
//! Basic 802.11, Scheme 1, Scheme 2 and PCMAC. Every power decision —
//! which level a frame rides at, what a decoded frame teaches, the RTS
//! ladder, the measured noise — belongs to the station's
//! [`PowerControl`], which reads the configured protocol itself. The
//! engine reads it in one place only, `pcmac` (is the §III machinery
//! live: control channel, CTS echo, noise-sized responses; `three_way`
//! derives the handshake arity from it). This keeps the heavily-tested
//! CSMA/CA core identical across protocols, so comparisons measure the
//! *power control design*, not incidental implementation drift.
//!
//! The MAC is a pure state machine: inputs are radio indications, timer
//! fires and enqueued packets; outputs are [`MacAction`]s that the
//! simulation core applies (transmit a frame, arm a timer, deliver a
//! packet upward, report a broken link). No clocks or queues are hidden
//! inside — everything observable happens through the action stream, which
//! is what makes the unit tests below possible without a full simulator.
//!
//! One input is special: a carrier edge at a MAC with no job and neither
//! access timer armed changes a bit and nothing else, so its driver may
//! deliver it late — [`DcfMac::listening`] states the condition and why.

use std::sync::Arc;

use pcmac_engine::{
    Duration, Milliwatts, NodeId, RngStream, SessionId, SimTime, TimerSlot, TimerToken,
};
use pcmac_net::{DropTailQueue, Packet, QueuedPacket};

use crate::backoff::Backoff;
use crate::config::MacConfig;
use crate::counters::MacCounters;
use crate::frame::{CtrlFrame, Frame, FrameBody, FrameKind};
use crate::nav::Nav;
use crate::pcmac::{noise_tolerance, ActiveReceivers, EchoVerdict, ReceivedTable, SentTable};
use crate::power::PowerControl;

/// Logical timers of the MAC. Each has its own [`TimerSlot`]; fired events
/// carry the token so stale (cancelled/re-armed) timers are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacTimerKind {
    /// DIFS (or post-busy) defer finished.
    Defer,
    /// Backoff countdown finished.
    Backoff,
    /// CTS never arrived after our RTS.
    CtsTimeout,
    /// ACK never arrived after our DATA.
    AckTimeout,
    /// A SIFS-spaced response (CTS/DATA/ACK) is due.
    Response,
    /// The NAV reservation expired.
    NavExpire,
    /// PCMAC: a tolerance-blocked attempt may retry.
    CtrlRetry,
}

/// Outputs of the MAC toward the simulation core.
#[derive(Debug, Clone)]
pub enum MacAction {
    /// Transmit `frame` on the data channel at `power`.
    TxFrame {
        /// The frame to put on the air.
        frame: Frame,
        /// Radiated power.
        power: Milliwatts,
    },
    /// Transmit a PCMAC tolerance broadcast on the control channel.
    TxCtrl {
        /// The control frame.
        frame: CtrlFrame,
        /// Radiated power (always the maximum level).
        power: Milliwatts,
    },
    /// Arm timer `kind` to fire after `delay` carrying `token`.
    Arm {
        /// Which logical timer.
        kind: MacTimerKind,
        /// Delay from now.
        delay: Duration,
        /// Liveness token to echo back into [`DcfMac::on_timer`].
        token: TimerToken,
    },
    /// Deliver a received packet to the network layer.
    Deliver {
        /// The packet.
        packet: Packet,
        /// MAC address of the previous hop.
        from: NodeId,
    },
    /// All retries exhausted toward `next_hop` — routing should treat the
    /// link as broken.
    LinkFailure {
        /// The packet that could not be delivered.
        packet: Packet,
        /// The unreachable next hop.
        next_hop: NodeId,
    },
    /// The interface queue rejected a packet.
    QueueDrop {
        /// The rejected packet.
        packet: Packet,
    },
}

/// What our radio is currently transmitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxKind {
    Rts,
    Cts,
    DataUnicast { needs_ack: bool },
    DataBroadcast,
    Ack,
}

/// Where we are in an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// No exchange of our own in flight (access engine may run).
    Idle,
    /// Our frame is on the air.
    Tx(TxKind),
    /// RTS sent, waiting for the CTS.
    WaitCts,
    /// DATA sent, waiting for the ACK.
    WaitAck,
}

/// The packet currently being worked on.
#[derive(Debug, Clone)]
pub(crate) struct TxJob {
    packet: Packet,
    next_hop: NodeId,
    /// Sequence number once allocated (first transmission attempt).
    seq: Option<u32>,
}

/// What only a station that has taken part in a data exchange carries:
/// the frame waiting out its SIFS, PCMAC's replay copy, the per-neighbour
/// sequence and echo tables, and the receptions advertised on the control
/// channel. Allocated by the first use and kept from then on, so a
/// station that only ever senses the medium pays one pointer for it.
#[derive(Debug, Clone)]
struct Exchange {
    /// Packet that must be retransmitted in the current exchange instead
    /// of `current` (PCMAC implicit-ack recovery).
    retransmit_override: Option<(Packet, u32)>,
    pending_response: Option<(Frame, Milliwatts)>,
    sent: SentTable,
    recv: ReceivedTable,
    active_rx: ActiveReceivers,
}

impl Exchange {
    fn new() -> Self {
        Exchange {
            retransmit_override: None,
            pending_response: None,
            sent: SentTable::new(),
            recv: ReceivedTable::new(),
            active_rx: ActiveReceivers::new(),
        }
    }

    /// `true` when nothing here differs from [`Exchange::new`].
    fn is_blank(&self) -> bool {
        self.retransmit_override.is_none()
            && self.pending_response.is_none()
            && self.sent.is_empty()
            && self.recv.is_empty()
            && self.active_rx.is_empty()
    }
}

/// The 802.11 DCF MAC (all four protocols).
#[derive(Debug, Clone)]
pub struct DcfMac {
    id: NodeId,
    /// Shared by every MAC built from the same scenario.
    cfg: Arc<MacConfig>,
    rng: RngStream,

    // Medium view.
    phys_busy: bool,
    nav: Nav,

    // Channel access.
    backoff: Backoff,
    count_start: Option<SimTime>,

    // Timers.
    t_defer: TimerSlot,
    t_backoff: TimerSlot,
    t_cts: TimerSlot,
    t_ack: TimerSlot,
    t_resp: TimerSlot,
    t_nav: TimerSlot,
    t_ctrl: TimerSlot,

    // Work.
    queue: DropTailQueue,
    current: Option<TxJob>,
    phase: Phase,
    exchange: Option<Box<Exchange>>,
    ssrc: u8,
    slrc: u8,
    power: PowerControl,

    /// Statistics.
    pub counters: MacCounters,
    /// Retry-count distribution over finished exchanges: bucket `k`
    /// counts jobs finished (delivered or dropped) after `k` retries
    /// (short + long), the last bucket is `>= 7`.
    retx_hist: [u64; 8],
}

impl DcfMac {
    /// Build the MAC for node `id`. `seed` drives the backoff RNG. Pass
    /// an `Arc<MacConfig>` to share one configuration between stations.
    pub fn new(id: NodeId, cfg: impl Into<Arc<MacConfig>>, seed: u64) -> Self {
        let cfg: Arc<MacConfig> = cfg.into();
        let rng = RngStream::derive_sub(seed, "mac.backoff", id.0 as u64);
        let (cw_min, cw_max) = (cfg.timing.cw_min, cfg.timing.cw_max);
        assert!(cw_min > 0 && cw_max >= cw_min, "contention window bounds");
        let power = PowerControl::new(&cfg);
        DcfMac {
            id,
            cfg,
            rng,
            phys_busy: false,
            nav: Nav::new(),
            backoff: Backoff::new(cw_min),
            count_start: None,
            t_defer: TimerSlot::new(),
            t_backoff: TimerSlot::new(),
            t_cts: TimerSlot::new(),
            t_ack: TimerSlot::new(),
            t_resp: TimerSlot::new(),
            t_nav: TimerSlot::new(),
            t_ctrl: TimerSlot::new(),
            queue: DropTailQueue::default(),
            current: None,
            phase: Phase::Idle,
            exchange: None,
            ssrc: 0,
            slrc: 0,
            power,
            counters: MacCounters::default(),
            retx_hist: [0; 8],
        }
    }

    /// Update the noise level observed at our radio. The simulation core
    /// refreshes this alongside radio indications; PCMAC advertises it in
    /// RTS headers (paper §III step 2).
    pub fn set_noise(&mut self, noise: Milliwatts) {
        self.power.set_noise(noise);
    }

    /// This node's MAC address.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration in force.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// The exchange state, allocated on first use.
    fn exchange_mut(&mut self) -> &mut Exchange {
        self.exchange
            .get_or_insert_with(|| Box::new(Exchange::new()))
    }

    /// `true` while a SIFS-spaced response is waiting to go out.
    fn response_pending(&self) -> bool {
        self.exchange
            .as_ref()
            .is_some_and(|e| e.pending_response.is_some())
    }

    fn clear_retransmit_override(&mut self) {
        if let Some(e) = &mut self.exchange {
            e.retransmit_override = None;
        }
    }

    /// The level a unicast `kind` frame toward `peer` rides at.
    fn tx_power(&self, kind: FrameKind, peer: NodeId, now: SimTime) -> Milliwatts {
        self.power.level(&self.cfg, kind, peer, now)
    }

    /// `true` when PCMAC's §III machinery is live: the control channel,
    /// the CTS echo and the noise-sized responses.
    fn pcmac(&self) -> bool {
        self.cfg.variant.is_pcmac()
    }

    /// `true` when `packet` rides PCMAC's three-way handshake (no ACK;
    /// the next CTS echo confirms it). Routing packets keep the ACK.
    fn three_way(&self, packet: &Packet) -> bool {
        self.pcmac() && !packet.is_routing() && !self.cfg.pcmac.four_way_handshake
    }

    /// PCMAC's collision computation (paper §III step 2) for a
    /// transmission at `power`: `Err(until)` names the instant the last
    /// protected reception it would violate ends. Only a PCMAC station
    /// ever records an advertisement, so under every other protocol the
    /// registry is empty and this is `Ok`.
    fn check_protected(
        &self,
        power: Milliwatts,
        exempt: Option<NodeId>,
        now: SimTime,
    ) -> Result<(), SimTime> {
        match &self.exchange {
            Some(e) => e
                .active_rx
                .check(power, self.cfg.pcmac.safety_factor, exempt, now),
            None => Ok(()),
        }
    }

    /// `true` while a carrier edge can make this MAC do something: it has
    /// a job, or a defer or backoff timer is armed.
    ///
    /// For any other MAC [`DcfMac::on_carrier`] reduces to storing the
    /// carrier bit: a busy edge only ever cancels those two timers
    /// (`medium_became_busy`), and an idle edge returns at the first test
    /// of `medium_became_idle`, "no current job". So whoever drives a MAC
    /// may hold a carrier edge back while this reads `false`, provided it
    /// tells the latest one (with the noise measured at that edge) before
    /// any other input — no action and no other state can differ.
    pub fn listening(&self) -> bool {
        self.current.is_some() || self.t_defer.is_armed() || self.t_backoff.is_armed()
    }

    /// Current interface-queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    /// Retry-count distribution over finished exchanges (bucket `k` =
    /// `k` retries, last bucket `>= 7`).
    pub fn retx_histogram(&self) -> &[u64; 8] {
        &self.retx_hist
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Accept a packet from the network layer for transmission to
    /// `next_hop` (or broadcast).
    pub fn enqueue(
        &mut self,
        packet: Packet,
        next_hop: NodeId,
        now: SimTime,
        out: &mut Vec<MacAction>,
    ) {
        if self.current.is_none() {
            self.current = Some(TxJob {
                packet,
                next_hop,
                seq: None,
            });
            self.begin_job(now);
            self.start_access(now, out);
            return;
        }
        let queued = QueuedPacket { packet, next_hop };
        if let Some(rejected) = self.queue.push(queued, self.cfg.queue_capacity) {
            self.counters.queue_drops += 1;
            out.push(MacAction::QueueDrop {
                packet: rejected.packet,
            });
        }
    }

    /// Physical carrier-sense edge from the radio.
    pub fn on_carrier(&mut self, busy: bool, now: SimTime, out: &mut Vec<MacAction>) {
        let was_idle = self.medium_idle(now);
        self.phys_busy = busy;
        if busy {
            if was_idle {
                self.medium_became_busy(now);
            }
        } else if self.medium_idle(now) {
            self.medium_became_idle(now, out);
        }
    }

    /// The radio locked onto an arriving frame (header-level knowledge).
    ///
    /// Only PCMAC acts on this: a DATA frame addressed to us triggers the
    /// noise-tolerance broadcast on the control channel (paper §III step
    /// 5). `noise` is the interference measured at the radio excluding the
    /// locked frame; `remaining` is the time until the arrival completes.
    pub fn on_rx_start(
        &mut self,
        frame: &Frame,
        power: Milliwatts,
        noise: Milliwatts,
        remaining: Duration,
        now: SimTime,
        out: &mut Vec<MacAction>,
    ) {
        let _ = now;
        if !self.pcmac() {
            return;
        }
        if frame.kind == FrameKind::Data && frame.rx == self.id && !frame.is_broadcast() {
            let tol = noise_tolerance(power, noise, self.cfg.pcmac.capture_ratio);
            if tol.value() > 0.0 {
                self.counters.ctrl_broadcasts += 1;
                out.push(MacAction::TxCtrl {
                    frame: CtrlFrame {
                        receiver: self.id,
                        noise_tolerance: tol,
                        remaining,
                        tx_power: self.cfg.max_power(),
                    },
                    power: self.cfg.max_power(),
                });
            }
        }
    }

    /// A frame finished arriving. `ok == false` means it was corrupted
    /// (collision): the MAC defers EIFS, following ns-2's NAV treatment.
    pub fn on_rx_end(
        &mut self,
        frame: Frame,
        power: Milliwatts,
        ok: bool,
        now: SimTime,
        out: &mut Vec<MacAction>,
    ) {
        if !ok {
            self.counters.rx_errors += 1;
            self.reserve_nav(self.cfg.timing.eifs(), now, out);
            return;
        }

        // Frames carry their transmit power in the header.
        self.power
            .learn(&self.cfg, frame.tx, power, frame.tx_power, now);

        if !frame.is_for(self.id) {
            // Virtual carrier sense from the duration field.
            if !frame.duration.is_zero() {
                self.reserve_nav(frame.duration, now, out);
            }
            return;
        }

        match frame.kind {
            FrameKind::Rts => self.handle_rts(frame, power, now, out),
            FrameKind::Cts => self.handle_cts(frame, now, out),
            FrameKind::Data => self.handle_data(frame, now, out),
            FrameKind::Ack => self.handle_ack(frame, now, out),
        }
    }

    /// Our own data-channel transmission completed.
    pub fn on_tx_end(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        let Phase::Tx(kind) = self.phase else {
            debug_assert!(false, "tx end outside Tx phase");
            return;
        };
        match kind {
            TxKind::Rts => {
                self.phase = Phase::WaitCts;
                let token = self.t_cts.arm();
                out.push(MacAction::Arm {
                    kind: MacTimerKind::CtsTimeout,
                    delay: self.cfg.timing.cts_timeout(),
                    token,
                });
            }
            TxKind::Cts | TxKind::Ack => {
                // Responder role complete (CTS: the DATA will arrive and
                // keep the medium busy; ACK: exchange done).
                self.phase = Phase::Idle;
                self.start_access(now, out);
            }
            TxKind::DataUnicast { needs_ack: true } => {
                self.phase = Phase::WaitAck;
                let token = self.t_ack.arm();
                out.push(MacAction::Arm {
                    kind: MacTimerKind::AckTimeout,
                    delay: self.cfg.timing.ack_timeout(),
                    token,
                });
            }
            TxKind::DataUnicast { needs_ack: false } => {
                // PCMAC three-way handshake: the DATA is provisionally
                // delivered; confirmation rides the next CTS echo.
                self.phase = Phase::Idle;
                let replayed = self
                    .exchange
                    .as_mut()
                    .and_then(|e| e.retransmit_override.take());
                if replayed.is_none() {
                    // A fresh packet completed its exchange.
                    self.finish_current(true, now, out);
                } else {
                    // We just replayed a stored copy; the fresh packet in
                    // `current` still needs its own exchange.
                    self.ssrc = 0;
                    self.backoff.reset_cw(self.cfg.timing.cw_min);
                    self.backoff.draw(&mut self.rng);
                    self.start_access(now, out);
                }
            }
            TxKind::DataBroadcast => {
                self.phase = Phase::Idle;
                self.finish_current(true, now, out);
            }
        }
    }

    /// A tolerance broadcast arrived on the control channel (PCMAC).
    pub fn on_ctrl_rx(&mut self, cf: CtrlFrame, heard_at: Milliwatts, now: SimTime) {
        if !self.pcmac() || cf.receiver == self.id {
            return;
        }
        let active_rx = &mut self.exchange_mut().active_rx;
        active_rx.record(
            cf.receiver,
            cf.noise_tolerance,
            heard_at,
            cf.tx_power,
            now + cf.remaining,
        );
        active_rx.purge(now);
    }

    /// A timer fired. Stale tokens (cancelled or superseded) are ignored.
    pub fn on_timer(
        &mut self,
        kind: MacTimerKind,
        token: TimerToken,
        now: SimTime,
        out: &mut Vec<MacAction>,
    ) {
        let live = match kind {
            MacTimerKind::Defer => self.t_defer.fire(token),
            MacTimerKind::Backoff => self.t_backoff.fire(token),
            MacTimerKind::CtsTimeout => self.t_cts.fire(token),
            MacTimerKind::AckTimeout => self.t_ack.fire(token),
            MacTimerKind::Response => self.t_resp.fire(token),
            MacTimerKind::NavExpire => self.t_nav.fire(token),
            MacTimerKind::CtrlRetry => self.t_ctrl.fire(token),
        };
        if !live {
            return;
        }
        match kind {
            MacTimerKind::Defer => self.on_defer_done(now, out),
            MacTimerKind::Backoff => {
                self.backoff.complete();
                self.count_start = None;
                self.attempt_tx(now, out);
            }
            MacTimerKind::CtsTimeout => self.on_cts_timeout(now, out),
            MacTimerKind::AckTimeout => self.on_ack_timeout(now, out),
            MacTimerKind::Response => self.fire_response(now, out),
            MacTimerKind::NavExpire => {
                if self.medium_idle(now) {
                    self.medium_became_idle(now, out);
                }
            }
            MacTimerKind::CtrlRetry => self.start_access(now, out),
        }
    }

    /// Routing state toward `peer` changed (RREP sent / RERR received):
    /// reset the PCMAC sent/received tables for that peer (paper §III).
    pub fn reset_peer_state(&mut self, peer: NodeId) {
        if let Some(e) = &mut self.exchange {
            e.sent.reset_peer(peer);
            e.recv.reset_peer(peer);
        }
    }

    /// Remove queued packets headed for `hop` (routing learned the link is
    /// dead); the packets are returned so the caller can re-route or count
    /// them.
    pub fn drain_next_hop(&mut self, hop: NodeId) -> Vec<QueuedPacket> {
        self.queue.drain_next_hop(hop)
    }

    // ------------------------------------------------------------------
    // Receive-side handlers
    // ------------------------------------------------------------------

    fn handle_rts(
        &mut self,
        frame: Frame,
        power: Milliwatts,
        now: SimTime,
        out: &mut Vec<MacAction>,
    ) {
        // Only respond when free: not mid-exchange, no queued response, NAV
        // idle (802.11: a station with a set NAV ignores RTS).
        if self.phase != Phase::Idle || self.response_pending() || self.nav.is_busy(now) {
            return;
        }
        let FrameBody::Rts { sender_noise } = &frame.body else {
            return;
        };

        let (cts_power, required_data_power, echo) = if self.pcmac() {
            // Paper §III step 3: size the CTS so it clears decoding *and*
            // the noise floor at the requester, using the gain measured
            // off this RTS; tell the requester what power its DATA needs
            // — "B required DATA be sent at the power level
            // P = η_cp · N_B · P_t / S" — to clear *our* currently-measured
            // noise N_B, not just the decode threshold.
            let (cts, data) = self
                .power
                .respond(&self.cfg, power, frame.tx_power, *sender_noise);
            let echo = self
                .exchange
                .as_ref()
                .and_then(|e| e.recv.echo_for(frame.tx));
            (cts, Some(data), echo)
        } else {
            (self.tx_power(FrameKind::Cts, frame.tx, now), None, None)
        };

        // PCMAC step 3: the responder also runs the collision computation
        // before its CTS; if it would violate a protected reception it
        // stays silent and the requester retries later.
        if let Err(_until) = self.check_protected(cts_power, Some(frame.tx), now) {
            self.counters.ctrl_deferrals += 1;
            return;
        }

        // CTS duration: whatever the RTS reserved, minus SIFS + CTS time.
        let duration = frame
            .duration
            .saturating_sub(self.cfg.timing.sifs + self.cfg.timing.cts_time());
        let cts = Frame {
            kind: FrameKind::Cts,
            tx: self.id,
            rx: frame.tx,
            duration,
            tx_power: cts_power,
            body: FrameBody::Cts {
                required_data_power,
                last_received: echo,
            },
        };
        self.schedule_response(cts, cts_power, out);
    }

    fn handle_cts(&mut self, frame: Frame, now: SimTime, out: &mut Vec<MacAction>) {
        if self.phase != Phase::WaitCts {
            return;
        }
        let Some(job) = &self.current else {
            debug_assert!(false, "WaitCts without a job");
            return;
        };
        if frame.tx != job.next_hop {
            return;
        }
        let FrameBody::Cts {
            required_data_power,
            last_received,
        } = &frame.body
        else {
            return;
        };
        let required_data_power = *required_data_power;
        let last_received = *last_received;
        self.t_cts.cancel();
        self.ssrc = 0;

        let next_hop = job.next_hop;
        let three_way = self.three_way(&job.packet);

        // Decide what data to send and whether it needs an ACK.
        let (packet, seq, needs_ack) = if three_way {
            let max_retx = self.cfg.pcmac.max_retx;
            match self
                .exchange_mut()
                .sent
                .judge_echo(next_hop, last_received, max_retx)
            {
                EchoVerdict::Proceed => {
                    let seq = self.allocate_seq_for_current();
                    (self.current.as_ref().unwrap().packet.clone(), seq, false)
                }
                EchoVerdict::Retransmit(stored) => {
                    self.counters.implicit_retx += 1;
                    let ex = self.exchange_mut();
                    let (_, seq) = ex
                        .sent
                        .stored_identity(next_hop)
                        .expect("retransmit implies stored identity");
                    ex.retransmit_override = Some(((*stored).clone(), seq));
                    ((*stored).clone(), seq, false)
                }
                EchoVerdict::GiveUp => {
                    self.counters.implicit_give_ups += 1;
                    let seq = self.allocate_seq_for_current();
                    (self.current.as_ref().unwrap().packet.clone(), seq, false)
                }
            }
        } else {
            let seq = self.allocate_seq_for_current();
            (self.current.as_ref().unwrap().packet.clone(), seq, true)
        };

        // Power for the DATA frame: what the CTS dictates (PCMAC), else
        // the table's.
        let data_power =
            required_data_power.unwrap_or_else(|| self.tx_power(FrameKind::Data, next_hop, now));

        // PCMAC step 4: re-run the collision computation for the DATA
        // power; abort (and retry after the blocking reception) if it
        // would violate a protected reception.
        if let Err(until) = self.check_protected(data_power, Some(next_hop), now) {
            self.clear_retransmit_override();
            self.phase = Phase::Idle;
            self.defer_for_ctrl(until, now, out);
            return;
        }

        let session = SessionId::for_pair(self.id, next_hop);
        if three_way {
            // Keep the retransmission copy (paper: "every time a data
            // packet is transmitted, it has a copy at the sender").
            self.exchange_mut()
                .sent
                .record_sent(next_hop, session, seq, packet.clone());
        }

        let duration = if needs_ack {
            self.cfg.timing.sifs + self.cfg.timing.ack_time()
        } else {
            Duration::ZERO
        };
        let data = Frame {
            kind: FrameKind::Data,
            tx: self.id,
            rx: next_hop,
            duration,
            tx_power: data_power,
            body: FrameBody::Data {
                packet,
                seq,
                session,
                needs_ack,
            },
        };
        self.phase = Phase::Idle; // response scheduling takes over
        self.schedule_response(data, data_power, out);
    }

    fn handle_data(&mut self, frame: Frame, now: SimTime, out: &mut Vec<MacAction>) {
        let FrameBody::Data {
            packet,
            seq,
            session,
            needs_ack,
        } = frame.body
        else {
            return;
        };

        if frame.rx.is_broadcast() {
            self.counters.delivered += 1;
            out.push(MacAction::Deliver {
                packet,
                from: frame.tx,
            });
            return;
        }

        // Duplicate suppression (lost ACK / lost CTS echo replays).
        let fresh = self.exchange_mut().recv.accept(frame.tx, session, seq);
        if needs_ack && self.phase == Phase::Idle && !self.response_pending() {
            let ack_power = self.tx_power(FrameKind::Ack, frame.tx, now);
            let ack = Frame {
                kind: FrameKind::Ack,
                tx: self.id,
                rx: frame.tx,
                duration: Duration::ZERO,
                tx_power: ack_power,
                body: FrameBody::Ack,
            };
            self.schedule_response(ack, ack_power, out);
        }
        if fresh {
            self.counters.delivered += 1;
            out.push(MacAction::Deliver {
                packet,
                from: frame.tx,
            });
        } else {
            self.counters.duplicates += 1;
        }
    }

    fn handle_ack(&mut self, frame: Frame, now: SimTime, out: &mut Vec<MacAction>) {
        if self.phase != Phase::WaitAck {
            return;
        }
        let Some(job) = &self.current else {
            return;
        };
        if frame.tx != job.next_hop {
            return;
        }
        self.t_ack.cancel();
        self.phase = Phase::Idle;
        self.finish_current(true, now, out);
    }

    // ------------------------------------------------------------------
    // Timeouts and retries
    // ------------------------------------------------------------------

    fn on_cts_timeout(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        debug_assert_eq!(self.phase, Phase::WaitCts);
        self.phase = Phase::Idle;
        self.counters.cts_timeouts += 1;
        self.ssrc += 1;

        let peer = self
            .current
            .as_ref()
            .expect("a CTS timeout implies the job whose RTS went unanswered")
            .next_hop;
        self.power
            .cts_timeout(&self.cfg, peer, now, &mut self.counters);

        if self.ssrc >= self.cfg.timing.retry_short {
            self.drop_current(now, out);
            return;
        }
        self.backoff.grow(self.cfg.timing.cw_max);
        self.backoff.draw(&mut self.rng);
        self.start_access(now, out);
    }

    fn on_ack_timeout(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        debug_assert_eq!(self.phase, Phase::WaitAck);
        self.phase = Phase::Idle;
        self.counters.ack_timeouts += 1;
        self.slrc += 1;
        if self.slrc >= self.cfg.timing.retry_long {
            self.drop_current(now, out);
            return;
        }
        self.backoff.grow(self.cfg.timing.cw_max);
        self.backoff.draw(&mut self.rng);
        self.start_access(now, out);
    }

    fn drop_current(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        self.counters.retry_drops += 1;
        if let Some(job) = &self.current {
            if !job.next_hop.is_broadcast() {
                out.push(MacAction::LinkFailure {
                    packet: job.packet.clone(),
                    next_hop: job.next_hop,
                });
            }
        }
        self.clear_retransmit_override();
        self.finish_current(false, now, out);
    }

    /// Wrap up the current job and move to the next queued packet.
    fn finish_current(&mut self, _success: bool, now: SimTime, out: &mut Vec<MacAction>) {
        if self.current.is_some() {
            let retries = (self.ssrc as usize + self.slrc as usize).min(self.retx_hist.len() - 1);
            self.retx_hist[retries] += 1;
        }
        self.ssrc = 0;
        self.slrc = 0;
        self.backoff.reset_cw(self.cfg.timing.cw_min);
        // Mandatory post-transmission backoff.
        self.backoff.draw(&mut self.rng);
        self.current = self.queue.pop().map(|qp| TxJob {
            packet: qp.packet,
            next_hop: qp.next_hop,
            seq: None,
        });
        if self.current.is_some() {
            self.begin_job(now);
            self.start_access(now, out);
        }
    }

    /// Initialise per-job state (retry counters, RTS power ladder).
    fn begin_job(&mut self, now: SimTime) {
        let Some(job) = &self.current else { return };
        self.power.start_job(&self.cfg, job.next_hop, now);
        self.ssrc = 0;
        self.slrc = 0;
    }

    fn allocate_seq_for_current(&mut self) -> u32 {
        let next_hop = self.current.as_ref().expect("job present").next_hop;
        if let Some(seq) = self.current.as_ref().and_then(|j| j.seq) {
            return seq; // retry of the same packet keeps its seq
        }
        let seq = self.exchange_mut().sent.allocate_seq(next_hop);
        if let Some(job) = &mut self.current {
            job.seq = Some(seq);
        }
        seq
    }

    // ------------------------------------------------------------------
    // Channel access engine
    // ------------------------------------------------------------------

    fn medium_idle(&self, now: SimTime) -> bool {
        !self.phys_busy && !self.nav.is_busy(now)
    }

    fn reserve_nav(&mut self, d: Duration, now: SimTime, out: &mut Vec<MacAction>) {
        let was_idle = self.medium_idle(now);
        if self.nav.reserve(now, d) {
            let token = self.t_nav.arm();
            out.push(MacAction::Arm {
                kind: MacTimerKind::NavExpire,
                delay: self.nav.expiry().saturating_since(now),
                token,
            });
            if was_idle {
                self.medium_became_busy(now);
            }
        }
    }

    fn medium_became_busy(&mut self, now: SimTime) {
        self.t_defer.cancel();
        if self.t_backoff.is_armed() {
            self.t_backoff.cancel();
            if let Some(start) = self.count_start.take() {
                self.backoff
                    .consume(now.saturating_since(start), self.cfg.timing.slot);
            }
        }
    }

    fn medium_became_idle(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        let _ = now;
        if self.current.is_none()
            || self.phase != Phase::Idle
            || self.response_pending()
            || self.t_ctrl.is_armed()
        {
            return;
        }
        // Post-busy access always goes through backoff (802.11): make sure
        // a count exists, preserving any frozen residual.
        self.backoff.draw_if_idle(&mut self.rng);
        let token = self.t_defer.arm();
        out.push(MacAction::Arm {
            kind: MacTimerKind::Defer,
            delay: self.cfg.timing.difs(),
            token,
        });
    }

    /// Kick the access procedure for the current job (fresh job, retry, or
    /// post-deferral). No-op while the medium is busy — the idle edge will
    /// restart us.
    fn start_access(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        if self.current.is_none() || self.phase != Phase::Idle || self.response_pending() {
            return;
        }
        if !self.medium_idle(now) {
            return; // medium edge will call medium_became_idle
        }
        let token = self.t_defer.arm();
        out.push(MacAction::Arm {
            kind: MacTimerKind::Defer,
            delay: self.cfg.timing.difs(),
            token,
        });
    }

    fn on_defer_done(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        if !self.medium_idle(now) {
            return; // raced with a busy edge; it will restart us
        }
        if self.backoff.is_done() {
            self.attempt_tx(now, out);
        } else {
            self.count_start = Some(now);
            let token = self.t_backoff.arm();
            out.push(MacAction::Arm {
                kind: MacTimerKind::Backoff,
                delay: self.backoff.remaining_time(self.cfg.timing.slot),
                token,
            });
        }
    }

    /// The medium is ours: put the first frame of the exchange on the air.
    fn attempt_tx(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        if self.phase != Phase::Idle || self.response_pending() {
            return;
        }
        let Some(job) = &self.current else { return };
        if !self.medium_idle(now) {
            return;
        }

        let max = self.cfg.max_power();
        if job.next_hop.is_broadcast() {
            // Broadcasts skip RTS/CTS and go at the normal (max) power in
            // every protocol (paper §IV).
            if let Err(until) = self.check_protected(max, None, now) {
                self.defer_for_ctrl(until, now, out);
                return;
            }
            let frame = Frame {
                kind: FrameKind::Data,
                tx: self.id,
                rx: NodeId::BROADCAST,
                duration: Duration::ZERO,
                tx_power: max,
                body: FrameBody::Data {
                    packet: job.packet.clone(),
                    seq: 0,
                    session: SessionId::for_pair(self.id, NodeId::BROADCAST),
                    needs_ack: false,
                },
            };
            self.counters.broadcast_sent += 1;
            self.phase = Phase::Tx(TxKind::DataBroadcast);
            out.push(MacAction::TxFrame { frame, power: max });
            return;
        }

        // Small unicast frames may skip the RTS/CTS exchange entirely
        // (dot11RTSThreshold). PCMAC data is exempt: its reliability
        // rides on the CTS echo.
        let on_air_bytes = crate::frame::DATA_HEADER_BYTES + job.packet.size_bytes();
        let pcmac_data = self.pcmac() && !job.packet.is_routing();
        if self.cfg.rts_threshold > 0 && on_air_bytes <= self.cfg.rts_threshold && !pcmac_data {
            let data_power = self.tx_power(FrameKind::Data, job.next_hop, now);
            if let Err(until) = self.check_protected(data_power, Some(job.next_hop), now) {
                self.defer_for_ctrl(until, now, out);
                return;
            }
            let next_hop = job.next_hop;
            let packet = job.packet.clone();
            let seq = self.allocate_seq_for_current();
            let session = SessionId::for_pair(self.id, next_hop);
            let frame = Frame {
                kind: FrameKind::Data,
                tx: self.id,
                rx: next_hop,
                duration: self.cfg.timing.sifs + self.cfg.timing.ack_time(),
                tx_power: data_power,
                body: FrameBody::Data {
                    packet,
                    seq,
                    session,
                    needs_ack: true,
                },
            };
            self.counters.data_sent += 1;
            self.phase = Phase::Tx(TxKind::DataUnicast { needs_ack: true });
            out.push(MacAction::TxFrame {
                frame,
                power: data_power,
            });
            return;
        }

        // Unicast: RTS first.
        let rts_level = self.tx_power(FrameKind::Rts, job.next_hop, now);
        // Paper §III step 2: would this power corrupt a protected
        // reception nearby? (The intended receiver is *not* exempt here —
        // if it is busy receiving from someone else, our RTS would be the
        // collision.)
        if let Err(until) = self.check_protected(rts_level, None, now) {
            self.defer_for_ctrl(until, now, out);
            return;
        }

        let needs_ack = !self.three_way(&job.packet);
        let data_time = self.cfg.timing.airtime_data(on_air_bytes);
        let t = &self.cfg.timing;
        let duration = if needs_ack {
            t.sifs * 3 + t.cts_time() + data_time + t.ack_time()
        } else {
            t.sifs * 2 + t.cts_time() + data_time
        };
        let sender_noise = self.power.advertised_noise(&self.cfg);
        let rts = Frame {
            kind: FrameKind::Rts,
            tx: self.id,
            rx: job.next_hop,
            duration,
            tx_power: rts_level,
            body: FrameBody::Rts { sender_noise },
        };
        self.counters.rts_sent += 1;
        self.phase = Phase::Tx(TxKind::Rts);
        out.push(MacAction::TxFrame {
            frame: rts,
            power: rts_level,
        });
    }

    fn defer_for_ctrl(&mut self, until: SimTime, now: SimTime, out: &mut Vec<MacAction>) {
        self.counters.ctrl_deferrals += 1;
        let token = self.t_ctrl.arm();
        out.push(MacAction::Arm {
            kind: MacTimerKind::CtrlRetry,
            delay: until.saturating_since(now) + Duration::from_micros(1),
            token,
        });
    }

    fn schedule_response(&mut self, frame: Frame, power: Milliwatts, out: &mut Vec<MacAction>) {
        debug_assert!(!self.response_pending());
        self.exchange_mut().pending_response = Some((frame, power));
        let token = self.t_resp.arm();
        out.push(MacAction::Arm {
            kind: MacTimerKind::Response,
            delay: self.cfg.timing.sifs,
            token,
        });
    }

    fn fire_response(&mut self, _now: SimTime, out: &mut Vec<MacAction>) {
        let Some((frame, power)) = self
            .exchange
            .as_mut()
            .and_then(|e| e.pending_response.take())
        else {
            return;
        };
        let kind = match frame.kind {
            FrameKind::Cts => {
                self.counters.cts_sent += 1;
                TxKind::Cts
            }
            FrameKind::Ack => {
                self.counters.ack_sent += 1;
                TxKind::Ack
            }
            FrameKind::Data => {
                self.counters.data_sent += 1;
                let needs_ack = matches!(
                    frame.body,
                    FrameBody::Data {
                        needs_ack: true,
                        ..
                    }
                );
                TxKind::DataUnicast { needs_ack }
            }
            FrameKind::Rts => unreachable!("RTS is never a SIFS response"),
        };
        self.phase = Phase::Tx(kind);
        out.push(MacAction::TxFrame { frame, power });
    }
}

mod snap {
    //! Checkpoint capture of the MAC state machine.
    //!
    //! `id` and `cfg` are rebuilt from the scenario config on restore, so
    //! [`DcfMac::save_state`] / [`DcfMac::load_state`] transfer only the
    //! mutable state: backoff RNG position, timers, queue, the exchange in
    //! progress and the power control. The cut always falls between
    //! events, never inside a `MacAction` burst, so this is the complete
    //! reachable state.

    use super::{DcfMac, Exchange, MacTimerKind, Phase, TxJob, TxKind};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for MacTimerKind {
        fn save(&self, w: &mut SnapWriter) {
            w.u8(match self {
                MacTimerKind::Defer => 0,
                MacTimerKind::Backoff => 1,
                MacTimerKind::CtsTimeout => 2,
                MacTimerKind::AckTimeout => 3,
                MacTimerKind::Response => 4,
                MacTimerKind::NavExpire => 5,
                MacTimerKind::CtrlRetry => 6,
            });
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(MacTimerKind::Defer),
                1 => Ok(MacTimerKind::Backoff),
                2 => Ok(MacTimerKind::CtsTimeout),
                3 => Ok(MacTimerKind::AckTimeout),
                4 => Ok(MacTimerKind::Response),
                5 => Ok(MacTimerKind::NavExpire),
                6 => Ok(MacTimerKind::CtrlRetry),
                _ => Err(SnapError::Corrupt("mac timer tag")),
            }
        }
    }

    impl Snap for TxKind {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                TxKind::Rts => w.u8(0),
                TxKind::Cts => w.u8(1),
                TxKind::DataUnicast { needs_ack } => {
                    w.u8(2);
                    needs_ack.save(w);
                }
                TxKind::DataBroadcast => w.u8(3),
                TxKind::Ack => w.u8(4),
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(TxKind::Rts),
                1 => Ok(TxKind::Cts),
                2 => Ok(TxKind::DataUnicast {
                    needs_ack: Snap::load(r)?,
                }),
                3 => Ok(TxKind::DataBroadcast),
                4 => Ok(TxKind::Ack),
                _ => Err(SnapError::Corrupt("tx kind tag")),
            }
        }
    }

    impl Snap for Phase {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                Phase::Idle => w.u8(0),
                Phase::Tx(kind) => {
                    w.u8(1);
                    kind.save(w);
                }
                Phase::WaitCts => w.u8(2),
                Phase::WaitAck => w.u8(3),
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            match r.u8()? {
                0 => Ok(Phase::Idle),
                1 => Ok(Phase::Tx(Snap::load(r)?)),
                2 => Ok(Phase::WaitCts),
                3 => Ok(Phase::WaitAck),
                _ => Err(SnapError::Corrupt("mac phase tag")),
            }
        }
    }

    pcmac_snap::snap_struct!(TxJob {
        packet,
        next_hop,
        seq,
    });

    impl DcfMac {
        /// Serialize every mutable field (everything except `id`/`cfg`).
        pub fn save_state(&self, w: &mut SnapWriter) {
            // A station that never allocated its exchange state writes
            // the bytes of a blank one.
            let blank;
            let ex = match &self.exchange {
                Some(ex) => &**ex,
                None => {
                    blank = Exchange::new();
                    &blank
                }
            };
            self.rng.save(w);
            self.phys_busy.save(w);
            self.nav.save(w);
            self.backoff.save(w);
            self.count_start.save(w);
            self.t_defer.save(w);
            self.t_backoff.save(w);
            self.t_cts.save(w);
            self.t_ack.save(w);
            self.t_resp.save(w);
            self.t_nav.save(w);
            self.t_ctrl.save(w);
            self.queue.save(w);
            self.current.save(w);
            ex.retransmit_override.save(w);
            self.phase.save(w);
            ex.pending_response.save(w);
            self.ssrc.save(w);
            self.slrc.save(w);
            self.power.save(w);
            ex.sent.save(w);
            ex.recv.save(w);
            ex.active_rx.save(w);
            self.counters.save(w);
            self.retx_hist.save(w);
        }

        /// Overwrite the mutable state of a freshly built MAC with captured
        /// state. `id`/`cfg` keep their built values. A contention window
        /// outside `cfg`'s bounds, or more queued packets than its
        /// capacity, is refused: either would leave the station silent or
        /// dropping without a word.
        pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.rng = Snap::load(r)?;
            self.phys_busy = Snap::load(r)?;
            self.nav = Snap::load(r)?;
            self.backoff = Snap::load(r)?;
            let timing = &self.cfg.timing;
            if !(timing.cw_min..=timing.cw_max).contains(&self.backoff.cw()) {
                return Err(SnapError::Corrupt("contention window outside its bounds"));
            }
            self.count_start = Snap::load(r)?;
            self.t_defer = Snap::load(r)?;
            self.t_backoff = Snap::load(r)?;
            self.t_cts = Snap::load(r)?;
            self.t_ack = Snap::load(r)?;
            self.t_resp = Snap::load(r)?;
            self.t_nav = Snap::load(r)?;
            self.t_ctrl = Snap::load(r)?;
            self.queue = Snap::load(r)?;
            if self.queue.len() > self.cfg.queue_capacity {
                return Err(SnapError::Corrupt("interface queue over its capacity"));
            }
            self.current = Snap::load(r)?;
            let retransmit_override = Snap::load(r)?;
            self.phase = Snap::load(r)?;
            let pending_response = Snap::load(r)?;
            self.ssrc = Snap::load(r)?;
            self.slrc = Snap::load(r)?;
            self.power = Snap::load(r)?;
            let ex = Exchange {
                retransmit_override,
                pending_response,
                sent: Snap::load(r)?,
                recv: Snap::load(r)?,
                active_rx: Snap::load(r)?,
            };
            self.exchange = (!ex.is_blank()).then(|| Box::new(ex));
            self.counters = Snap::load(r)?;
            self.retx_hist = Snap::load(r)?;
            Ok(())
        }
    }
}
