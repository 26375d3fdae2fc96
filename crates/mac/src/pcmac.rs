//! PCMAC-specific protocol state.
//!
//! Three pieces of machinery from paper §III:
//!
//! * [`ActiveReceivers`] — what this node knows about ongoing receptions in
//!   its neighbourhood, learned from the power-control channel. Before any
//!   transmission at power `P`, the node checks every advertised receiver
//!   `C`: the noise it would induce, `P · G(self→C)`, must stay within the
//!   safety-factored tolerance `0.7 × tol_C`, else it defers until `C`'s
//!   reception completes.
//! * [`SentTable`] / [`ReceivedTable`] — the implicit-acknowledgment
//!   bookkeeping replacing the ACK: senders remember the last data packet
//!   (with a retransmission copy) per neighbour; receivers remember the
//!   last (session, seq) they accepted and echo it in every CTS.
//! * [`noise_tolerance`] — the receiver-side computation
//!   `S_r / η_cp − N_r` broadcast when a DATA reception starts.

use pcmac_engine::{Milliwatts, NodeId, SessionId, SimTime, VecMap};
use pcmac_net::Packet;

/// Compute the noise a receiver can still endure: `S_r / η_cp − N_r`
/// (paper §III). Non-positive results mean the reception is already at the
/// capture limit and *any* extra noise would kill it.
pub fn noise_tolerance(signal: Milliwatts, noise: Milliwatts, capture_ratio: f64) -> Milliwatts {
    Milliwatts(signal.value() / capture_ratio - noise.value())
}

/// One advertised ongoing reception in the neighbourhood.
#[derive(Debug, Clone, Copy)]
pub struct ActiveRx {
    /// Advertised noise tolerance at the receiver.
    pub tolerance: Milliwatts,
    /// Propagation gain from *us* to that receiver (measured off the
    /// max-power control broadcast).
    pub gain: f64,
    /// When the protected reception ends.
    pub until: SimTime,
}

/// The set of currently-protected receivers this node has heard about.
#[derive(Debug, Clone, Default)]
pub struct ActiveReceivers {
    map: VecMap<NodeId, ActiveRx>,
}

impl ActiveReceivers {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or refresh) an advertisement heard on the control channel.
    ///
    /// `heard_at` is our measured receive power of the broadcast and
    /// `broadcast_power` the (maximum) power it was sent at; their ratio is
    /// the channel gain between us and the receiver — the paper's
    /// reciprocity assumption makes it valid in our transmit direction too.
    pub fn record(
        &mut self,
        receiver: NodeId,
        tolerance: Milliwatts,
        heard_at: Milliwatts,
        broadcast_power: Milliwatts,
        until: SimTime,
    ) {
        if broadcast_power.value() <= 0.0 {
            return;
        }
        let gain = heard_at.value() / broadcast_power.value();
        self.map.insert(
            receiver,
            ActiveRx {
                tolerance,
                gain,
                until,
            },
        );
    }

    /// Check whether transmitting at `power` would violate any protected
    /// reception (paper §III step 2):
    /// `P · G(self→C) ≤ safety_factor · tolerance_C` for every fresh entry
    /// `C`, skipping `exempt` (our own intended receiver: our signal *is*
    /// its reception, not noise).
    ///
    /// Returns `Ok(())` when clear, or `Err(until)` with the latest expiry
    /// among the violated entries — the instant to retry at.
    pub fn check(
        &self,
        power: Milliwatts,
        safety_factor: f64,
        exempt: Option<NodeId>,
        now: SimTime,
    ) -> Result<(), SimTime> {
        let mut blocked_until: Option<SimTime> = None;
        for (node, rx) in self.map.iter() {
            if rx.until <= now || Some(*node) == exempt {
                continue;
            }
            let induced = power.value() * rx.gain;
            if induced > safety_factor * rx.tolerance.value().max(0.0) {
                blocked_until = Some(match blocked_until {
                    Some(t) => t.max(rx.until),
                    None => rx.until,
                });
            }
        }
        match blocked_until {
            Some(t) => Err(t),
            None => Ok(()),
        }
    }

    /// Remove entries whose protected reception already ended.
    pub fn purge(&mut self, now: SimTime) {
        self.map.retain(|_, rx| rx.until > now);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no receivers are being tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Sender-side record for one neighbour.
#[derive(Debug, Clone)]
pub struct SentEntry {
    /// Session of the last data frame sent to this neighbour.
    pub session: SessionId,
    /// Sequence number of the last data frame sent.
    pub seq: u32,
    /// Retransmission copy ("every time a data packet is transmitted, it
    /// has a copy at the sender"). `None` once delivery is confirmed or
    /// abandoned.
    pub stored: Option<Packet>,
    /// How many times the stored copy has been retransmitted.
    pub retx: u8,
}

/// What a CTS echo tells the sender to do next (paper §III step 4).
#[derive(Debug, Clone, PartialEq)]
pub enum EchoVerdict {
    /// Last packet confirmed (or nothing outstanding): send the next one.
    Proceed,
    /// Echo mismatch and a copy exists: retransmit it.
    Retransmit(Box<Packet>),
    /// Echo mismatch but the copy was abandoned (retransmission cap):
    /// proceed with new data and accept the loss.
    GiveUp,
}

/// The sender-side table of the three-way handshake.
#[derive(Debug, Clone, Default)]
pub struct SentTable {
    map: VecMap<NodeId, SentEntry>,
    /// Per-session sequence counters.
    next_seq: VecMap<NodeId, u32>,
}

impl SentTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next sequence number toward `to`.
    pub fn allocate_seq(&mut self, to: NodeId) -> u32 {
        let seq = self.next_seq.get_or_insert_with(to, || 0);
        let out = *seq;
        *seq += 1;
        out
    }

    /// Record a (re)transmitted data packet (keeps the retransmission copy).
    pub fn record_sent(&mut self, to: NodeId, session: SessionId, seq: u32, packet: Packet) {
        let retx = match self.map.get(&to) {
            Some(e) if e.session == session && e.seq == seq => e.retx,
            _ => 0,
        };
        self.map.insert(
            to,
            SentEntry {
                session,
                seq,
                stored: Some(packet),
                retx,
            },
        );
    }

    /// Judge a CTS echo from `from` against the table; a stored copy is
    /// abandoned after `max_retx` retransmissions.
    pub fn judge_echo(
        &mut self,
        from: NodeId,
        echo: Option<(SessionId, u32)>,
        max_retx: u8,
    ) -> EchoVerdict {
        let Some(entry) = self.map.get_mut(&from) else {
            // Nothing outstanding toward this neighbour.
            return EchoVerdict::Proceed;
        };
        if entry.stored.is_none() {
            return EchoVerdict::Proceed;
        }
        let confirmed = echo == Some((entry.session, entry.seq));
        if confirmed {
            entry.stored = None;
            entry.retx = 0;
            return EchoVerdict::Proceed;
        }
        if entry.retx >= max_retx {
            entry.stored = None;
            entry.retx = 0;
            return EchoVerdict::GiveUp;
        }
        entry.retx += 1;
        EchoVerdict::Retransmit(Box::new(
            entry.stored.clone().expect("checked stored above"),
        ))
    }

    /// The session/seq pair a retransmission of the stored copy must use.
    pub fn stored_identity(&self, to: NodeId) -> Option<(SessionId, u32)> {
        self.map
            .get(&to)
            .filter(|e| e.stored.is_some())
            .map(|e| (e.session, e.seq))
    }

    /// `true` while no sequence number has been allocated and no copy is
    /// held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty() && self.next_seq.is_empty()
    }

    /// Reset state toward `peer` (paper: on RREP sent / RERR received, the
    /// tables for the affected up/downstream terminal are cleared and the
    /// stored copy deleted).
    pub fn reset_peer(&mut self, peer: NodeId) {
        self.map.remove(&peer);
        // The seq counter deliberately survives the reset: `SessionId` is
        // a pair constant, so restarting at 0 would replay an identity the
        // peer's duplicate filter may have already accepted (a rediscovery
        // RREP would be swallowed as a stale retransmission and the route
        // could never re-form). Monotonic seqs keep dedup sound.
    }
}

/// Receiver-side table: last accepted (session, seq) per sender.
#[derive(Debug, Clone, Default)]
pub struct ReceivedTable {
    map: VecMap<NodeId, (SessionId, u32)>,
}

impl ReceivedTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The echo to piggyback on a CTS toward `from`.
    pub fn echo_for(&self, from: NodeId) -> Option<(SessionId, u32)> {
        self.map.get(&from).copied()
    }

    /// Record an accepted data frame. Returns `false` when it is a
    /// duplicate (same identity as the last accepted one) which must not
    /// be delivered upward again.
    pub fn accept(&mut self, from: NodeId, session: SessionId, seq: u32) -> bool {
        if self.map.get(&from) == Some(&(session, seq)) {
            return false;
        }
        self.map.insert(from, (session, seq));
        true
    }

    /// `true` while no data frame has been accepted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reset state toward `peer` (route change, see [`SentTable::reset_peer`]).
    pub fn reset_peer(&mut self, peer: NodeId) {
        self.map.remove(&peer);
    }
}

mod snap {
    use super::{ActiveReceivers, ActiveRx, ReceivedTable, SentEntry, SentTable};

    pcmac_snap::snap_struct!(ActiveRx {
        tolerance,
        gain,
        until,
    });

    pcmac_snap::snap_struct!(ActiveReceivers { map });

    pcmac_snap::snap_struct!(SentEntry {
        session,
        seq,
        stored,
        retx,
    });

    pcmac_snap::snap_struct!(SentTable { map, next_seq });

    pcmac_snap::snap_struct!(ReceivedTable { map });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmac_engine::{Duration, FlowId, PacketId};

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Duration::from_micros(us)
    }

    fn pkt(n: u64) -> Packet {
        Packet::data(
            PacketId(n),
            FlowId(0),
            NodeId(1),
            NodeId(2),
            512,
            SimTime::ZERO,
        )
    }

    #[test]
    fn tolerance_formula() {
        // S=10, η=10 → S/η = 1; N = 0.2 → tolerance 0.8
        let tol = noise_tolerance(Milliwatts(10.0), Milliwatts(0.2), 10.0);
        assert!((tol.value() - 0.8).abs() < 1e-12);
        // At the capture limit the tolerance hits zero.
        let zero = noise_tolerance(Milliwatts(2.0), Milliwatts(0.2), 10.0);
        assert!(zero.value().abs() < 1e-12);
    }

    #[test]
    fn check_blocks_violating_power() {
        let mut ar = ActiveReceivers::new();
        // Tolerance 1e-6 mW at a receiver we reach with gain 1e-6.
        ar.record(
            NodeId(5),
            Milliwatts(1e-6),
            Milliwatts(281.83815 * 1e-6),
            Milliwatts(281.83815),
            t(1000),
        );
        // 1 mW × 1e-6 = 1e-6 > 0.7 × 1e-6 → blocked.
        assert_eq!(
            ar.check(Milliwatts(1.0), 0.7, None, t(0)),
            Err(t(1000)),
            "must defer until the reception completes"
        );
        // A quieter power passes: 0.5 mW × 1e-6 = 5e-7 ≤ 7e-7.
        assert!(ar.check(Milliwatts(0.5), 0.7, None, t(0)).is_ok());
    }

    #[test]
    fn check_exempts_own_receiver() {
        let mut ar = ActiveReceivers::new();
        ar.record(
            NodeId(5),
            Milliwatts(1e-9),
            Milliwatts(281.83815 * 1e-3),
            Milliwatts(281.83815),
            t(1000),
        );
        assert!(ar
            .check(Milliwatts(281.0), 0.7, Some(NodeId(5)), t(0))
            .is_ok());
        assert!(ar.check(Milliwatts(281.0), 0.7, None, t(0)).is_err());
    }

    #[test]
    fn check_ignores_expired_entries() {
        let mut ar = ActiveReceivers::new();
        ar.record(
            NodeId(5),
            Milliwatts(1e-9),
            Milliwatts(281.83815 * 1e-3),
            Milliwatts(281.83815),
            t(100),
        );
        assert!(ar.check(Milliwatts(281.0), 0.7, None, t(100)).is_ok());
        ar.purge(t(100));
        assert!(ar.is_empty());
    }

    #[test]
    fn check_reports_latest_blocking_expiry() {
        let mut ar = ActiveReceivers::new();
        let p_max = Milliwatts(281.83815);
        ar.record(NodeId(5), Milliwatts(1e-9), p_max * 1e-3, p_max, t(500));
        ar.record(NodeId(6), Milliwatts(1e-9), p_max * 1e-3, p_max, t(900));
        assert_eq!(ar.check(Milliwatts(100.0), 0.7, None, t(0)), Err(t(900)));
    }

    #[test]
    fn safety_factor_tightens_the_bound() {
        let mut ar = ActiveReceivers::new();
        let p_max = Milliwatts(281.83815);
        // induced = 1 mW × 1e-6 = 1e-6; tolerance 1.2e-6.
        ar.record(NodeId(5), Milliwatts(1.2e-6), p_max * 1e-6, p_max, t(1000));
        // factor 1.0: 1e-6 ≤ 1.2e-6 → ok.
        assert!(ar.check(Milliwatts(1.0), 1.0, None, t(0)).is_ok());
        // paper's 0.7: 1e-6 > 0.84e-6 → blocked.
        assert!(ar.check(Milliwatts(1.0), 0.7, None, t(0)).is_err());
    }

    #[test]
    fn sent_table_confirms_on_matching_echo() {
        let mut st = SentTable::new();
        let s = SessionId::for_pair(NodeId(1), NodeId(2));
        let seq = st.allocate_seq(NodeId(2));
        st.record_sent(NodeId(2), s, seq, pkt(1));
        assert_eq!(
            st.judge_echo(NodeId(2), Some((s, seq)), 4),
            EchoVerdict::Proceed
        );
        // Confirmed: a later mismatching echo has nothing to retransmit.
        assert_eq!(st.judge_echo(NodeId(2), None, 4), EchoVerdict::Proceed);
    }

    #[test]
    fn sent_table_retransmits_on_mismatch() {
        let mut st = SentTable::new();
        let s = SessionId::for_pair(NodeId(1), NodeId(2));
        let seq = st.allocate_seq(NodeId(2));
        st.record_sent(NodeId(2), s, seq, pkt(1));
        match st.judge_echo(NodeId(2), None, 4) {
            EchoVerdict::Retransmit(p) => assert_eq!(p.id, PacketId(1)),
            v => panic!("expected retransmit, got {v:?}"),
        }
        // Identity of the stored copy is stable for the retransmission.
        assert_eq!(st.stored_identity(NodeId(2)), Some((s, seq)));
    }

    #[test]
    fn sent_table_gives_up_after_cap() {
        let mut st = SentTable::new();
        let s = SessionId::for_pair(NodeId(1), NodeId(2));
        let seq = st.allocate_seq(NodeId(2));
        st.record_sent(NodeId(2), s, seq, pkt(1));
        assert!(matches!(
            st.judge_echo(NodeId(2), None, 2),
            EchoVerdict::Retransmit(_)
        ));
        st.record_sent(NodeId(2), s, seq, pkt(1)); // retransmitted
        assert!(matches!(
            st.judge_echo(NodeId(2), None, 2),
            EchoVerdict::Retransmit(_)
        ));
        st.record_sent(NodeId(2), s, seq, pkt(1));
        assert_eq!(st.judge_echo(NodeId(2), None, 2), EchoVerdict::GiveUp);
        // After giving up, the sender proceeds.
        assert_eq!(st.judge_echo(NodeId(2), None, 2), EchoVerdict::Proceed);
    }

    #[test]
    fn sequence_numbers_are_per_neighbour() {
        let mut st = SentTable::new();
        assert_eq!(st.allocate_seq(NodeId(2)), 0);
        assert_eq!(st.allocate_seq(NodeId(2)), 1);
        assert_eq!(st.allocate_seq(NodeId(3)), 0);
    }

    #[test]
    fn reset_peer_clears_sender_state() {
        let mut st = SentTable::new();
        let s = SessionId::for_pair(NodeId(1), NodeId(2));
        let seq = st.allocate_seq(NodeId(2));
        st.record_sent(NodeId(2), s, seq, pkt(1));
        st.reset_peer(NodeId(2));
        assert_eq!(st.judge_echo(NodeId(2), None, 4), EchoVerdict::Proceed);
        assert_eq!(
            st.allocate_seq(NodeId(2)),
            1,
            "seq stays monotonic across resets so the peer's duplicate \
             filter can never mistake a new session's frame for an old one"
        );
    }

    #[test]
    fn received_table_detects_duplicates() {
        let mut rt = ReceivedTable::new();
        let s = SessionId::for_pair(NodeId(1), NodeId(2));
        assert!(rt.accept(NodeId(1), s, 0), "first copy is fresh");
        assert!(!rt.accept(NodeId(1), s, 0), "second copy is a duplicate");
        assert!(rt.accept(NodeId(1), s, 1));
        assert_eq!(rt.echo_for(NodeId(1)), Some((s, 1)));
    }

    #[test]
    fn received_table_echo_empty_initially() {
        let rt = ReceivedTable::new();
        assert_eq!(rt.echo_for(NodeId(1)), None);
    }

    #[test]
    fn received_table_reset_clears_echo() {
        let mut rt = ReceivedTable::new();
        let s = SessionId::for_pair(NodeId(1), NodeId(2));
        rt.accept(NodeId(1), s, 5);
        rt.reset_peer(NodeId(1));
        assert_eq!(rt.echo_for(NodeId(1)), None);
    }
}
