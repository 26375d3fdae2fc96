//! Property-based tests of MAC-layer invariants.

use pcmac_engine::{Duration, Milliwatts, NodeId, RngStream, SessionId, SimTime};
use pcmac_mac::backoff::Backoff;
use pcmac_mac::nav::Nav;
use pcmac_mac::pcmac::{ActiveReceivers, EchoVerdict, ReceivedTable, SentTable};
use pcmac_mac::{Dot11Timing, FrameKind, MacConfig, PowerControl, Variant};
use pcmac_net::Packet;
use proptest::prelude::*;

fn t(us: u64) -> SimTime {
    SimTime::ZERO + Duration::from_micros(us)
}

proptest! {
    /// NAV expiry is monotone under any reservation sequence, and the
    /// medium reads idle exactly at/after expiry.
    #[test]
    fn nav_monotone(resvs in proptest::collection::vec((0u64..10_000, 0u64..10_000), 1..50)) {
        let mut nav = Nav::new();
        let mut last_expiry = SimTime::ZERO;
        let mut clock = 0u64;
        for (advance, dur) in resvs {
            clock += advance;
            nav.reserve(t(clock), Duration::from_micros(dur));
            prop_assert!(nav.expiry() >= last_expiry);
            last_expiry = nav.expiry();
            prop_assert!(!nav.is_busy(nav.expiry()));
            if dur > 0 {
                prop_assert!(nav.is_busy(t(clock)) || dur == 0);
            }
        }
    }

    /// The contention window walks 31→…→1023 and never leaves
    /// [cw_min, cw_max]; draws always fit the window.
    #[test]
    fn backoff_window_bounded(grows in 0usize..20, seed in any::<u64>()) {
        let mut rng = RngStream::derive(seed, "prop.backoff");
        let mut b = Backoff::new(31);
        for _ in 0..grows {
            b.grow(1023);
            prop_assert!((31..=1023).contains(&b.cw()));
            b.draw(&mut rng);
            prop_assert!(b.slots() <= b.cw());
        }
        b.reset_cw(31);
        prop_assert_eq!(b.cw(), 31);
    }

    /// Consuming idle time never increases the slot count, and consuming
    /// the full remaining time zeroes it.
    #[test]
    fn backoff_consume_monotone(seed in any::<u64>(), chunks in proptest::collection::vec(0u64..100, 1..20)) {
        let mut rng = RngStream::derive(seed, "prop.consume");
        let slot = Duration::from_micros(20);
        let mut b = Backoff::new(31);
        b.grow(1023); b.grow(1023);
        b.draw(&mut rng);
        let mut last = b.slots();
        for c in chunks {
            b.consume(Duration::from_micros(c * 20), slot);
            prop_assert!(b.slots() <= last);
            last = b.slots();
        }
        let rem = b.remaining_time(slot);
        b.consume(rem, slot);
        prop_assert!(b.is_done() || rem.is_zero());
    }

    /// The power history only ever returns a configured class (or max),
    /// regardless of the observation pattern.
    #[test]
    fn history_returns_valid_classes(
        obs in proptest::collection::vec((1u32..50, 1e-12f64..1e-2, 0u64..10_000_000), 1..60),
        query in 0u64..20_000_000,
    ) {
        let cfg = MacConfig::paper_default(Variant::Scheme2);
        let classes: Vec<f64> = cfg.levels.all().iter().map(|l| l.value()).collect();
        let mut h = PowerControl::new(&cfg);
        for (node, gain, at) in obs {
            h.learn(
                &cfg,
                NodeId(node),
                Milliwatts(281.83815 * gain),
                Milliwatts(281.83815),
                t(at),
            );
        }
        for node in 0..50u32 {
            let lvl = h.level(&cfg, FrameKind::Data, NodeId(node), t(query)).value();
            prop_assert!(
                classes.iter().any(|c| (c - lvl).abs() < 1e-12),
                "level {lvl} is not a class"
            );
        }
    }

    /// Sent-table liveness: under ANY echo pattern, a packet is
    /// retransmitted at most `max_retx` times before the sender moves on.
    #[test]
    fn sent_table_cannot_livelock(
        echoes in proptest::collection::vec(any::<bool>(), 1..30),
        max_retx in 1u8..6,
    ) {
        let mut st = SentTable::new();
        let peer = NodeId(2);
        let session = SessionId::for_pair(NodeId(1), peer);
        let seq = st.allocate_seq(peer);
        let packet = Packet::data(
            pcmac_engine::PacketId(1),
            pcmac_engine::FlowId(0),
            NodeId(1),
            peer,
            512,
            SimTime::ZERO,
        );
        st.record_sent(peer, session, seq, packet);
        let mut retransmissions = 0;
        for confirm in echoes {
            let echo = confirm.then_some((session, seq));
            match st.judge_echo(peer, echo, max_retx) {
                EchoVerdict::Retransmit(_) => {
                    retransmissions += 1;
                    // The MAC re-records the retransmitted copy.
                    let p = Packet::data(
                        pcmac_engine::PacketId(1),
                        pcmac_engine::FlowId(0),
                        NodeId(1),
                        peer,
                        512,
                        SimTime::ZERO,
                    );
                    st.record_sent(peer, session, seq, p);
                }
                EchoVerdict::Proceed | EchoVerdict::GiveUp => break,
            }
        }
        prop_assert!(retransmissions <= max_retx as usize);
    }

    /// Receiver dedup: replays of the same (session, seq) are flagged as
    /// duplicates exactly once per replay; new sequence numbers are fresh.
    #[test]
    fn received_table_dedup_exact(seqs in proptest::collection::vec(0u32..5, 1..40)) {
        let mut rt = ReceivedTable::new();
        let session = SessionId::for_pair(NodeId(1), NodeId(2));
        let mut last_accepted: Option<u32> = None;
        for s in seqs {
            let fresh = rt.accept(NodeId(1), session, s);
            // Fresh iff it differs from the immediately-preceding accept.
            prop_assert_eq!(fresh, last_accepted != Some(s));
            last_accepted = Some(s);
        }
    }

    /// ActiveReceivers::check is exactly the conjunction of per-entry
    /// constraints (matches a straightforward reference computation).
    #[test]
    fn tolerance_check_matches_reference(
        entries in proptest::collection::vec((1u32..20, 1e-12f64..1e-4, 1e-9f64..1e-3, 1u64..5000), 0..12),
        power in 1e-3f64..300.0,
        factor in 0.1f64..1.0,
    ) {
        let p_max = Milliwatts(281.83815);
        let mut ar = ActiveReceivers::new();
        let now = t(0);
        for (node, tol, gain, until_us) in &entries {
            ar.record(
                NodeId(*node),
                Milliwatts(*tol),
                p_max * *gain,
                p_max,
                t(*until_us),
            );
        }
        let verdict = ar.check(Milliwatts(power), factor, None, now);
        // Reference: any live entry with induced > factor×tol blocks.
        // (Later records overwrite earlier ones for the same node.)
        let mut last: std::collections::HashMap<u32, (f64, f64, u64)> = Default::default();
        for (node, tol, gain, until_us) in &entries {
            last.insert(*node, (*tol, *gain, *until_us));
        }
        let blocked = last.values().any(|(tol, gain, until_us)| {
            t(*until_us) > now && power * gain > factor * tol.max(0.0)
        });
        prop_assert_eq!(verdict.is_err(), blocked);
    }

    /// Frame airtime is positive, finite and increases with size for
    /// arbitrary data payloads.
    #[test]
    fn airtime_monotone_in_size(a in 1u32..2000, b in 1u32..2000) {
        let t11 = Dot11Timing::ns2_default();
        let (small, large) = if a < b { (a, b) } else { (b, a) };
        let ta = t11.airtime_data(small);
        let tb = t11.airtime_data(large);
        prop_assert!(ta <= tb);
        prop_assert!(ta > Duration::ZERO);
    }
}
