//! Edge-case behaviour of the DCF engine: wrong-peer frames, response
//! races, backoff freezing arithmetic, queue plumbing, peer resets.

use pcmac_engine::{
    Duration, FlowId, Milliwatts, NodeId, PacketId, SessionId, SimTime, TimerToken,
};
use pcmac_mac::{DcfMac, Frame, FrameBody, FrameKind, MacAction, MacConfig, MacTimerKind, Variant};
use pcmac_net::Packet;

const MAX_P: Milliwatts = Milliwatts(281.83815);

fn t(us: u64) -> SimTime {
    SimTime::ZERO + Duration::from_micros(us)
}

fn mac(id: u32, variant: Variant) -> DcfMac {
    DcfMac::new(NodeId(id), MacConfig::paper_default(variant), 42)
}

fn data_packet(n: u64, src: u32, dst: u32) -> Packet {
    Packet::data(
        PacketId(n),
        FlowId(0),
        NodeId(src),
        NodeId(dst),
        512,
        SimTime::ZERO,
    )
}

fn armed(out: &[MacAction], kind: MacTimerKind) -> Option<(Duration, TimerToken)> {
    out.iter().find_map(|a| match a {
        MacAction::Arm {
            kind: k,
            delay,
            token,
        } if *k == kind => Some((*delay, *token)),
        _ => None,
    })
}

fn tx_frames(out: &[MacAction]) -> Vec<Frame> {
    out.iter()
        .filter_map(|a| match a {
            MacAction::TxFrame { frame, .. } => Some(frame.clone()),
            _ => None,
        })
        .collect()
}

/// Drive to WaitCts: enqueue, defer/backoff, RTS on air, tx end.
fn to_wait_cts(m: &mut DcfMac, pkt: Packet) -> SimTime {
    let mut out = Vec::new();
    m.enqueue(pkt, NodeId(2), t(0), &mut out);
    let (d, tok) = armed(&out, MacTimerKind::Defer).unwrap();
    let mut now = t(0) + d;
    out.clear();
    m.on_timer(MacTimerKind::Defer, tok, now, &mut out);
    if let Some((bd, tok2)) = armed(&out, MacTimerKind::Backoff) {
        now += bd;
        out.clear();
        m.on_timer(MacTimerKind::Backoff, tok2, now, &mut out);
    }
    assert_eq!(tx_frames(&out)[0].kind, FrameKind::Rts);
    now += Duration::from_micros(352);
    out.clear();
    m.on_tx_end(now, &mut out);
    assert!(armed(&out, MacTimerKind::CtsTimeout).is_some());
    now
}

fn mk_cts(from: u32) -> Frame {
    Frame {
        kind: FrameKind::Cts,
        tx: NodeId(from),
        rx: NodeId(1),
        duration: Duration::from_micros(2500),
        tx_power: MAX_P,
        body: FrameBody::Cts {
            required_data_power: None,
            last_received: None,
        },
    }
}

#[test]
fn cts_from_wrong_peer_is_ignored() {
    let mut m = mac(1, Variant::Basic);
    let now = to_wait_cts(&mut m, data_packet(1, 1, 2));
    let mut out = Vec::new();
    // CTS arrives from node 9, not our peer 2.
    m.on_rx_end(
        mk_cts(9),
        Milliwatts(1e-4),
        true,
        now + Duration::from_micros(300),
        &mut out,
    );
    assert!(
        armed(&out, MacTimerKind::Response).is_none(),
        "wrong-peer CTS must not start a DATA response"
    );
    // The right CTS still works afterwards.
    out.clear();
    m.on_rx_end(
        mk_cts(2),
        Milliwatts(1e-4),
        true,
        now + Duration::from_micros(310),
        &mut out,
    );
    assert!(armed(&out, MacTimerKind::Response).is_some());
}

#[test]
fn stray_ack_outside_wait_ack_is_ignored() {
    let mut m = mac(1, Variant::Basic);
    let mut out = Vec::new();
    let ack = Frame {
        kind: FrameKind::Ack,
        tx: NodeId(2),
        rx: NodeId(1),
        duration: Duration::ZERO,
        tx_power: MAX_P,
        body: FrameBody::Ack,
    };
    m.on_rx_end(ack, Milliwatts(1e-4), true, t(5), &mut out);
    // Nothing armed, nothing transmitted, nothing delivered.
    assert!(
        out.iter().all(|a| !matches!(a, MacAction::Arm { .. })),
        "stray ACK caused actions: {out:?}"
    );
}

#[test]
fn overheard_data_reserves_ack_window() {
    let mut m = mac(3, Variant::Basic);
    let mut out = Vec::new();
    let data = Frame {
        kind: FrameKind::Data,
        tx: NodeId(1),
        rx: NodeId(2),
        duration: Duration::from_micros(314), // SIFS + ACK
        tx_power: MAX_P,
        body: FrameBody::Data {
            packet: data_packet(1, 1, 2),
            seq: 0,
            session: SessionId::for_pair(NodeId(1), NodeId(2)),
            needs_ack: true,
        },
    };
    m.on_rx_end(data, Milliwatts(1e-4), true, t(0), &mut out);
    let (delay, _) = armed(&out, MacTimerKind::NavExpire).expect("NAV from DATA duration");
    assert_eq!(delay, Duration::from_micros(314));
}

#[test]
fn broadcast_data_sets_no_nav() {
    let mut m = mac(3, Variant::Basic);
    let mut out = Vec::new();
    let bcast = Frame {
        kind: FrameKind::Data,
        tx: NodeId(1),
        rx: NodeId::BROADCAST,
        duration: Duration::ZERO,
        tx_power: MAX_P,
        body: FrameBody::Data {
            packet: data_packet(1, 1, 2),
            seq: 0,
            session: SessionId::for_pair(NodeId(1), NodeId::BROADCAST),
            needs_ack: false,
        },
    };
    m.on_rx_end(bcast, Milliwatts(1e-4), true, t(0), &mut out);
    assert!(armed(&out, MacTimerKind::NavExpire).is_none());
    // Broadcast content is delivered upward.
    assert!(out.iter().any(|a| matches!(a, MacAction::Deliver { .. })));
}

#[test]
fn rts_ignored_while_response_pending() {
    let mut m = mac(2, Variant::Basic);
    let mut out = Vec::new();
    let rts = |from: u32| Frame {
        kind: FrameKind::Rts,
        tx: NodeId(from),
        rx: NodeId(2),
        duration: Duration::from_micros(4000),
        tx_power: MAX_P,
        body: FrameBody::Rts { sender_noise: None },
    };
    m.on_rx_end(rts(1), Milliwatts(1e-4), true, t(0), &mut out);
    assert!(armed(&out, MacTimerKind::Response).is_some());
    out.clear();
    // A second RTS lands before our CTS response fires.
    m.on_rx_end(rts(7), Milliwatts(1e-4), true, t(3), &mut out);
    assert!(
        armed(&out, MacTimerKind::Response).is_none(),
        "second responder role must be refused while one is pending"
    );
}

#[test]
fn backoff_freeze_consumes_whole_slots_only() {
    let mut m = mac(1, Variant::Basic);
    let mut out = Vec::new();
    // Busy medium at enqueue → backoff path with a drawn count.
    m.on_carrier(true, t(0), &mut out);
    m.enqueue(data_packet(1, 1, 2), NodeId(2), t(1), &mut out);
    out.clear();
    m.on_carrier(false, t(100), &mut out);
    let (difs, tok) = armed(&out, MacTimerKind::Defer).unwrap();
    let t_defer_done = t(100) + difs;
    out.clear();
    m.on_timer(MacTimerKind::Defer, tok, t_defer_done, &mut out);
    let Some((total, _tok2)) = armed(&out, MacTimerKind::Backoff) else {
        // Zero draw: nothing to freeze; the scenario is vacuous with this
        // seed, which the launch helper in other tests covers.
        return;
    };
    let slots = total.as_micros() / 20;
    if slots < 2 {
        return;
    }
    // Freeze 1.5 slots into the countdown.
    let t_freeze = t_defer_done + Duration::from_micros(30);
    out.clear();
    m.on_carrier(true, t_freeze, &mut out);
    // Resume: defer again, then the remaining count must be slots − 1
    // (only the *whole* elapsed slot is consumed).
    out.clear();
    m.on_carrier(false, t_freeze + Duration::from_micros(50), &mut out);
    let (difs2, tok3) = armed(&out, MacTimerKind::Defer).unwrap();
    out.clear();
    m.on_timer(
        MacTimerKind::Defer,
        tok3,
        t_freeze + Duration::from_micros(50) + difs2,
        &mut out,
    );
    let (rem, _) = armed(&out, MacTimerKind::Backoff).expect("residual count");
    assert_eq!(
        rem.as_micros() / 20,
        slots - 1,
        "1.5 idle slots → exactly 1 slot consumed"
    );
}

#[test]
fn drain_next_hop_empties_queue_for_dead_peer() {
    let mut m = mac(1, Variant::Basic);
    let mut out = Vec::new();
    for n in 0..5 {
        m.enqueue(data_packet(n, 1, 2), NodeId(2), t(0), &mut out);
    }
    for n in 5..8 {
        m.enqueue(data_packet(n, 1, 3), NodeId(3), t(0), &mut out);
    }
    // One job is current (to node 2); the queue holds 4 + 3.
    let drained = m.drain_next_hop(NodeId(2));
    assert_eq!(drained.len(), 4, "queued frames for the dead hop");
    assert!(drained.iter().all(|qp| qp.next_hop == NodeId(2)));
    assert_eq!(m.queue_len(), 3 + 1, "others (and the current job) remain");
}

#[test]
fn pcmac_gives_up_after_retransmission_cap() {
    let mut cfg = MacConfig::paper_default(Variant::Pcmac);
    cfg.pcmac.max_retx = 1; // give up after a single replay
    let mut m = DcfMac::new(NodeId(1), cfg, 42);

    let mk_cts_none = || Frame {
        kind: FrameKind::Cts,
        tx: NodeId(2),
        rx: NodeId(1),
        duration: Duration::from_micros(2500),
        tx_power: Milliwatts(1.0),
        body: FrameBody::Cts {
            required_data_power: Some(Milliwatts(1.0)),
            last_received: None, // never confirms anything
        },
    };

    // Exchange 1: packet 1 sent (seq 0), receiver echoes nothing.
    let mut now = to_wait_cts(&mut m, data_packet(1, 1, 2));
    let mut out = Vec::new();
    now += Duration::from_micros(314);
    m.on_rx_end(mk_cts_none(), Milliwatts(1e-3), true, now, &mut out);
    let (_, tok) = armed(&out, MacTimerKind::Response).unwrap();
    out.clear();
    now += Duration::from_micros(10);
    m.on_timer(MacTimerKind::Response, tok, now, &mut out);
    out.clear();
    now += Duration::from_micros(2500);
    m.on_tx_end(now, &mut out);

    // Exchange 2 (packet 2): echo still None → replay packet 1 (retx 1).
    let step = |m: &mut DcfMac, now: &mut SimTime, enqueue: Option<Packet>| -> Frame {
        let mut out = Vec::new();
        if let Some(p) = enqueue {
            m.enqueue(p, NodeId(2), *now, &mut out);
        } else {
            // The job is already current (queued at the previous step);
            // bounce the medium to retrigger the access procedure.
            m.on_carrier(true, *now, &mut out);
            *now += Duration::from_micros(5);
            m.on_carrier(false, *now, &mut out);
        }
        let (d, tok) = armed(&out, MacTimerKind::Defer).unwrap();
        *now += d;
        out.clear();
        m.on_timer(MacTimerKind::Defer, tok, *now, &mut out);
        if let Some((bd, tok2)) = armed(&out, MacTimerKind::Backoff) {
            *now += bd;
            out.clear();
            m.on_timer(MacTimerKind::Backoff, tok2, *now, &mut out);
        }
        *now += Duration::from_micros(352);
        out.clear();
        m.on_tx_end(*now, &mut out);
        *now += Duration::from_micros(314);
        out.clear();
        m.on_rx_end(mk_cts_none(), Milliwatts(1e-3), true, *now, &mut out);
        let (_, tok) = armed(&out, MacTimerKind::Response).unwrap();
        *now += Duration::from_micros(10);
        out.clear();
        m.on_timer(MacTimerKind::Response, tok, *now, &mut out);
        let f = tx_frames(&out)[0].clone();
        *now += Duration::from_micros(2500);
        let mut out2 = Vec::new();
        m.on_tx_end(*now, &mut out2);
        f
    };

    let f2 = step(&mut m, &mut now, Some(data_packet(2, 1, 2)));
    match &f2.body {
        FrameBody::Data { packet, .. } => {
            assert_eq!(packet.id, PacketId(1), "first mismatch replays packet 1")
        }
        b => panic!("{b:?}"),
    }
    assert_eq!(m.counters.implicit_retx, 1);

    // Exchange 3: echo still None, but cap (1) is reached → give up and
    // send the fresh packet 2.
    let f3 = step(&mut m, &mut now, None);
    match &f3.body {
        FrameBody::Data { packet, .. } => {
            assert_eq!(packet.id, PacketId(2), "cap reached: move on")
        }
        b => panic!("{b:?}"),
    }
    assert_eq!(m.counters.implicit_give_ups, 1);
}

#[test]
fn reset_peer_state_forgets_the_echo() {
    let mut m = mac(2, Variant::Pcmac);
    let mut out = Vec::new();
    let session = SessionId::for_pair(NodeId(1), NodeId(2));
    // Receive a data frame → received-table remembers (session, 0).
    let data = Frame {
        kind: FrameKind::Data,
        tx: NodeId(1),
        rx: NodeId(2),
        duration: Duration::ZERO,
        tx_power: Milliwatts(2.0),
        body: FrameBody::Data {
            packet: data_packet(1, 1, 2),
            seq: 0,
            session,
            needs_ack: false,
        },
    };
    m.on_rx_end(data, Milliwatts(1e-3), true, t(0), &mut out);
    out.clear();

    // An RTS now draws a CTS echoing (session, 0).
    let rts = Frame {
        kind: FrameKind::Rts,
        tx: NodeId(1),
        rx: NodeId(2),
        duration: Duration::from_micros(3000),
        tx_power: Milliwatts(2.0),
        body: FrameBody::Rts {
            sender_noise: Some(Milliwatts(1e-9)),
        },
    };
    m.on_rx_end(rts.clone(), Milliwatts(1e-3), true, t(400), &mut out);
    let (_, tok) = armed(&out, MacTimerKind::Response).unwrap();
    out.clear();
    m.on_timer(MacTimerKind::Response, tok, t(410), &mut out);
    match &tx_frames(&out)[0].body {
        FrameBody::Cts { last_received, .. } => {
            assert_eq!(*last_received, Some((session, 0)))
        }
        b => panic!("{b:?}"),
    }
    let mut out2 = Vec::new();
    m.on_tx_end(t(714), &mut out2); // finish our CTS

    // Routing reset (RREP/RERR) clears the table → echo gone.
    m.reset_peer_state(NodeId(1));
    let mut out = Vec::new();
    m.on_rx_end(rts, Milliwatts(1e-3), true, t(10_000), &mut out);
    let (_, tok) = armed(&out, MacTimerKind::Response).unwrap();
    out.clear();
    m.on_timer(MacTimerKind::Response, tok, t(10_010), &mut out);
    match &tx_frames(&out)[0].body {
        FrameBody::Cts { last_received, .. } => {
            assert_eq!(*last_received, None, "reset must forget the echo")
        }
        b => panic!("{b:?}"),
    }
}

/// The MAC's state written under one configuration and loaded under
/// another: `Ok`, or the reason the load was refused.
fn reload(from: &DcfMac, into: MacConfig) -> Result<(), pcmac_snap::SnapError> {
    let mut w = pcmac_snap::SnapWriter::new();
    from.save_state(&mut w);
    let mut restored = DcfMac::new(NodeId(1), into, 42);
    restored.load_state(&mut pcmac_snap::SnapReader::over(w.payload()))
}

/// A checkpoint carries no contention-window bounds or queue capacity:
/// the loading MAC's configuration supplies them, and a window outside
/// `[cw_min, cw_max]` (a crafted `u32::MAX` would stall every draw) or
/// more queued packets than the capacity is refused, not taken.
#[test]
fn restore_refuses_a_window_or_a_backlog_the_configuration_cannot_hold() {
    use pcmac_snap::SnapError::Corrupt;
    let base = MacConfig::paper_default(Variant::Basic);
    let with = |f: &dyn Fn(&mut MacConfig)| {
        let mut c = base.clone();
        f(&mut c);
        c
    };
    let window = Err(Corrupt("contention window outside its bounds"));

    let fresh = mac(1, Variant::Basic);
    assert_eq!(reload(&fresh, base.clone()), Ok(()));
    let narrow = with(&|c| (c.timing.cw_min, c.timing.cw_max) = (63, 1023));
    assert_eq!(reload(&fresh, narrow), window, "31 under cw_min 63");
    let huge = DcfMac::new(
        NodeId(1),
        with(&|c| (c.timing.cw_min, c.timing.cw_max) = (u32::MAX, u32::MAX)),
        42,
    );
    assert_eq!(reload(&huge, base.clone()), window, "u32::MAX");

    let mut busy = mac(1, Variant::Basic);
    let mut out = Vec::new();
    for n in 0..4 {
        busy.enqueue(data_packet(n, 1, 2), NodeId(2), t(0), &mut out);
    }
    assert_eq!(busy.queue_len(), 4, "one in hand, three waiting");
    assert_eq!(reload(&busy, with(&|c| c.queue_capacity = 3)), Ok(()));
    assert_eq!(
        reload(&busy, with(&|c| c.queue_capacity = 2)),
        Err(Corrupt("interface queue over its capacity"))
    );
}
