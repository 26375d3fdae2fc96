//! The power-control seam, pinned from outside the crate.
//!
//! Three properties every refactor of "which power does this frame ride
//! at" must hold, each driven through the public [`DcfMac`] handlers only
//! and each naming the paper section it pins:
//!
//! * §IV — the table of which of RTS / CTS / DATA / ACK ride at the
//!   learned "needed" level under each of the four protocols.
//! * §III step 3 — what a PCMAC responder computes for its CTS power and
//!   for the DATA power it dictates.
//! * §III step 2 — the collision computation protects receptions only
//!   under PCMAC: a station of any other protocol keeps no registry, so
//!   nothing it is handed on the control channel can hold a frame back.
//! * §III step 2 — a PCMAC RTS climbs one class per CTS timeout up to the
//!   maximum, the next job toward that peer starts where the ladder
//!   stopped for as long as the table keeps it, and a checkpoint taken
//!   mid-ladder resumes on the same rung.

use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, PacketId, SimTime, TimerToken};
use pcmac_mac::{
    CtrlFrame, DcfMac, Frame, FrameBody, FrameKind, MacAction, MacConfig, MacTimerKind, Variant,
};
use pcmac_net::Packet;
use pcmac_snap::{SnapReader, SnapWriter};

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

/// The one frame `out` puts on the air; its header power must be the
/// radiated power.
fn on_air(out: &[MacAction]) -> Frame {
    let mut frames = out.iter().filter_map(|a| match a {
        MacAction::TxFrame { frame, power } => Some((frame, *power)),
        _ => None,
    });
    let (frame, power) = frames.next().expect("a frame on the air");
    assert!(frames.next().is_none(), "exactly one frame: {out:?}");
    assert_eq!(frame.tx_power, power, "header stamps the radiated power");
    frame.clone()
}

/// Fire whichever of `kinds` is armed in `log[from..]`, in order, until a
/// frame is on the air; returns it and the instant it launched.
fn walk_to_air(
    m: &mut DcfMac,
    log: &mut Vec<MacAction>,
    mut from: usize,
    mut now: SimTime,
    kinds: &[MacTimerKind],
) -> (Frame, SimTime) {
    for &kind in kinds {
        let Some((delay, token)) = armed(&log[from..], kind) else {
            continue;
        };
        now += delay;
        from = log.len();
        m.on_timer(kind, token, now, log);
        if log[from..]
            .iter()
            .any(|a| matches!(a, MacAction::TxFrame { .. }))
        {
            return (on_air(&log[from..]), now);
        }
    }
    panic!("no frame reached the air: {:?}", &log[from..]);
}

const ACCESS: [MacTimerKind; 2] = [MacTimerKind::Defer, MacTimerKind::Backoff];
const RESPONSE: [MacTimerKind; 1] = [MacTimerKind::Response];

/// The frames of one unicast exchange between two stations, as they left
/// each antenna.
struct Exchange {
    rts: Frame,
    cts: Frame,
    data: Frame,
    ack: Option<Frame>,
}

/// Carry one data packet from `a` to `b` by hand: every frame one station
/// emits is handed to the other at `gain` times its transmit power, the
/// way a reciprocal channel would. Every action of either station lands in
/// the returned log.
fn run_exchange(
    a: &mut DcfMac,
    b: &mut DcfMac,
    gain: f64,
    start: SimTime,
) -> (Exchange, Vec<MacAction>) {
    let (ida, idb) = (a.id(), b.id());
    let mut la = Vec::new();
    let mut lb = Vec::new();

    a.enqueue(data_packet(1, ida.0, idb.0), idb, start, &mut la);
    let (rts, mut now) = walk_to_air(a, &mut la, 0, start, &ACCESS);
    assert_eq!(rts.kind, FrameKind::Rts);
    now += Duration::from_micros(352);
    a.on_tx_end(now, &mut la);

    let from = lb.len();
    b.on_rx_end(rts.clone(), rts.tx_power * gain, true, now, &mut lb);
    let (cts, mut now) = walk_to_air(b, &mut lb, from, now, &RESPONSE);
    assert_eq!(cts.kind, FrameKind::Cts);
    now += Duration::from_micros(304);
    b.on_tx_end(now, &mut lb);

    let from = la.len();
    a.on_rx_end(cts.clone(), cts.tx_power * gain, true, now, &mut la);
    let (data, mut now) = walk_to_air(a, &mut la, from, now, &RESPONSE);
    assert_eq!(data.kind, FrameKind::Data);
    now += Duration::from_micros(2464);
    a.on_tx_end(now, &mut la);

    let from = lb.len();
    b.on_rx_end(data.clone(), data.tx_power * gain, true, now, &mut lb);
    assert!(
        lb[from..]
            .iter()
            .any(|x| matches!(x, MacAction::Deliver { .. })),
        "DATA delivered upward"
    );
    let mut ack = None;
    if armed(&lb[from..], MacTimerKind::Response).is_some() {
        let (frame, mut now) = walk_to_air(b, &mut lb, from, now, &RESPONSE);
        assert_eq!(frame.kind, FrameKind::Ack);
        now += Duration::from_micros(304);
        b.on_tx_end(now, &mut lb);
        a.on_rx_end(frame.clone(), frame.tx_power * gain, true, now, &mut la);
        ack = Some(frame);
    }
    assert_eq!(a.queue_len(), 0, "exchange complete at the sender");

    la.append(&mut lb);
    (
        Exchange {
            rts,
            cts,
            data,
            ack,
        },
        la,
    )
}

/// Teach `m` the needed level toward `peer` off one max-power frame heard
/// through `gain`.
fn teach(m: &mut DcfMac, peer: u32, gain: f64) {
    let frame = Frame {
        kind: FrameKind::Ack,
        tx: NodeId(peer),
        rx: m.id(),
        duration: Duration::ZERO,
        tx_power: MAX_P,
        body: FrameBody::Ack,
    };
    m.on_rx_end(frame, MAX_P * gain, true, t(0), &mut Vec::new());
}

/// Gain at which the decode threshold needs 36.52 mW: class 36.6 mW, well
/// inside the ladder so it can be told from both ends.
const GAIN: f64 = 1e-8;
const NEEDED: Milliwatts = Milliwatts(36.6);

/// Paper §IV: which frames ride at the needed level, per protocol.
/// `None` in the ACK column: PCMAC's three-way handshake sends none.
fn section_iv_row(variant: Variant) -> [Option<Milliwatts>; 4] {
    match variant {
        Variant::Basic => [Some(MAX_P), Some(MAX_P), Some(MAX_P), Some(MAX_P)],
        Variant::Scheme1 => [Some(MAX_P), Some(MAX_P), Some(NEEDED), Some(NEEDED)],
        Variant::Scheme2 => [Some(NEEDED), Some(NEEDED), Some(NEEDED), Some(NEEDED)],
        Variant::Pcmac => [Some(NEEDED), Some(NEEDED), Some(NEEDED), None],
    }
}

#[test]
fn section_iv_power_table_holds_on_the_air_for_every_variant() {
    for variant in Variant::ALL {
        let (mut a, mut b) = (mac(1, variant), mac(2, variant));
        teach(&mut a, 2, GAIN);
        teach(&mut b, 1, GAIN);
        let (ex, _) = run_exchange(&mut a, &mut b, GAIN, t(10));
        let got = [
            Some(ex.rts.tx_power),
            Some(ex.cts.tx_power),
            Some(ex.data.tx_power),
            ex.ack.map(|f| f.tx_power),
        ];
        assert_eq!(
            got,
            section_iv_row(variant),
            "{variant:?}: RTS / CTS / DATA / ACK"
        );
    }
}

#[test]
fn a_station_with_no_record_sends_its_rts_at_the_normal_power() {
    // Paper §III: "if A has no power level record as to B, A uses the
    // normal power level". The RTS then teaches the responder, and the CTS
    // the requester, before either answers, so the rest of the row is the
    // table's.
    for variant in Variant::ALL {
        let (mut a, mut b) = (mac(1, variant), mac(2, variant));
        let (ex, _) = run_exchange(&mut a, &mut b, GAIN, t(10));
        let row = section_iv_row(variant);
        assert_eq!(ex.rts.tx_power, MAX_P, "{variant:?}");
        assert_eq!(Some(ex.cts.tx_power), row[1], "{variant:?}");
        assert_eq!(Some(ex.data.tx_power), row[2], "{variant:?}");
        assert_eq!(ex.ack.map(|f| f.tx_power), row[3], "{variant:?}");
    }
}

#[test]
fn pcmac_responder_sizes_cts_and_data_power_from_noise() {
    // Paper §III step 3: B answers an RTS heard at S, sent at P_t, with a
    // CTS strong enough to clear the decode threshold and η_cp times the
    // noise N_A the requester advertised, and requires the DATA at
    // P = η_cp · N_B · P_t / S (never below the decode-threshold class).
    let cfg = MacConfig::paper_default(Variant::Pcmac);
    let p_t = Milliwatts(15.0);
    let s = p_t * 1e-7;
    let class = |need_rx: f64| {
        cfg.levels
            .quantize_up_or_max(Milliwatts(need_rx * p_t.value() / s.value()))
    };
    let eta = cfg.pcmac.capture_ratio;
    let rx_thresh = cfg.rx_thresh.value();

    let respond = |n_a: Option<Milliwatts>, n_b: Milliwatts| -> Frame {
        let mut b = mac(2, Variant::Pcmac);
        b.set_noise(n_b);
        let rts = Frame {
            kind: FrameKind::Rts,
            tx: NodeId(1),
            rx: NodeId(2),
            duration: Duration::from_micros(4000),
            tx_power: p_t,
            body: FrameBody::Rts { sender_noise: n_a },
        };
        let mut log = Vec::new();
        b.on_rx_end(rts, s, true, t(0), &mut log);
        walk_to_air(&mut b, &mut log, 0, t(0), &RESPONSE).0
    };
    let required = |cts: &Frame| match cts.body {
        FrameBody::Cts {
            required_data_power,
            ..
        } => required_data_power.expect("PCMAC dictates the DATA power"),
        ref b => panic!("not a CTS body: {b:?}"),
    };

    // Noise on both sides, different so the two results cannot be swapped.
    let (n_a, n_b) = (Milliwatts(1e-7), Milliwatts(5e-7));
    let cts = respond(Some(n_a), n_b);
    assert_eq!(cts.tx_power, class(rx_thresh.max(eta * n_a.value())));
    assert_eq!(cts.tx_power, Milliwatts(10.6), "η·N_A / g = 10 mW");
    assert_eq!(required(&cts), class(rx_thresh.max(eta * n_b.value())));
    assert_eq!(required(&cts), Milliwatts(75.8), "η·N_B / g = 50 mW");

    // Quiet on both sides (and an RTS that advertises nothing): both fall
    // to the class that just clears the decode threshold, 3.652 mW → 4.8.
    for n_a in [Some(Milliwatts::ZERO), None] {
        let cts = respond(n_a, Milliwatts::ZERO);
        assert_eq!(cts.tx_power, class(rx_thresh));
        assert_eq!(cts.tx_power, Milliwatts(4.8));
        assert_eq!(required(&cts), Milliwatts(4.8));
    }

    // Noise below threshold/η changes nothing; noise past the top class
    // saturates at the maximum.
    let cts = respond(Some(Milliwatts(1e-9)), Milliwatts(1e-3));
    assert_eq!(cts.tx_power, Milliwatts(4.8));
    assert_eq!(required(&cts), MAX_P);
}

#[test]
fn only_pcmac_stations_act_on_control_channel_advertisements() {
    // Paper §III step 2 is PCMAC's alone. An advertisement that would
    // block every power class (strong gain, no tolerance, long-lived) is
    // handed to both stations; under Basic, Scheme 1 and Scheme 2 the
    // exchange runs exactly as without it.
    let advert = |receiver: u32| CtrlFrame {
        receiver: NodeId(receiver),
        noise_tolerance: Milliwatts(1e-12),
        remaining: Duration::from_millis(50),
        tx_power: MAX_P,
    };
    for variant in [Variant::Basic, Variant::Scheme1, Variant::Scheme2] {
        let (mut a, mut b) = (mac(1, variant), mac(2, variant));
        teach(&mut a, 2, GAIN);
        teach(&mut b, 1, GAIN);
        for m in [&mut a, &mut b] {
            m.on_ctrl_rx(advert(5), MAX_P * 1e-2, t(5));
            m.on_ctrl_rx(advert(6), MAX_P * 1e-2, t(6));
        }
        let (ex, log) = run_exchange(&mut a, &mut b, GAIN, t(10));
        assert_eq!(
            [
                ex.rts.tx_power,
                ex.cts.tx_power,
                ex.data.tx_power,
                ex.ack.expect("four-way handshake").tx_power
            ]
            .map(Some),
            section_iv_row(variant),
            "{variant:?}"
        );
        assert!(
            armed(&log, MacTimerKind::CtrlRetry).is_none(),
            "{variant:?} armed CtrlRetry"
        );
        for m in [&a, &b] {
            assert_eq!(m.counters.ctrl_deferrals, 0, "{variant:?}");
        }

        // Broadcasts and sub-threshold unicasts (no RTS) are the other two
        // frames a PCMAC station would hold back.
        let mut cfg = MacConfig::paper_default(variant);
        cfg.rts_threshold = 2000;
        let mut c = DcfMac::new(NodeId(3), cfg, 42);
        c.on_ctrl_rx(advert(5), MAX_P * 1e-2, t(5));
        for (n, hop) in [(1, NodeId::BROADCAST), (2, NodeId(2))] {
            let mut log = Vec::new();
            let start = t(10_000 * n);
            c.enqueue(data_packet(n, 3, 2), hop, start, &mut log);
            let (frame, now) = walk_to_air(&mut c, &mut log, 0, start, &ACCESS);
            assert_eq!(frame.kind, FrameKind::Data, "{variant:?}");
            assert!(armed(&log, MacTimerKind::CtrlRetry).is_none());
            // Only the broadcast's end matters: the unicast stays in
            // flight, unanswered, and nothing follows it.
            c.on_tx_end(now + Duration::from_micros(2464), &mut log);
        }
        assert_eq!(c.counters.ctrl_deferrals, 0, "{variant:?}");
    }

    // The same advertisement does stop a PCMAC station (the contrast that
    // shows the scenario bites).
    let mut p = mac(1, Variant::Pcmac);
    p.on_ctrl_rx(advert(5), MAX_P * 1e-2, t(5));
    let mut log = Vec::new();
    p.enqueue(data_packet(1, 1, 2), NodeId(2), t(10), &mut log);
    let (difs, tok) = armed(&log, MacTimerKind::Defer).expect("idle medium");
    log.clear();
    p.on_timer(MacTimerKind::Defer, tok, t(10) + difs, &mut log);
    if let Some((bd, tok)) = armed(&log, MacTimerKind::Backoff) {
        log.clear();
        p.on_timer(MacTimerKind::Backoff, tok, t(10) + difs + bd, &mut log);
    }
    assert!(armed(&log, MacTimerKind::CtrlRetry).is_some(), "{log:?}");
    assert_eq!(p.counters.ctrl_deferrals, 1);
}

/// Enqueue one packet at `m` toward `peer` at `start` and let every RTS
/// go unanswered, for at most `timeouts` CTS timeouts or until the job is
/// dropped: the level of every RTS that reached the air, the instant the
/// last timeout fired, and the actions that timeout produced.
fn rts_ladder(
    m: &mut DcfMac,
    peer: u32,
    start: SimTime,
    timeouts: usize,
) -> (Vec<Milliwatts>, SimTime, Vec<MacAction>) {
    let mut log = Vec::new();
    m.enqueue(
        data_packet(1, m.id().0, peer),
        NodeId(peer),
        start,
        &mut log,
    );
    let (mut rts, mut now) = walk_to_air(m, &mut log, 0, start, &ACCESS);
    let mut levels = Vec::new();
    loop {
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.rx, NodeId(peer));
        levels.push(rts.tx_power);
        now += Duration::from_micros(352);
        let from = log.len();
        m.on_tx_end(now, &mut log);
        let (cto, tok) = armed(&log[from..], MacTimerKind::CtsTimeout).expect("waits for a CTS");
        now += cto;
        let from = log.len();
        m.on_timer(MacTimerKind::CtsTimeout, tok, now, &mut log);
        let retry = armed(&log[from..], MacTimerKind::Defer).is_some();
        if levels.len() == timeouts || !retry {
            return (levels, now, log.split_off(from));
        }
        (rts, now) = walk_to_air(m, &mut log, from, now, &ACCESS);
    }
}

#[test]
fn pcmac_rts_ladder_climbs_per_cts_timeout_and_is_remembered() {
    let ladder = |teach_gain: f64| {
        let mut a = mac(1, Variant::Pcmac);
        teach(&mut a, 2, teach_gain);
        let (levels, last, _) = rts_ladder(&mut a, 2, t(10), usize::MAX);
        (a, levels, last)
    };

    // One class per timeout from the learned 36.6 mW, then the maximum
    // and no further: seven attempts (the short retry limit) in all.
    let (a, levels, _) = ladder(GAIN);
    let cap = MacConfig::paper_default(Variant::Pcmac).timing.retry_short;
    assert_eq!(levels.len(), usize::from(cap));
    assert_eq!(
        levels,
        [NEEDED, Milliwatts(75.8), MAX_P, MAX_P, MAX_P, MAX_P, MAX_P]
    );
    assert_eq!(a.counters.power_step_ups, 2);
    assert_eq!(a.counters.retry_drops, 1);

    // From the lowest class the seven timeouts step it seven times; the
    // last rung (36.6 mW) is never sent for that job, but the table keeps
    // it for the peer, so the next job starts there — until 3 s after
    // that last timeout, when the peer is unknown again.
    let (a, levels, last) = ladder(1e-3);
    assert_eq!(
        levels,
        [1.0, 2.0, 3.45, 4.8, 7.25, 10.6, 15.0].map(Milliwatts)
    );
    assert_eq!(a.counters.power_step_ups, 7);
    let expiry = Duration::from_secs(3);
    for (at, want) in [
        (last + Duration::from_millis(1), NEEDED),
        (last + expiry - Duration::from_micros(1), NEEDED),
        (last + expiry, MAX_P),
    ] {
        let mut next = a.clone();
        let (levels, _, _) = rts_ladder(&mut next, 2, at, 1);
        assert_eq!(levels, [want], "next job at {at:?}");
    }
}

#[test]
fn only_pcmac_steps_its_rts_up() {
    // Under the other three protocols every retry rides the §IV level,
    // and so does the next job.
    for variant in [Variant::Basic, Variant::Scheme1, Variant::Scheme2] {
        let mut a = mac(1, variant);
        teach(&mut a, 2, 1e-3);
        let want = match variant {
            Variant::Scheme2 => Milliwatts(1.0),
            _ => MAX_P,
        };
        let (levels, last, _) = rts_ladder(&mut a, 2, t(10), usize::MAX);
        assert_eq!(levels, [want; 7], "{variant:?}");
        let (levels, _, _) = rts_ladder(&mut a, 2, last + Duration::from_millis(1), 1);
        assert_eq!(levels, [want], "{variant:?}: next job");
        assert_eq!(a.counters.power_step_ups, 0, "{variant:?}");
    }
}

#[test]
fn a_checkpoint_mid_ladder_resumes_on_the_same_rung() {
    let mut a = mac(1, Variant::Pcmac);
    teach(&mut a, 2, 1e-3);
    let (levels, now, tail) = rts_ladder(&mut a, 2, t(10), 2);
    assert_eq!(levels, [Milliwatts(1.0), Milliwatts(2.0)]);

    let mut w = SnapWriter::new();
    a.save_state(&mut w);
    let mut restored = mac(1, Variant::Pcmac);
    let mut r = SnapReader::over(w.payload());
    restored.load_state(&mut r).expect("the state restores");
    assert!(r.is_exhausted());
    let mut again = SnapWriter::new();
    restored.save_state(&mut again);
    assert_eq!(
        again.payload(),
        w.payload(),
        "the restore writes the same bytes"
    );

    for m in [&mut a, &mut restored] {
        let mut log = tail.clone();
        let (rts, _) = walk_to_air(m, &mut log, 0, now, &ACCESS);
        assert_eq!(rts.kind, FrameKind::Rts);
        assert_eq!(rts.tx_power, Milliwatts(3.45), "third rung");
        assert_eq!(m.counters.power_step_ups, 2);
    }
}
