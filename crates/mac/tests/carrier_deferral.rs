//! Holding a carrier edge back from a MAC that is not listening is
//! invisible.
//!
//! [`DcfMac::listening`] claims that for a MAC with no job and neither
//! access timer armed, `on_carrier` is a carrier bit and a noise figure
//! to store. The simulator leans on that to keep an arrival that only
//! flips carrier sense away from the cold node: it holds the edge and
//! tells the MAC the latest one just before that MAC's next input of any
//! other kind. Here two MACs take the same random input scripts — one
//! hears every edge when it happens, the other only as the simulator
//! would tell it — and must emit the same actions and, whenever nothing
//! is held, serialize to the same bytes.

use pcmac_engine::{
    Duration, FlowId, Milliwatts, NodeId, PacketId, SessionId, SimTime, TimerToken,
};
use pcmac_mac::{
    CtrlFrame, DcfMac, Frame, FrameBody, FrameKind, MacAction, MacConfig, MacTimerKind, Variant,
};
use pcmac_net::{Packet, Payload, Rrep};
use pcmac_snap::SnapWriter;
use proptest::prelude::*;

const ME: NodeId = NodeId(0);
const MAX_P: Milliwatts = Milliwatts(281.83815);

fn mac(variant: Variant) -> DcfMac {
    DcfMac::new(ME, MacConfig::paper_default(variant), 42)
}

fn bytes(mac: &DcfMac) -> Vec<u8> {
    let mut w = SnapWriter::new();
    mac.save_state(&mut w);
    w.payload().to_vec()
}

/// The MAC as the simulator drives it: an edge reaches it at once only
/// while it is listening; otherwise the latest one waits for its next
/// input of any other kind.
struct Lazy {
    mac: DcfMac,
    held: Option<(bool, Milliwatts)>,
}

impl Lazy {
    fn edge(&mut self, busy: bool, noise: Milliwatts, now: SimTime, out: &mut Vec<MacAction>) {
        if self.mac.listening() {
            assert!(self.held.is_none(), "only an input can start the listening");
            self.mac.set_noise(noise);
            self.mac.on_carrier(busy, now, out);
        } else {
            self.held = Some((busy, noise));
        }
    }

    fn tell_held(&mut self, now: SimTime) {
        if let Some((busy, noise)) = self.held.take() {
            let mut acts = Vec::new();
            self.mac.set_noise(noise);
            self.mac.on_carrier(busy, now, &mut acts);
            assert!(acts.is_empty(), "a held edge made the MAC act: {acts:?}");
        }
    }
}

/// One scripted input: `(kind, peer, microseconds since the last one, a
/// power, two coin flips)`.
type Op = (u8, u32, u64, f64, bool, bool);

// Input kinds: below `ENQUEUE` a carrier edge (half of all inputs, as in
// a run), then one value each up to `KINDS`.
const ENQUEUE: u8 = 8;
const BROADCAST: u8 = 9;
const TX_END: u8 = 10;
const RX: u8 = 11;
const CTRL: u8 = 15;
const KINDS: u8 = 16;

/// Both MACs, the clock, the timers their `Arm` actions scheduled and
/// whether a frame of theirs is on the air.
struct Bench {
    eager: DcfMac,
    lazy: Lazy,
    now: SimTime,
    timers: Vec<(SimTime, MacTimerKind, TimerToken)>,
    on_air: bool,
    next_packet: u64,
}

impl Bench {
    fn new(variant: Variant) -> Self {
        Bench {
            eager: mac(variant),
            lazy: Lazy {
                mac: mac(variant),
                held: None,
            },
            now: SimTime::ZERO,
            timers: Vec::new(),
            on_air: false,
            next_packet: 0,
        }
    }

    /// Give both MACs the same non-edge input at `at`, the lazy one its
    /// held edge first, and hold them to the same actions and state.
    fn input(&mut self, at: SimTime, what: &str, f: impl Fn(&mut DcfMac, &mut Vec<MacAction>)) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        f(&mut self.eager, &mut a);
        self.lazy.tell_held(at);
        f(&mut self.lazy.mac, &mut b);
        self.settle(at, what, a, b);
    }

    fn edge(&mut self, busy: bool, noise: Milliwatts) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.eager.set_noise(noise);
        self.eager.on_carrier(busy, self.now, &mut a);
        self.lazy.edge(busy, noise, self.now, &mut b);
        self.settle(self.now, "carrier edge", a, b);
    }

    fn settle(&mut self, at: SimTime, what: &str, a: Vec<MacAction>, b: Vec<MacAction>) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what} at {at:?}");
        if self.lazy.held.is_none() {
            assert!(
                bytes(&self.eager) == bytes(&self.lazy.mac),
                "{what} at {at:?}: nothing held, yet the MACs differ"
            );
        }
        for act in a {
            match act {
                MacAction::Arm { kind, delay, token } => {
                    self.timers.push((at + delay, kind, token))
                }
                MacAction::TxFrame { .. } => self.on_air = true,
                _ => {}
            }
        }
    }

    /// Fire, in due order and at their due instants, the timers due by `until`.
    fn fire_timers(&mut self, until: SimTime) {
        while let Some(k) = (0..self.timers.len())
            .filter(|&k| self.timers[k].0 <= until)
            .min_by_key(|&k| self.timers[k].0)
        {
            let (due, kind, token) = self.timers.swap_remove(k);
            self.input(due, "timer", |m, out| m.on_timer(kind, token, due, out));
        }
    }

    fn frame(&self, kind: FrameKind, peer: u32, to_me: bool, power: f64, flag: bool) -> Frame {
        let tx = NodeId(1 + peer % 4);
        let rx = if to_me { ME } else { NodeId(5 + peer % 3) };
        let session = SessionId::for_pair(tx, rx);
        let body = match kind {
            FrameKind::Rts => FrameBody::Rts {
                sender_noise: flag.then_some(Milliwatts(power)),
            },
            FrameKind::Cts => FrameBody::Cts {
                required_data_power: flag.then_some(Milliwatts(15.0)),
                last_received: flag.then_some((SessionId::for_pair(rx, tx), peer % 3)),
            },
            FrameKind::Data => FrameBody::Data {
                packet: Packet::data(
                    PacketId(900 + peer as u64),
                    FlowId(1),
                    tx,
                    rx,
                    512,
                    self.now,
                ),
                seq: peer % 5,
                session,
                needs_ack: flag,
            },
            FrameKind::Ack => FrameBody::Ack,
        };
        Frame {
            kind,
            tx,
            rx,
            duration: Duration::from_micros(if flag { 600 } else { 0 }),
            tx_power: MAX_P,
            body,
        }
    }

    fn step(&mut self, (kind, peer, dt_us, power, flag, to_me): Op) {
        self.fire_timers(self.now + Duration::from_micros(dt_us));
        self.now += Duration::from_micros(dt_us);
        let now = self.now;
        let noise = Milliwatts(power);
        // Half-duplex: while a frame of ours is on the air the only thing
        // the radio reports besides edges is its end.
        let kind = if self.on_air && kind >= RX {
            TX_END
        } else {
            kind
        };
        match kind {
            0..ENQUEUE => self.edge(flag, noise),
            ENQUEUE => {
                self.next_packet += 1;
                let packet = Packet::data(
                    PacketId(self.next_packet),
                    FlowId(0),
                    ME,
                    NodeId(9),
                    512,
                    now,
                );
                let hop = NodeId(1 + peer % 4);
                self.input(now, "enqueue", |m, out| {
                    m.enqueue(packet.clone(), hop, now, out)
                });
            }
            BROADCAST => {
                self.next_packet += 1;
                let rrep = Payload::Rrep(Rrep {
                    origin: ME,
                    target: NodeId(9),
                    target_seq: 0,
                    hop_count: 0,
                });
                let packet =
                    Packet::control(PacketId(self.next_packet), ME, NodeId::BROADCAST, now, rrep);
                self.input(now, "enqueue broadcast", |m, out| {
                    m.enqueue(packet.clone(), NodeId::BROADCAST, now, out)
                });
            }
            TX_END => {
                if self.on_air {
                    self.on_air = false;
                    self.input(now, "tx end", |m, out| m.on_tx_end(now, out));
                } else {
                    let hop = NodeId(1 + peer % 4);
                    self.input(now, "routing change", |m, _| {
                        m.reset_peer_state(hop);
                        m.drain_next_hop(hop);
                    });
                }
            }
            RX..CTRL => {
                let kinds = [
                    FrameKind::Rts,
                    FrameKind::Cts,
                    FrameKind::Data,
                    FrameKind::Ack,
                ];
                let frame = self.frame(kinds[(kind - RX) as usize], peer, to_me, power, flag);
                let heard_at = Milliwatts(power * 1e3);
                self.input(now, "rx start", |m, out| {
                    m.set_noise(noise);
                    m.on_rx_start(
                        &frame,
                        heard_at,
                        noise,
                        Duration::from_micros(300),
                        now,
                        out,
                    );
                });
                // One end in eight is a collision.
                let ok = peer % 8 != 0;
                self.input(now, "rx end", |m, out| {
                    m.set_noise(noise);
                    m.on_rx_end(frame.clone(), heard_at, ok, now, out);
                });
            }
            _ => {
                let cf = CtrlFrame {
                    receiver: NodeId(1 + peer % 4),
                    noise_tolerance: Milliwatts(power * 10.0),
                    remaining: Duration::from_micros(800),
                    tx_power: MAX_P,
                };
                self.input(now, "ctrl rx", |m, _| {
                    m.on_ctrl_rx(cf.clone(), Milliwatts(power * 1e3), now)
                });
            }
        }
    }
}

proptest! {
    /// Any script, every variant: same actions throughout, same bytes
    /// whenever nothing is held, and same bytes once the last held edge
    /// has been told.
    #[test]
    fn a_held_edge_is_invisible(
        script in proptest::collection::vec(
            (0u8..KINDS, 0u32..64, 0u64..2500, 1e-10f64..1e-5, any::<bool>(), any::<bool>()),
            1..200,
        ),
    ) {
        for variant in Variant::ALL {
            let mut bench = Bench::new(variant);
            let mut held = 0;
            for &op in &script {
                bench.step(op);
                held += usize::from(bench.lazy.held.is_some());
            }
            let end = bench.now + Duration::from_millis(50);
            bench.fire_timers(end);
            bench.lazy.tell_held(end);
            prop_assert!(bytes(&bench.eager) == bytes(&bench.lazy.mac), "{variant:?}: final state");
            // A fresh MAC is not listening: a script that opens with an
            // edge exercises the deferral, whatever else it does.
            prop_assert!(script[0].0 >= ENQUEUE || held > 0, "{variant:?}: no edge was held");
        }
    }
}

/// An edge told to a MAC that is not listening yields no action and
/// changes nothing but the carrier bit and the noise figure: telling the
/// old bit and noise again restores the exact bytes. The MAC here is not
/// pristine — it has overheard an exchange, so its NAV is set, its NAV
/// timer armed and its power table filled — it just has nothing to send.
#[test]
fn an_edge_at_a_mac_that_is_not_listening_is_a_bit_and_a_noise_figure() {
    for variant in Variant::ALL {
        let mut m = mac(variant);
        let at = |us| SimTime::ZERO + Duration::from_micros(us);
        let mut out = Vec::new();
        let overheard = Frame {
            kind: FrameKind::Rts,
            tx: NodeId(3),
            rx: NodeId(4),
            duration: Duration::from_micros(5_000),
            tx_power: MAX_P,
            body: FrameBody::Rts { sender_noise: None },
        };
        m.set_noise(Milliwatts(2e-9));
        m.on_carrier(true, at(10), &mut out);
        m.on_rx_end(overheard, Milliwatts(1e-4), true, at(400), &mut out);
        m.on_carrier(false, at(400), &mut out);
        assert!(
            !m.listening(),
            "{variant:?}: an overhearing station has no job"
        );
        let before = bytes(&m);

        out.clear();
        m.set_noise(Milliwatts(7e-8));
        m.on_carrier(true, at(900), &mut out);
        assert!(out.is_empty(), "{variant:?}: {out:?}");
        assert!(
            bytes(&m) != before,
            "the carrier bit and the noise are state"
        );
        // Past the NAV's expiry, so the idle edge finds the medium idle.
        m.set_noise(Milliwatts(2e-9));
        m.on_carrier(false, at(9_000), &mut out);
        assert!(out.is_empty(), "{variant:?}: {out:?}");
        assert!(!m.listening());
        assert!(bytes(&m) == before, "{variant:?}: something else changed");

        // The predicate is tight: give the same MAC a job and the same
        // idle edge arms its defer timer.
        let packet = Packet::data(PacketId(1), FlowId(0), ME, NodeId(9), 512, at(9_000));
        m.on_carrier(true, at(9_100), &mut out);
        m.enqueue(packet, NodeId(3), at(9_200), &mut out);
        assert!(m.listening() && out.is_empty(), "{variant:?}: {out:?}");
        m.on_carrier(false, at(9_300), &mut out);
        assert!(
            matches!(
                out[..],
                [MacAction::Arm {
                    kind: MacTimerKind::Defer,
                    ..
                }]
            ),
            "{variant:?}: {out:?}"
        );
    }
}
