//! Golden pin of the dispatched event stream.
//!
//! Recorded on the commit *before* per-receiver arrival entries were
//! replaced by fan-out cursors: per MAC variant, a small mobile
//! scenario's `RunReport.events`, an FNV-1a digest over everything the
//! observer sees — `(at, rank, class, node, key)` per event, in
//! dispatch order — and a digest over the `pcmac-snap` bytes of its
//! periodic checkpoints. How arrivals sit in the queue is an
//! implementation detail; none of these numbers may move with it.
//!
//! The checkpoint digests were re-recorded twice since. When two option
//! fields left `ScenarioConfig`, the 8-byte config digest every snapshot
//! opens with changed, and the envelope checksum with it; a digest that
//! skips those 16 bytes read the same on both sides of that commit. And
//! when a station's receive side became one row in the simulator's hot
//! arrays, the snapshot format went to version 2 on purpose: a node's
//! radio section used to list the arrivals on the air in the order a
//! per-node `Vec`'s `push` / `swap_remove` history left them in, which a
//! design that keeps a sum and a count cannot (and should not) reproduce,
//! so the list left the format and a pending arrival end carries its
//! power instead. The `events` and observer-stream columns did not move
//! with either.

use std::cell::RefCell;

use pcmac::{RunHooks, ScenarioConfig, SimEvent, SimSnapshot, Simulator, Variant};
use pcmac_engine::Duration;

/// Incremental FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// 16 waypoint nodes at 8 m/s, ten CBR flows sharing 600 kbps, 3 s.
fn scenario(variant: Variant) -> ScenarioConfig {
    ScenarioConfig::paper_with(variant, 600.0, 5, 16, 8.0).with_duration(Duration::from_secs(3))
}

/// The arrival key (0 for every other event).
fn key_of(ev: &SimEvent) -> u64 {
    match ev {
        SimEvent::ArrivalStart { key, .. }
        | SimEvent::ArrivalEnd { key, .. }
        | SimEvent::CtrlArrivalStart { key, .. }
        | SimEvent::CtrlArrivalEnd { key, .. } => *key,
        _ => 0,
    }
}

/// `(RunReport.events, observer-stream digest)`.
fn observed(variant: Variant) -> (u64, u64) {
    let digest = RefCell::new(Fnv::new());
    let report = Simulator::new(scenario(variant)).run_with_observer(|ev, at| {
        let rank = ev.rank();
        let mut d = digest.borrow_mut();
        d.bytes(&at.as_nanos().to_le_bytes());
        d.bytes(&rank.to_le_bytes());
        d.bytes(&[(rank >> 96) as u8]);
        d.bytes(&ev.node_index().map_or(u32::MAX, |i| i as u32).to_le_bytes());
        d.bytes(&key_of(ev).to_le_bytes());
    });
    (report.events, digest.into_inner().0)
}

/// Digest over the wire bytes of every 250 ms checkpoint, in order.
fn checkpoint_bytes_digest(variant: Variant) -> u64 {
    let digest = std::sync::Mutex::new(Fnv::new());
    let sink = |snap: SimSnapshot| digest.lock().unwrap().bytes(&snap.to_bytes());
    let outcome = Simulator::new(scenario(variant)).run_with_hooks(RunHooks {
        cancel: None,
        checkpoint_every: Some(Duration::from_millis(250)),
        checkpoint_sink: Some(&sink),
    });
    assert!(outcome.report().is_some(), "no cancel token: must complete");
    digest.into_inner().unwrap().0
}

/// `(variant, events, observer digest, checkpoint-bytes digest)`.
const GOLDEN: [(Variant, u64, u64, u64); 4] = [
    (
        Variant::Basic,
        52239,
        0xd47e9241f37c8823,
        0xd04433edc2f805ef,
    ),
    (
        Variant::Scheme1,
        56659,
        0xe21ecb660677e39f,
        0xf0124bc3d74a76ed,
    ),
    (
        Variant::Scheme2,
        62880,
        0x483a987d5411a980,
        0xeb846b01fdbf5b35,
    ),
    (
        Variant::Pcmac,
        55724,
        0xa855dbfaaee13418,
        0x45dd6968121a1648,
    ),
];

#[test]
fn event_stream_and_checkpoint_bytes_match_the_recorded_goldens() {
    for (variant, events, stream, snaps) in GOLDEN {
        let (got_events, got_stream) = observed(variant);
        let got_snaps = checkpoint_bytes_digest(variant);
        assert_eq!(got_events, events, "{variant:?}: RunReport.events");
        assert_eq!(got_stream, stream, "{variant:?}: observer stream digest");
        assert_eq!(got_snaps, snaps, "{variant:?}: checkpoint bytes digest");
    }
}
