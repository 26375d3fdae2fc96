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
//! The checkpoint digest covers wire bytes `24 .. len − 8` of every
//! checkpoint: the payload after the 8-byte config digest it opens with,
//! before the envelope checksum that covers that digest too. Both move
//! whenever a field leaves `ScenarioConfig` (its canonical JSON loses a
//! key) while the simulated state does not; the masked digest reads the
//! same on both sides of such a commit. Its content was re-recorded
//! once: when a station's receive side became one row in the simulator's
//! hot arrays, the snapshot format went to version 2 on purpose. A node's
//! radio section used to list the arrivals on the air in the order a
//! per-node `Vec`'s `push` / `swap_remove` history left them in, which a
//! design that keeps a sum and a count cannot (and should not) reproduce,
//! so the list left the format and a pending arrival end carries its
//! power instead. The `events` and observer-stream columns did not move
//! with it.

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

/// Digest over the wire bytes of every 250 ms checkpoint, in order,
/// each without its config digest and envelope checksum.
fn checkpoint_bytes_digest(variant: Variant) -> u64 {
    let digest = std::sync::Mutex::new(Fnv::new());
    let sink = |snap: SimSnapshot| {
        let wire = snap.to_bytes();
        digest.lock().unwrap().bytes(&wire[24..wire.len() - 8]);
    };
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
        0x3f5e2c11f27c2844,
    ),
    (
        Variant::Scheme1,
        56659,
        0xe21ecb660677e39f,
        0x5cc605b294f0c859,
    ),
    (
        Variant::Scheme2,
        62880,
        0x483a987d5411a980,
        0xa0698937a89cdcf1,
    ),
    (
        Variant::Pcmac,
        55724,
        0xa855dbfaaee13418,
        0x0570576a53762794,
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
