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
//! twice. First, when a station's receive side became one row in the
//! simulator's hot arrays, the snapshot format went to version 2 on
//! purpose. A node's
//! radio section used to list the arrivals on the air in the order a
//! per-node `Vec`'s `push` / `swap_remove` history left them in, which a
//! design that keeps a sum and a count cannot (and should not) reproduce,
//! so the list left the format and a pending arrival end carries its
//! power instead. Then at version 3, when a MAC's power control came to
//! write its three pieces of state only, without the copy of the MAC
//! configuration its table used to carry. And at version 4, when every
//! section came to hold run-time state only: the energy meter's padding,
//! an on/off source's second stop time, the backoff's, sent table's and
//! queue's copies of the MAC configuration, a static field's positions
//! and an always-zero hot-path counter left the format. And at version
//! 5, when a traffic source came to write only its run-time state (its
//! flow's configuration and the per-station source count left the
//! format) and a waypoint model only its RNG and current leg (its field,
//! speed and pause left). And at version 6, when a station came to be
//! written as the run holds it: the carrier edge held back from its MAC
//! as an option beside its rows (no longer told to a copy of the MAC),
//! its cold state only if the run built it, and every pending event
//! without its rank. The `events`, observer-stream and report columns
//! moved with none of them.

use std::cell::RefCell;

use pcmac::{
    ChurnConfig, CrashWindow, ExecutionMode, FaultConfig, FlowSpec, ImpairmentBurst, MetricsConfig,
    NodeSetup, RunHooks, RunReport, ScenarioConfig, SimEvent, SimSnapshot, Simulator, Variant,
};
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};

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
        0xa892ed2802dee2cc,
    ),
    (
        Variant::Scheme1,
        56659,
        0xe21ecb660677e39f,
        0x3fd535e03c31c6a3,
    ),
    (
        Variant::Scheme2,
        62880,
        0x483a987d5411a980,
        0xc2963fa43727d01f,
    ),
    (
        Variant::Pcmac,
        55724,
        0xa855dbfaaee13418,
        0x13835024dac8f22b,
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

const FIELD_NODES: usize = 400;
const NODES_PER_FLOW: usize = 40;
const PITCH_M: f64 = 250.0;

/// `FIELD_NODES` stations at one per 250 m × 250 m, one single-hop CBR
/// flow per 40 stations to the source's nearest neighbour, metrics on,
/// 10 µs delay floor, 2 s; every station walking at 10 m/s from its
/// start when `mobile`.
fn sparse_field(variant: Variant, mobile: bool) -> ScenarioConfig {
    let side = (FIELD_NODES as f64).sqrt() * PITCH_M;
    let mut rng = RngStream::derive(5, "golden.placement");
    let pts: Vec<Point> = (0..FIELD_NODES)
        .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
        .collect();
    let duration = Duration::from_secs(2);
    let mut cfg = ScenarioConfig::two_nodes(variant, 100.0, 40_000.0, 5);
    cfg.name = "sparse-field".into();
    cfg.field = (side, side);
    cfg.duration = duration;
    cfg.interference_floor = Milliwatts(1.559e-8);
    cfg.delay_floor_us = Some(10.0);
    cfg.metrics = Some(MetricsConfig::default());
    let template: FlowSpec = cfg.flows[0].clone();
    cfg.flows = (0..(FIELD_NODES / NODES_PER_FLOW) as u32)
        .map(|i| {
            let src = rng.below(FIELD_NODES as u64) as usize;
            let dst = (0..FIELD_NODES)
                .filter(|&j| j != src)
                .min_by(|&a, &b| {
                    pts[src]
                        .distance_sq(pts[a])
                        .total_cmp(&pts[src].distance_sq(pts[b]))
                })
                .expect("at least two nodes");
            let mut f = template.clone();
            f.flow = FlowId(i);
            f.src = NodeId(src as u32);
            f.dst = NodeId(dst as u32);
            f.start = SimTime::ZERO + Duration::from_millis(20 + 7 * u64::from(i));
            f.stop = SimTime::ZERO + duration;
            f
        })
        .collect();
    cfg.nodes = if mobile {
        NodeSetup::WaypointFrom {
            starts: pts,
            speed: 10.0,
            pause: Duration::ZERO,
        }
    } else {
        NodeSetup::Static(pts)
    };
    cfg
}

/// `cfg` on two region shards.
fn sharded(mut cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.execution = Some(ExecutionMode::Sharded { shards: 2 });
    cfg
}

/// FNV-1a over the report's JSON without `wall_s` and without the
/// metrics section's hot-path counters, which describe how the run was
/// executed rather than what happened in it.
fn report_digest(report: &RunReport) -> u64 {
    let text = serde_json::to_string(report).expect("reports serialize");
    let value: serde_json::Value = serde_json::from_str(&text).expect("reports parse");
    let serde_json::Value::Map(entries) = value else {
        panic!("a report is a map");
    };
    let entries = entries
        .into_iter()
        .filter(|(k, _)| k != "wall_s")
        .map(|(k, v)| match (k.as_str(), v) {
            ("metrics", serde_json::Value::Map(m)) => (
                k,
                serde_json::Value::Map(m.into_iter().filter(|(k, _)| k != "hot_path").collect()),
            ),
            (_, v) => (k, v),
        })
        .collect();
    let mut d = Fnv::new();
    d.bytes(
        serde_json::to_string(&serde_json::Value::Map(entries))
            .expect("values serialize")
            .as_bytes(),
    );
    d.0
}

/// Run `cfg` with a checkpoint every 250 ms: the report and the
/// checkpoints in order.
fn run_checkpointed(cfg: ScenarioConfig) -> (RunReport, Vec<SimSnapshot>) {
    let taken = std::sync::Mutex::new(Vec::new());
    let sink = |snap: SimSnapshot| taken.lock().unwrap().push(snap);
    let outcome = Simulator::new(cfg).run_with_hooks(RunHooks {
        cancel: None,
        checkpoint_every: Some(Duration::from_millis(250)),
        checkpoint_sink: Some(&sink),
    });
    let report = outcome.report().expect("no cancel token: must complete");
    (report, taken.into_inner().unwrap())
}

/// Assert that two runs' checkpoints, cut for cut, differ by nothing but
/// their metrics sections: the same stations built, the same edges held.
fn same_state(what: &str, taken: &[SimSnapshot], on_two: &[SimSnapshot]) {
    assert_eq!(taken.len(), on_two.len(), "{what}: checkpoint count");
    for (one, two) in taken.iter().zip(on_two) {
        assert_eq!(
            one.state_fingerprint(),
            two.state_fingerprint(),
            "{what}: state at {:?} on two shards",
            one.time()
        );
    }
}

/// FNV-1a over the checkpoints' wire bytes, each without its config
/// digest (which covers the execution mode) and envelope checksum.
fn masked_digest(taken: &[SimSnapshot]) -> u64 {
    let mut digest = Fnv::new();
    for snap in taken {
        let wire = snap.to_bytes();
        digest.bytes(&wire[24..wire.len() - 8]);
    }
    digest.0
}

/// `(variant, mobile, report digest, checkpoint-bytes digest, the same
/// on two shards)`. The two checkpoint columns differ only because the
/// metrics section carries the hot-path counters ([`same_state`]).
const SPARSE_GOLDEN: [(Variant, bool, u64, u64, u64); 4] = [
    (
        Variant::Basic,
        false,
        0x57791553d294c5a6,
        0xd083109a9a3e5b9b,
        0x2be2246234286e53,
    ),
    (
        Variant::Pcmac,
        false,
        0x1e2bb596d73d9009,
        0x7ddda0287756d0a3,
        0x49aef386d4385b0f,
    ),
    (
        Variant::Basic,
        true,
        0x9a03d625e67ab61d,
        0x7c4cc2348d172fe5,
        0x852e4e591ddf0f19,
    ),
    (
        Variant::Pcmac,
        true,
        0x5913ddde7925739a,
        0x80f346516cec00e7,
        0xed5bbcc2123bc75f,
    ),
];

#[test]
fn sparse_fields_report_checkpoint_and_resume_as_recorded() {
    for (variant, mobile, report, snaps, snaps_on_two) in SPARSE_GOLDEN {
        let what = format!("{variant:?}, mobile = {mobile}");
        let cfg = sparse_field(variant, mobile);
        let (single, taken) = run_checkpointed(cfg.clone());
        assert!(
            single.delivered_packets > 0,
            "{what}: the field carried traffic"
        );
        assert_eq!(report_digest(&single), report, "{what}: report digest");
        assert_eq!(
            masked_digest(&taken),
            snaps,
            "{what}: checkpoint bytes digest"
        );

        let (on_two, taken_on_two) = run_checkpointed(sharded(cfg.clone()));
        assert_eq!(report_digest(&on_two), report, "{what}: sharded report");
        same_state(&what, &taken, &taken_on_two);
        assert_eq!(
            masked_digest(&taken_on_two),
            snaps_on_two,
            "{what}: checkpoint bytes digest on two shards"
        );

        let first = taken.first().expect("a 2 s run crosses the 250 ms grid");
        for resumed in [cfg.clone(), sharded(cfg)] {
            let mode = resumed.execution_mode();
            let report_after = Simulator::restore(resumed, first)
                .expect("the checkpoint restores")
                .run();
            assert_eq!(
                report_digest(&report_after),
                report,
                "{what}: resumed from {:?} on {mode:?}",
                first.time()
            );
        }
    }
}

/// The 16-node mobile [`scenario`] with metrics on, a 10 µs delay floor
/// and a fault plan that uses every part of the layer: a crash with a
/// recovery, a permanent crash, seeded churn, an impairment burst that
/// also raises the noise floor, route expiry on recovery, and an energy
/// budget small enough to kill stations.
fn faulted(variant: Variant) -> ScenarioConfig {
    let mut cfg = scenario(variant);
    cfg.delay_floor_us = Some(10.0);
    cfg.metrics = Some(MetricsConfig {
        probe_interval_s: 0.1,
    });
    cfg.faults = Some(FaultConfig {
        crashes: Some(vec![
            CrashWindow {
                node: 3,
                at_s: 1.5,
                recover_s: Some(2.2),
            },
            CrashWindow {
                node: 9,
                at_s: 2.4,
                recover_s: None,
            },
        ]),
        churn: Some(ChurnConfig {
            mean_uptime_s: 1.5,
            mean_downtime_s: 0.3,
            start_s: Some(1.4),
            stop_s: Some(2.6),
        }),
        expire_routes: Some(true),
        impairments: Some(vec![ImpairmentBurst {
            start_s: 1.6,
            stop_s: 2.0,
            extra_loss_db: 4.0,
            noise_mult: Some(3.0),
        }]),
        energy_budget_mj: Some(ENERGY_BUDGET_MJ),
    });
    cfg
}

const ENERGY_BUDGET_MJ: f64 = 4.0;

/// `(variant, report digest, checkpoint-bytes digest, the same on two
/// shards)` of the [`faulted`] scenario. The two checkpoint columns
/// differ only because the metrics section carries the hot-path counters
/// ([`same_state`]).
const FAULTED_GOLDEN: [(Variant, u64, u64, u64); 2] = [
    (
        Variant::Pcmac,
        0xf8cf421cdb183094,
        0x8b7c026a8e89c672,
        0xcf8dee05afe8fab4,
    ),
    (
        Variant::Basic,
        0x8bb5c8a79c352656,
        0x7a1e132a3de8fca4,
        0xb665df30d4a81f66,
    ),
];

#[test]
fn faulted_runs_report_checkpoint_and_resume_as_recorded() {
    for (variant, report, snaps, snaps_on_two) in FAULTED_GOLDEN {
        let cfg = faulted(variant);
        let (single, taken) = run_checkpointed(cfg.clone());
        let r = single.resilience.as_ref().expect("a fault plan reports");
        for (what, count) in [
            ("crashes", r.crashes),
            ("recoveries", r.recoveries),
            ("energy deaths", r.energy_deaths),
            ("started repairs", r.repairs_started),
        ] {
            assert!(count > 0, "{variant:?}: the plan caused no {what}");
        }
        let (on_two, taken_on_two) = run_checkpointed(sharded(cfg.clone()));
        assert_eq!(report_digest(&single), report, "{variant:?}: report digest");
        assert_eq!(
            masked_digest(&taken),
            snaps,
            "{variant:?}: checkpoint bytes digest"
        );
        assert_eq!(
            report_digest(&on_two),
            report,
            "{variant:?}: sharded report"
        );
        assert_eq!(
            masked_digest(&taken_on_two),
            snaps_on_two,
            "{variant:?}: checkpoint bytes digest on two shards"
        );
        same_state(&format!("{variant:?}"), &taken, &taken_on_two);

        let first = taken.first().expect("a 3 s run crosses the 250 ms grid");
        let mid = &taken[taken.len() / 2];
        for cut in [first, mid] {
            for resumed in [cfg.clone(), sharded(cfg.clone())] {
                let mode = resumed.execution_mode();
                let report_after = Simulator::restore(resumed, cut)
                    .expect("the checkpoint restores")
                    .run();
                assert_eq!(
                    report_digest(&report_after),
                    report,
                    "{variant:?}: resumed from {:?} on {mode:?}",
                    cut.time()
                );
            }
        }
    }
}
