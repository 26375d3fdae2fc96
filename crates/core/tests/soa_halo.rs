//! Struct-of-arrays mirror audits and owner+halo shard correctness.
//!
//! The dispatch hot path reads node liveness from a parallel array
//! that *mirrors* the fault layer's down-state, and a region shard keeps
//! hot state (and grid membership) only for the nodes it owns plus a
//! boundary halo. Two failure modes follow: a mirror drifting from the
//! fault state, and a halo too narrow to hear a transmission from just
//! inside a neighbouring band. These tests target both.
//!
//! The mirror audit leans on the `debug_assert_eq!` cross-check wired
//! into the metrics probe handler: every probe re-derives each sampled
//! node's liveness from the fault state and panics (in debug builds,
//! which is how the test profile compiles) on any disagreement — so
//! simply running probe-dense fuzzed scenarios *is* the reconstruction
//! check.

use pcmac::{
    ChurnConfig, CrashWindow, ExecutionMode, FaultConfig, FlowShape, FlowSpec, MetricsConfig,
    NodeSetup, RunReport, ScenarioConfig, Simulator, Variant,
};
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};
use proptest::prelude::*;

/// Strip the only legitimately nondeterministic field and serialize.
fn fingerprint(r: &RunReport) -> serde_json::Value {
    let text = serde_json::to_string(r).expect("reports serialize");
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    match v {
        serde_json::Value::Map(entries) => {
            serde_json::Value::Map(entries.into_iter().filter(|(k, _)| k != "wall_s").collect())
        }
        other => other,
    }
}

/// A fuzzable faulted scenario with a dense probe schedule: crashes,
/// churn, an impairment burst (noise-floor flips move carrier sense
/// with no event addressed to the node), and probes every 50 ms
/// auditing the mirrors all run.
fn audited_scenario(seed: u64, n: usize, mobile: bool) -> ScenarioConfig {
    let duration = Duration::from_secs(2);
    let side = 1500.0;
    let mut cfg = ScenarioConfig::two_nodes(Variant::ALL[seed as usize % 4], 100.0, 1000.0, seed);
    cfg.name = format!("soa-audit-{seed}-{n}");
    cfg.field = (side, side);
    cfg.duration = duration;
    cfg.interference_floor = Milliwatts(1.559e-10);
    if mobile {
        cfg.nodes = NodeSetup::UniformWaypoint {
            count: n,
            speed: 20.0,
            pause: Duration::from_millis(200),
        };
    } else {
        let mut rng = RngStream::derive(seed, "soa.placement");
        cfg.nodes = NodeSetup::Static(
            (0..n)
                .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
                .collect(),
        );
    }
    let mut rng = RngStream::derive(seed, "soa.flows");
    cfg.flows = (0..4)
        .map(|i| {
            let src = rng.below(n as u64) as u32;
            let dst = loop {
                let d = rng.below(n as u64) as u32;
                if d != src {
                    break d;
                }
            };
            FlowSpec {
                flow: FlowId(i),
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: 512,
                rate_bps: 40_000.0,
                start: SimTime::ZERO + Duration::from_millis(100 + 37 * i as u64),
                stop: SimTime::ZERO + duration,
                shape: FlowShape::Cbr,
            }
        })
        .collect();
    cfg.faults = Some(FaultConfig {
        crashes: Some(vec![
            CrashWindow {
                node: (n as u32).saturating_sub(2),
                at_s: 0.6,
                recover_s: Some(1.4),
            },
            CrashWindow {
                node: (n as u32).saturating_sub(1),
                at_s: 1.0,
                recover_s: None,
            },
        ]),
        churn: Some(ChurnConfig {
            mean_uptime_s: 0.7,
            mean_downtime_s: 0.2,
            start_s: Some(0.2),
            stop_s: Some(1.6),
        }),
        expire_routes: Some(true),
        impairments: Some(vec![pcmac::ImpairmentBurst {
            start_s: 0.9,
            stop_s: 1.3,
            extra_loss_db: 12.0,
            noise_mult: Some(2.0),
        }]),
        energy_budget_mj: Some(0.25),
    });
    cfg.metrics = Some(MetricsConfig {
        probe_interval_s: 0.05,
    });
    cfg
}

/// Pin the execution strategy (same floor on both sides of any
/// sharded-vs-single comparison — the floor is part of the channel).
fn with_execution(mut cfg: ScenarioConfig, shards: Option<usize>) -> ScenarioConfig {
    cfg.delay_floor_us = Some(10.0);
    cfg.execution = shards.map(|shards| ExecutionMode::Sharded { shards });
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fuzzed faulted event sequences with the probe auditing every
    /// 50 ms: the struct-of-arrays mirrors and the cold structs must
    /// never disagree.
    #[test]
    fn soa_mirrors_never_disagree_with_cold_state(
        seed in 0u64..1000,
        n in 10usize..18,
        mobile in any::<bool>(),
    ) {
        let cfg = audited_scenario(seed, n, mobile);
        let single = Simulator::new(with_execution(cfg.clone(), None)).run();
        prop_assert!(single.events > 0);
        prop_assert!(
            !single.metrics.as_ref().expect("metrics on").samples.is_empty(),
            "no probes fired — the audit never ran"
        );
    }
}

/// A transmission from just inside a band boundary must be heard
/// *identically* by its neighbour across every shard count: the
/// receiver sits in the sender's halo (and vice versa), so the pruned
/// per-shard grid has to produce the exact full-grid candidate set.
/// Two 8-node clusters face each other across the x midline with a
/// boundary-straddling flow each way; any halo narrower than the
/// maximum reach would silently drop the cross-band arrivals and show
/// up here as a fingerprint (or delivery-count) mismatch.
#[test]
fn boundary_band_transmission_heard_identically_across_shard_counts() {
    let duration = Duration::from_secs(2);
    let side = 2000.0;
    let mut cfg = ScenarioConfig::two_nodes(Variant::Pcmac, 100.0, 1000.0, 7);
    cfg.name = "halo-boundary".into();
    cfg.field = (side, side);
    cfg.duration = duration;
    cfg.interference_floor = Milliwatts(1.559e-10);
    // Left cluster (x ≤ 980) and right cluster (x ≥ 1020); the closest
    // pair straddles the 2-shard boundary 40 m apart — just inside each
    // band, far closer than the communication range.
    let mut pts: Vec<Point> = (0..7)
        .map(|i| Point::new(150.0 + 110.0 * i as f64, 400.0 + 150.0 * i as f64))
        .collect();
    pts.push(Point::new(980.0, 1000.0)); // node 7: boundary sender
    pts.push(Point::new(1020.0, 1000.0)); // node 8: boundary receiver
    pts.extend((0..7).map(|i| Point::new(1850.0 - 110.0 * i as f64, 500.0 + 140.0 * i as f64)));
    cfg.nodes = NodeSetup::Static(pts);
    cfg.flows = vec![
        FlowSpec {
            flow: FlowId(0),
            src: NodeId(7),
            dst: NodeId(8),
            bytes: 512,
            rate_bps: 40_000.0,
            start: SimTime::ZERO + Duration::from_millis(100),
            stop: SimTime::ZERO + duration,
            shape: FlowShape::Cbr,
        },
        FlowSpec {
            flow: FlowId(1),
            src: NodeId(8),
            dst: NodeId(7),
            bytes: 512,
            rate_bps: 40_000.0,
            start: SimTime::ZERO + Duration::from_millis(137),
            stop: SimTime::ZERO + duration,
            shape: FlowShape::Cbr,
        },
    ];
    let single = Simulator::new(with_execution(cfg.clone(), None)).run();
    assert!(
        single.delivered_packets > 0,
        "the boundary pair must actually exchange traffic, or the halo claim is vacuous"
    );
    for shards in [1usize, 2, 4, 8] {
        let sharded = Simulator::new(with_execution(cfg.clone(), Some(shards))).run();
        assert_eq!(sharded.delivered_packets, single.delivered_packets);
        assert_eq!(
            fingerprint(&sharded),
            fingerprint(&single),
            "boundary-band transmission diverged at {shards} shards"
        );
    }
}
