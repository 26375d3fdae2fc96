//! The observability layer's own proof obligations.
//!
//! Two properties anchor the metrics layer:
//!
//! * **Conservation** — the drop taxonomy must account for *every*
//!   application packet exactly once (sent = delivered + Σ drop
//!   reasons + still in flight), with duplicate deliveries tracked
//!   separately so the identity also reconciles against the
//!   (duplicate-counting) sink totals in the report.
//! * **Deterministic time series** — probes are pure reads of the
//!   deterministic event stream, so a faulted run's series must show
//!   the fault window (liveness and delivery dipping, then recovering)
//!   and be bit-identical across reruns.

use pcmac::{
    ChurnConfig, CrashWindow, FaultConfig, FlowShape, FlowSpec, ImpairmentBurst, MetricsConfig,
    NodeSetup, RunReport, ScenarioConfig, Simulator, Variant,
};
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};

/// A lossy scenario: `n` nodes scattered (or mobile) over a square
/// field with a few cross-field flows — multihop routes, queue
/// pressure, discovery failures, the whole taxonomy.
fn lossy_scenario(variant: Variant, seed: u64, n: usize, mobile: bool) -> ScenarioConfig {
    let side = 1400.0;
    let duration = Duration::from_secs(2);
    let mut cfg = ScenarioConfig::two_nodes(variant, 100.0, 1000.0, seed);
    cfg.name = format!("obs-{seed}-{n}");
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
        let mut rng = RngStream::derive(seed, "obs.placement");
        cfg.nodes = NodeSetup::Static(
            (0..n)
                .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
                .collect(),
        );
    }
    let mut rng = RngStream::derive(seed, "obs.flows");
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
    cfg.metrics = Some(MetricsConfig::default());
    cfg
}

/// Every injection mechanism inside a 2 s run (mirrors the
/// channel-equivalence fault plan).
fn fault_plan(n: usize) -> FaultConfig {
    FaultConfig {
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
        impairments: Some(vec![ImpairmentBurst {
            start_s: 0.9,
            stop_s: 1.3,
            extra_loss_db: 12.0,
            noise_mult: Some(2.0),
        }]),
        energy_budget_mj: Some(0.25),
    }
}

/// Assert the drop taxonomy exactly accounts for the report's packet
/// totals.
fn assert_conserved(r: &RunReport) {
    let m = r.metrics.as_ref().expect("metrics layer on");
    let d = &m.drops;
    assert!(
        d.conserved(),
        "taxonomy leak: sent {} != delivered {} + dropped {} + in flight {} ({})",
        d.sent,
        d.delivered_unique,
        d.total_dropped(),
        d.in_flight_end,
        r.name,
    );
    assert_eq!(d.sent, r.sent_packets, "fate map misses emissions");
    assert_eq!(
        d.delivered_unique + d.duplicate_deliveries,
        r.delivered_packets,
        "fate map disagrees with the (duplicate-counting) sink totals"
    );
}

/// Conservation across variants, static and mobile, healthy networks:
/// every undelivered packet lands in exactly one taxonomy bucket.
#[test]
fn drop_taxonomy_conserves_every_packet() {
    for (seed, variant) in [
        (3u64, Variant::Basic),
        (11, Variant::Scheme1),
        (19, Variant::Scheme2),
        (27, Variant::Pcmac),
    ] {
        for mobile in [false, true] {
            let r = Simulator::new(lossy_scenario(variant, seed, 14, mobile)).run();
            assert!(r.sent_packets > 0, "degenerate run is a vacuous check");
            assert_conserved(&r);
        }
    }
}

/// Conservation under the full fault plan: dead-stack emissions, churn,
/// impairments, and energy deaths all route into the taxonomy.
#[test]
fn drop_taxonomy_conserves_every_packet_under_faults() {
    for seed in [7u64, 41] {
        let mut cfg = lossy_scenario(Variant::Pcmac, seed, 14, true);
        cfg.faults = Some(fault_plan(14));
        let r = Simulator::new(cfg).run();
        assert!(r.sent_packets > 0);
        assert_conserved(&r);
        let m = r.metrics.as_ref().unwrap();
        assert!(
            m.drops.emit_dead > 0,
            "churn this dense must catch some source mid-downtime"
        );
    }
}

/// The layered counters reconcile with the layers they mirror.
#[test]
fn counters_reconcile_across_layers() {
    let r = Simulator::new(lossy_scenario(Variant::Pcmac, 5, 14, true)).run();
    let m = r.metrics.as_ref().unwrap();

    // MAC mirror: aggregated per-node counters equal the report's.
    assert_eq!(m.mac.rts_sent, r.mac.rts_sent);
    assert_eq!(m.mac.data_sent, r.mac.data_sent);
    assert_eq!(m.mac.queue_drops, r.mac.queue_drops);
    // Retransmission histogram: one entry per completed MAC exchange.
    let hist_total: u64 = m.mac.retx_histogram.iter().sum();
    assert!(hist_total > 0, "exchanges completed");

    // Routing mirror.
    assert_eq!(m.routing.rreq_originated, r.routing.rreq_originated);
    assert_eq!(m.routing.discoveries_failed, r.routing.discoveries_failed);
    assert!(
        m.routing.discoveries_started >= m.routing.discoveries_failed,
        "failures are a subset of starts"
    );

    // TX power: every data-channel transmission classified to a level.
    let by_level: u64 = m.tx_power.data_tx_by_level.iter().sum();
    assert_eq!(
        m.tx_power.data_tx_unclassified, 0,
        "all TX powers come from the configured level set"
    );
    assert!(by_level > 0);

    // PHY taxonomy: every decode outcome stems from an arrival.
    assert!(m.phy.arrivals >= m.phy.decoded_ok + m.phy.collided);

    // Energy histogram covers every node.
    let nodes: u64 = m.tx_power.energy_histogram.iter().sum();
    assert_eq!(nodes, 14);
}

/// The acceptance run: a faulted scenario's time series shows
/// liveness and delivery dipping inside the fault window and recovering
/// after it — and the whole metrics section is bit-identical across two
/// reruns.
#[test]
fn faulted_time_series_dips_and_recovers_deterministically() {
    let build = || {
        let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 80.0, 50_000.0, 9)
            .with_duration(Duration::from_secs(3));
        // Crash the source for [0.8 s, 1.8 s): emissions die on the
        // spot, delivery stalls, liveness drops to 1.
        cfg.faults = Some(FaultConfig {
            crashes: Some(vec![CrashWindow {
                node: 0,
                at_s: 0.8,
                recover_s: Some(1.8),
            }]),
            churn: None,
            expire_routes: Some(true),
            impairments: None,
            energy_budget_mj: None,
        });
        cfg.metrics = Some(MetricsConfig {
            probe_interval_s: 0.1,
        });
        cfg
    };
    let a = Simulator::new(build()).run();
    let b = Simulator::new(build()).run();

    let m = a.metrics.as_ref().expect("metrics layer on");
    assert_eq!(
        serde_json::to_string(m).unwrap(),
        serde_json::to_string(b.metrics.as_ref().unwrap()).unwrap(),
        "faulted time series must be bit-identical across reruns"
    );

    let in_window = |t: f64| (0.8..1.8).contains(&t);
    let mut dipped = false;
    let mut recovered_after = false;
    for s in &m.samples {
        if in_window(s.t_s) {
            assert_eq!(s.live_nodes, 1, "probe at {} s inside the window", s.t_s);
            dipped = true;
        } else {
            assert_eq!(s.live_nodes, 2, "probe at {} s outside the window", s.t_s);
            if s.t_s >= 1.8 {
                recovered_after = true;
            }
        }
    }
    assert!(dipped && recovered_after, "window not covered by probes");

    // Delivery progresses before the window, stalls through it, and
    // resumes after recovery.
    let at = |t: f64| {
        m.samples
            .iter()
            .rfind(|s| s.t_s <= t + 1e-9)
            .expect("probe exists")
    };
    let (pre, end, last) = (at(0.8), at(1.8), m.samples.last().unwrap());
    assert!(pre.delivered_cum > 0, "healthy phase delivers");
    assert_eq!(
        end.delivered_cum, pre.delivered_cum,
        "a dead source delivers nothing during the window"
    );
    assert!(
        last.delivered_cum > end.delivered_cum,
        "delivery resumes after recovery"
    );
    assert!(
        m.drops.emit_dead > 0,
        "in-window emissions die on the dead stack"
    );
    assert_conserved(&a);

    // Cumulative series are monotone by construction.
    for w in m.samples.windows(2) {
        assert!(w[1].sent_cum >= w[0].sent_cum);
        assert!(w[1].delivered_cum >= w[0].delivered_cum);
    }
}
