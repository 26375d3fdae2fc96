//! Lazy position refresh when the deadline chain actually turns.
//!
//! Under mobility a transmission samples its candidates for the
//! physics only; the spatial index moves on the refresh-deadline chain
//! alone. Scenarios whose reach spans the field (the paper's, the
//! benchmark's `paper_mobile` and `churn_observed`) have cells so large
//! that no deadline falls inside the run, so this one is sized the other
//! way round: cells small and nodes fast enough that every node goes
//! through several deadline generations, with receiver queries landing
//! at every age of the index in between. The lazily refreshed
//! production channel must still equal the reference channel — which
//! eagerly re-samples every node per timestamp
//! (`Simulator::new_reference`) — report for report, on the paper's
//! two-ray channel and under both shadowing modes, and so must the same
//! placement frozen (where stored rows replay the gains); and, in debug
//! builds, the audits in `Channel::walk_candidates` check the
//! invariants the kept candidate rows lean on while it runs: the
//! staleness bound, and each row holding what a fresh padded query
//! would.

use pcmac::{
    FlowShape, FlowSpec, MetricsConfig, NodeSetup, RunReport, ScenarioConfig, ShadowingConfig,
    Simulator, Variant,
};
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};

const NODES: usize = 40;

/// 40 nodes at 60 m/s with 100 ms pauses on 1500 m × 1500 m. The
/// carrier-sense threshold as interference floor makes a grid cell
/// ≈ 500 m and the drift pad ≈ 60 m, i.e. about one deadline generation
/// per second of movement over the 6 s run. `mobile = false` freezes
/// a seeded scatter of the same density instead.
fn scenario(
    variant: Variant,
    seed: u64,
    shadowing: Option<ShadowingConfig>,
    mobile: bool,
) -> ScenarioConfig {
    let duration = Duration::from_secs(6);
    let mut cfg = ScenarioConfig::two_nodes(variant, 100.0, 1000.0, seed);
    cfg.name = format!("lazy-refresh-{seed}");
    cfg.field = (1500.0, 1500.0);
    cfg.duration = duration;
    cfg.interference_floor = Milliwatts(1.559e-8);
    cfg.shadowing = shadowing;
    cfg.nodes = if mobile {
        NodeSetup::UniformWaypoint {
            count: NODES,
            speed: 60.0,
            pause: Duration::from_millis(100),
        }
    } else {
        let mut rng = RngStream::derive(seed, "lazy_refresh.placement");
        let mut at = || Point::new(rng.uniform(0.0, 1500.0), rng.uniform(0.0, 1500.0));
        NodeSetup::Static((0..NODES).map(|_| at()).collect())
    };
    let mut rng = RngStream::derive(seed, "lazy_refresh.flows");
    cfg.flows = (0..6)
        .map(|i| {
            let src = rng.below(NODES as u64) as u32;
            let dst = (src + 1 + rng.below(NODES as u64 - 1) as u32) % NODES as u32;
            FlowSpec {
                flow: FlowId(i),
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: 512,
                rate_bps: 60_000.0,
                start: SimTime::ZERO + Duration::from_millis(100 + 37 * i as u64),
                stop: SimTime::ZERO + duration,
                shape: FlowShape::Cbr,
            }
        })
        .collect();
    cfg.metrics = Some(MetricsConfig::default());
    cfg
}

/// The report as JSON without `wall_s`, and with `metrics.hot_path` —
/// which counts what each channel's machinery did — set aside.
fn fingerprint(report: &RunReport) -> String {
    let mut report = report.clone();
    report.wall_s = 0.0;
    if let Some(m) = &mut report.metrics {
        m.hot_path = Default::default();
    }
    serde_json::to_string(&report).expect("reports serialize")
}

#[test]
fn lazy_equals_eager_through_several_deadline_generations() {
    // The cull radius — and with it the cells and the drift pad — grows
    // by the 6σ shadowing bound: 1 dB still turns three generations.
    let shadowed = |symmetric| {
        Some(ShadowingConfig {
            sigma_db: 1.0,
            symmetric,
        })
    };
    for (variant, seed) in [(Variant::Basic, 3), (Variant::Pcmac, 4)] {
        for shadowing in [None, shadowed(true), shadowed(false)] {
            let shape = format!("seed {seed} shadowing {shadowing:?}");
            let frozen = scenario(variant, seed, shadowing, false);
            assert_eq!(
                fingerprint(&Simulator::new(frozen.clone()).run()),
                fingerprint(&Simulator::new_reference(frozen).run()),
                "static, {shape}"
            );

            let cfg = scenario(variant, seed, shadowing, true);
            let lazy = Simulator::new(cfg.clone()).run();
            let eager = Simulator::new_reference(cfg).run();
            assert!(lazy.delivered_packets > 0, "{shape}: nothing delivered");
            assert_eq!(fingerprint(&lazy), fingerprint(&eager), "{shape}");

            let hot = lazy.metrics.expect("metrics were on").hot_path;
            assert!(
                hot.refresh_pops >= 3 * NODES as u64,
                "{shape}: {} deadline pops are fewer than 3 generations of {NODES} nodes",
                hot.refresh_pops
            );
            assert_eq!(
                hot.refresh_rearms, 0,
                "{shape}: only the deadline chain schedules deadlines"
            );
            // A kept candidate row is read again when the index moves
            // under it — at every generation, for a busy transmitter —
            // and each read serves several transmissions' exact samples.
            assert!(
                hot.grid_queries > 2 * NODES as u64 && hot.exact_samples > 3 * hot.grid_candidates,
                "{shape}: {hot:?}"
            );
        }
    }
}
