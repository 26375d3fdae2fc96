//! Production channel ≡ reference channel.
//!
//! The uniform-grid spatial index, the deadline-driven position refresh
//! and the static transmitters' receiver rows are pure optimizations: for any scenario, the set
//! (and order) of arrivals they schedule must be *identical* to the
//! oracle's — the O(N) scan over all nodes at positions re-sampled per
//! timestamp, gains evaluated pair by pair — so `Simulator::new(cfg)`
//! must equal `Simulator::new_reference(cfg)` in every observable: event
//! counts, deliveries, MAC/routing counters, energy, per-flow breakdowns.
//!
//! These tests compare entire serialized [`RunReport`]s (minus wall-clock
//! time) across random seeds, field sizes, node counts, interference
//! floors, and protocol variants, under static placement, mobility, and
//! shadowing.

use pcmac::{
    ChurnConfig, CrashWindow, ExecutionMode, FaultConfig, FlowShape, FlowSpec, ImpairmentBurst,
    MetricsConfig, NodeSetup, RunReport, ScenarioConfig, ShadowingConfig, SimEvent, Simulator,
    Variant,
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

/// [`fingerprint`] minus the `metrics` section: the protocol-behavior
/// observables only, for comparing metrics-on against metrics-off runs.
fn behaviour_fingerprint(r: &RunReport) -> serde_json::Value {
    match fingerprint(r) {
        serde_json::Value::Map(entries) => serde_json::Value::Map(
            entries
                .into_iter()
                .filter(|(k, _)| k != "metrics")
                .collect(),
        ),
        other => other,
    }
}

/// [`fingerprint`] with `metrics.hot_path` removed: the hot-path
/// profile legitimately differs across execution modes and from
/// the reference (it counts what each one's machinery *did*), while
/// every other metrics field must be mode-invariant.
fn mode_invariant_fingerprint(r: &RunReport) -> serde_json::Value {
    let strip = |v: serde_json::Value| match v {
        serde_json::Value::Map(entries) => serde_json::Value::Map(
            entries
                .into_iter()
                .filter(|(k, _)| k != "hot_path")
                .collect(),
        ),
        other => other,
    };
    match fingerprint(r) {
        serde_json::Value::Map(entries) => serde_json::Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| {
                    if k == "metrics" {
                        (k, strip(v))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        other => other,
    }
}

/// A randomized scenario: `n` nodes scattered over a `side`×`side`
/// field with a handful of cross-field flows.
fn random_scenario(
    variant: Variant,
    seed: u64,
    n: usize,
    side: f64,
    floor: Milliwatts,
    mobile: bool,
    shadowing: Option<ShadowingConfig>,
) -> ScenarioConfig {
    let duration = Duration::from_secs(2);
    let mut cfg = ScenarioConfig::two_nodes(variant, 100.0, 1000.0, seed);
    cfg.name = format!("equiv-{seed}-{n}-{side}");
    cfg.field = (side, side);
    cfg.duration = duration;
    cfg.interference_floor = floor;
    cfg.shadowing = shadowing;
    if mobile {
        cfg.nodes = NodeSetup::UniformWaypoint {
            count: n,
            speed: 20.0, // fast: force many grid cell crossings
            pause: Duration::from_millis(200),
        };
    } else {
        let mut rng = RngStream::derive(seed, "equiv.placement");
        cfg.nodes = NodeSetup::Static(
            (0..n)
                .map(|_| Point::new(rng.uniform(0.0, side), rng.uniform(0.0, side)))
                .collect(),
        );
    }
    let mut rng = RngStream::derive(seed, "equiv.flows");
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
    cfg
}

fn assert_equivalent(cfg: ScenarioConfig) {
    let grid = Simulator::new(cfg.clone()).run();
    let brute = Simulator::new_reference(cfg).run();
    assert!(
        grid.events > 0,
        "degenerate run: no events means the comparison is vacuous"
    );
    assert_eq!(
        fingerprint(&grid),
        fingerprint(&brute),
        "grid and brute-force channels diverged (seed {})",
        grid.seed
    );
}

/// The acceptance sweep: ≥16 distinct random seeds, static
/// fields of varying size and density, exact report equality.
#[test]
fn grid_matches_brute_force_across_16_seeds() {
    for seed in 0..16u64 {
        let n = 10 + (seed as usize % 4) * 8;
        let side = 800.0 + 400.0 * (seed % 5) as f64;
        let variant = Variant::ALL[seed as usize % 4];
        let cfg = random_scenario(variant, seed, n, side, Milliwatts(1.559e-10), false, None);
        assert_equivalent(cfg);
    }
}

#[test]
fn grid_matches_brute_force_under_mobility() {
    for seed in [3u64, 17, 40] {
        let cfg = random_scenario(
            Variant::Pcmac,
            seed,
            16,
            1500.0,
            Milliwatts(1.559e-10),
            true,
            None,
        );
        assert_equivalent(cfg);
    }
}

#[test]
fn grid_matches_brute_force_under_shadowing() {
    // Shadowing can lift links far beyond their median range; the index
    // must inflate its culling radius to cover the boost — in both the
    // reciprocal and the assumption-violating asymmetric mode.
    for symmetric in [true, false] {
        let cfg = random_scenario(
            Variant::Pcmac,
            9,
            14,
            1200.0,
            Milliwatts(1.559e-10),
            false,
            Some(ShadowingConfig {
                sigma_db: 6.0,
                symmetric,
            }),
        );
        assert_equivalent(cfg);
    }
}

#[test]
fn grid_matches_brute_force_with_disabled_floor() {
    // floor = 0 ⇒ every node hears every transmission; the index must
    // degrade to full coverage, not drop anyone.
    let cfg = random_scenario(Variant::Basic, 5, 12, 2000.0, Milliwatts(0.0), false, None);
    assert_equivalent(cfg);
}

/// 5 dB shadowing, reciprocal or not.
fn shadowed(symmetric: bool) -> Option<ShadowingConfig> {
    Some(ShadowingConfig {
        sigma_db: 5.0,
        symmetric,
    })
}

/// The channel shapes — the paper's two-ray channel and both shadowing
/// modes, each static and mobile — as `(shadowing, mobile)`. With the
/// finite reach every scenario here has, the static ones walk stored
/// receiver rows and the mobile ones kept candidate rows.
fn channel_shapes() -> Vec<(Option<ShadowingConfig>, bool)> {
    [None, shadowed(true), shadowed(false)]
        .into_iter()
        .flat_map(|s| [(s, false), (s, true)])
        .collect()
}

/// What a stored row must get right that a per-transmission query got
/// for free, on one static scenario: PCMAC's transmissions below maximum
/// power cut the maximum-reach row, seeded churn takes receivers down —
/// skipped when the row is walked — and up again, and an impairment burst
/// scales every stored gain. Metrics are on so the test can see that all
/// of it happened.
fn row_stress(seed: u64, shadowing: Option<ShadowingConfig>) -> ScenarioConfig {
    let floor = Milliwatts(1.559e-10);
    let mut cfg = random_scenario(Variant::Pcmac, seed, 18, 800.0, floor, false, shadowing);
    cfg.faults = Some(churn_and_burst());
    cfg.metrics = Some(MetricsConfig::default());
    cfg
}

/// Seeded churn from 0.2 s to 1.3 s and a 6 dB impairment burst from
/// 0.7 s to 1.1 s.
fn churn_and_burst() -> FaultConfig {
    FaultConfig {
        crashes: None,
        churn: Some(ChurnConfig {
            mean_uptime_s: 0.8,
            mean_downtime_s: 0.1,
            start_s: Some(0.2),
            stop_s: Some(1.3),
        }),
        expire_routes: None,
        impairments: Some(vec![ImpairmentBurst {
            start_s: 0.7,
            stop_s: 1.1,
            extra_loss_db: 6.0,
            noise_mult: None,
        }]),
        energy_budget_mj: None,
    }
}

/// A mobile scenario whose index moves under kept candidate rows many
/// times over: 40 PCMAC stations at 30 m/s with 100 ms pauses on a
/// 1 500 m field for 8 s, the carrier-sense threshold as interference
/// floor — cells of 500 m, a 62.5 m drift pad, every node re-indexed
/// about every two seconds, each time retiring the rows around it — and
/// 100 kb/s flows, under [`churn_and_burst`], metrics on.
fn fast_mobile(seed: u64) -> ScenarioConfig {
    let floor = Milliwatts(1.559e-8);
    let mut cfg = random_scenario(Variant::Pcmac, seed, 40, 1500.0, floor, true, None);
    cfg.duration = Duration::from_secs(8);
    for f in &mut cfg.flows {
        f.rate_bps = 100_000.0;
        f.stop = SimTime::ZERO + cfg.duration;
    }
    cfg.nodes = NodeSetup::UniformWaypoint {
        count: 40,
        speed: 30.0,
        pause: Duration::from_millis(100),
    };
    cfg.faults = Some(churn_and_burst());
    cfg.metrics = Some(MetricsConfig::default());
    cfg
}

/// The report of `cfg`, its distinct transmitters and its transmissions,
/// counted by their ends: every transmission ends once, and a station
/// that never hears anyone back still radiated.
fn transmissions(cfg: ScenarioConfig) -> (RunReport, usize, u64) {
    let mut transmitters = std::collections::HashSet::new();
    let mut count = 0u64;
    let run = Simulator::new(cfg).run_with_observer(|ev, _| {
        if let SimEvent::TxEnd { node } | SimEvent::CtrlTxEnd { node } = ev {
            transmitters.insert(*node);
            count += 1;
        }
    });
    (run, transmitters.len(), count)
}

/// The production channel against the oracle — stored rows or
/// deadline-driven refresh and grid candidates, whichever the shape
/// selects, versus the rescan of every node with per-pair gains — on
/// every channel shape, single-threaded and — where the scenario is
/// plain enough to shard — on two region shards: bit-identical reports.
/// Shadowed and mobile is the hardest combination for the index: the
/// shadow-inflated culling radius must stay a superset
/// while the index trails the nodes, and a regression in either could
/// hide behind the other's test. The static shapes also run
/// [`row_stress`]; [`fast_mobile`] retires kept candidate rows again and
/// again under the same faults, and is cut mid-run and resumed as well.
#[test]
fn production_matches_the_reference_on_every_channel_shape() {
    let check = |cfg: ScenarioConfig, shape: &str| {
        let reference = Simulator::new_reference(cfg.clone()).run();
        assert!(
            reference.delivered_packets > 0,
            "nothing delivered makes bit-identity a weak claim: {shape}"
        );
        let run = Simulator::new(cfg.clone()).run();
        assert_eq!(
            mode_invariant_fingerprint(&run),
            mode_invariant_fingerprint(&reference),
            "{shape}"
        );

        // The delay floor is part of the channel model, so the
        // sharded run is held to the reference under the same floor.
        if cfg.faults.is_none() && cfg.metrics.is_none() {
            let floored = Simulator::new_reference(with_execution(cfg.clone(), None)).run();
            let sharded = Simulator::new(with_execution(cfg, Some(2))).run();
            assert_eq!(
                mode_invariant_fingerprint(&sharded),
                mode_invariant_fingerprint(&floored),
                "sharded: {shape}"
            );
        }
        reference
    };
    for (k, (shadowing, mobile)) in channel_shapes().into_iter().enumerate() {
        // Seeds whose 800 m scatter delivers traffic on all six shapes
        // under all four variants.
        for seed in [8u64, 13] {
            let cfg = random_scenario(
                Variant::ALL[(seed as usize + k) % 4],
                seed,
                18,
                800.0,
                Milliwatts(1.559e-10),
                mobile,
                shadowing,
            );
            let shape = format!("seed {seed} shadowing {shadowing:?} mobile {mobile}");
            check(cfg, &shape);
            if mobile {
                continue;
            }
            let stressed = check(row_stress(seed, shadowing), &format!("row stress, {shape}"));
            let by_level = &stressed
                .metrics
                .expect("metrics on")
                .tx_power
                .data_tx_by_level;
            let (at_max, below) = by_level.split_last().expect("levels");
            assert!(
                *at_max > 0 && below.iter().sum::<u64>() > 0,
                "rows cut at full power and below it: {by_level:?} ({shape})"
            );
            let res = stressed.resilience.expect("fault plan => resilience");
            assert!(
                res.crashes > 3 && res.recoveries > 3 && res.delivered_after > 0,
                "churn took receivers down and up again: {res:?} ({shape})"
            );
        }
    }

    let cfg = fast_mobile(6);
    let reference = check(cfg.clone(), "fast mobility");
    let res = reference.resilience.expect("fault plan => resilience");
    assert!(res.crashes > 3 && res.recoveries > 3, "{res:?}");
    let (_, transmitters, count) = transmissions(cfg.clone());
    let hot = Simulator::new(cfg.clone())
        .run()
        .metrics
        .expect("metrics on")
        .hot_path;
    assert!(
        hot.refresh_pops >= 3 * 40 && hot.grid_queries > 2 * transmitters as u64,
        "three index generations, rows read again and again: {hot:?}, \
         {transmitters} transmitters of {count} frames"
    );
    let moded = with_execution(cfg.clone(), None);
    let (whole, snaps) = run_with_checkpoints(moded.clone(), Duration::from_millis(700));
    let back = SimSnapshot::from_bytes(&snaps[snaps.len() / 2].to_bytes()).expect("round trip");
    let resumed = Simulator::restore(moded, &back).expect("restores").run();
    assert_eq!(
        mode_invariant_fingerprint(&resumed),
        mode_invariant_fingerprint(&whole),
        "fast mobility resumed at {:?}",
        back.time()
    );
}

/// The receiver path is chosen from the scenario's shape, and what tells
/// which one ran is the index. Nothing moves and the reach is finite: a
/// row is one query per distinct transmitter for the whole run. Nodes
/// move and the reach is finite: a kept candidate row is one query per
/// read, and it is read again only when the index moved under it — more
/// than once per transmitter, far less than once per transmission. The
/// floor disabled, static or mobile: everyone hears everything, no reach
/// bounds a row, and every transmission queries.
#[test]
fn rows_are_kept_exactly_when_the_scenario_is_static_with_finite_reach() {
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Rows,
        Candidates,
        Query,
    }
    let with_metrics = |mut cfg: ScenarioConfig| {
        cfg.metrics = Some(MetricsConfig::default());
        cfg
    };
    let floor = Milliwatts(1.559e-10);
    let statics = [None, shadowed(true), shadowed(false)].map(|shadowing| {
        let cfg = random_scenario(Variant::Pcmac, 21, 20, 600.0, floor, false, shadowing);
        (Path::Rows, with_metrics(cfg))
    });
    let unbounded = [false, true].map(|mobile| {
        let cfg = random_scenario(Variant::Pcmac, 21, 20, 600.0, Milliwatts(0.0), mobile, None);
        (Path::Query, with_metrics(cfg))
    });
    let cases = statics
        .into_iter()
        .chain([(Path::Candidates, fast_mobile(6))])
        .chain(unbounded);
    for (path, cfg) in cases {
        let shape = format!(
            "{path:?}: shadowing {:?}, {:?}",
            cfg.shadowing, cfg.interference_floor
        );
        let (run, transmitters, count) = transmissions(with_execution(cfg, None));
        let queries = run.metrics.expect("metrics layer on").hot_path.grid_queries;
        let transmitters = transmitters as u64;
        assert!(count > 10 * transmitters, "{shape}");
        match path {
            Path::Rows => assert_eq!(queries, transmitters, "index queries: {shape}"),
            Path::Candidates => assert!(
                transmitters < queries && queries < count / 2,
                "{queries} index queries by {transmitters} transmitters of {count} frames: {shape}"
            ),
            Path::Query => assert_eq!(queries, count, "index queries: {shape}"),
        }
    }
}

/// A fault plan dense enough to exercise every injection mechanism
/// inside the 2 s equivalence runs: a scheduled crash with recovery, a
/// permanent crash, sub-second churn over most of the run, an
/// impairment burst, and an energy budget low enough to kill at least
/// the busiest transmitter.
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

/// The variant of a run on one channel shape: static shapes walk stored
/// rows, so they run PCMAC, whose transmissions below maximum power cut
/// the row (in a faulted run, churn and the burst then act on a cut
/// row); mobile shapes rotate by seed.
fn row_cutting_variant(seed: u64, mobile: bool) -> Variant {
    if mobile {
        Variant::ALL[seed as usize % 4]
    } else {
        Variant::Pcmac
    }
}

/// The fault schedule is derived from the master seed and the plan
/// alone, so injected runs must stay bit-identical against the reference
/// channel on every channel shape — the ISSUE 6 determinism proof
/// obligation.
#[test]
fn fault_injection_is_deterministic_on_every_channel_shape() {
    for (k, (shadowing, mobile)) in channel_shapes().into_iter().enumerate() {
        let seed = [3u64, 23, 41][k % 3];
        let n = 16;
        let mut cfg = random_scenario(
            row_cutting_variant(seed, mobile),
            seed,
            n,
            1500.0,
            Milliwatts(1.559e-10),
            mobile,
            shadowing,
        );
        cfg.faults = Some(fault_plan(n));

        let reference = Simulator::new_reference(cfg.clone()).run();
        assert!(reference.events > 0, "degenerate faulted run");
        let res = reference
            .resilience
            .as_ref()
            .expect("fault plan => resilience section");
        assert!(res.crashes >= 2, "the plan must actually crash nodes");
        assert!(
            res.sent_before + res.sent_during + res.sent_after == reference.sent_packets,
            "phase accounting must cover every packet"
        );

        let run = Simulator::new(cfg).run();
        assert_eq!(
            fingerprint(&run),
            fingerprint(&reference),
            "faulted run diverged (seed {seed} shadowing {shadowing:?} mobile {mobile})"
        );
    }
}

/// Same-seed reruns of a faulted mobile scenario are bit-identical —
/// churn draws come from derived streams, not shared global state.
#[test]
fn faulted_reruns_are_bit_identical() {
    let build = || {
        let mut cfg = random_scenario(
            Variant::Pcmac,
            57,
            14,
            1400.0,
            Milliwatts(1.559e-10),
            true,
            Some(ShadowingConfig {
                sigma_db: 4.0,
                symmetric: false,
            }),
        );
        cfg.faults = Some(fault_plan(14));
        cfg
    };
    let a = Simulator::new(build()).run();
    let b = Simulator::new(build()).run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// The observability layer's zero-behavioral-cost contract: turning
/// metrics on changes *nothing* observable — not even the reported
/// event count — on a faulted mobile scenario.
#[test]
fn metrics_layer_is_behaviour_identical() {
    for seed in [7u64, 57] {
        let build = |metrics: bool| {
            let mut cfg = random_scenario(
                Variant::Pcmac,
                seed,
                14,
                1400.0,
                Milliwatts(1.559e-10),
                true,
                None,
            );
            cfg.faults = Some(fault_plan(14));
            if metrics {
                cfg.metrics = Some(MetricsConfig::default());
            }
            cfg
        };
        let off = Simulator::new(build(false)).run();
        let on = Simulator::new(build(true)).run();
        assert!(off.metrics.is_none() && on.metrics.is_some());
        assert_eq!(
            on.events, off.events,
            "probe events must be excluded from the reported count (seed {seed})"
        );
        assert_eq!(
            behaviour_fingerprint(&on),
            behaviour_fingerprint(&off),
            "metrics-on diverged from metrics-off (seed {seed})"
        );
    }
}

/// The metrics section's own determinism contract: bit-identical across
/// reruns (including the hot-path profile), and — hot-path profile
/// aside, which by design counts what each channel's machinery did —
/// bit-identical to the reference channel's, with gains evaluated live
/// (mobile) and replayed from the cache (shadowed static).
#[test]
fn metrics_are_deterministic_across_reruns_and_against_the_reference() {
    let shadowed = Some(ShadowingConfig {
        sigma_db: 4.0,
        symmetric: true,
    });
    for (shadowing, mobile) in [(None, true), (shadowed, false)] {
        let base = || {
            let mut cfg = random_scenario(
                Variant::Pcmac,
                57,
                14,
                1400.0,
                Milliwatts(1.559e-10),
                mobile,
                shadowing,
            );
            cfg.faults = Some(fault_plan(14));
            cfg.metrics = Some(MetricsConfig {
                probe_interval_s: 0.25,
            });
            cfg
        };

        let a = Simulator::new(base()).run();
        let b = Simulator::new(base()).run();
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "reruns must match bit for bit, hot-path profile included"
        );
        let m = a.metrics.as_ref().expect("metrics layer on");
        assert!(!m.samples.is_empty(), "0.25 s probes inside a 2 s run");
        assert!(m.drops.conserved(), "taxonomy leak");

        let reference = Simulator::new_reference(base()).run();
        assert_eq!(
            mode_invariant_fingerprint(&a),
            mode_invariant_fingerprint(&reference),
            "metrics diverged from the reference (mobile {mobile})"
        );
    }
}

/// Pin the execution strategy. Both sides of a sharded-vs-single
/// comparison must carry the *same* delay floor — the floor is part of
/// the channel model (it quantizes short-range propagation delays), so
/// only runs sharing it are comparable. 10 µs stays well below the
/// 20 µs slot time; a floor at the slot or beyond would eat the CTS/ACK
/// timeouts' round-trip grace and silently zero out all traffic (which
/// `validate()` now rejects).
fn with_execution(mut cfg: ScenarioConfig, shards: Option<usize>) -> ScenarioConfig {
    cfg.delay_floor_us = Some(10.0);
    cfg.execution = shards.map(|shards| ExecutionMode::Sharded { shards });
    cfg
}

/// The PR 8 acceptance bar: the region-sharded engine reproduces the
/// single-threaded reference bit for bit at every shard count — static
/// and mobile, across variants — including the degenerate one-shard run
/// that still exercises the full windowing machinery.
#[test]
fn sharded_matches_single_across_shard_counts() {
    // Seeds chosen so both topologies actually deliver traffic — many
    // random 18-node scatters on a 1500 m field are partitioned, and a
    // zero-delivery scenario would make bit-identity a weak claim.
    for (seed, mobile) in [(10u64, false), (18, true)] {
        let cfg = random_scenario(
            Variant::ALL[seed as usize % 4],
            seed,
            18,
            1500.0,
            Milliwatts(1.559e-10),
            mobile,
            None,
        );
        let single = Simulator::new(with_execution(cfg.clone(), None)).run();
        assert!(single.events > 0, "degenerate run is a vacuous comparison");
        assert!(
            single.delivered_packets > 0,
            "traffic must actually flow under the delay floor — a zero-delivery \
             scenario would make bit-identity a vacuous claim (seed {seed})"
        );
        for shards in [1usize, 2, 4, 8] {
            let sharded = Simulator::new(with_execution(cfg.clone(), Some(shards))).run();
            assert_eq!(sharded.events, single.events, "event-count parity");
            assert_eq!(
                fingerprint(&sharded),
                fingerprint(&single),
                "sharded run diverged (seed {seed} mobile {mobile} shards {shards})"
            );
        }
    }
}

/// Sharding composed with every channel shape: each plain sharded run
/// must reproduce the single-threaded one, and that run the
/// (single-threaded) reference channel under the same delay floor.
/// Seeds chosen so every shape delivers traffic.
#[test]
fn sharded_matches_single_on_every_channel_shape() {
    for (k, (shadowing, mobile)) in channel_shapes().into_iter().enumerate() {
        let seed = [11u64, 29][k % 2];
        let cfg = random_scenario(
            row_cutting_variant(seed, mobile),
            seed,
            16,
            1500.0,
            Milliwatts(1.559e-10),
            mobile,
            shadowing,
        );
        let shape = format!("seed {seed} shadowing {shadowing:?} mobile {mobile}");
        let reference = Simulator::new_reference(with_execution(cfg.clone(), None)).run();
        let single = Simulator::new(with_execution(cfg.clone(), None)).run();
        assert!(single.delivered_packets > 0, "nothing delivered ({shape})");
        assert_eq!(
            fingerprint(&single),
            fingerprint(&reference),
            "run diverged from the reference ({shape})"
        );
        for shards in [2usize, 8] {
            let sharded = Simulator::new(with_execution(cfg.clone(), Some(shards))).run();
            assert_eq!(
                fingerprint(&sharded),
                fingerprint(&single),
                "sharded run diverged ({shape} shards {shards})"
            );
        }
    }
}

/// Only a plain run is sharded. Every other run of a scenario that asks
/// for shards — observed, hooked, restored, faulted or metered — runs on
/// one thread and reports exactly what the single-threaded run of the
/// same scenario does, the metrics' hot-path profile included.
#[test]
fn runs_the_engine_does_not_shard_report_what_one_thread_does() {
    let plain = random_scenario(
        Variant::Pcmac,
        10,
        18,
        1500.0,
        Milliwatts(1.559e-10),
        false,
        None,
    );
    let on_two = |cfg: &ScenarioConfig| Simulator::new(with_execution(cfg.clone(), Some(2)));
    let single = Simulator::new(with_execution(plain.clone(), None)).run();
    assert!(single.delivered_packets > 0, "a run that carries traffic");
    let observed = on_two(&plain).run_with_observer(|_, _| {});
    assert_eq!(fingerprint(&observed), fingerprint(&single), "observed");
    let hooked = on_two(&plain)
        .run_with_hooks(RunHooks::default())
        .report()
        .expect("no cancel token: completes");
    assert_eq!(fingerprint(&hooked), fingerprint(&single), "hooked");
    let (_, snaps) = run_with_checkpoints(
        with_execution(plain.clone(), None),
        Duration::from_millis(300),
    );
    let restored = Simulator::restore(with_execution(plain.clone(), Some(2)), &snaps[2])
        .expect("restores")
        .run();
    assert_eq!(fingerprint(&restored), fingerprint(&single), "restored");

    let mut faulted = plain.clone();
    faulted.faults = Some(fault_plan(18));
    let mut metered = plain;
    metered.metrics = Some(MetricsConfig::default());
    for (what, cfg) in [("faulted", faulted), ("metered", metered)] {
        let single = Simulator::new(with_execution(cfg.clone(), None)).run();
        assert_eq!(
            fingerprint(&on_two(&cfg).run()),
            fingerprint(&single),
            "{what}"
        );
    }
}

/// Sharded determinism under thread oversubscription: with more worker
/// threads than cores the barrier schedule is maximally perturbed, yet
/// same-seed reruns must stay bit-identical (and equal to the
/// single-threaded reference) — no wall-clock, no scheduling order, no
/// contention effect may leak into the report.
#[test]
fn oversubscribed_sharded_reruns_are_bit_identical() {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let shards = 2 * cores;
    let cfg = random_scenario(
        Variant::Pcmac,
        57,
        14,
        1400.0,
        Milliwatts(1.559e-10),
        true,
        None,
    );
    let single = Simulator::new(with_execution(cfg.clone(), None)).run();
    let a = Simulator::new(with_execution(cfg.clone(), Some(shards))).run();
    let b = Simulator::new(with_execution(cfg, Some(shards))).run();
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "rerun differed ({shards} shards)"
    );
    assert_eq!(
        fingerprint(&a),
        fingerprint(&single),
        "sharded differed from single"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed equivalence: random seed, node count, field size, floor
    /// scaling, variant, and channel shape (shadowing × mobility).
    #[test]
    fn grid_matches_brute_force_fuzzed(
        seed in 0u64..10_000,
        n in 8usize..24,
        side in 600.0f64..3500.0,
        floor_exp in 0u32..4,
        variant_idx in 0usize..4,
        shape_idx in 0usize..6,
    ) {
        // Floors from CSThresh/1000 up to CSThresh, the highest a
        // scenario may set: small floors make everyone audible (stress
        // superset-coverage), large floors make reception local (stress
        // cell culling).
        let floor = Milliwatts(1.559e-8 / 10f64.powi(floor_exp as i32));
        let (shadowing, mobile) = channel_shapes()[shape_idx];
        let cfg = random_scenario(
            Variant::ALL[variant_idx],
            seed,
            n,
            side,
            floor,
            mobile,
            shadowing,
        );
        let grid = Simulator::new(cfg.clone()).run();
        let brute = Simulator::new_reference(cfg).run();
        prop_assert_eq!(
            fingerprint(&grid),
            fingerprint(&brute),
            "diverged: seed {} n {} side {} floor {:?} shadowing {:?} mobile {}",
            seed, n, side, floor, shadowing, mobile
        );
    }
}

// ----------------------------------------------------------------------
// Checkpoint / restore (PR 10)
// ----------------------------------------------------------------------

use pcmac::{RunHooks, RunOutcome, SimSnapshot};
use std::sync::Mutex;

/// Run `cfg` to completion while checkpointing every `every`, returning
/// the completed report and every checkpoint in capture order.
fn run_with_checkpoints(cfg: ScenarioConfig, every: Duration) -> (RunReport, Vec<SimSnapshot>) {
    let sink = Mutex::new(Vec::new());
    let push = |s: SimSnapshot| sink.lock().unwrap().push(s);
    let outcome = Simulator::new(cfg).run_with_hooks(RunHooks {
        cancel: None,
        checkpoint_every: Some(every),
        checkpoint_sink: Some(&push),
    });
    let report = match outcome {
        RunOutcome::Completed(r) => r,
        RunOutcome::Cancelled(_) => panic!("no cancel token was supplied"),
    };
    (report, sink.into_inner().unwrap())
}

/// A faulted, metrics-on mobile scenario — the densest state a snapshot
/// has to carry (crashes, churn, impairments, energy budgets, probe
/// chains, waypoint RNGs all live at the cut).
fn snapshot_scenario(seed: u64, n: usize) -> ScenarioConfig {
    snapshot_scenario_shaped(seed, n, None, true)
}

/// [`snapshot_scenario`] on any channel shape.
fn snapshot_scenario_shaped(
    seed: u64,
    n: usize,
    shadowing: Option<ShadowingConfig>,
    mobile: bool,
) -> ScenarioConfig {
    let mut cfg = random_scenario(
        Variant::ALL[seed as usize % 4],
        seed,
        n,
        1500.0,
        Milliwatts(1.559e-10),
        mobile,
        shadowing,
    );
    cfg.faults = Some(fault_plan(n));
    cfg.metrics = Some(MetricsConfig {
        probe_interval_s: 0.25,
    });
    cfg
}

/// The PR 10 acceptance bar: snapshot at a fuzzed mid-run grid time
/// (faulted, metrics-on), with gains evaluated
/// live (mobile) and replayed from the cache — which no snapshot
/// carries — (shadowed static); restore in-process, run to the end — the result must be
/// bit-identical (mode-invariant observables) to the uninterrupted run
/// of the reference channel. The capture run itself must also be
/// unperturbed by checkpointing, and every checkpoint must survive a
/// serialization round trip unchanged.
#[test]
fn checkpoint_restore_is_bit_identical_across_matrix() {
    let shadowed = Some(ShadowingConfig {
        sigma_db: 4.0,
        symmetric: false,
    });
    for (seed, shadowing, mobile) in [(5u64, None, true), (23, shadowed, false)] {
        let cfg = snapshot_scenario_shaped(seed, 16, shadowing, mobile);
        let reference = Simulator::new_reference(with_execution(cfg.clone(), None)).run();
        assert!(
            reference.events > 0,
            "degenerate run is a vacuous comparison"
        );
        let ref_fp = mode_invariant_fingerprint(&reference);
        // Fuzz the checkpoint grid per seed so cuts land at arbitrary
        // mid-run instants, not a hand-picked friendly time.
        let every = Duration::from_millis(110 + (seed * 37) % 140);
        let moded = with_execution(cfg.clone(), None);
        let (hooked, snaps) = run_with_checkpoints(moded.clone(), every);
        assert_eq!(
            mode_invariant_fingerprint(&hooked),
            ref_fp,
            "checkpointing perturbed the run (seed {seed})"
        );
        assert!(
            snaps.len() >= 4,
            "a 2 s run on a {every:?} grid must checkpoint repeatedly"
        );
        for s in &snaps {
            assert_eq!(
                s.time().as_nanos() % every.as_nanos(),
                0,
                "checkpoints land on the absolute grid"
            );
        }
        let snap = &snaps[snaps.len() / 2];
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(
            back.state_fingerprint(),
            snap.state_fingerprint(),
            "serialization round trip changed behavioral state"
        );
        let resumed = Simulator::restore(moded, &back)
            .expect("snapshot matches its own scenario")
            .run();
        assert_eq!(
            mode_invariant_fingerprint(&resumed),
            ref_fp,
            "restore-then-run diverged (seed {seed} mobile {mobile} cut {:?})",
            snap.time()
        );
    }
}

/// Rows are derived state and no snapshot carries them, but the hot-path
/// profile that counts their builds is snapshotted: a row rebuilt after a
/// restore was counted before the cut and must not be counted again. A
/// static metrics-on run cut mid-way and restored reports what the
/// uninterrupted run does, the hot-path profile included.
#[test]
fn a_resumed_static_run_counts_each_row_once() {
    let moded = with_execution(row_stress(13, None), None);
    let (whole, snaps) = run_with_checkpoints(moded.clone(), Duration::from_millis(250));
    let snap = &snaps[snaps.len() / 2];
    let cut = snap.time();

    // Most rows exist at the cut and are walked again after it.
    let mut before = std::collections::HashSet::new();
    let mut rebuilt = std::collections::HashSet::new();
    Simulator::new(moded.clone()).run_with_observer(|ev, at| {
        if let SimEvent::TxEnd { node } | SimEvent::CtrlTxEnd { node } = ev {
            if at < cut {
                before.insert(*node);
            } else if before.contains(node) {
                rebuilt.insert(*node);
            }
        }
    });
    assert!(rebuilt.len() > 5, "only {} rows rebuilt", rebuilt.len());

    let back = SimSnapshot::from_bytes(&snap.to_bytes()).expect("round trip");
    let resumed = Simulator::restore(moded, &back).expect("restores").run();
    assert_eq!(fingerprint(&resumed), fingerprint(&whole));
    let hot = whole.metrics.expect("metrics layer on").hot_path;
    assert!(hot.grid_queries >= before.len() as u64, "{hot:?}");
}

/// Restore does the work capture undid: the restored simulator
/// re-captures as the snapshot it came from.
#[test]
fn a_restored_simulator_recaptures_its_snapshot() {
    let cfg = with_execution(snapshot_scenario(29, 16), None);
    let (_, snaps) = run_with_checkpoints(cfg.clone(), Duration::from_millis(200));
    let mid = &snaps[snaps.len() / 2];
    let restored = Simulator::restore(cfg, mid).expect("a snapshot of the same scenario restores");
    assert_eq!(
        restored.snapshot().state_fingerprint(),
        mid.state_fingerprint(),
        "re-captured at t = {:?}",
        mid.time()
    );
}

/// Cooperative cancellation stops cleanly at a cut with a resumable
/// snapshot, and resuming from it completes the run bit-identically.
#[test]
fn cancelled_runs_leave_resumable_snapshots() {
    let cfg = with_execution(snapshot_scenario(5, 16), None);
    let reference = Simulator::new(cfg.clone()).run();
    // Cancel from inside the run, mid-flight: the second checkpoint
    // pulls the trigger, so the cancellation cut lands at an arbitrary
    // later instant.
    let token = pcmac::CancelToken::new();
    let seen = Mutex::new(0u32);
    let trip = |_s: SimSnapshot| {
        let mut n = seen.lock().unwrap();
        *n += 1;
        if *n == 2 {
            token.cancel();
        }
    };
    let outcome = Simulator::new(cfg.clone()).run_with_hooks(RunHooks {
        cancel: Some(&token),
        checkpoint_every: Some(Duration::from_millis(300)),
        checkpoint_sink: Some(&trip),
    });
    let snap = match outcome {
        RunOutcome::Cancelled(Some(s)) => s,
        RunOutcome::Cancelled(None) => panic!("queue was not empty at the cut"),
        RunOutcome::Completed(_) => panic!("token was cancelled mid-run"),
    };
    assert!(
        snap.time() > SimTime::ZERO && snap.time() < SimTime::ZERO + cfg.duration,
        "cancellation cut should land mid-run, got {:?}",
        snap.time()
    );
    let resumed = Simulator::restore(cfg, &snap)
        .expect("cancellation snapshot restores")
        .run();
    assert_eq!(
        mode_invariant_fingerprint(&resumed),
        mode_invariant_fingerprint(&reference),
        "resume after cancellation diverged"
    );
}

/// Corrupt or foreign checkpoint artifacts surface structured errors —
/// truncation at any byte offset, bit rot, wrong magic, future versions,
/// a mismatched scenario — and never panic.
#[test]
fn corrupt_checkpoints_fail_structurally() {
    let cfg = snapshot_scenario(5, 12);
    let (_, snaps) = run_with_checkpoints(
        with_execution(cfg.clone(), None),
        Duration::from_millis(400),
    );
    let bytes = snaps[snaps.len() / 2].to_bytes();

    // Truncation at several offsets: inside the magic, the header, the
    // length field, and at assorted payload depths.
    for cut in [
        0usize,
        1,
        3,
        5,
        9,
        15,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        assert!(
            SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} must be rejected",
            bytes.len()
        );
    }
    // Bit rot in the payload trips the checksum.
    let mut rotten = bytes.clone();
    let mid = rotten.len() / 2;
    rotten[mid] ^= 0x40;
    assert!(
        SimSnapshot::from_bytes(&rotten).is_err(),
        "bit rot must be rejected"
    );
    // Not a snapshot at all.
    let mut alien = bytes.clone();
    alien[0] ^= 0xFF;
    assert!(
        SimSnapshot::from_bytes(&alien).is_err(),
        "bad magic must be rejected"
    );
    // A future format version.
    let mut future = bytes.clone();
    future[4] = future[4].wrapping_add(1);
    assert!(
        SimSnapshot::from_bytes(&future).is_err(),
        "future versions must be rejected"
    );

    // A valid snapshot of a *different* scenario must refuse to restore.
    let snap = SimSnapshot::from_bytes(&bytes).expect("pristine bytes parse");
    let other = with_execution(snapshot_scenario(29, 12), None);
    assert!(
        !snap.matches(&other),
        "distinct scenarios must have distinct digests"
    );
    assert!(
        Simulator::restore(other, &snap).is_err(),
        "cfg-mismatched restore must fail, not corrupt state"
    );
}
