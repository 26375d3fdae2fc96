//! Serde round-trip stability for the spec types: JSON → struct → JSON
//! must be a fixed point, so spec files survive load/save cycles and the
//! `CAMPAIGN_*.json` artifacts are reparseable.

use pcmac::{
    ChurnConfig, CrashWindow, FaultConfig, FlowShape, ImpairmentBurst, ScenarioConfig,
    ShadowingConfig, Variant,
};
use pcmac_campaign::{
    AodvSpec, Axis, CampaignSpec, MobilitySpec, NodesSpec, PlacementSpec, ProtocolSpec, RadioSpec,
    ScenarioSpec, TrafficPattern, TrafficSpec,
};
use pcmac_phy::CapturePolicy;
use proptest::prelude::*;
use serde::Value;

/// Build a scenario spec from fuzzed knobs, exercising every placement,
/// pattern, and shape variant.
fn spec_from(
    placement_idx: usize,
    pattern_idx: usize,
    shape_idx: usize,
    count: usize,
    load: f64,
    mobile: bool,
    shadowed: bool,
) -> ScenarioSpec {
    let placement = match placement_idx % 8 {
        0 => PlacementSpec::Uniform,
        1 => PlacementSpec::Density { per_km2: 40.0 },
        2 => PlacementSpec::Grid { spacing: 120.0 },
        3 => PlacementSpec::Chain { spacing: 80.0 },
        4 => PlacementSpec::Ring { radius: 200.0 },
        5 => PlacementSpec::Clustered {
            clusters: 2,
            spread_m: 60.0,
        },
        6 => PlacementSpec::Corridor { width_m: 100.0 },
        _ => PlacementSpec::Explicit {
            points: (0..count)
                .map(|i| pcmac_engine::Point::new(50.0 + 100.0 * i as f64, 500.0))
                .collect(),
        },
    };
    let pattern = match pattern_idx % 3 {
        0 => TrafficPattern::RandomPairs { flows: 2 },
        1 => TrafficPattern::NeighbourPairs { flows: 2 },
        _ => TrafficPattern::Explicit {
            pairs: vec![(0, 1), (1, 2)],
        },
    };
    let shape = match shape_idx % 3 {
        0 => FlowShape::Cbr,
        1 => FlowShape::Poisson,
        _ => FlowShape::OnOff {
            mean_on_s: 1.5,
            mean_off_s: 0.5,
        },
    };
    // Density and Explicit placements imply their own count.
    let uses_count = !matches!(
        placement,
        PlacementSpec::Explicit { .. } | PlacementSpec::Density { .. }
    );
    ScenarioSpec {
        name: format!("fuzz-{placement_idx}-{pattern_idx}-{shape_idx}"),
        variant: Variant::ALL[placement_idx % 4],
        duration_s: 5.0,
        field: (1000.0, 1000.0),
        nodes: NodesSpec {
            count: uses_count.then_some(count),
            placement,
            mobility: mobile.then_some(MobilitySpec {
                speed_mps: 2.5,
                pause_s: 1.0,
            }),
        },
        traffic: TrafficSpec {
            pattern,
            bytes: 512,
            offered_load_kbps: load,
            shape,
        },
        power_levels_mw: None,
        shadowing: shadowed.then_some(ShadowingConfig {
            sigma_db: 4.0,
            symmetric: true,
        }),
        protocol: None,
        radio: None,
        aodv: None,
        faults: None,
        metrics: None,
        trace: None,
        execution: None,
    }
}

/// Overlay sections built from fuzzed presence flags: each bit decides
/// whether one optional knob is set.
fn overlays_from(bits: u32) -> (ProtocolSpec, RadioSpec, AodvSpec) {
    let on = |i: u32| bits & (1 << i) != 0;
    let protocol = ProtocolSpec {
        safety_factor: on(0).then_some(0.9),
        capture_ratio: on(1).then_some(8.0),
        ctrl_rate_bps: on(2).then_some(250_000),
        history_expiry_s: on(3).then_some(2.5),
        max_retx: on(4).then_some(6),
        four_way_handshake: on(5).then_some(true),
        queue_capacity: on(6).then_some(25),
        rts_threshold: on(7).then_some(256),
    };
    let radio = RadioSpec {
        rx_thresh_mw: on(8).then_some(4.0e-7),
        cs_thresh_mw: on(9).then_some(2.0e-8),
        capture_ratio: on(10).then_some(6.0),
        noise_floor_mw: on(11).then_some(2.0e-9),
        capture_policy: on(12).then_some(if on(13) {
            CapturePolicy::Continuous
        } else {
            CapturePolicy::StartOnly
        }),
    };
    let aodv = AodvSpec {
        active_route_timeout_s: on(14).then_some(8.0),
        rreq_cache_timeout_s: on(15).then_some(5.0),
        rreq_wait_s: on(16).then_some(1.5),
        rreq_retries: on(17).then_some(2),
        buffer_capacity: on(18).then_some(32),
        buffer_timeout_s: on(19).then_some(20.0),
        rreq_ttl: on(20).then_some(16),
    };
    (protocol, radio, aodv)
}

/// A fault plan built from fuzzed presence flags, mirroring
/// [`overlays_from`]: each bit decides whether one optional fault
/// mechanism is present.
fn faults_from(bits: u32) -> FaultConfig {
    let on = |i: u32| bits & (1 << i) != 0;
    FaultConfig {
        crashes: on(0).then(|| {
            vec![
                CrashWindow {
                    node: 0,
                    at_s: 1.0,
                    recover_s: on(1).then_some(2.0),
                },
                CrashWindow {
                    node: 2,
                    at_s: 1.5,
                    recover_s: None,
                },
            ]
        }),
        churn: on(2).then(|| ChurnConfig {
            mean_uptime_s: 3.0,
            mean_downtime_s: 0.5,
            start_s: on(3).then_some(0.5),
            stop_s: on(4).then_some(4.0),
        }),
        expire_routes: on(5).then_some(on(6)),
        impairments: on(7).then(|| {
            vec![ImpairmentBurst {
                start_s: 1.0,
                stop_s: 2.0,
                extra_loss_db: 10.0,
                noise_mult: on(8).then_some(3.0),
            }]
        }),
        energy_budget_mj: on(9).then_some(500.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FaultConfig round-trips stably on the spec for every combination
    /// of present/absent fault mechanisms, and reaches the materialized
    /// `ScenarioConfig` verbatim.
    #[test]
    fn fault_config_round_trips_and_materializes(bits in any::<u32>()) {
        let mut spec = spec_from(0, 0, 0, 8, 200.0, false, false);
        let faults = faults_from(bits);
        spec.faults = Some(faults.clone());
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("reparses");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json, "second serialization must match the first");
        let cfg = spec.materialize(3).expect("faulted spec materializes");
        prop_assert_eq!(cfg.faults.as_ref(), Some(&faults));
    }

    /// The dotted fault patch paths build the same plan as setting the
    /// struct directly: a JSON campaign axis can express any fault knob.
    #[test]
    fn fault_patch_paths_reach_the_spec(
        uptime in 1.0f64..60.0,
        downtime in 0.1f64..10.0,
        budget in 1.0f64..10_000.0,
        expire in any::<bool>(),
    ) {
        let mut patched = spec_from(0, 0, 0, 8, 200.0, false, false);
        // The churn section is set whole, then each of its keys by path.
        let churn = ChurnConfig {
            mean_uptime_s: 1.0,
            mean_downtime_s: 1.0,
            start_s: None,
            stop_s: None,
        };
        patched
            .apply_patch("faults.churn", &serde::Serialize::to_value(&churn))
            .expect("path applies");
        patched
            .apply_patch("faults.churn.mean_uptime_s", &Value::F64(uptime))
            .expect("path applies");
        patched
            .apply_patch("faults.churn.mean_downtime_s", &Value::F64(downtime))
            .expect("path applies");
        patched
            .apply_patch("faults.energy_budget_mj", &Value::F64(budget))
            .expect("path applies");
        patched
            .apply_patch("faults.expire_routes", &Value::Bool(expire))
            .expect("path applies");

        let mut direct = spec_from(0, 0, 0, 8, 200.0, false, false);
        direct.faults = Some(FaultConfig {
            churn: Some(ChurnConfig {
                mean_uptime_s: uptime,
                mean_downtime_s: downtime,
                start_s: None,
                stop_s: None,
            }),
            expire_routes: Some(expire),
            energy_budget_mj: Some(budget),
            ..FaultConfig::default()
        });
        prop_assert_eq!(&patched, &direct);
        prop_assert_eq!(patched.to_json(), direct.to_json());
    }

    /// ScenarioSpec: JSON → struct → JSON is a fixed point, and the
    /// reparsed struct is equal to the original.
    #[test]
    fn scenario_spec_json_is_stable(
        placement_idx in 0usize..8,
        pattern_idx in 0usize..3,
        shape_idx in 0usize..3,
        count in 4usize..12,
        load in 50.0f64..500.0,
        mobile in any::<bool>(),
        shadowed in any::<bool>(),
    ) {
        let spec = spec_from(placement_idx, pattern_idx, shape_idx, count, load, mobile, shadowed);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("reparses");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json, "second serialization must match the first");
    }

    /// CampaignSpec round trip, including every axis populated.
    #[test]
    fn campaign_spec_json_is_stable(
        placement_idx in 0usize..8,
        seeds in proptest::collection::vec(0u64..1000, 1..4),
        with_counts in any::<bool>(),
        with_levels in any::<bool>(),
    ) {
        let base = spec_from(placement_idx, 0, 0, 8, 200.0, false, false);
        let counts_ok = with_counts && !matches!(
            base.nodes.placement,
            PlacementSpec::Density { .. } | PlacementSpec::Explicit { .. }
        );
        let spec = CampaignSpec {
            name: "fuzz-campaign".into(),
            base,
            duration_s: Some(3.0),
            seeds,
            sweep: Some(
                [
                    Some(Axis::new("traffic.offered_load_kbps", &[100.0, 200.0])),
                    counts_ok.then(|| Axis::new("nodes.count", &[6, 10])),
                    Some(Axis::new("variant", &[Variant::Basic, Variant::Pcmac])),
                    with_levels.then(|| Axis::new(
                        "power_levels_mw",
                        &[vec![281.83815], vec![1.0, 15.0, 281.83815]],
                    )),
                ]
                .into_iter()
                .flatten()
                .collect(),
            ),
        };
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).expect("reparses");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json);
    }

    /// The protocol/radio/AODV overlay sections round-trip stably for
    /// every combination of present/absent knobs.
    #[test]
    fn overlay_specs_round_trip(bits in any::<u32>()) {
        let (protocol, radio, aodv) = overlays_from(bits);
        let mut spec = spec_from(0, 0, 0, 8, 200.0, false, false);
        spec.protocol = Some(protocol);
        spec.radio = Some(radio);
        spec.aodv = Some(aodv);
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("reparses");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json);
    }

    /// Axes over every kind of JSON value round-trip stably inside a
    /// campaign's `sweep` list.
    #[test]
    fn sweep_axes_round_trip(kind in 0usize..6, seeds in proptest::collection::vec(0u64..100, 1..3)) {
        let axis = match kind {
            0 => Axis::new("traffic.offered_load_kbps", &[100.0, 200.0]),
            1 => Axis::new("nodes.count", &[6, 10]),
            2 => Axis::new("variant", &[Variant::Basic, Variant::Pcmac]),
            3 => Axis::new("power_levels_mw", &[vec![281.83815], vec![1.0, 281.83815]]),
            4 => Axis::new("protocol.safety_factor", &[0.5, 0.7]),
            _ => Axis::new(
                "radio.capture_policy",
                &[CapturePolicy::StartOnly, CapturePolicy::Continuous],
            ),
        };
        let spec = CampaignSpec {
            name: "fuzz-sweep".into(),
            base: spec_from(0, 0, 0, 8, 200.0, false, false),
            duration_s: Some(3.0),
            seeds,
            sweep: Some(vec![axis]),
        };
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).expect("reparses");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json);
    }

    /// Materialization honours every overlay knob: the resulting
    /// `ScenarioConfig` carries exactly the overridden values.
    #[test]
    fn overlays_reach_the_materialized_config(bits in any::<u32>()) {
        let (protocol, radio, aodv) = overlays_from(bits);
        let mut spec = spec_from(0, 0, 0, 8, 200.0, false, false);
        spec.protocol = Some(protocol.clone());
        spec.radio = Some(radio.clone());
        spec.aodv = Some(aodv.clone());
        let cfg = spec.materialize(3).expect("overlayed spec materializes");
        prop_assert_eq!(
            cfg.mac.pcmac.safety_factor,
            protocol.safety_factor.unwrap_or(0.7)
        );
        prop_assert_eq!(
            cfg.mac.pcmac.ctrl_rate_bps,
            protocol.ctrl_rate_bps.unwrap_or(500_000)
        );
        prop_assert_eq!(
            cfg.mac.pcmac.four_way_handshake,
            protocol.four_way_handshake.unwrap_or(false)
        );
        prop_assert_eq!(cfg.mac.queue_capacity, protocol.queue_capacity.unwrap_or(50));
        prop_assert_eq!(
            cfg.radio.rx_thresh.value(),
            radio.rx_thresh_mw.unwrap_or(3.652e-7)
        );
        // The MAC's needed-power computation must track the radio's
        // decode threshold.
        prop_assert_eq!(cfg.mac.rx_thresh.value(), cfg.radio.rx_thresh.value());
        prop_assert_eq!(
            cfg.radio.capture_policy,
            radio.capture_policy.unwrap_or(CapturePolicy::StartOnly)
        );
        prop_assert_eq!(cfg.aodv.rreq_retries, aodv.rreq_retries.unwrap_or(3));
        prop_assert_eq!(cfg.aodv.buffer_capacity, aodv.buffer_capacity.unwrap_or(64));
    }
}

#[test]
fn optional_sections_may_be_omitted() {
    // A spec without the protocol/radio/aodv sections or a `sweep` list
    // loads with every overlay absent and runs the base alone.
    let json = r#"{
      "name": "old",
      "base": {
        "name": "old-base",
        "variant": "Basic",
        "duration_s": 5.0,
        "field": [1000.0, 1000.0],
        "nodes": { "count": 6, "placement": "Uniform", "mobility": null },
        "traffic": {
          "pattern": { "RandomPairs": { "flows": 3 } },
          "bytes": 512,
          "offered_load_kbps": 200.0,
          "shape": "Cbr"
        },
        "power_levels_mw": null,
        "shadowing": null
      },
      "duration_s": null,
      "seeds": [1]
    }"#;
    let spec = CampaignSpec::from_json(json).expect("minimal shape parses");
    assert_eq!(spec.base.protocol, None);
    assert_eq!(spec.base.radio, None);
    assert_eq!(spec.base.aodv, None);
    assert_eq!(spec.sweep, None);
    spec.validate().expect("minimal shape is valid");
    assert_eq!(spec.point_count(), 1);
}

#[test]
fn paper_spec_materializes_identically_to_the_constructor() {
    // The whole point of the refactor: the declarative path must
    // reproduce the constructor-built paper scenario bit for bit, so the
    // figures lose nothing by being a campaign over this spec.
    for (seed, load) in [(1u64, 300.0), (7, 650.0), (42, 1000.0)] {
        for variant in Variant::ALL {
            let mut spec = ScenarioSpec::paper();
            spec.variant = variant;
            spec.traffic.offered_load_kbps = load;
            let from_spec = spec.materialize(seed).expect("paper spec is valid");
            let from_ctor = ScenarioConfig::paper(variant, load, seed);
            // Compare through JSON: every field except the label must
            // match (names differ: spec names carry the seed).
            let mut a = from_spec.clone();
            let mut b = from_ctor.clone();
            a.name = String::new();
            b.name = String::new();
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "variant {variant:?} load {load} seed {seed}"
            );
        }
    }
}
