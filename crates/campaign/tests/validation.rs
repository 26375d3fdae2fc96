//! Load-time validation: defective specs must fail with actionable
//! messages naming the problem, not panic mid-run.

use pcmac::{FlowShape, MetricsConfig, NodeSetup, ScenarioConfig, Variant};
use pcmac_campaign::{
    AodvSpec, AxesSpec, Axis, CampaignSpec, ExecutionSpec, NodesSpec, PlacementSpec, ProtocolSpec,
    RadioSpec, ScenarioSpec, TrafficPattern, TrafficSpec, PATCH_PATHS,
};
use serde::Value;

fn valid_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "ok".into(),
        variant: Variant::Basic,
        duration_s: 5.0,
        field: (1000.0, 1000.0),
        nodes: NodesSpec {
            count: Some(6),
            placement: PlacementSpec::Uniform,
            mobility: None,
        },
        traffic: TrafficSpec {
            pattern: TrafficPattern::RandomPairs { flows: 3 },
            bytes: 512,
            offered_load_kbps: 200.0,
            shape: FlowShape::Cbr,
        },
        power_levels_mw: None,
        shadowing: None,
        protocol: None,
        radio: None,
        aodv: None,
        faults: None,
        metrics: None,
        trace: None,
        execution: None,
    }
}

/// The spec must fail validation and the combined message must contain
/// `needle` so users can find the defect.
fn assert_problem(spec: &ScenarioSpec, needle: &str) {
    let err = spec.validate().expect_err("spec must be rejected");
    let all = err.problems.join("\n");
    assert!(
        all.contains(needle),
        "expected problem containing {needle:?}, got:\n{all}"
    );
}

#[test]
fn the_baseline_is_valid() {
    valid_spec().validate().expect("baseline valid");
    valid_spec().materialize(1).expect("and materializes");
}

#[test]
fn zero_nodes_is_rejected() {
    let mut s = valid_spec();
    s.nodes.count = Some(0);
    assert_problem(&s, "zero nodes");
}

#[test]
fn nan_and_negative_loads_are_rejected() {
    let mut s = valid_spec();
    s.traffic.offered_load_kbps = f64::NAN;
    assert_problem(&s, "offered load");
    s.traffic.offered_load_kbps = -10.0;
    assert_problem(&s, "offered load");
    s.traffic.offered_load_kbps = 0.0;
    assert_problem(&s, "offered load");
}

#[test]
fn out_of_range_flow_endpoints_are_rejected() {
    let mut s = valid_spec();
    s.traffic.pattern = TrafficPattern::Explicit {
        pairs: vec![(0, 99)],
    };
    assert_problem(&s, "out of range");
    // Self-loops too.
    s.traffic.pattern = TrafficPattern::Explicit {
        pairs: vec![(2, 2)],
    };
    assert_problem(&s, "source and destination");
}

#[test]
fn too_many_neighbour_pairs_are_rejected() {
    let mut s = valid_spec();
    s.traffic.pattern = TrafficPattern::NeighbourPairs { flows: 4 };
    assert_problem(&s, "neighbour pairs");
}

#[test]
fn bad_power_levels_are_rejected() {
    let mut s = valid_spec();
    s.power_levels_mw = Some(vec![]);
    assert_problem(&s, "empty");
    s.power_levels_mw = Some(vec![10.0, 5.0]);
    assert_problem(&s, "strictly increasing");
    s.power_levels_mw = Some(vec![-1.0, 5.0]);
    assert_problem(&s, "positive");
}

#[test]
fn bad_mobility_and_duration_are_rejected() {
    let mut s = valid_spec();
    s.duration_s = 0.0;
    assert_problem(&s, "duration");
    let mut s = valid_spec();
    s.nodes.mobility = Some(pcmac_campaign::MobilitySpec {
        speed_mps: f64::INFINITY,
        pause_s: 1.0,
    });
    assert_problem(&s, "speed");
}

/// A waypoint walk at 0 m/s validated and then panicked building its
/// mobility model. The spec rejects it and says what static nodes take;
/// so is the 0 m/s mobility a lone pause patch creates on a static base.
#[test]
fn zero_speed_mobility_is_rejected_before_it_runs() {
    let mut s = valid_spec();
    s.nodes.mobility = Some(pcmac_campaign::MobilitySpec {
        speed_mps: 0.0,
        pause_s: 1.0,
    });
    assert_problem(&s, "must be positive");
    // One rule for specs and hand-built configs, naming both spellings.
    assert_problem(&s, "omit `nodes.mobility` for static nodes");
    assert_problem(&s, "NodeSetup::Static");

    let mut s = valid_spec();
    s.apply_patch("nodes.mobility.pause_s", &Value::F64(2.0))
        .expect("the path exists");
    assert_problem(&s, "mobility speed 0 m/s");
    s.apply_patch("nodes.mobility.speed_mps", &Value::F64(3.0))
        .expect("the path exists");
    s.validate().expect("a positive speed walks");
    s.materialize(1).expect("and materializes");
}

#[test]
fn placements_that_overflow_the_field_are_rejected() {
    let mut s = valid_spec();
    s.nodes.placement = PlacementSpec::Ring { radius: 5000.0 };
    assert_problem(&s, "does not fit the");
    let mut s = valid_spec();
    s.nodes.count = Some(12);
    s.nodes.placement = PlacementSpec::Chain { spacing: 150.0 };
    assert_problem(&s, "exceeds the field width");
    let mut s = valid_spec();
    s.nodes.placement = PlacementSpec::Explicit {
        points: (0..6)
            .map(|i| pcmac_engine::Point::new(400.0 * i as f64, 100.0))
            .collect(),
    };
    s.nodes.count = None;
    assert_problem(&s, "outside the");
    // Both validated, then failed materializing: the cluster centres had
    // no room left to be drawn in, and 10^12 positions no memory.
    let mut s = valid_spec();
    s.nodes.placement = PlacementSpec::Clustered {
        clusters: 2,
        spread_m: 500.0,
    };
    assert_problem(&s, "cluster spread 500 m does not fit the");
    s.nodes.placement = PlacementSpec::Density { per_km2: 1e12 };
    s.nodes.count = None;
    assert_problem(&s, "does not fit 32-bit node ids");
}

#[test]
fn over_shrunk_durations_are_rejected() {
    // 3 flows start staggered up to 1.274 s; a 1 s run strands them.
    let mut s = valid_spec();
    s.duration_s = 1.0;
    assert_problem(&s, "no airtime");
    // The campaign-level duration override is checked too.
    let c = CampaignSpec {
        name: "c".into(),
        base: valid_spec(),
        duration_s: Some(1.2),
        seeds: vec![1],
        axes: None,
        sweep: None,
    };
    let err = c.validate().expect_err("override too short");
    assert!(
        err.problems.iter().any(|p| p.contains("no airtime")),
        "{:?}",
        err.problems
    );
}

#[test]
fn every_problem_is_reported_at_once() {
    let mut s = valid_spec();
    s.nodes.count = Some(0);
    s.traffic.offered_load_kbps = -1.0;
    s.duration_s = f64::NAN;
    let err = s.validate().expect_err("rejected");
    assert!(
        err.problems.len() >= 3,
        "one pass must find all defects, got {:?}",
        err.problems
    );
}

#[test]
fn campaign_axis_defects_are_rejected() {
    let base = valid_spec();
    let mut c = CampaignSpec {
        name: "c".into(),
        base,
        duration_s: None,
        seeds: vec![],
        axes: Some(AxesSpec::default()),
        sweep: None,
    };
    let err = c.validate().expect_err("no seeds");
    assert!(err.problems.iter().any(|p| p.contains("no seeds")));

    c.seeds = vec![1];
    c.axes.as_mut().unwrap().loads_kbps = Some(vec![]);
    let err = c.validate().expect_err("empty axis");
    assert!(err.problems.iter().any(|p| p.contains("loads_kbps")));

    c.axes.as_mut().unwrap().loads_kbps = Some(vec![100.0]);
    c.axes.as_mut().unwrap().node_counts = Some(vec![1]);
    let err = c.validate().expect_err("count < 2");
    assert!(err.problems.iter().any(|p| p.contains("at least 2")));
}

fn sweep_campaign(axes: Vec<Axis>) -> CampaignSpec {
    CampaignSpec {
        name: "sweep".into(),
        base: valid_spec(),
        duration_s: None,
        seeds: vec![1],
        axes: None,
        sweep: Some(axes),
    }
}

#[test]
fn sweep_axis_defects_are_rejected() {
    // Empty axis.
    let c = sweep_campaign(vec![Axis::Load { values: vec![] }]);
    let err = c.validate().expect_err("empty axis");
    assert!(err.problems.iter().any(|p| p.contains("axis is empty")));

    // Unknown patch path, with the supported surface named.
    let c = sweep_campaign(vec![Axis::Patch {
        path: "mac.bogus_knob".into(),
        values: vec![Value::F64(1.0)],
    }]);
    let err = c.validate().expect_err("unknown path");
    assert!(
        err.problems
            .iter()
            .any(|p| p.contains("unknown patch path") && p.contains("mac.pcmac.safety_factor")),
        "{:?}",
        err.problems
    );

    // Type mismatch: a string where a float belongs.
    let c = sweep_campaign(vec![Axis::Patch {
        path: "mac.pcmac.safety_factor".into(),
        values: vec![Value::Str("high".into())],
    }]);
    let err = c.validate().expect_err("type mismatch");
    assert!(
        err.problems.iter().any(|p| p.contains("safety_factor")),
        "{:?}",
        err.problems
    );

    // Semantically-bad value: validation catches it before expansion.
    let c = sweep_campaign(vec![Axis::Patch {
        path: "mac.pcmac.safety_factor".into(),
        values: vec![Value::F64(-0.5)],
    }]);
    let err = c.validate().expect_err("negative safety factor");
    assert!(
        err.problems
            .iter()
            .any(|p| p.contains("safety factor") && p.contains("positive")),
        "{:?}",
        err.problems
    );

    // Two axes sweeping the same knob.
    let mut c = sweep_campaign(vec![Axis::Load {
        values: vec![100.0],
    }]);
    c.axes = Some(AxesSpec {
        loads_kbps: Some(vec![50.0]),
        ..AxesSpec::default()
    });
    let err = c.validate().expect_err("duplicate axis");
    assert!(
        err.problems.iter().any(|p| p.contains("same knob")),
        "{:?}",
        err.problems
    );

    // A first-class axis and its Patch-path spelling collide too: the
    // later axis would silently overwrite the earlier one per cell,
    // leaving duplicate points whose keys lie about what ran.
    let c = sweep_campaign(vec![
        Axis::Load {
            values: vec![100.0, 150.0],
        },
        Axis::Patch {
            path: "traffic.offered_load_kbps".into(),
            values: vec![Value::F64(120.0)],
        },
    ]);
    let err = c.validate().expect_err("first-class vs patch duplicate");
    assert!(
        err.problems
            .iter()
            .any(|p| p.contains("same knob `traffic.offered_load_kbps`")),
        "{:?}",
        err.problems
    );
}

#[test]
fn duration_patch_axis_wins_over_the_campaign_override() {
    // The campaign `duration_s` replaces the *base* duration; a sweep
    // axis over `duration_s` must still take effect per cell (keys that
    // say duration_s=20 must actually run 20 s).
    let mut c = sweep_campaign(vec![Axis::Patch {
        path: "duration_s".into(),
        values: vec![Value::F64(20.0), Value::F64(30.0)],
    }]);
    c.duration_s = Some(10.0);
    let grid = c.grid().expect("grid builds");
    let durations: Vec<f64> = grid.cells.iter().map(|cell| cell.spec.duration_s).collect();
    assert_eq!(durations, vec![20.0, 30.0]);
    // Without the axis, the override applies as before.
    c.sweep = None;
    let grid = c.grid().expect("grid builds");
    assert_eq!(grid.cells[0].spec.duration_s, 10.0);
}

/// One value of its documented type per `PATCH_PATHS` entry, in order,
/// all valid together on the paper's base spec.
fn patch_samples() -> Vec<(&'static str, Value)> {
    vec![
        ("duration_s", Value::F64(30.0)),
        ("variant", Value::Str("Basic".into())),
        ("field.width", Value::F64(800.0)),
        ("field.height", Value::F64(800.0)),
        ("nodes.count", Value::U64(20)),
        (
            "nodes.placement",
            Value::Map(vec![(
                "Grid".into(),
                Value::Map(vec![("spacing".into(), Value::F64(100.0))]),
            )]),
        ),
        ("nodes.mobility.speed_mps", Value::F64(5.0)),
        ("nodes.mobility.pause_s", Value::F64(1.0)),
        (
            "traffic.pattern",
            Value::Map(vec![(
                "NeighbourPairs".into(),
                Value::Map(vec![("flows".into(), Value::U64(10))]),
            )]),
        ),
        ("traffic.offered_load_kbps", Value::F64(400.0)),
        ("traffic.bytes", Value::U64(256)),
        (
            "power_levels_mw",
            Value::Seq(vec![Value::F64(1.0), Value::F64(281.83815)]),
        ),
        ("shadowing.sigma_db", Value::F64(4.0)),
        ("shadowing.symmetric", Value::Bool(false)),
        (
            "faults.crashes",
            Value::Seq(vec![Value::Map(vec![
                ("node".into(), Value::U64(3)),
                ("at_s".into(), Value::F64(10.0)),
                ("recover_s".into(), Value::F64(20.0)),
            ])]),
        ),
        ("faults.churn.mean_uptime_s", Value::F64(20.0)),
        ("faults.churn.mean_downtime_s", Value::F64(5.0)),
        ("faults.churn.start_s", Value::F64(5.0)),
        ("faults.churn.stop_s", Value::F64(25.0)),
        ("faults.expire_routes", Value::Bool(true)),
        (
            "faults.impairments",
            Value::Seq(vec![Value::Map(vec![
                ("start_s".into(), Value::F64(12.0)),
                ("stop_s".into(), Value::F64(18.0)),
                ("extra_loss_db".into(), Value::F64(6.0)),
                ("noise_mult".into(), Value::F64(2.0)),
            ])]),
        ),
        ("faults.energy_budget_mj", Value::F64(5000.0)),
        ("mac.pcmac.safety_factor", Value::F64(0.9)),
        ("mac.pcmac.capture_ratio", Value::F64(8.0)),
        ("mac.pcmac.ctrl_rate_bps", Value::U64(250_000)),
        ("mac.pcmac.history_expiry_s", Value::F64(2.0)),
        ("mac.pcmac.max_retx", Value::U64(6)),
        ("mac.pcmac.four_way_handshake", Value::Bool(true)),
        ("mac.queue_capacity", Value::U64(25)),
        ("mac.rts_threshold", Value::U64(512)),
        ("radio.rx_thresh_mw", Value::F64(4.0e-7)),
        ("radio.cs_thresh_mw", Value::F64(2.0e-8)),
        ("radio.capture_ratio", Value::F64(6.0)),
        ("radio.noise_floor_mw", Value::F64(2.0e-9)),
        ("radio.capture_policy", Value::Str("Continuous".into())),
        ("aodv.active_route_timeout_s", Value::F64(8.0)),
        ("aodv.rreq_cache_timeout_s", Value::F64(5.0)),
        ("aodv.rreq_wait_s", Value::F64(1.5)),
        ("aodv.rreq_retries", Value::U64(2)),
        ("aodv.buffer_capacity", Value::U64(32)),
        ("aodv.buffer_timeout_s", Value::F64(20.0)),
        ("aodv.rreq_ttl", Value::U64(16)),
        ("metrics.probe_interval_s", Value::F64(0.5)),
        ("execution.shards", Value::U64(4)),
        ("execution.delay_floor_us", Value::F64(10.0)),
        ("trace.channel", Value::Bool(true)),
        ("trace.ctrl", Value::Bool(false)),
        ("trace.timers", Value::Bool(false)),
        ("trace.traffic", Value::Bool(true)),
    ]
}

#[test]
fn every_documented_patch_path_applies() {
    // `PATCH_PATHS` is the contract surface: each entry must accept a
    // value of its documented type on the paper's base spec.
    let samples = patch_samples();
    let sampled: Vec<&str> = samples.iter().map(|(p, _)| *p).collect();
    assert_eq!(sampled, PATCH_PATHS, "sample table must cover PATCH_PATHS");
    let mut spec = ScenarioSpec::paper();
    for (path, value) in &samples {
        spec.apply_patch(path, value)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
    }
    spec.validate().expect("fully patched spec stays valid");
    spec.materialize(1).expect("and materializes");
}

/// Each hostile value of `sample`'s type, one leaf at a time: a float
/// becomes 0, −1, NaN, ±∞, 1e-12 or 1e12, an integer 0 or 1, a boolean
/// either; a sequence is also emptied.
fn hostile(sample: &Value) -> Vec<Value> {
    fn each_leaf<T: Clone>(items: &[T], leaf: impl Fn(&T) -> &Value) -> Vec<(usize, Value)> {
        let per_item = items.iter().map(|item| hostile(leaf(item)));
        per_item
            .enumerate()
            .flat_map(|(i, values)| values.into_iter().map(move |v| (i, v)))
            .collect()
    }
    const FLOATS: [f64; 7] = [
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        -f64::INFINITY,
        1e-12,
        1e12,
    ];
    match sample {
        Value::F64(_) => FLOATS.map(Value::F64).to_vec(),
        Value::U64(_) | Value::I64(_) => vec![Value::U64(0), Value::U64(1)],
        Value::Bool(_) => vec![Value::Bool(false), Value::Bool(true)],
        Value::Seq(items) => std::iter::once(Value::Seq(Vec::new()))
            .chain(each_leaf(items, |v| v).into_iter().map(|(i, v)| {
                let mut items = items.clone();
                items[i] = v;
                Value::Seq(items)
            }))
            .collect(),
        Value::Map(fields) => each_leaf(fields, |(_, v)| v)
            .into_iter()
            .map(|(i, v)| {
                let mut fields = fields.clone();
                fields[i].1 = v;
                Value::Map(fields)
            })
            .collect(),
        Value::Null | Value::Str(_) => vec![sample.clone()],
    }
}

/// One validator, fuzzed over the whole patch surface: every
/// `PATCH_PATHS` entry takes each hostile value of its type on a small
/// valid base. Nothing may panic, `validate` must answer as
/// `materialize` does at every seed, and whatever it accepts must build
/// a simulator.
#[test]
fn hostile_patches_validate_exactly_when_they_materialize() {
    use serde::Serialize;
    let mut samples = patch_samples();
    // Every placement and traffic pattern, not only the sampled ones.
    let placements = [
        PlacementSpec::Uniform,
        PlacementSpec::Density { per_km2: 6.0 },
        PlacementSpec::Chain { spacing: 100.0 },
        PlacementSpec::Ring { radius: 100.0 },
        PlacementSpec::Clustered {
            clusters: 2,
            spread_m: 50.0,
        },
        PlacementSpec::Corridor { width_m: 50.0 },
        PlacementSpec::Explicit {
            points: vec![pcmac_engine::Point::new(10.0, 10.0); 6],
        },
    ];
    samples.extend(placements.iter().map(|p| ("nodes.placement", p.to_value())));
    let patterns = [
        TrafficPattern::RandomPairs { flows: 3 },
        TrafficPattern::Explicit {
            pairs: vec![(0, 1)],
        },
    ];
    samples.extend(patterns.iter().map(|p| ("traffic.pattern", p.to_value())));

    let (mut tried, mut accepted, mut failures) = (0, 0, Vec::new());
    for (path, sample) in &samples {
        for value in hostile(sample) {
            let mut spec = valid_spec();
            if spec.apply_patch(path, &value).is_err() {
                continue; // a type the path does not take
            }
            tried += 1;
            let case = std::panic::catch_unwind(|| {
                let valid = spec.validate().is_ok();
                let agree = (1..=3).all(|seed| spec.materialize(seed).is_ok() == valid);
                if valid {
                    drop(pcmac::Simulator::new(
                        spec.materialize(1).expect("validated"),
                    ));
                }
                (valid, agree)
            });
            match case {
                Ok((valid, true)) => accepted += usize::from(valid),
                Ok((_, false)) => failures.push(format!("{path} = {value:?}: disagree")),
                Err(_) => failures.push(format!("{path} = {value:?}: panicked")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {tried} hostile patches failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The surface was exercised: most values are refused, but not all.
    assert!(
        tried > 300 && accepted > 50,
        "tried {tried}, accepted {accepted}"
    );
}

#[test]
fn execution_overlay_defects_are_rejected() {
    let mut s = valid_spec();
    s.execution = Some(ExecutionSpec {
        shards: Some(0),
        delay_floor_us: Some(10.0),
    });
    assert_problem(&s, "zero shards");

    let mut s = valid_spec();
    s.execution = Some(ExecutionSpec {
        shards: Some(4),
        delay_floor_us: None,
    });
    assert_problem(&s, "delay_floor_us");

    let mut s = valid_spec();
    s.execution = Some(ExecutionSpec {
        shards: Some(4),
        delay_floor_us: Some(-1.0),
    });
    assert_problem(&s, "delay floor");
}

#[test]
fn execution_overlay_materializes_into_sharded_config() {
    use pcmac::ExecutionMode;
    let mut s = valid_spec();
    s.execution = Some(ExecutionSpec {
        shards: Some(2),
        delay_floor_us: Some(10.0),
    });
    let cfg = s.materialize(1).expect("sharded spec materializes");
    assert_eq!(cfg.execution, Some(ExecutionMode::Sharded { shards: 2 }));
    assert_eq!(cfg.delay_floor_us, Some(10.0));
    // Floor without shards: a comparable single-threaded run.
    let mut s = valid_spec();
    s.execution = Some(ExecutionSpec {
        shards: None,
        delay_floor_us: Some(10.0),
    });
    let cfg = s.materialize(1).expect("floored single spec materializes");
    assert_eq!(cfg.execution, None);
    assert_eq!(cfg.delay_floor_us, Some(10.0));
}

#[test]
fn overlay_defects_are_rejected() {
    let mut s = valid_spec();
    s.protocol = Some(ProtocolSpec {
        safety_factor: Some(0.0),
        ..ProtocolSpec::default()
    });
    assert_problem(&s, "safety factor");

    let mut s = valid_spec();
    s.protocol = Some(ProtocolSpec {
        capture_ratio: Some(0.5),
        ..ProtocolSpec::default()
    });
    assert_problem(&s, "at least 1");

    let mut s = valid_spec();
    s.protocol = Some(ProtocolSpec {
        ctrl_rate_bps: Some(0),
        ..ProtocolSpec::default()
    });
    assert_problem(&s, "control channel rate");

    let mut s = valid_spec();
    s.radio = Some(RadioSpec {
        rx_thresh_mw: Some(1.0e-12), // below the 1e-9 default noise floor
        ..RadioSpec::default()
    });
    assert_problem(&s, "noise floor");

    let mut s = valid_spec();
    s.radio = Some(RadioSpec {
        cs_thresh_mw: Some(-1.0),
        ..RadioSpec::default()
    });
    assert_problem(&s, "carrier-sense threshold");

    let mut s = valid_spec();
    s.aodv = Some(AodvSpec {
        rreq_retries: Some(0),
        ..AodvSpec::default()
    });
    assert_problem(&s, "RREQ attempt");
}

#[test]
fn scenario_config_validate_catches_raw_defects() {
    // The same guard exists one level down, for hand-built configs.
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
    cfg.flows[0].dst = pcmac_engine::NodeId(7);
    let err = cfg.validate().expect_err("out-of-range dst");
    assert!(err.problems[0].contains("out of range"), "{err}");

    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
    cfg.flows[0].rate_bps = f64::NAN;
    assert!(cfg.validate().is_err(), "NaN rate");

    // The report's label and what the stations run are two fields; a
    // config where they disagree would file a Basic run under "PCMAC".
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
    cfg.variant = Variant::Pcmac;
    let err = cfg.validate().expect_err("label / MAC variant mismatch");
    assert!(
        err.problems[0].contains("Pcmac") && err.problems[0].contains("Basic"),
        "{err}"
    );

    // A NaN coordinate would land in grid cell 0, hear nothing and run
    // to "sent 242, delivered 0" without a word.
    for moving in [false, true] {
        let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
        let starts = [(f64::NAN, 500.0), (180.0, 500.0)]
            .map(|(x, y)| pcmac_engine::Point::new(x, y))
            .to_vec();
        cfg.nodes = if moving {
            NodeSetup::WaypointFrom {
                starts,
                speed: 2.0,
                pause: pcmac_engine::Duration::from_secs(1),
            }
        } else {
            NodeSetup::Static(starts)
        };
        let err = cfg.validate().expect_err("NaN start coordinate");
        assert!(
            err.problems[0].contains("node 0") && err.problems[0].contains("finite"),
            "{err}"
        );
    }

    // A waypoint speed of 0 m/s validated, then panicked in the model.
    for from_starts in [false, true] {
        let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
        let pause = pcmac_engine::Duration::from_secs(1);
        cfg.nodes = if from_starts {
            let starts = [(10.0, 500.0), (110.0, 500.0)]
                .map(|(x, y)| pcmac_engine::Point::new(x, y))
                .to_vec();
            NodeSetup::WaypointFrom {
                starts,
                speed: 0.0,
                pause,
            }
        } else {
            NodeSetup::UniformWaypoint {
                count: 2,
                speed: 0.0,
                pause,
            }
        };
        let err = cfg.validate().expect_err("zero waypoint speed");
        assert!(
            err.problems[0].contains("speed 0 m/s must be positive")
                && err.problems[0].contains("NodeSetup::Static")
                && err.problems[0].contains("omit `nodes.mobility`"),
            "{err}"
        );
    }

    // An infinite interference floor culled every arrival and ran to
    // "sent 242, delivered 0"; any floor over the carrier-sense threshold
    // culls arrivals the radio would have sensed.
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 80.0, 50_000.0, 1);
    for floor in [f64::INFINITY, cfg.radio.cs_thresh.value() * 2.0] {
        cfg.interference_floor = pcmac_engine::Milliwatts(floor);
        let err = cfg.validate().expect_err("floor over carrier sense");
        assert!(
            err.problems[0].contains("interference floor")
                && err.problems[0].contains(&format!("{:?}", cfg.radio.cs_thresh)),
            "{err}"
        );
    }

    // Rules the spec layer alone used to hold: a config with any of these
    // validated.
    use pcmac_engine::Duration;
    type Defect = fn(&mut ScenarioConfig);
    let cases: [(&str, Defect); 5] = [
        ("RREQ TTL is zero", |c| c.aodv.rreq_ttl = 0),
        ("at least one RREQ attempt", |c| c.aodv.rreq_retries = 0),
        ("send-buffer capacity is zero", |c| {
            c.aodv.buffer_capacity = 0
        }),
        ("AODV RREQ wait 0 s", |c| c.aodv.rreq_wait = Duration::ZERO),
        ("power history expiry 0 s", |c| {
            c.mac.pcmac.history_expiry = Duration::ZERO
        }),
    ];
    for (needle, defect) in cases {
        let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
        defect(&mut cfg);
        let err = cfg.validate().expect_err(needle);
        assert!(
            err.problems.iter().any(|p| p.contains(needle)),
            "{needle}: {err}"
        );
    }

    let cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
    cfg.validate().expect("stock scenario is valid");
}

/// A probe interval under 0.5 ns rounds to 0 ns: it validated, then the
/// probe re-armed itself at t = 0 for ever.
#[test]
fn a_probe_interval_that_rounds_to_zero_is_rejected() {
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
    for bad in [1e-10, 4e-10, 0.0, -1.0, f64::NAN, f64::INFINITY] {
        cfg.metrics = Some(MetricsConfig {
            probe_interval_s: bad,
        });
        let err = cfg.validate().expect_err("rounds to 0 ns");
        assert!(
            err.problems
                .iter()
                .any(|p| p.contains(&format!("metrics probe interval {bad} s"))),
            "{bad}: {err}"
        );
    }
    cfg.metrics = Some(MetricsConfig {
        probe_interval_s: 1e-9,
    });
    cfg.validate().expect("one nanosecond is a period");

    let mut s = valid_spec();
    s.apply_patch("metrics.probe_interval_s", &Value::F64(1e-10))
        .expect("the path exists");
    assert_problem(&s, "metrics probe interval 0.0000000001 s");
    s.apply_patch("metrics.probe_interval_s", &Value::F64(0.5))
        .expect("the path exists");
    s.validate().expect("half a second probes");
}

#[test]
#[should_panic(expected = "out of range")]
fn simulator_construction_surfaces_the_problem_list() {
    let mut cfg = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
    cfg.flows[0].dst = pcmac_engine::NodeId(7);
    let _ = pcmac::Simulator::new(cfg);
}
