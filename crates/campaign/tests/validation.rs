//! Load-time validation: defective specs must fail with actionable
//! messages naming the problem, not panic mid-run.

use pcmac::{
    ChurnConfig, CrashWindow, FaultConfig, FlowShape, ImpairmentBurst, MetricsConfig, NodeSetup,
    ScenarioConfig, ShadowingConfig, TraceFilter, Variant,
};
use pcmac_campaign::{
    AodvSpec, Axis, CampaignSpec, ExecutionSpec, MobilitySpec, NodesSpec, PlacementSpec,
    ProtocolSpec, RadioSpec, ScenarioSpec, TrafficPattern, TrafficSpec,
};
use pcmac_phy::CapturePolicy;
use serde::{Serialize, Value};

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
/// mobility model. The spec rejects it and says what static nodes take.
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

fn sweep_campaign(axes: Vec<Axis>) -> CampaignSpec {
    CampaignSpec {
        name: "sweep".into(),
        base: valid_spec(),
        duration_s: None,
        seeds: vec![1],
        sweep: Some(axes),
    }
}

/// Every problem of `c`, one per line.
fn campaign_problems(c: &CampaignSpec) -> String {
    c.validate()
        .expect_err("campaign must be rejected")
        .problems
        .join("\n")
}

#[test]
fn sweep_axis_defects_are_rejected() {
    let mut c = sweep_campaign(vec![]);
    c.seeds = vec![];
    assert!(campaign_problems(&c).contains("no seeds"));

    let empty = Axis::new::<f64>("traffic.offered_load_kbps", &[]);
    let all = campaign_problems(&sweep_campaign(vec![empty]));
    assert!(
        all.contains("`traffic.offered_load_kbps` is empty"),
        "{all}"
    );

    // A path names the spec's own keys; a miss lists those that exist.
    // The old `mac.pcmac.*` spelling is such a miss.
    let all = campaign_problems(&sweep_campaign(vec![Axis::new(
        "mac.pcmac.safety_factor",
        &[0.5],
    )]));
    assert!(
        all.contains("unknown key `mac`") && all.contains("`protocol`"),
        "{all}"
    );
    // Inside a section the base leaves out, too.
    let all = campaign_problems(&sweep_campaign(vec![Axis::new("protocol.bogus", &[1.0])]));
    assert!(
        all.contains("unknown key `protocol.bogus`") && all.contains("`safety_factor`"),
        "{all}"
    );
    // A list is set whole: `field.width` became `field`.
    let all = campaign_problems(&sweep_campaign(vec![Axis::new("field.width", &[800.0])]));
    assert!(all.contains("`field` is not a section"), "{all}");

    // Type mismatch: a string where a float belongs.
    let all = campaign_problems(&sweep_campaign(vec![Axis::new(
        "protocol.safety_factor",
        &["high"],
    )]));
    assert!(all.contains("protocol.safety_factor"), "{all}");

    // Semantically-bad value: validation catches it before expansion.
    let all = campaign_problems(&sweep_campaign(vec![Axis::new(
        "protocol.safety_factor",
        &[-0.5],
    )]));
    assert!(
        all.contains("safety factor") && all.contains("positive"),
        "{all}"
    );

    // Two axes over one path: the later would silently overwrite the
    // earlier per cell, leaving duplicate points whose keys lie.
    let all = campaign_problems(&sweep_campaign(vec![
        Axis::new("traffic.offered_load_kbps", &[100.0, 150.0]),
        Axis::new("traffic.offered_load_kbps", &[120.0]),
    ]));
    assert!(
        all.contains("same knob `traffic.offered_load_kbps`"),
        "{all}"
    );
}

/// A section the base leaves out is created empty and must then parse:
/// one key of it does not invent the others.
#[test]
fn a_patch_into_an_absent_section_names_what_it_lacks() {
    for (path, missing) in [
        ("shadowing.sigma_db", "symmetric"),
        ("nodes.mobility.pause_s", "speed_mps"),
        ("faults.churn.mean_uptime_s", "mean_downtime_s"),
    ] {
        let mut s = valid_spec();
        let err = s
            .apply_patch(path, &Value::F64(2.0))
            .expect_err("a lone key does not parse");
        assert!(
            err.problems[0].contains(&format!("missing field `{missing}`")),
            "{path}: {err}"
        );
        assert_eq!(s, valid_spec(), "a failed patch leaves the spec alone");
    }
    // Setting the section whole works, and so does a key of it after.
    let mut s = valid_spec();
    let shadowing = ShadowingConfig {
        sigma_db: 0.0,
        symmetric: true,
    };
    s.apply_patch("shadowing", &shadowing.to_value())
        .expect("the section parses");
    s.apply_patch("shadowing.sigma_db", &Value::F64(4.0))
        .expect("the key exists now");
    assert_eq!(s.shadowing.map(|sh| sh.sigma_db), Some(4.0));
}

/// The serde shim skips keys it does not know, so both of these ran
/// quietly wrong: a misspelt `sweep` expanded to the base alone, and a
/// misspelt `protocol` ran at the paper's 0.7.
#[test]
fn unknown_spec_keys_are_rejected_by_path() {
    let sweep = include_str!("../../../examples/paper_load_sweep.json");
    let misspelt = sweep.replacen("\"sweep\"", "\"axis\"", 1);
    let err = CampaignSpec::from_json(&misspelt).expect_err("`axis` is not a key");
    let msg = err.to_string();
    assert!(
        msg.contains("unknown key `axis`") && msg.contains("`sweep`"),
        "{msg}"
    );
    // The retired grid is refused the same way.
    let legacy = sweep.replacen("\"sweep\"", "\"axes\"", 1);
    let msg = CampaignSpec::from_json(&legacy).unwrap_err().to_string();
    assert!(msg.contains("unknown key `axes`"), "{msg}");

    let fixture = include_str!("../../../benchmark/fixtures/churn_observed.json");
    ScenarioSpec::from_json(fixture).expect("the benchmark fixture parses");
    let misspelt = fixture.replacen(
        "\"metrics\"",
        "\"protocl\": { \"safety_factor\": 0.1 },\n  \"metrics\"",
        1,
    );
    let msg = ScenarioSpec::from_json(&misspelt).unwrap_err().to_string();
    assert!(
        msg.contains("unknown key `protocl`") && msg.contains("`protocol`"),
        "{msg}"
    );
    // Nested, inside a list, and under a campaign's base.
    let nested = fixture.replacen("\"expire_routes\"", "\"expire_route\"", 1);
    let msg = ScenarioSpec::from_json(&nested).unwrap_err().to_string();
    assert!(
        msg.contains("unknown key `faults.expire_route`") && msg.contains("`expire_routes`"),
        "{msg}"
    );
    let mut s = valid_spec();
    s.faults = Some(FaultConfig {
        crashes: Some(vec![CrashWindow {
            node: 1,
            at_s: 2.0,
            recover_s: None,
        }]),
        ..FaultConfig::default()
    });
    let listed = s.to_json().replacen("\"recover_s\"", "\"recover\"", 1);
    let msg = ScenarioSpec::from_json(&listed).unwrap_err().to_string();
    assert!(msg.contains("`faults.crashes[0].recover`"), "{msg}");
    let in_base = sweep.replacen("\"shadowing\"", "\"shadow\"", 1);
    let msg = CampaignSpec::from_json(&in_base).unwrap_err().to_string();
    assert!(msg.contains("unknown key `base.shadow`"), "{msg}");
}

#[test]
fn duration_patch_axis_wins_over_the_campaign_override() {
    // The campaign `duration_s` replaces the *base* duration; a sweep
    // axis over `duration_s` must still take effect per cell (keys that
    // say duration_s=20 must actually run 20 s).
    let mut c = sweep_campaign(vec![Axis::new("duration_s", &[20.0, 30.0])]);
    c.duration_s = Some(10.0);
    let grid = c.grid().expect("grid builds");
    let durations: Vec<f64> = grid.cells.iter().map(|cell| cell.spec.duration_s).collect();
    assert_eq!(durations, vec![20.0, 30.0]);
    // Without the axis, the override applies as before.
    c.sweep = None;
    let grid = c.grid().expect("grid builds");
    assert_eq!(grid.cells[0].spec.duration_s, 10.0);
}

/// [`valid_spec`] at 2 s with every optional section present and every
/// optional value set, so each knob the spec has is a leaf of its value
/// tree. It runs single-threaded, so an event budget can stop a run
/// that does not end.
fn full_spec() -> ScenarioSpec {
    let mut s = valid_spec();
    s.duration_s = 2.0;
    s.nodes.mobility = Some(MobilitySpec {
        speed_mps: 2.0,
        pause_s: 1.0,
    });
    s.traffic.shape = FlowShape::OnOff {
        mean_on_s: 0.5,
        mean_off_s: 0.5,
    };
    s.power_levels_mw = Some(vec![1.0, 281.83815]);
    s.shadowing = Some(ShadowingConfig {
        sigma_db: 4.0,
        symmetric: false,
    });
    s.protocol = Some(ProtocolSpec {
        safety_factor: Some(0.9),
        capture_ratio: Some(8.0),
        ctrl_rate_bps: Some(250_000),
        history_expiry_s: Some(2.0),
        max_retx: Some(6),
        four_way_handshake: Some(true),
        queue_capacity: Some(25),
        rts_threshold: Some(512),
    });
    s.radio = Some(RadioSpec {
        rx_thresh_mw: Some(4.0e-7),
        cs_thresh_mw: Some(2.0e-8),
        capture_ratio: Some(6.0),
        noise_floor_mw: Some(2.0e-9),
        capture_policy: Some(CapturePolicy::Continuous),
    });
    s.aodv = Some(AodvSpec {
        active_route_timeout_s: Some(8.0),
        rreq_cache_timeout_s: Some(5.0),
        rreq_wait_s: Some(1.5),
        rreq_retries: Some(2),
        buffer_capacity: Some(32),
        buffer_timeout_s: Some(20.0),
        rreq_ttl: Some(16),
    });
    s.faults = Some(FaultConfig {
        crashes: Some(vec![CrashWindow {
            node: 3,
            at_s: 1.2,
            recover_s: Some(1.6),
        }]),
        churn: Some(ChurnConfig {
            mean_uptime_s: 3.0,
            mean_downtime_s: 0.5,
            start_s: Some(1.0),
            stop_s: Some(1.8),
        }),
        expire_routes: Some(true),
        impairments: Some(vec![ImpairmentBurst {
            start_s: 1.1,
            stop_s: 1.3,
            extra_loss_db: 6.0,
            noise_mult: Some(2.0),
        }]),
        energy_budget_mj: Some(5000.0),
    });
    s.metrics = Some(MetricsConfig {
        probe_interval_s: 0.5,
    });
    s.trace = Some(TraceFilter {
        channel: true,
        ctrl: false,
        timers: false,
        traffic: true,
    });
    s.execution = Some(ExecutionSpec {
        delay_floor_us: Some(10.0),
    });
    s
}

/// Every leaf of `tree` (a value that is not a non-empty map) with its
/// dotted path under `at`.
fn leaves(tree: &Value, at: &str, out: &mut Vec<(String, Value)>) {
    match tree {
        Value::Map(entries) if !entries.is_empty() => {
            for (key, value) in entries {
                let path = if at.is_empty() {
                    key.clone()
                } else {
                    format!("{at}.{key}")
                };
                leaves(value, &path, out);
            }
        }
        leaf => out.push((at.to_string(), leaf.clone())),
    }
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

/// Events a fuzz run may dispatch. The busiest case that validates (a
/// 1-byte packet) ends near 11 000, so a run past this never ends.
const EVENT_BUDGET: u64 = 200_000;

/// One validator, fuzzed over every leaf of the spec: each takes each
/// hostile value of its type and each wrong kind of value on
/// [`full_spec`]. Nothing may panic, `validate` must answer as
/// `materialize` does at every seed, and whatever it accepts must run
/// to its end inside [`EVENT_BUDGET`].
#[test]
fn hostile_patches_validate_exactly_when_they_run() {
    let full = full_spec();
    full.validate().expect("the full spec is valid");
    let mut samples = Vec::new();
    leaves(&full.to_value(), "", &mut samples);
    // Enum values are set whole: every placement, pattern and shape, not
    // only the full spec's. One shard count runs on its own.
    let placements = [
        PlacementSpec::Density { per_km2: 6.0 },
        PlacementSpec::Grid { spacing: 100.0 },
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
    let mut whole: Vec<(&str, Value)> = placements
        .iter()
        .map(|p| ("nodes.placement", p.to_value()))
        .collect();
    let patterns = [
        TrafficPattern::NeighbourPairs { flows: 3 },
        TrafficPattern::Explicit {
            pairs: vec![(0, 1)],
        },
    ];
    whole.extend(patterns.iter().map(|p| ("traffic.pattern", p.to_value())));
    whole.extend([FlowShape::Cbr, FlowShape::Poisson].map(|s| ("traffic.shape", s.to_value())));
    samples.extend(whole.into_iter().map(|(p, v)| (p.to_string(), v)));
    let wrong_kinds = [
        Value::Null,
        Value::Str("x".into()),
        Value::Map(Vec::new()),
        Value::Seq(Vec::new()),
    ];

    let (mut tried, mut accepted, mut failures) = (0, 0, Vec::new());
    for (path, sample) in &samples {
        for value in hostile(sample).into_iter().chain(wrong_kinds.clone()) {
            let mut spec = full.clone();
            if spec.apply_patch(path, &value).is_err() {
                continue; // a value the path does not take
            }
            tried += 1;
            let case = std::panic::catch_unwind(|| {
                let valid = spec.validate().is_ok();
                let agree = (1..=3).all(|seed| spec.materialize(seed).is_ok() == valid);
                if valid {
                    let cfg = spec.materialize(1).expect("validated");
                    let mut events = 0u64;
                    pcmac::Simulator::new(cfg).run_with_observer(|_, _| {
                        events += 1;
                        assert!(events <= EVENT_BUDGET, "ran past the event budget");
                    });
                }
                (valid, agree)
            });
            match case {
                Ok((valid, true)) => accepted += usize::from(valid),
                Ok((_, false)) => failures.push(format!("{path} = {value:?}: disagree")),
                Err(e) => {
                    let why = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    failures.push(format!("{path} = {value:?}: panicked: {why}"));
                }
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

/// Each of these validated on the benchmark's churn fixture, then spun
/// (a CBR interval that rounds to 0 ns), panicked on `SimTime` overflow
/// (an interval or timeout past it) or exhausted memory drawing the
/// churn schedule.
#[test]
fn inputs_that_validated_then_hung_or_panicked_are_rejected() {
    let cases: [(&[(&str, f64)], &str); 4] = [
        (
            &[("traffic.offered_load_kbps", 1e12)],
            "flow 0: packet interval 0.00000000008192 s must be finite, round to at least 1 ns",
        ),
        (
            &[("traffic.offered_load_kbps", 1e-12)],
            "flow 0: packet interval 81920000000000 s must be finite",
        ),
        (
            &[("aodv.active_route_timeout_s", 1e12)],
            "AODV active route timeout 18446744073.709553 s",
        ),
        (
            &[
                ("faults.churn.mean_uptime_s", 1e-9),
                ("faults.churn.mean_downtime_s", 1e-9),
            ],
            "over the cap of 1e6",
        ),
    ];
    let fixture = include_str!("../../../benchmark/fixtures/churn_observed.json");
    for (patches, needle) in cases {
        let mut s = ScenarioSpec::from_json(fixture).expect("the fixture parses");
        s.validate().expect("the fixture is valid");
        for (path, value) in patches {
            s.apply_patch(path, &Value::F64(*value))
                .expect("the path exists");
        }
        assert_problem(&s, needle);
    }
}

/// Campaign runs execute on one thread: a scenario or campaign file that
/// still asks for region shards is refused like any other unknown key,
/// by its path.
#[test]
fn execution_shards_is_an_unknown_key() {
    let fixture = include_str!("../../../benchmark/fixtures/churn_observed.json");
    let sharded = fixture.replacen(
        "\"metrics\"",
        "\"execution\": { \"shards\": 2, \"delay_floor_us\": 10.0 },\n  \"metrics\"",
        1,
    );
    let msg = ScenarioSpec::from_json(&sharded).unwrap_err().to_string();
    assert!(
        msg.contains("unknown key `execution.shards`") && msg.contains("`delay_floor_us`"),
        "{msg}"
    );
    let sweep = include_str!("../../../examples/paper_load_sweep.json");
    let in_base = sweep.replacen(
        "\"shadowing\"",
        "\"execution\": { \"shards\": 2 },\n    \"shadowing\"",
        1,
    );
    let msg = CampaignSpec::from_json(&in_base).unwrap_err().to_string();
    assert!(msg.contains("unknown key `base.execution.shards`"), "{msg}");
}

/// The execution overlay carries the delay floor alone: it materializes
/// into the scenario's floor, single-threaded, and a bad floor is a
/// defect.
#[test]
fn execution_overlay_sets_only_the_delay_floor() {
    let mut s = valid_spec();
    s.execution = Some(ExecutionSpec {
        delay_floor_us: Some(10.0),
    });
    let cfg = s.materialize(1).expect("floored spec materializes");
    assert_eq!(cfg.execution, None);
    assert_eq!(cfg.delay_floor_us, Some(10.0));

    s.execution = Some(ExecutionSpec {
        delay_floor_us: Some(-1.0),
    });
    assert_problem(&s, "delay floor");
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
