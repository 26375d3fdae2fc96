//! Reduced-scale campaign smoke test: the checked-in example spec must
//! load, expand, run end-to-end, aggregate with finite mean ± CI per
//! point, and produce a round-trippable `CAMPAIGN_*.json` artifact.

use pcmac_campaign::{run_campaign, CampaignReport, CampaignSpec};

fn example_spec() -> CampaignSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/paper_load_sweep.json"
    );
    let text = std::fs::read_to_string(path).expect("example spec is checked in");
    let spec = CampaignSpec::from_json(&text).expect("example spec parses");
    spec.validate().expect("example spec is valid");
    spec
}

#[test]
fn example_spec_meets_the_acceptance_shape() {
    let spec = example_spec();
    let loads = spec
        .axes()
        .iter()
        .find(|a| a.path == "traffic.offered_load_kbps")
        .expect("load axis");
    assert!(loads.values.len() >= 3, "acceptance: >= 3-point load sweep");
    assert!(spec.seeds.len() >= 2, "acceptance: >= 2 seeds");
    let points = spec.expand_vec().expect("expands");
    assert_eq!(points.len(), spec.point_count());
    for p in &points {
        assert_eq!(p.scenarios.len(), spec.seeds.len());
        for cfg in &p.scenarios {
            cfg.validate().expect("every expanded scenario is valid");
        }
    }
}

/// A load axis then a variant axis expand load outermost, and the point
/// key carries both in its own fields, not as patches.
#[test]
fn load_and_variant_axes_expand_load_outermost() {
    let spec = example_spec();
    let points = spec.expand_vec().expect("expands");
    // Old nesting order: load outermost, variant innermost.
    let loads = [300.0, 650.0, 1000.0];
    let variants = ["Basic 802.11", "PCMAC"];
    assert_eq!(points.len(), loads.len() * variants.len());
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.key.load_kbps, loads[i / variants.len()]);
        assert_eq!(p.key.variant, variants[i % variants.len()]);
        assert_eq!(p.key.patches, None, "load and variant are key fields");
        for cfg in &p.scenarios {
            assert!((cfg.offered_load_kbps() - p.key.load_kbps).abs() < 1e-9);
        }
    }
}

/// A campaign without a variant axis runs the base's variant at every
/// load.
#[test]
fn hotspot_example_still_loads_and_expands() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/hotspot_poisson.json");
    let text = std::fs::read_to_string(path).expect("example spec is checked in");
    let spec = CampaignSpec::from_json(&text).expect("example spec parses");
    spec.validate().expect("example spec is valid");
    let points = spec.expand_vec().expect("expands");
    assert_eq!(points.len(), 3, "3 loads x base variant");
    for (p, load) in points.iter().zip([150.0, 300.0, 450.0]) {
        assert_eq!(p.key.load_kbps, load);
        assert_eq!(p.key.variant, "PCMAC");
        assert_eq!(p.scenarios.len(), 3, "3 seeds");
    }
}

/// Every checked-in spec file must stay runnable: each `examples/*.json`
/// is a campaign spec that parses, validates, and materializes every
/// `(point x seed)` it expands to.
#[test]
fn every_example_campaign_spec_parses_validates_and_expands() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec = CampaignSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let points = spec.expand_vec().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(points.len(), spec.point_count(), "{name}");
        assert!(points.iter().all(|p| p.scenarios.len() == spec.seeds.len()));
        seen += 1;
    }
    assert!(seen >= 10, "only {seen} spec files found under {dir}");
}

#[test]
fn reduced_campaign_runs_and_aggregates() {
    let mut spec = example_spec();
    // Shrink for test runtime: same grid, 5 simulated seconds.
    spec.duration_s = Some(5.0);

    let outcome = run_campaign(&spec, 0).expect("campaign runs");
    assert_eq!(outcome.runs.len(), spec.run_count());
    assert_eq!(outcome.report.points.len(), spec.point_count());
    assert_eq!(outcome.report.runs, spec.run_count());

    for p in &outcome.report.points {
        assert_eq!(p.seeds.len(), spec.seeds.len(), "every seed aggregated");
        for (metric, m) in [
            ("throughput", &p.throughput_kbps),
            ("delay", &p.mean_delay_ms),
            ("pdr", &p.pdr),
            ("fairness", &p.jain_fairness),
            ("radiated", &p.radiated_mj),
        ] {
            assert!(m.mean.is_finite(), "{metric} mean finite");
            assert!(m.ci95.is_finite() && m.ci95 >= 0.0, "{metric} ci valid");
            assert!(m.min <= m.mean && m.mean <= m.max, "{metric} ordered");
        }
        assert!(
            p.throughput_kbps.mean > 0.0,
            "a 5 s paper scenario delivers something at {} kbps",
            p.key.load_kbps
        );
    }

    // The artifact is machine-readable and stable under re-serialization.
    let json = outcome.report.to_json();
    let back = CampaignReport::from_json(&json).expect("artifact reparses");
    assert_eq!(back.to_json(), json);
    assert_eq!(back.points.len(), outcome.report.points.len());

    // The raw runs line up with the expansion: point-major, seed-minor.
    for (i, p) in outcome.report.points.iter().enumerate() {
        for (j, &seed) in p.seeds.iter().enumerate() {
            let run = &outcome.runs[i * spec.seeds.len() + j];
            assert_eq!(run.seed, seed);
            assert_eq!(run.protocol, p.key.variant);
        }
    }
}
