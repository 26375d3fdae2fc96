//! The checked-in `examples/churn_campaign.json` is the PR's acceptance
//! artifact: it must validate, expand to a PCM-vs-DCF churn grid, and
//! reproduce bit-identical reports for a fixed seed across reruns and
//! against the reference channel's eager position refresh.

use pcmac::{RunReport, ScenarioConfig, Simulator, Variant};
use pcmac_campaign::CampaignSpec;

fn example_spec() -> CampaignSpec {
    let text = std::fs::read_to_string("../../examples/churn_campaign.json")
        .expect("checked-in churn campaign exists");
    let mut spec = CampaignSpec::from_json(&text).expect("example parses");
    // Smoke-shrink exactly like `pcmac-campaign run --duration` does;
    // the churn window starts at 2 s, so it is still exercised.
    spec.duration_s = Some(5.0);
    spec
}

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

/// Materialize every grid cell of the shrunk example at seed 1.
fn example_configs() -> Vec<ScenarioConfig> {
    let spec = example_spec();
    spec.validate().expect("example is valid");
    let grid = spec.grid().expect("example expands");
    grid.scenarios()
        .map(|r| r.expect("example cells materialize"))
        .filter(|cfg| cfg.seed == 1)
        .collect()
}

#[test]
fn churn_example_expands_to_a_pcm_vs_dcf_grid() {
    let cfgs = example_configs();
    assert_eq!(cfgs.len(), 8, "2 loads x 2 variants x 2 downtime patches");
    assert!(cfgs.iter().any(|c| c.variant == Variant::Basic));
    assert!(cfgs.iter().any(|c| c.variant == Variant::Pcmac));
    for cfg in &cfgs {
        let churn = cfg
            .faults
            .as_ref()
            .and_then(|f| f.churn.as_ref())
            .expect("every cell carries the churn plan");
        assert_eq!(churn.mean_uptime_s, 12.0);
        assert!(churn.mean_downtime_s == 1.0 || churn.mean_downtime_s == 3.0);
    }
}

#[test]
fn churn_example_is_bit_identical_across_reruns_and_refresh_modes() {
    // One Basic and one Pcmac cell are enough to pin determinism; the
    // full matrix lives in core's channel_equivalence tests.
    let picked: Vec<ScenarioConfig> = {
        let cfgs = example_configs();
        let basic = cfgs
            .iter()
            .find(|c| c.variant == Variant::Basic)
            .unwrap()
            .clone();
        let pcmac = cfgs
            .iter()
            .find(|c| c.variant == Variant::Pcmac)
            .unwrap()
            .clone();
        vec![basic, pcmac]
    };
    for cfg in picked {
        let again = Simulator::new(cfg.clone()).run();
        let first = Simulator::new(cfg.clone()).run();
        assert_eq!(
            fingerprint(&first),
            fingerprint(&again),
            "rerun diverged ({})",
            cfg.name
        );
        let eager = Simulator::new_reference(cfg.clone()).run();
        assert!(first.events > 0, "degenerate churn run");
        assert!(
            first.resilience.is_some(),
            "churn plan must produce a resilience section"
        );
        assert_eq!(
            fingerprint(&first),
            fingerprint(&eager),
            "production and reference channels diverged ({})",
            cfg.name
        );
    }
}
