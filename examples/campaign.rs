//! Campaign subsystem quickstart: build a declarative campaign in code,
//! run it, and print the aggregated per-point table.
//!
//! The same campaign as JSON lives in `examples/paper_load_sweep.json`
//! and runs from the command line:
//!
//! ```text
//! cargo run --release -p pcmac-campaign --bin pcmac-campaign -- \
//!     run examples/paper_load_sweep.json
//! ```
//!
//! ```text
//! cargo run --release --example campaign
//! ```

use pcmac_sim::campaign::{run_campaign, Axis, CampaignSpec, ScenarioSpec};
use pcmac_sim::Variant;

fn main() {
    // The paper's §IV scenario, swept over three loads × two variants,
    // two seeds per point, shrunk to 10 simulated seconds.
    let spec = CampaignSpec {
        name: "quickstart".into(),
        base: ScenarioSpec::paper(),
        duration_s: Some(10.0),
        seeds: vec![1, 2],
        // Every axis is a dotted path in the spec's JSON, so any knob
        // sweeps the same way, e.g. `Axis::new("protocol.safety_factor",
        // &[0.5, 0.7])` — see examples/ablation_*.json for complete
        // ablation campaigns.
        sweep: Some(vec![
            Axis::new("traffic.offered_load_kbps", &[300.0, 650.0, 1000.0]),
            Axis::new("variant", &[Variant::Basic, Variant::Pcmac]),
        ]),
    };
    println!(
        "campaign `{}`: {} points x {} seeds = {} runs",
        spec.name,
        spec.point_count(),
        spec.seeds.len(),
        spec.run_count()
    );

    let outcome = run_campaign(&spec, 0).expect("spec is valid");
    println!("{}", outcome.report.render_table());
    println!(
        "({} runs, {:.1} s CPU total; artifact shape: CAMPAIGN_*.json)",
        outcome.report.runs, outcome.report.wall_s
    );
}
