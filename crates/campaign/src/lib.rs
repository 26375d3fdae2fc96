//! # pcmac-campaign — scenarios as data
//!
//! The paper's results are all *parameter sweeps over scenarios*; this
//! crate makes both layers declarative:
//!
//! * [`ScenarioSpec`] — one JSON-loadable scenario: a placement from the
//!   `pcmac-mobility` generator library (uniform, density, grid, chain,
//!   ring, clustered hotspots, corridor, explicit points), optional
//!   random-waypoint mobility, a traffic block whose arrival process
//!   can be any `pcmac-traffic` source (CBR, Poisson, on/off), and
//!   optional [`ProtocolSpec`] / [`RadioSpec`] / [`AodvSpec`] overlays
//!   covering the full MAC / radio / routing parameter surface (the
//!   PCMAC safety factor, control-channel rate, handshake arity, capture
//!   policy, thresholds, AODV timers — everything defaults to the
//!   paper's values). [`ScenarioSpec::materialize`] turns it into a
//!   seeded, validated [`pcmac::ScenarioConfig`].
//! * [`CampaignSpec`] — a base spec expanded across sweep axes times a
//!   seed list. An [`Axis`] is a dotted path in the spec's own JSON and
//!   the values to set it to (`traffic.offered_load_kbps`, `variant`,
//!   `protocol.safety_factor`, …): one rule names every knob, and a
//!   misspelt path or spec key is an error listing the keys that exist.
//! * [`run_campaign`] — expands lazily ([`CampaignSpec::grid`] +
//!   [`campaign::CampaignGrid::scenarios`] feed the parallel driver's
//!   bounded work channel directly, so huge campaigns never hold the
//!   whole expansion in memory) and collapses each grid point's seeds
//!   into mean / stddev / 95% confidence interval per metric
//!   ([`CampaignReport`], written as the machine-readable
//!   `CAMPAIGN_*.json` artifact).
//! * [`figures`] — the paper's Figures 8 and 9 as one such campaign,
//!   with the shape checks that judge its report.
//!
//! The `pcmac-campaign` binary drives all of this from the command line:
//!
//! ```text
//! pcmac-campaign run examples/paper_load_sweep.json --out CAMPAIGN.json
//! pcmac-campaign run examples/ablation_safety_factor.json
//! pcmac-campaign figures --full         # Figures 8 and 9, one sweep
//! pcmac-campaign expand <spec.json>     # show the grid without running
//! pcmac-campaign validate <spec.json>...  # actionable errors, exit code
//! pcmac-campaign scenario <spec.json>   # run a single ScenarioSpec
//! pcmac-campaign example                # print a starter campaign spec
//! pcmac-campaign dashboard . --baseline prev/ --band 20
//! ```
//!
//! Adding a new workload — or a new design ablation — is a JSON file,
//! not a Rust constructor.

pub mod aggregate;
pub mod bisect;
pub mod campaign;
pub mod cli;
pub mod dashboard;
pub mod figures;
pub mod runner;
pub mod spec;

pub use aggregate::{CampaignReport, FailureKind, MetricSummary, PointFailure, PointSummary};
pub use bisect::{bisect_configs, BisectReport, EventDivergence};
pub use campaign::{Axis, CampaignGrid, CampaignPoint, CampaignSpec, GridCell, PointKey};
pub use dashboard::{MetricsArtifact, MetricsRun};
pub use runner::{run_campaign, run_campaign_with, CampaignOutcome, JobCtl, RunOptions};
pub use spec::{
    AodvSpec, ExecutionSpec, MobilitySpec, NodesSpec, PlacementSpec, ProtocolSpec, RadioSpec,
    ScenarioSpec, SpecError, TrafficPattern, TrafficSpec,
};
