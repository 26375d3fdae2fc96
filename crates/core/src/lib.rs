//! # pcmac — the PCMAC reproduction, assembled
//!
//! This is the crate downstream users drive. It composes the substrate
//! crates — DES kernel, PHY, 802.11 MAC (four power-control variants),
//! AODV, mobility, traffic — into runnable ad hoc network simulations,
//! and reproduces the evaluation of
//!
//! > Lin, Kwok, Lau. *Power Control for IEEE 802.11 Ad Hoc Networks:
//! > Issues and A New Algorithm.* ICPP 2003.
//!
//! ## Quickstart
//!
//! ```
//! use pcmac::{ScenarioConfig, Simulator, Variant};
//! use pcmac_engine::Duration;
//!
//! // Two static nodes 80 m apart, one 100 kbps CBR flow, 5 seconds.
//! let cfg = ScenarioConfig::two_nodes(Variant::Pcmac, 80.0, 100_000.0, 42)
//!     .with_duration(Duration::from_secs(5));
//! let report = Simulator::new(cfg).run();
//! assert!(report.delivered_packets > 0);
//! assert!(report.pdr() > 0.9);
//! ```
//!
//! ## The paper's scenario
//!
//! [`ScenarioConfig::paper`] builds the §IV setup: 50 nodes, random
//! waypoint over 1000 m × 1000 m at 3 m/s (3 s pause), ten 512-byte CBR
//! flows, AODV routing, one of the four MAC variants. The
//! `pcmac-campaign` crate sweeps it over offered load to regenerate
//! Figures 8 and 9 (`pcmac-campaign figures`).
//!
//! ## Architecture
//!
//! ```text
//!   ScenarioConfig ──► Simulator ──► RunReport
//!                        │  owns
//!        ┌───────────────┼────────────────────┐
//!        ▼               ▼                    ▼
//!    EventQueue      Vec<Node>           TwoRayGround
//!   (pcmac-engine)   ├ DcfMac   (pcmac-mac)  (pcmac-phy)
//!                    ├ AodvAgent (pcmac-aodv)
//!                    ├ sources/Sink (pcmac-traffic)
//!                    └ EnergyMeter (pcmac-phy)
//!                    hot arrays, one entry per node
//!                    ├ RxRow (data), RxRow (ctrl, PCMAC)  (pcmac-phy)
//!                    └ Mobility  (pcmac-mobility)
//! ```
//!
//! Every component is a pure state machine; the [`Simulator`] routes
//! events to the owning node and applies the returned actions, which is
//! where cross-node effects (the wireless channel) happen. What an
//! arriving transmission does to a receiver happens on that receiver's
//! row in the hot arrays; the cold `Node` is reached only when its MAC
//! has something to hear (see the `soa` module).

pub(crate) mod channel;
pub mod config;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod node;
pub(crate) mod reference;
pub mod report;
pub mod sim;
pub mod snapshot;
pub(crate) mod soa;
pub mod trace;

pub use config::{
    flow_start, random_flow_pairs, ExecutionMode, FlowShape, FlowSpec, InvalidScenario, NodeSetup,
    ScenarioConfig, ShadowingConfig,
};
pub use event::SimEvent;
pub use fault::{ChurnConfig, CrashWindow, FaultConfig, ImpairmentBurst};
pub use metrics::{
    DropTaxonomy, HotPathProfile, MacMetrics, MetricsConfig, PhyMetrics, ProbeSample,
    RoutingMetrics, SimMetrics, TxPowerMetrics,
};
pub use report::{LatencySummary, ResilienceReport, RunReport};
pub use sim::Simulator;
pub use snapshot::{CancelToken, RunHooks, RunOutcome, SimSnapshot};
pub use trace::{TraceFilter, TraceWriter};

// Checkpoint files surface the snap crate's structured errors.
pub use pcmac_snap::SnapError;

// The protocol selector is the most-used re-export.
pub use pcmac_mac::Variant;
