//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is the JSON-loadable description of *one kind of
//! experiment*: how nodes are placed (via the `pcmac-mobility` generator
//! library), whether they move, what traffic they carry and with which
//! arrival process, and which MAC variant runs. It stays abstract —
//! "50 nodes clustered in 3 hotspots, ten random Poisson pairs at
//! 600 kbps" — until [`ScenarioSpec::materialize`] turns it into a
//! concrete, seeded [`ScenarioConfig`] the simulator can run.
//!
//! Materialization is deterministic in the seed, and the `Uniform` +
//! `RandomPairs` path reproduces [`ScenarioConfig::paper`] bit for bit,
//! so spec-driven sweeps extend the constructor-built figures instead of
//! forking them.
//!
//! The *entire* [`ScenarioConfig`] surface is declarative: the optional
//! [`ProtocolSpec`] / [`RadioSpec`] / [`AodvSpec`] sections overlay the
//! MAC (including the PCMAC §III knobs: safety factor, capture ratio,
//! control-channel rate, handshake arity), radio (thresholds, capture
//! policy), and AODV parameters on top of the paper defaults.
//!
//! # Paths
//!
//! A knob's name is its dotted path in the spec's own JSON:
//! `protocol.safety_factor`, `traffic.offered_load_kbps`,
//! `nodes.placement`. [`ScenarioSpec::apply_patch`] sets one by
//! serializing the spec to its value tree, replacing the value at the
//! path and parsing the tree back, so any field the spec has is
//! reachable and nothing restates the layout. Segments name map keys
//! only: lists (`field`, `power_levels_mw`) and enum values
//! (`nodes.placement`) are set whole. A section the spec leaves `null`
//! is created as `{}` and must then parse, so a lone
//! `shadowing.sigma_db` names the missing `symmetric` instead of
//! inventing it. [`ScenarioSpec::from_json`] reads a file through the
//! same tree: a key the parsed spec does not serialize back (a
//! misspelling) is an error naming its path and the keys that exist
//! beside it.
//!
//! # Validation
//!
//! A spec is valid exactly when it materializes into a config that
//! passes [`ScenarioConfig::validate`], the one home of every rule on a
//! value the config holds (thresholds, the §III knobs, AODV timers,
//! flows, faults, metrics, execution). [`ScenarioSpec::validate`] is
//! [`ScenarioSpec::materialize`] with the config discarded. The checks
//! written here are only those on values the config never sees: the
//! node-count resolution, the placement's parameters and whether it
//! fits the field, the aggregate offered load, whether the traffic
//! pattern can be drawn, the power-level list, airtime for the
//! staggered flow starts, and the waypoint pause (seconds whose
//! `Duration` would silently turn NaN or negative into a valid zero).
//! The config is built whenever those allow it, so one pass reports the
//! problems of both layers.

use pcmac::{
    ExecutionMode, FaultConfig, FlowShape, FlowSpec, MetricsConfig, NodeSetup, ScenarioConfig,
    ShadowingConfig, TraceFilter, Variant,
};
use pcmac_aodv::AodvConfig;
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, RngStream, SimTime};
use pcmac_mac::MacConfig;
use pcmac_mobility::placement;
use pcmac_phy::{CapturePolicy, PowerLevels, RadioConfig};
use serde::{DeError, Deserialize, Serialize, Value};

/// Everything wrong with a spec, found in one pass.
#[derive(Debug, Clone)]
pub struct SpecError {
    /// Human-readable problems, one per defect.
    pub problems: Vec<String>,
}

impl SpecError {
    pub(crate) fn one(msg: impl Into<String>) -> Self {
        SpecError {
            problems: vec![msg.into()],
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid spec: {}", self.problems.join("; "))
    }
}

impl std::error::Error for SpecError {}

impl From<pcmac::InvalidScenario> for SpecError {
    fn from(e: pcmac::InvalidScenario) -> Self {
        SpecError {
            problems: e.problems,
        }
    }
}

/// How nodes are laid out, in terms of the `pcmac-mobility` generator
/// library. Stochastic placements draw from an RNG stream derived from
/// the scenario seed, so the same seed always yields the same layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementSpec {
    /// Uniform scatter over the whole field (the paper's layout).
    Uniform,
    /// Uniform scatter at a target density; the node count is computed
    /// from the field area (`count` is ignored).
    Density {
        /// Nodes per square kilometre.
        per_km2: f64,
    },
    /// Square grid centred pitch-by-pitch from the origin.
    Grid {
        /// Pitch between neighbours (m).
        spacing: f64,
    },
    /// Horizontal chain from the field's left edge midline.
    Chain {
        /// Distance between consecutive nodes (m).
        spacing: f64,
    },
    /// Evenly spaced on a circle around the field centre.
    Ring {
        /// Circle radius (m).
        radius: f64,
    },
    /// Hotspots: cluster centres uniform, members uniform in a disc
    /// around their centre.
    Clustered {
        /// Number of hotspots.
        clusters: usize,
        /// Disc radius around each centre (m).
        spread_m: f64,
    },
    /// Uniform over a thin horizontal strip across the field's vertical
    /// centre.
    Corridor {
        /// Strip height (m); the strip spans the full field width.
        width_m: f64,
    },
    /// Exact positions, as given.
    Explicit {
        /// One point per node.
        points: Vec<Point>,
    },
}

/// Random-waypoint movement parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilitySpec {
    /// Constant speed (m/s).
    pub speed_mps: f64,
    /// Pause at each waypoint (s).
    pub pause_s: f64,
}

/// Node population: how many, where, and whether they move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodesSpec {
    /// Node count. `None` is allowed only where the placement implies it
    /// (`Density`, `Explicit`).
    pub count: Option<usize>,
    /// Layout generator.
    pub placement: PlacementSpec,
    /// Random-waypoint mobility; `None` means static.
    pub mobility: Option<MobilitySpec>,
}

/// Which node pairs carry flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Seeded distinct random pairs — the paper's workload shape.
    RandomPairs {
        /// Number of flows.
        flows: usize,
    },
    /// Adjacent pairs by id: 0→1, 2→3, … (deterministic geometries where
    /// ids encode positions, e.g. chains and rings).
    NeighbourPairs {
        /// Number of flows (needs `2·flows ≤ count`).
        flows: usize,
    },
    /// Exact `(src, dst)` node pairs.
    Explicit {
        /// One pair per flow.
        pairs: Vec<(u32, u32)>,
    },
}

/// Application traffic: pattern, packet size, aggregate load, arrival
/// process. The aggregate load splits evenly across flows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// Which pairs talk.
    pub pattern: TrafficPattern,
    /// UDP payload bytes per packet.
    pub bytes: u32,
    /// Aggregate offered load (kbit/s) across all flows.
    pub offered_load_kbps: f64,
    /// Arrival process (CBR, Poisson, or bursty on/off — all three
    /// sources from `pcmac-traffic` are reachable here).
    pub shape: FlowShape,
}

/// Overlay on the MAC configuration, covering the PCMAC §III knobs the
/// paper's arguments are made of. Every field is optional; `None` keeps
/// [`MacConfig::paper_default`], so existing spec files stay valid.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProtocolSpec {
    /// Redundancy coefficient on the advertised noise tolerance
    /// (paper: 0.7).
    pub safety_factor: Option<f64>,
    /// Capture threshold η_cp used in the tolerance computation
    /// (paper: 10).
    pub capture_ratio: Option<f64>,
    /// Power-control channel bandwidth in bit/s (paper: 500 000).
    pub ctrl_rate_bps: Option<u64>,
    /// Power-history entry lifetime in seconds (paper: 3).
    pub history_expiry_s: Option<f64>,
    /// Cap on implicit-ack retransmissions of one stored packet.
    pub max_retx: Option<u8>,
    /// Keep the ACK (four-way handshake) even under PCMAC — the
    /// handshake-arity ablation. The paper's protocol uses `false`.
    pub four_way_handshake: Option<bool>,
    /// Interface queue capacity (ns-2: 50).
    pub queue_capacity: Option<usize>,
    /// dot11RTSThreshold in bytes (paper/ns-2: 0 — RTS for everything).
    pub rts_threshold: Option<u32>,
}

impl ProtocolSpec {
    pub(crate) fn apply(&self, mac: &mut MacConfig) {
        let pcmac = &mut mac.pcmac;
        if let Some(v) = self.safety_factor {
            pcmac.safety_factor = v;
        }
        if let Some(v) = self.capture_ratio {
            pcmac.capture_ratio = v;
        }
        if let Some(v) = self.ctrl_rate_bps {
            pcmac.ctrl_rate_bps = v;
        }
        if let Some(v) = self.history_expiry_s {
            pcmac.history_expiry = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.max_retx {
            pcmac.max_retx = v;
        }
        if let Some(v) = self.four_way_handshake {
            pcmac.four_way_handshake = v;
        }
        if let Some(v) = self.queue_capacity {
            mac.queue_capacity = v;
        }
        if let Some(v) = self.rts_threshold {
            mac.rts_threshold = v;
        }
    }
}

/// Overlay on the radio configuration (thresholds and capture model).
/// `None` keeps the ns-2 defaults with the paper's pairwise start-only
/// capture policy.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RadioSpec {
    /// Decode threshold in mW (ns-2 `RXThresh`, 3.652e-7). Applied to
    /// both the radio and the MAC's needed-power computation, which must
    /// agree for power control to close the loop.
    pub rx_thresh_mw: Option<f64>,
    /// Carrier-sense threshold in mW (ns-2 `CSThresh`, 1.559e-8).
    pub cs_thresh_mw: Option<f64>,
    /// Linear SINR required to keep a locked frame (ns-2 `CPThresh`, 10).
    pub capture_ratio: Option<f64>,
    /// Receiver noise floor in mW (1e-9).
    pub noise_floor_mw: Option<f64>,
    /// Pairwise start-only (ns-2, the paper's model) vs cumulative-SINR
    /// capture — the capture-policy ablation.
    pub capture_policy: Option<CapturePolicy>,
}

impl RadioSpec {
    pub(crate) fn apply(&self, radio: &mut RadioConfig, mac: &mut MacConfig) {
        if let Some(v) = self.rx_thresh_mw {
            radio.rx_thresh = Milliwatts(v);
            mac.rx_thresh = Milliwatts(v);
        }
        if let Some(v) = self.cs_thresh_mw {
            radio.cs_thresh = Milliwatts(v);
        }
        if let Some(v) = self.capture_ratio {
            radio.capture_ratio = v;
        }
        if let Some(v) = self.noise_floor_mw {
            radio.noise_floor = Milliwatts(v);
        }
        if let Some(v) = self.capture_policy {
            radio.capture_policy = v;
        }
    }
}

/// Overlay on the AODV routing parameters. `None` keeps the CMU ns-2
/// era defaults ([`AodvConfig::default`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AodvSpec {
    /// Lifetime of an actively-used route in seconds (10).
    pub active_route_timeout_s: Option<f64>,
    /// Duplicate-flood suppression window in seconds (6).
    pub rreq_cache_timeout_s: Option<f64>,
    /// Wait for an RREP before retrying a discovery, in seconds (1).
    pub rreq_wait_s: Option<f64>,
    /// Discovery attempts before giving up (3).
    pub rreq_retries: Option<u8>,
    /// Send-buffer capacity in packets (64).
    pub buffer_capacity: Option<usize>,
    /// Maximum send-buffer wait in seconds (30).
    pub buffer_timeout_s: Option<f64>,
    /// TTL for flooded RREQs (32).
    pub rreq_ttl: Option<u8>,
}

impl AodvSpec {
    pub(crate) fn apply(&self, aodv: &mut AodvConfig) {
        if let Some(v) = self.active_route_timeout_s {
            aodv.active_route_timeout = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_cache_timeout_s {
            aodv.rreq_cache_timeout = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_wait_s {
            aodv.rreq_wait = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_retries {
            aodv.rreq_retries = v;
        }
        if let Some(v) = self.buffer_capacity {
            aodv.buffer_capacity = v;
        }
        if let Some(v) = self.buffer_timeout_s {
            aodv.buffer_timeout = Duration::from_secs_f64(v);
        }
        if let Some(v) = self.rreq_ttl {
            aodv.rreq_ttl = v;
        }
    }
}

/// Execution-strategy overlay: how the event loop runs, not what it
/// simulates. `shards: None` keeps the single-threaded reference;
/// `Some(n)` runs the region-sharded engine on `n` worker threads
/// (bit-identical results either way). The delay floor applies in both
/// modes — it is the sharded engine's conservative lookahead, and
/// setting it on single-threaded runs keeps them comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionSpec {
    /// Region-shard (worker thread) count; `None` = single-threaded.
    pub shards: Option<usize>,
    /// Minimum propagation delay in microseconds, applied to every
    /// arrival. Required whenever `shards` is set.
    pub delay_floor_us: Option<f64>,
}

/// Parse `tree` as a `T`, refusing any key the parsed value does not
/// serialize back. The serde shim skips keys it does not know, so
/// without this a misspelt section would run at its defaults.
pub(crate) fn from_tree<T: Serialize + Deserialize>(tree: &Value) -> Result<T, DeError> {
    let parsed = T::from_value(tree)?;
    match unknown_key(tree, &parsed.to_value()) {
        None => Ok(parsed),
        Some((path, known)) => Err(DeError(format!(
            "unknown key `{}`; the keys there are {known}",
            path.trim_start_matches('.')
        ))),
    }
}

/// The path of the first key of `given` that `kept` lacks, and the keys
/// `kept` has at that level. Paths are built only on the way out of a
/// miss, so a spec without one allocates nothing here.
fn unknown_key(given: &Value, kept: &Value) -> Option<(String, String)> {
    match (given, kept) {
        (Value::Map(given), Value::Map(kept)) => {
            given
                .iter()
                .find_map(|(key, value)| match kept.iter().find(|(k, _)| k == key) {
                    Some((_, known)) => unknown_key(value, known)
                        .map(|(path, keys)| (format!(".{key}{path}"), keys)),
                    None => Some((
                        format!(".{key}"),
                        kept.iter()
                            .map(|(k, _)| format!("`{k}`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    )),
                })
        }
        (Value::Seq(given), Value::Seq(kept)) => {
            given.iter().zip(kept).enumerate().find_map(|(i, (g, k))| {
                unknown_key(g, k).map(|(path, keys)| (format!("[{i}]{path}"), keys))
            })
        }
        _ => None,
    }
}

/// Put `value` at the dotted `path` of `tree`, creating a `null`
/// section as `{}` and a missing key as it goes ([`from_tree`] then
/// refuses a key the type does not have).
fn set_path(tree: &mut Value, path: &str, value: Value) -> Result<(), String> {
    let mut node = tree;
    for (depth, key) in path.split('.').enumerate() {
        if node.is_null() {
            *node = Value::Map(Vec::new());
        }
        let Value::Map(entries) = node else {
            let whole: Vec<&str> = path.split('.').take(depth).collect();
            return Err(format!(
                "`{}` is not a section of named keys; set it whole",
                whole.join(".")
            ));
        };
        let at = match entries.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                entries.push((key.to_string(), Value::Null));
                entries.len() - 1
            }
        };
        node = &mut entries[at].1;
    }
    *node = value;
    Ok(())
}

/// Columns and rows of the `Grid` placement holding `count` nodes.
fn grid_shape(count: usize) -> (usize, usize) {
    let cols = ((count as f64).sqrt().ceil() as usize).max(1);
    (cols, count.div_ceil(cols))
}

/// A declarative scenario: data, not code. Load from JSON, validate,
/// then [`materialize`](ScenarioSpec::materialize) with a seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable label; materialized scenario names derive from it.
    pub name: String,
    /// MAC protocol under test.
    pub variant: Variant,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Field dimensions (m).
    pub field: (f64, f64),
    /// Node population.
    pub nodes: NodesSpec,
    /// Application traffic.
    pub traffic: TrafficSpec,
    /// Override the paper's ten discrete transmit power classes (mW,
    /// strictly increasing). `None` keeps the defaults.
    pub power_levels_mw: Option<Vec<f64>>,
    /// Optional log-normal shadowing (robustness ablations).
    pub shadowing: Option<ShadowingConfig>,
    /// MAC / PCMAC parameter overlay. `None` (or an omitted JSON field)
    /// keeps [`MacConfig::paper_default`].
    pub protocol: Option<ProtocolSpec>,
    /// Radio threshold / capture-model overlay. `None` keeps the ns-2
    /// defaults with the paper's start-only capture.
    pub radio: Option<RadioSpec>,
    /// AODV parameter overlay. `None` keeps [`AodvConfig::default`].
    pub aodv: Option<AodvSpec>,
    /// Deterministic fault plan — scheduled crashes, seeded churn,
    /// channel impairment bursts, energy budgets. `None` (or an omitted
    /// JSON field) runs the network healthy.
    pub faults: Option<FaultConfig>,
    /// Observability metrics layer. `None` (or an omitted JSON field)
    /// keeps the hot path untouched; `Some` collects the per-layer
    /// counters, drop taxonomy, and time-series probes into the report's
    /// `metrics` section without changing protocol behaviour.
    pub metrics: Option<MetricsConfig>,
    /// ns-2-style event-trace request. `None` runs untraced; `Some`
    /// asks the scenario runner to attach a [`pcmac::TraceWriter`] with
    /// this filter and write the trace next to the report.
    pub trace: Option<TraceFilter>,
    /// Execution-strategy overlay (region-sharded parallel runs and the
    /// propagation-delay floor). `None` (or an omitted JSON field) keeps
    /// the single-threaded reference with exact speed-of-light delays.
    pub execution: Option<ExecutionSpec>,
}

impl ScenarioSpec {
    /// The paper's §IV scenario as a declarative spec: 50 nodes uniform
    /// waypoint at 3 m/s / 3 s pause over 1000 m², ten random 512-byte
    /// CBR pairs, 400 s. Materializes identically to
    /// [`ScenarioConfig::paper`].
    pub fn paper() -> Self {
        ScenarioSpec {
            name: "paper".into(),
            variant: Variant::Pcmac,
            duration_s: 400.0,
            field: (1000.0, 1000.0),
            nodes: NodesSpec {
                count: Some(50),
                placement: PlacementSpec::Uniform,
                mobility: Some(MobilitySpec {
                    speed_mps: 3.0,
                    pause_s: 3.0,
                }),
            },
            traffic: TrafficSpec {
                pattern: TrafficPattern::RandomPairs { flows: 10 },
                bytes: 512,
                offered_load_kbps: 600.0,
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

    /// Set the field at the dotted `path` of the spec's JSON to `value`
    /// (module docs, "Paths") — the mechanism behind campaign sweep
    /// axes. The spec is unchanged when the path or the value does not
    /// fit; the error names the path.
    pub fn apply_patch(&mut self, path: &str, value: &Value) -> Result<(), SpecError> {
        let mut tree = self.to_value();
        set_path(&mut tree, path, value.clone())
            .and_then(|()| from_tree(&tree).map_err(|e| e.0))
            .map(|patched| *self = patched)
            .map_err(|e| SpecError::one(format!("patch `{path}`: {e}")))
    }

    /// OS threads one run of this spec occupies: its region-shard count
    /// (1 when single-threaded) — what [`ScenarioConfig::shards`] reads
    /// once materialized.
    pub fn shards(&self) -> usize {
        self.execution.and_then(|e| e.shards).unwrap_or(1).max(1)
    }

    /// The node count this spec materializes (resolving density- and
    /// placement-implied counts).
    pub fn node_count(&self) -> Result<usize, SpecError> {
        let count = match (&self.nodes.placement, self.nodes.count) {
            (PlacementSpec::Density { per_km2 }, maybe_count) => {
                if !per_km2.is_finite() || *per_km2 <= 0.0 {
                    return Err(SpecError::one(format!(
                        "density {per_km2} nodes/km² must be positive and finite"
                    )));
                }
                let computed = placement::density_count(*per_km2, self.field.0, self.field.1);
                match maybe_count {
                    None => Ok(computed),
                    Some(c) if c == computed => Ok(c),
                    Some(c) => Err(SpecError::one(format!(
                        "count {c} conflicts with the density placement, which computes \
                         {computed} nodes; omit count"
                    ))),
                }
            }
            (PlacementSpec::Explicit { points }, None) => Ok(points.len()),
            (PlacementSpec::Explicit { points }, Some(c)) if c == points.len() => Ok(c),
            (PlacementSpec::Explicit { points }, Some(c)) => Err(SpecError::one(format!(
                "count {c} disagrees with the {} explicit points",
                points.len()
            ))),
            (_, Some(c)) => Ok(c),
            (_, None) => Err(SpecError::one(
                "node count is required unless the placement implies it (Density, Explicit)",
            )),
        }?;
        // Node ids are 32 bits wide. A count past them (a density over a
        // vast field) would only fail allocating its positions.
        if count > u32::MAX as usize {
            return Err(SpecError::one(format!(
                "node count {count} does not fit 32-bit node ids"
            )));
        }
        Ok(count)
    }

    /// Number of flows the traffic pattern creates.
    pub fn flow_count(&self) -> usize {
        match &self.traffic.pattern {
            TrafficPattern::RandomPairs { flows } | TrafficPattern::NeighbourPairs { flows } => {
                *flows
            }
            TrafficPattern::Explicit { pairs } => pairs.len(),
        }
    }

    /// The duration a run must *exceed* for every flow to get airtime:
    /// the last flow's staggered start ([`pcmac::flow_start`], the same
    /// schedule materialization uses).
    pub fn min_duration_s(&self) -> f64 {
        pcmac::flow_start(self.flow_count().saturating_sub(1)).as_secs_f64()
    }

    /// Check the spec: [`ScenarioSpec::materialize`] with the config
    /// discarded. Whether a spec is valid never depends on the seed.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.materialize(0).map(drop)
    }

    /// Turn the spec into a concrete, runnable [`ScenarioConfig`] for
    /// `seed`, or report everything wrong with it: the spec-only checks,
    /// then [`ScenarioConfig::validate`] on the config (module docs,
    /// "Validation"). The config is built once the node count resolves
    /// and the placement can be generated; traffic that cannot be drawn
    /// is left out of it and an unusable power-level list keeps the
    /// paper's, the spec already rejected for either.
    pub fn materialize(&self, seed: u64) -> Result<ScenarioConfig, SpecError> {
        let mut problems = Vec::new();
        let count = self
            .node_count()
            .map_err(|e| problems.extend(e.problems))
            .ok();
        let nodes = count.and_then(|count| self.node_setup(count, seed, &mut problems));
        let flows = self.flows(count, seed, &mut problems);
        let levels = self.power_levels(&mut problems);
        if let Some(nodes) = nodes {
            let cfg = self.config(seed, nodes, flows.unwrap_or_default(), levels);
            match cfg.validate() {
                Ok(()) if problems.is_empty() => return Ok(cfg),
                Ok(()) => {}
                Err(e) => problems.extend(e.problems),
            }
        }
        Err(SpecError { problems })
    }

    /// The node population, once the placement's parameters are usable,
    /// it fits the field and the waypoint pause is a time.
    fn node_setup(&self, count: usize, seed: u64, problems: &mut Vec<String>) -> Option<NodeSetup> {
        let (w, h) = self.field;
        // Every generator places nodes inside the field, so there must
        // be one before a config (whose own rule this is) can exist.
        if !(w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite()) {
            problems.push(format!("nodes cannot be placed on a {w} m x {h} m field"));
            return None;
        }
        let before = problems.len();
        let unusable = |v: f64| !v.is_finite() || v <= 0.0;
        let (cols, rows) = grid_shape(count);
        match &self.nodes.placement {
            PlacementSpec::Grid { spacing } if unusable(*spacing) => {
                problems.push(format!("spacing {spacing} m must be positive and finite"));
            }
            PlacementSpec::Grid { spacing } => {
                if (cols - 1) as f64 * spacing > w || rows.saturating_sub(1) as f64 * spacing > h {
                    problems.push(format!(
                        "a {cols}x{rows} grid at {spacing} m pitch does not fit the {w} m x {h} m field"
                    ));
                }
            }
            PlacementSpec::Chain { spacing } if unusable(*spacing) => {
                problems.push(format!("spacing {spacing} m must be positive and finite"));
            }
            PlacementSpec::Chain { spacing } => {
                if count.saturating_sub(1) as f64 * spacing > w {
                    problems.push(format!(
                        "a {count}-node chain at {spacing} m spacing exceeds the field width {w}"
                    ));
                }
            }
            PlacementSpec::Ring { radius } if unusable(*radius) => {
                problems.push(format!(
                    "ring radius {radius} m must be positive and finite"
                ));
            }
            PlacementSpec::Ring { radius } => {
                if *radius > w.min(h) / 2.0 {
                    problems.push(format!(
                        "ring radius {radius} m does not fit the {w} m x {h} m field"
                    ));
                }
            }
            PlacementSpec::Clustered { clusters, spread_m } => {
                if *clusters == 0 {
                    problems.push("clustered placement needs at least one cluster".into());
                }
                if unusable(*spread_m) {
                    problems.push(format!(
                        "cluster spread {spread_m} m must be positive and finite"
                    ));
                } else if *spread_m >= w.min(h) / 2.0 {
                    // Centres keep `spread_m` from the border: at half
                    // the field there is nowhere left to draw them.
                    problems.push(format!(
                        "cluster spread {spread_m} m does not fit the {w} m x {h} m field \
                         (it must stay under half the shorter side)"
                    ));
                }
            }
            PlacementSpec::Corridor { width_m } => {
                if unusable(*width_m) || *width_m > h {
                    problems.push(format!(
                        "corridor width {width_m} m must be positive and fit the field height {h}"
                    ));
                }
            }
            PlacementSpec::Explicit { points } => {
                for (i, p) in points.iter().enumerate() {
                    if !(0.0..=w).contains(&p.x) || !(0.0..=h).contains(&p.y) {
                        problems.push(format!(
                            "point {i} ({}, {}) lies outside the {w} m x {h} m field",
                            p.x, p.y
                        ));
                    }
                }
            }
            PlacementSpec::Uniform | PlacementSpec::Density { .. } => {}
        }
        let mobility = self.nodes.mobility;
        if let Some(m) = mobility.filter(|m| !m.pause_s.is_finite() || m.pause_s < 0.0) {
            problems.push(format!(
                "mobility pause {} s must be finite and non-negative",
                m.pause_s
            ));
        }
        if problems.len() > before {
            return None;
        }

        let starts: Option<Vec<Point>> = match &self.nodes.placement {
            // Uniform placement is left symbolic: the simulator derives
            // it from the seed exactly as `ScenarioConfig::paper` does,
            // keeping spec-built and constructor-built runs identical.
            PlacementSpec::Uniform => None,
            PlacementSpec::Density { .. } => {
                let mut rng = RngStream::derive(seed, "scenario.placement");
                Some(placement::uniform(count, w, h, &mut rng))
            }
            PlacementSpec::Grid { spacing } => {
                let mut pts = placement::grid(cols, rows, Point::new(0.0, 0.0), *spacing);
                pts.truncate(count);
                Some(pts)
            }
            PlacementSpec::Chain { spacing } => {
                Some(placement::chain(count, Point::new(0.0, h / 2.0), *spacing))
            }
            PlacementSpec::Ring { radius } => Some(placement::ring(
                count,
                Point::new(w / 2.0, h / 2.0),
                *radius,
            )),
            PlacementSpec::Clustered { clusters, spread_m } => {
                let mut rng = RngStream::derive(seed, "spec.placement.clustered");
                Some(placement::clustered(
                    count, *clusters, w, h, *spread_m, &mut rng,
                ))
            }
            PlacementSpec::Corridor { width_m } => {
                let mut rng = RngStream::derive(seed, "spec.placement.corridor");
                Some(placement::corridor(
                    count,
                    Point::new(0.0, (h - width_m) / 2.0),
                    w,
                    *width_m,
                    &mut rng,
                ))
            }
            PlacementSpec::Explicit { points } => Some(points.clone()),
        };
        Some(match (starts, mobility) {
            (None, Some(m)) => NodeSetup::UniformWaypoint {
                count,
                speed: m.speed_mps,
                pause: Duration::from_secs_f64(m.pause_s),
            },
            (None, None) => {
                // Static uniform scatter still needs concrete points.
                let mut rng = RngStream::derive(seed, "scenario.placement");
                NodeSetup::Static(placement::uniform(count, w, h, &mut rng))
            }
            (Some(starts), Some(m)) => NodeSetup::WaypointFrom {
                starts,
                speed: m.speed_mps,
                pause: Duration::from_secs_f64(m.pause_s),
            },
            (Some(starts), None) => NodeSetup::Static(starts),
        })
    }

    /// The flows, once the aggregate load is a rate, the pattern can be
    /// drawn from `count` nodes (when it resolved) and every staggered
    /// start gets airtime.
    fn flows(
        &self,
        count: Option<usize>,
        seed: u64,
        problems: &mut Vec<String>,
    ) -> Option<Vec<FlowSpec>> {
        let before = problems.len();
        let load = self.traffic.offered_load_kbps;
        if !load.is_finite() || load <= 0.0 {
            problems.push(format!(
                "offered load {load} kbps must be positive and finite"
            ));
        }
        if self.flow_count() == 0 {
            problems.push("traffic has zero flows".into());
        }
        // A duration at or below the last flow's staggered start would
        // silently strand flows with zero airtime — the classic
        // over-shrunk smoke campaign.
        if self.duration_s.is_nan() || self.duration_s <= self.min_duration_s() {
            problems.push(format!(
                "duration {} s leaves later flows no airtime (flow starts are staggered up to {:.3} s)",
                self.duration_s,
                self.min_duration_s()
            ));
        }
        let count = count?;
        match self.traffic.pattern {
            TrafficPattern::RandomPairs { flows } if count * count.saturating_sub(1) < flows => {
                problems.push(format!(
                    "{flows} distinct random pairs cannot be drawn from {count} nodes"
                ));
            }
            TrafficPattern::NeighbourPairs { flows } if 2 * flows > count => {
                problems.push(format!(
                    "{flows} neighbour pairs need {} nodes, scenario has {count}",
                    2 * flows
                ));
            }
            _ => {}
        }
        if problems.len() > before {
            return None;
        }

        let pairs: Vec<(u32, u32)> = match &self.traffic.pattern {
            TrafficPattern::RandomPairs { flows } => pcmac::random_flow_pairs(seed, count, *flows),
            TrafficPattern::NeighbourPairs { flows } => (0..*flows)
                .map(|i| (2 * i as u32, 2 * i as u32 + 1))
                .collect(),
            TrafficPattern::Explicit { pairs } => pairs.clone(),
        };
        let per_flow_bps = load * 1000.0 / pairs.len() as f64;
        let stop = SimTime::ZERO + Duration::from_secs_f64(self.duration_s);
        Some(
            pairs
                .into_iter()
                .enumerate()
                .map(|(i, (src, dst))| FlowSpec {
                    flow: FlowId(i as u32),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    bytes: self.traffic.bytes,
                    rate_bps: per_flow_bps,
                    start: pcmac::flow_start(i),
                    stop,
                    shape: self.traffic.shape,
                })
                .collect(),
        )
    }

    /// The overridden power-level set, when there is one and
    /// [`PowerLevels::new`] would accept it.
    fn power_levels(&self, problems: &mut Vec<String>) -> Option<PowerLevels> {
        let levels = self.power_levels_mw.as_ref()?;
        if levels.is_empty() {
            problems.push("power level set is empty".into());
        } else if levels.iter().any(|l| !l.is_finite() || *l <= 0.0) {
            problems.push("power levels must all be positive and finite (mW)".into());
        } else if levels.windows(2).any(|w| w[0] >= w[1]) {
            problems.push("power levels must be strictly increasing".into());
        } else {
            return Some(PowerLevels::new(
                levels.iter().map(|&l| Milliwatts(l)).collect(),
            ));
        }
        None
    }

    /// The config: paper defaults under this spec's overlays.
    fn config(
        &self,
        seed: u64,
        nodes: NodeSetup,
        flows: Vec<FlowSpec>,
        levels: Option<PowerLevels>,
    ) -> ScenarioConfig {
        let mut mac = MacConfig::paper_default(self.variant);
        if let Some(levels) = levels {
            mac.levels = levels;
        }
        // The paper's numbers come from ns2.1b8a, whose capture model is
        // pairwise and start-only (see `ScenarioConfig::paper`); overlays
        // then patch individual knobs on top of those defaults.
        let mut radio = RadioConfig {
            capture_policy: CapturePolicy::StartOnly,
            ..RadioConfig::ns2_default()
        };
        let mut aodv = AodvConfig::default();
        if let Some(p) = &self.protocol {
            p.apply(&mut mac);
        }
        if let Some(r) = &self.radio {
            r.apply(&mut radio, &mut mac);
        }
        if let Some(a) = &self.aodv {
            a.apply(&mut aodv);
        }
        ScenarioConfig {
            name: format!(
                "{}-{}-{:.0}kbps-s{seed}",
                self.name,
                self.variant.name(),
                self.traffic.offered_load_kbps
            ),
            variant: self.variant,
            seed,
            duration: Duration::from_secs_f64(self.duration_s),
            field: self.field,
            nodes,
            flows,
            radio,
            mac,
            aodv,
            interference_floor: Milliwatts(1.559e-10), // CSThresh / 100
            shadowing: self.shadowing,
            faults: self.faults.clone(),
            metrics: self.metrics,
            execution: self
                .execution
                .and_then(|e| e.shards)
                .map(|shards| ExecutionMode::Sharded { shards }),
            delay_floor_us: self.execution.and_then(|e| e.delay_floor_us),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs always serialize")
    }

    /// Parse from JSON, refusing unknown keys (no validation — call
    /// [`ScenarioSpec::validate`]).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        Ok(from_tree(&serde_json::from_str(json)?)?)
    }
}
