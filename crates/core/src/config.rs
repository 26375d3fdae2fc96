//! Scenario configuration.

use pcmac_aodv::AodvConfig;
use pcmac_engine::{Duration, FlowId, Milliwatts, NodeId, Point, SimTime};
use pcmac_mac::{MacConfig, Variant};
use pcmac_phy::radio::RadioConfig;
use serde::{Deserialize, Serialize};

use crate::fault::FaultConfig;
use crate::metrics::MetricsConfig;

/// How traffic of one flow is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlowShape {
    /// Constant bit rate (the paper's workload).
    Cbr,
    /// Poisson arrivals at the same mean rate.
    Poisson,
    /// Exponential on/off bursts at the given mean phase lengths.
    OnOff {
        /// Mean ON phase (seconds).
        mean_on_s: f64,
        /// Mean OFF phase (seconds).
        mean_off_s: f64,
    },
}

/// One application flow.
#[derive(Debug, Clone, Serialize)]
pub struct FlowSpec {
    /// Flow identity.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// UDP payload bytes per packet (512 in the paper).
    pub bytes: u32,
    /// Application bit rate (b/s).
    pub rate_bps: f64,
    /// First emission.
    pub start: SimTime,
    /// No emissions at or after this instant.
    pub stop: SimTime,
    /// Arrival process.
    pub shape: FlowShape,
}

/// Node placement and movement.
#[derive(Debug, Clone, Serialize)]
pub enum NodeSetup {
    /// `count` nodes scattered uniformly, moving by random waypoint at
    /// `speed` m/s with `pause` between legs (the paper's setup).
    UniformWaypoint {
        /// Number of nodes.
        count: usize,
        /// Constant speed (m/s).
        speed: f64,
        /// Pause at each waypoint.
        pause: Duration,
    },
    /// Fixed positions, no movement (tests, Figure 4/6 geometries).
    Static(Vec<Point>),
    /// Explicit starting positions moving by random waypoint — generated
    /// placements (clustered, corridor, ring, …) under mobility.
    WaypointFrom {
        /// Starting position of each node.
        starts: Vec<Point>,
        /// Constant speed (m/s).
        speed: f64,
        /// Pause at each waypoint.
        pause: Duration,
    },
}

impl NodeSetup {
    /// Number of nodes this setup creates.
    pub fn count(&self) -> usize {
        match self {
            NodeSetup::UniformWaypoint { count, .. } => *count,
            NodeSetup::Static(v) => v.len(),
            NodeSetup::WaypointFrom { starts, .. } => starts.len(),
        }
    }
}

/// How the event loop executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum ExecutionMode {
    /// One thread pops one global queue — the reference. The default.
    #[default]
    Single,
    /// The field is partitioned into contiguous column ranges of the
    /// spatial grid, one region per worker thread, each running its own
    /// event queue. Conservative barrier-epoch synchronization with
    /// lookahead equal to the propagation-delay floor
    /// ([`ScenarioConfig::delay_floor_us`], which must be set) makes the
    /// run bit-identical to [`ExecutionMode::Single`].
    Sharded {
        /// Number of region shards (threads). `1` is legal and runs the
        /// sharded machinery degenerately.
        shards: usize,
    },
}

/// Log-normal shadowing on top of the two-ray model (robustness
/// experiments; the paper's channel has none).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShadowingConfig {
    /// Standard deviation of the shadowing term (dB).
    pub sigma_db: f64,
    /// `true` keeps the channel reciprocal (paper assumption 2);
    /// `false` draws independent shadowing per direction, violating it.
    pub symmetric: bool,
}

/// A complete simulation scenario.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioConfig {
    /// Human-readable label (reports, logs).
    pub name: String,
    /// MAC protocol under test.
    pub variant: Variant,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: Duration,
    /// Field dimensions (m).
    pub field: (f64, f64),
    /// Node placement/mobility.
    pub nodes: NodeSetup,
    /// Application flows.
    pub flows: Vec<FlowSpec>,
    /// Radio (thresholds, capture policy).
    pub radio: RadioConfig,
    /// MAC parameters.
    pub mac: MacConfig,
    /// Routing parameters.
    pub aodv: AodvConfig,
    /// Arrivals weaker than this are culled from the event stream (they
    /// could not influence carrier sense or any plausible SINR).
    pub interference_floor: Milliwatts,
    /// Optional log-normal shadowing (robustness ablations).
    pub shadowing: Option<ShadowingConfig>,
    /// Deterministic fault plan (`None` = a healthy network: no fault
    /// layer and no resilience report).
    pub faults: Option<FaultConfig>,
    /// Observability layer (`None` = off, zero cost, no metrics
    /// section in the report).
    pub metrics: Option<MetricsConfig>,
    /// Execution strategy (`None` = [`ExecutionMode::Single`], the
    /// default).
    pub execution: Option<ExecutionMode>,
    /// Minimum propagation delay applied to every scheduled arrival, in
    /// microseconds (`None` = exact speed-of-light delays only). Sharded
    /// execution requires it: the floor is the conservative lookahead —
    /// no transmission at `t` can influence another region before
    /// `t + floor`, so regions may safely run `floor` ahead of each
    /// other. Applies identically in both execution modes, keeping
    /// Single and Sharded runs of the same scenario comparable. Must
    /// stay below the MAC slot time (20 µs with defaults): the CTS/ACK
    /// timeouts only budget two slots of grace for the control-frame
    /// round trip, so a larger floor times out every handshake —
    /// `validate()` rejects it. 10 µs is a good default.
    pub delay_floor_us: Option<f64>,
}

/// Emission start of flow `i`: 1 s warm-up plus 137 ms per flow, so
/// flows do not synchronise their first RREQ floods. The single source
/// of truth shared by the paper constructors, the declarative spec
/// materializer, and the spec validator's airtime check.
pub fn flow_start(i: usize) -> SimTime {
    SimTime::ZERO + Duration::from_millis(1000 + 137 * i as u64)
}

/// The seeded distinct `(src, dst)` pairs the paper scenarios draw their
/// flows from. Exposed so declarative scenario specs reproduce a
/// constructor-built sweep bit for bit: all protocol variants at the same
/// seed see the *same* pairs, keeping comparisons paired as in the paper.
pub fn random_flow_pairs(seed: u64, count: usize, n_flows: usize) -> Vec<(u32, u32)> {
    assert!(count >= 2, "need two nodes to form a flow");
    assert!(
        n_flows <= count * (count - 1),
        "{n_flows} distinct ordered pairs cannot be drawn from {count} nodes"
    );
    let mut rng = pcmac_engine::RngStream::derive(seed, "scenario.flows");
    let mut used: Vec<(u32, u32)> = Vec::with_capacity(n_flows);
    for _ in 0..n_flows {
        let pair = loop {
            let s = rng.below(count as u64) as u32;
            let d = rng.below(count as u64) as u32;
            if s != d && !used.contains(&(s, d)) {
                break (s, d);
            }
        };
        used.push(pair);
    }
    used
}

/// The longest span, in seconds, a configured duration, period or
/// interval may have: 10⁸ s, about three years. The most a run adds to
/// a time is a route discovery's wait after six backoffs, 64 × this;
/// with a run of this length that stays under the 1.8 × 10¹⁰ s a `u64`
/// of nanoseconds holds, so `SimTime` arithmetic cannot overflow.
const MAX_SPAN_S: f64 = 1e8;

/// `which`, `s` seconds long, must round to at least 1 ns (at 0 ns an
/// entry expires as it is made, or a timer or source re-arms at its own
/// instant for ever) and stay at most [`MAX_SPAN_S`]. The label is
/// formatted only for a problem.
fn check_span(which: std::fmt::Arguments<'_>, s: f64, problems: &mut Vec<String>) {
    if Duration::from_secs_f64(s).is_zero() || s > MAX_SPAN_S {
        problems.push(format!(
            "{which} {s} s must be finite, round to at least 1 ns and stay at most \
             {MAX_SPAN_S:e} s"
        ));
    }
}

/// Everything wrong with a scenario, found in one pass — the load-time
/// alternative to panicking mid-run.
#[derive(Debug, Clone)]
pub struct InvalidScenario {
    /// Human-readable problems, one per defect.
    pub problems: Vec<String>,
}

impl std::fmt::Display for InvalidScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.problems.join("; "))
    }
}

impl std::error::Error for InvalidScenario {}

impl ScenarioConfig {
    /// The paper's §IV scenario at a given aggregate offered load: 50
    /// nodes, 1000 m × 1000 m, random waypoint 3 m/s / 3 s pause, ten
    /// 512-byte CBR flows splitting `offered_load_kbps` evenly, 400 s.
    ///
    /// Source/destination pairs are drawn from the seed so that different
    /// seeds give different (but reproducible) traffic patterns; all four
    /// protocol variants at the same seed see the *same* pairs, keeping
    /// the comparison paired as in the paper.
    pub fn paper(variant: Variant, offered_load_kbps: f64, seed: u64) -> Self {
        Self::paper_with(variant, offered_load_kbps, seed, 50, 3.0)
    }

    /// [`ScenarioConfig::paper`] with the node count and mobility speed as
    /// parameters — the density and mobility extension sweeps vary them.
    pub fn paper_with(
        variant: Variant,
        offered_load_kbps: f64,
        seed: u64,
        count: usize,
        speed: f64,
    ) -> Self {
        assert!(count >= 2);
        let duration = Duration::from_secs(400);
        let n_flows = 10;
        let per_flow_bps = offered_load_kbps * 1000.0 / n_flows as f64;

        let flows: Vec<FlowSpec> = random_flow_pairs(seed, count, n_flows)
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst))| FlowSpec {
                flow: FlowId(i as u32),
                src: NodeId(src),
                dst: NodeId(dst),
                bytes: 512,
                rate_bps: per_flow_bps,
                start: flow_start(i),
                stop: SimTime::ZERO + duration,
                shape: FlowShape::Cbr,
            })
            .collect();

        ScenarioConfig {
            name: format!("paper-{}-{offered_load_kbps}kbps", variant.name()),
            variant,
            seed,
            duration,
            field: (1000.0, 1000.0),
            nodes: NodeSetup::UniformWaypoint {
                count,
                speed,
                pause: Duration::from_secs(3),
            },
            flows,
            // The paper's numbers come from ns2.1b8a, whose capture model
            // is pairwise and start-only; reproduce that here. The
            // stricter cumulative-SINR model is the `capture_policy`
            // ablation (see DESIGN.md).
            radio: RadioConfig {
                capture_policy: pcmac_phy::CapturePolicy::StartOnly,
                ..RadioConfig::ns2_default()
            },
            mac: MacConfig::paper_default(variant),
            aodv: AodvConfig::default(),
            interference_floor: Milliwatts(1.559e-10), // CSThresh / 100
            shadowing: None,
            faults: None,
            metrics: None,
            execution: None,
            delay_floor_us: None,
        }
    }

    /// Two static nodes `distance` m apart with a single CBR flow from
    /// node 0 to node 1 — the smallest useful scenario.
    pub fn two_nodes(variant: Variant, distance: f64, rate_bps: f64, seed: u64) -> Self {
        let duration = Duration::from_secs(10);
        ScenarioConfig {
            name: format!("two-nodes-{}", variant.name()),
            variant,
            seed,
            duration,
            field: (1000.0, 1000.0),
            nodes: NodeSetup::Static(vec![
                Point::new(100.0, 500.0),
                Point::new(100.0 + distance, 500.0),
            ]),
            flows: vec![FlowSpec {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 512,
                rate_bps,
                start: SimTime::ZERO + Duration::from_millis(100),
                stop: SimTime::ZERO + duration,
                shape: FlowShape::Cbr,
            }],
            radio: RadioConfig::ns2_default(),
            mac: MacConfig::paper_default(variant),
            aodv: AodvConfig::default(),
            interference_floor: Milliwatts(1.559e-10),
            shadowing: None,
            faults: None,
            metrics: None,
            execution: None,
            delay_floor_us: None,
        }
    }

    /// The paper's Figure 4/6 asymmetric-link geometry: pairs A→B (close)
    /// and C→D (far) with C placed outside A/B's reduced sensing zones.
    /// Both pairs run saturating CBR.
    pub fn asymmetric_pairs(variant: Variant, rate_bps: f64, seed: u64) -> Self {
        let duration = Duration::from_secs(20);
        // A—B 100 m apart (class 7.25 mW, sense range ≈ 220 m); C 300 m
        // beyond B; C—D 180 m apart (class 75.8 mW, sense range ≈ 396 m).
        // Under the two-ray model this realises the paper's Figure 4
        // exactly: the pairs are *mutually* blind — C is outside A's
        // 220 m sensing zone (d(A,C) = 400 m) and A is just outside C's
        // 396 m zone — yet C's 75.8 mW frames arrive at B only ~7.7×
        // below A's signal, inside the 10× capture ratio, so they corrupt
        // B's receptions whenever C talks. Fixed-power schemes die here;
        // PCMAC recovers through its power step-up ladder and the
        // receiver-noise-aware CTS/DATA power computation.
        let pts = pcmac_mobility::placement::asymmetric_pairs(100.0, 180.0, 300.0);
        let mk_flow = |i: u32, src: u32, dst: u32| FlowSpec {
            flow: FlowId(i),
            src: NodeId(src),
            dst: NodeId(dst),
            bytes: 512,
            rate_bps,
            start: SimTime::ZERO + Duration::from_millis(100 + 53 * i as u64),
            stop: SimTime::ZERO + duration,
            shape: FlowShape::Cbr,
        };
        ScenarioConfig {
            name: format!("asymmetric-{}", variant.name()),
            variant,
            seed,
            duration,
            field: (1000.0, 1000.0),
            nodes: NodeSetup::Static(pts),
            flows: vec![mk_flow(0, 0, 1), mk_flow(1, 2, 3)],
            radio: RadioConfig::ns2_default(),
            mac: MacConfig::paper_default(variant),
            aodv: AodvConfig::default(),
            interference_floor: Milliwatts(1.559e-10),
            shadowing: None,
            faults: None,
            metrics: None,
            execution: None,
            delay_floor_us: None,
        }
    }

    /// Replace the duration (and clip flow stop times accordingly).
    pub fn with_duration(mut self, duration: Duration) -> Self {
        let stop = SimTime::ZERO + duration;
        self.duration = duration;
        for f in &mut self.flows {
            f.stop = f.stop.min(stop);
        }
        self
    }

    /// Aggregate offered application load in kbit/s.
    pub fn offered_load_kbps(&self) -> f64 {
        self.flows.iter().map(|f| f.rate_bps).sum::<f64>() / 1000.0
    }

    /// Effective execution strategy (the default when unset).
    pub fn execution_mode(&self) -> ExecutionMode {
        self.execution.unwrap_or_default()
    }

    /// Number of region shards the run will use (1 in single mode).
    pub fn shards(&self) -> usize {
        match self.execution_mode() {
            ExecutionMode::Single => 1,
            ExecutionMode::Sharded { shards } => shards.max(1),
        }
    }

    /// The propagation-delay floor as a duration (zero when unset).
    pub fn delay_floor(&self) -> Duration {
        self.delay_floor_us.map_or(Duration::ZERO, |us| {
            Duration::from_nanos((us * 1e3).round() as u64)
        })
    }

    /// Check the scenario for defects that would otherwise surface as
    /// panics (or nonsense) deep inside a run: zero nodes, non-finite or
    /// non-positive rates and dimensions, flows referencing out-of-range
    /// nodes. Collects *every* problem so a bad spec file is fixed in one
    /// round trip. Every rule on a value the config holds lives here
    /// only: a declarative scenario spec is valid exactly when it
    /// materializes into a config that passes.
    pub fn validate(&self) -> Result<(), InvalidScenario> {
        let mut problems = Vec::new();
        let count = self.nodes.count();
        if count == 0 {
            problems.push("scenario has zero nodes".to_string());
        }
        match &self.nodes {
            NodeSetup::UniformWaypoint { speed, pause, .. }
            | NodeSetup::WaypointFrom { speed, pause, .. } => {
                // A waypoint walk at 0 m/s never reaches its first
                // waypoint: the model refuses it. A lone
                // `nodes.mobility.pause_s` patch on a static spec
                // materializes into one.
                if !speed.is_finite() || *speed <= 0.0 {
                    problems.push(format!(
                        "mobility speed {speed} m/s must be positive and finite \
                         (omit `nodes.mobility` for static nodes, or use \
                         NodeSetup::Static in a hand-built config)"
                    ));
                }
                // The longest leg crosses the field's diagonal.
                let leg_s = self.field.0.hypot(self.field.1) / speed;
                for (which, s) in [("pause", pause.as_secs_f64()), ("longest leg", leg_s)] {
                    if s > MAX_SPAN_S {
                        problems.push(format!(
                            "mobility {which} {s} s must stay at most {MAX_SPAN_S:e} s"
                        ));
                    }
                }
            }
            NodeSetup::Static(_) => {}
        }
        // A NaN coordinate lands in grid cell 0 and hears nothing: the
        // run would complete with its traffic silently zeroed.
        if let NodeSetup::Static(pts) | NodeSetup::WaypointFrom { starts: pts, .. } = &self.nodes {
            for (i, p) in pts.iter().enumerate() {
                if !p.x.is_finite() || !p.y.is_finite() {
                    problems.push(format!(
                        "node {i}: start position ({}, {}) must be finite",
                        p.x, p.y
                    ));
                }
            }
        }
        for (which, dim) in [("width", self.field.0), ("height", self.field.1)] {
            if !dim.is_finite() || dim <= 0.0 {
                problems.push(format!("field {which} {dim} must be positive and finite"));
            }
        }
        for f in &self.flows {
            let id = f.flow.0;
            if f.src.index() >= count {
                problems.push(format!(
                    "flow {id}: source node {} out of range (scenario has {count} nodes)",
                    f.src.0
                ));
            }
            if f.dst.index() >= count {
                problems.push(format!(
                    "flow {id}: destination node {} out of range (scenario has {count} nodes)",
                    f.dst.0
                ));
            }
            if f.src == f.dst {
                problems.push(format!(
                    "flow {id}: source and destination are both node {}",
                    f.src.0
                ));
            }
            if f.bytes == 0 {
                problems.push(format!("flow {id}: packet size is zero bytes"));
            }
            if !f.rate_bps.is_finite() || f.rate_bps <= 0.0 {
                problems.push(format!(
                    "flow {id}: rate {} b/s must be positive and finite",
                    f.rate_bps
                ));
            } else if f.bytes > 0 {
                let interval = f.bytes as f64 * 8.0 / f.rate_bps;
                check_span(
                    format_args!("flow {id}: packet interval"),
                    interval,
                    &mut problems,
                );
            }
            if let FlowShape::OnOff {
                mean_on_s,
                mean_off_s,
            } = f.shape
            {
                check_span(
                    format_args!("flow {id}: mean on phase"),
                    mean_on_s,
                    &mut problems,
                );
                check_span(
                    format_args!("flow {id}: mean off phase"),
                    mean_off_s,
                    &mut problems,
                );
            }
        }
        // --- protocol / radio parameter surface (spec-overlay knobs) ---
        if self.variant != self.mac.variant {
            // One labels the report, the other is what every station
            // runs: a mismatch is a run filed under the wrong protocol.
            problems.push(format!(
                "variant {:?} disagrees with mac.variant {:?}: the report would be labelled \
                 \"{}\" while every station runs {}",
                self.variant,
                self.mac.variant,
                self.variant.name(),
                self.mac.variant.name()
            ));
        }
        let pc = &self.mac.pcmac;
        if !pc.safety_factor.is_finite() || pc.safety_factor <= 0.0 {
            problems.push(format!(
                "PCMAC safety factor {} must be positive and finite",
                pc.safety_factor
            ));
        }
        if pc.capture_ratio.is_nan() || pc.capture_ratio < 1.0 {
            problems.push(format!(
                "PCMAC capture ratio {} must be at least 1 (a weaker signal cannot capture)",
                pc.capture_ratio
            ));
        }
        if pc.ctrl_rate_bps == 0 {
            problems
                .push("control channel rate is zero: PCMAC broadcasts would never finish".into());
        }
        if self.mac.queue_capacity == 0 {
            problems.push("interface queue capacity is zero: every packet would drop".into());
        }
        let aodv = &self.aodv;
        if aodv.rreq_retries == 0 {
            problems.push("AODV needs at least one RREQ attempt".into());
        }
        if aodv.buffer_capacity == 0 {
            problems.push("AODV send-buffer capacity is zero".into());
        }
        if aodv.rreq_ttl == 0 {
            problems.push("AODV RREQ TTL is zero: floods would die at the source".into());
        }
        // Lifetimes and periods are whole nanoseconds (`check_span`).
        // The probe interval is still seconds here; the metrics layer
        // rounds it the same way.
        for (which, d) in [
            ("duration", self.duration),
            ("power history expiry", pc.history_expiry),
            ("AODV active route timeout", aodv.active_route_timeout),
            ("AODV RREQ cache timeout", aodv.rreq_cache_timeout),
            ("AODV RREQ wait", aodv.rreq_wait),
            ("AODV buffer timeout", aodv.buffer_timeout),
        ] {
            check_span(format_args!("{which}"), d.as_secs_f64(), &mut problems);
        }
        if let Some(m) = self.metrics {
            check_span(
                format_args!("metrics probe interval"),
                m.probe_interval_s,
                &mut problems,
            );
        }
        for (which, w) in [
            ("MAC decode threshold", self.mac.rx_thresh),
            ("radio decode threshold", self.radio.rx_thresh),
            ("carrier-sense threshold", self.radio.cs_thresh),
            ("noise floor", self.radio.noise_floor),
        ] {
            if !w.value().is_finite() || w.value() <= 0.0 {
                problems.push(format!(
                    "{which} {} mW must be positive and finite",
                    w.value()
                ));
            }
        }
        // The MAC sizes every needed power against its threshold; a radio
        // that decodes at another one makes those sizes wrong, silently.
        if self.mac.rx_thresh != self.radio.rx_thresh {
            problems.push(format!(
                "MAC decode threshold {} mW differs from the radio decode threshold {} mW: \
                 needed powers would be sized for a threshold the radio does not decode at",
                self.mac.rx_thresh.value(),
                self.radio.rx_thresh.value()
            ));
        }
        if self.radio.rx_thresh.value() <= self.radio.noise_floor.value() {
            problems.push(format!(
                "decode threshold {} mW must exceed the noise floor {} mW — nothing could ever be decoded",
                self.radio.rx_thresh.value(),
                self.radio.noise_floor.value()
            ));
        }
        if self.radio.capture_ratio.is_nan() || self.radio.capture_ratio < 1.0 {
            problems.push(format!(
                "radio capture ratio {} must be at least 1",
                self.radio.capture_ratio
            ));
        }
        // An arrival under the floor is never scheduled, so a floor over
        // the carrier-sense threshold culls what the radio would have
        // sensed — and an infinite one everything (zero delivery,
        // silently).
        let floor = self.interference_floor.value();
        if !(0.0..=self.radio.cs_thresh.value()).contains(&floor) {
            problems.push(format!(
                "interference floor {:?} must be non-negative and at most the \
                 carrier-sense threshold {:?}",
                self.interference_floor, self.radio.cs_thresh
            ));
        }
        if let Some(s) = &self.shadowing {
            if !s.sigma_db.is_finite() || s.sigma_db < 0.0 {
                problems.push(format!(
                    "shadowing sigma {} dB must be finite and non-negative",
                    s.sigma_db
                ));
            }
        }
        if let Some(fc) = &self.faults {
            fc.collect_problems(count, self.duration.as_secs_f64(), &mut problems);
        }
        if let Some(us) = self.delay_floor_us {
            if !us.is_finite() || us <= 0.0 {
                problems.push(format!("delay floor {us} µs must be positive and finite"));
            } else {
                // The CTS/ACK timeouts budget two slots of grace for the
                // whole control-frame round trip; a floor at or past one
                // slot eats it all and times out every RTS/CTS handshake
                // (zero delivery, silently).
                let slot_us = self.mac.timing.slot.as_nanos() as f64 / 1e3;
                if us >= slot_us {
                    problems.push(format!(
                        "delay floor {us} µs must stay below the slot time ({slot_us} µs): \
                         CTS/ACK timeouts grant two slots of round-trip grace, so a floor \
                         of a slot or more times out every RTS/CTS handshake"
                    ));
                }
            }
        }
        if let Some(ExecutionMode::Sharded { shards }) = self.execution {
            if shards == 0 {
                problems.push("sharded execution with zero shards: nothing would run".into());
            }
            if self.delay_floor().is_zero() {
                problems.push(
                    "sharded execution requires a positive delay_floor_us: the floor is the \
                     conservative lookahead that lets regions run ahead of each other"
                        .into(),
                );
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(InvalidScenario { problems })
        }
    }

    /// Serialize the scenario to pretty JSON (experiment provenance).
    /// There is no reader for this form: scenario files are
    /// `pcmac-campaign` scenario specs.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario configs always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_matches_section_iv() {
        let c = ScenarioConfig::paper(Variant::Pcmac, 600.0, 1);
        assert_eq!(c.nodes.count(), 50);
        assert_eq!(c.flows.len(), 10);
        assert_eq!(c.duration, Duration::from_secs(400));
        assert!((c.offered_load_kbps() - 600.0).abs() < 1e-9);
        assert!(c.flows.iter().all(|f| f.bytes == 512));
        assert!(c.flows.iter().all(|f| f.src != f.dst));
        match c.nodes {
            NodeSetup::UniformWaypoint { speed, pause, .. } => {
                assert_eq!(speed, 3.0);
                assert_eq!(pause, Duration::from_secs(3));
            }
            _ => panic!("paper scenario is mobile"),
        }
    }

    #[test]
    fn same_seed_same_flow_pairs_across_variants() {
        let a = ScenarioConfig::paper(Variant::Basic, 500.0, 7);
        let b = ScenarioConfig::paper(Variant::Pcmac, 500.0, 7);
        for (fa, fb) in a.flows.iter().zip(&b.flows) {
            assert_eq!((fa.src, fa.dst), (fb.src, fb.dst));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ScenarioConfig::paper(Variant::Basic, 500.0, 1);
        let b = ScenarioConfig::paper(Variant::Basic, 500.0, 2);
        let pa: Vec<_> = a.flows.iter().map(|f| (f.src, f.dst)).collect();
        let pb: Vec<_> = b.flows.iter().map(|f| (f.src, f.dst)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn with_duration_clips_flows() {
        let c =
            ScenarioConfig::paper(Variant::Basic, 500.0, 1).with_duration(Duration::from_secs(30));
        assert!(c
            .flows
            .iter()
            .all(|f| f.stop <= SimTime::ZERO + Duration::from_secs(30)));
    }

    #[test]
    fn variant_label_and_mac_variant_must_agree() {
        let good = ScenarioConfig::two_nodes(Variant::Basic, 100.0, 50_000.0, 1);
        good.validate().expect("constructors keep the two equal");

        let mut relabelled = good.clone();
        relabelled.variant = Variant::Pcmac;
        let err = relabelled
            .validate()
            .expect_err("mismatch must not validate");
        assert_eq!(err.problems.len(), 1, "{err}");
        let msg = &err.problems[0];
        for named in ["Pcmac", "Basic", "\"PCMAC\"", "Basic 802.11"] {
            assert!(msg.contains(named), "{named} missing from: {msg}");
        }
    }

    #[test]
    fn sharded_execution_defects_are_rejected() {
        let mut c = ScenarioConfig::paper(Variant::Pcmac, 500.0, 1);
        c.execution = Some(ExecutionMode::Sharded { shards: 4 });
        let err = c
            .validate()
            .expect_err("sharded without a delay floor must be rejected");
        assert!(err.problems.iter().any(|p| p.contains("delay_floor_us")));
        c.delay_floor_us = Some(10.0);
        c.validate().expect("floor set: valid");
        assert_eq!(c.shards(), 4);
        assert_eq!(c.delay_floor(), Duration::from_micros(10));
        // A floor at or past the 20 µs slot would eat the CTS/ACK
        // timeouts' two-slot round-trip grace and kill every handshake.
        c.delay_floor_us = Some(50.0);
        let err = c.validate().expect_err("slot-sized floor must be rejected");
        assert!(err.problems.iter().any(|p| p.contains("slot time")));
        c.delay_floor_us = Some(10.0);
        c.execution = Some(ExecutionMode::Sharded { shards: 0 });
        let err = c.validate().expect_err("zero shards must be rejected");
        assert!(err.problems.iter().any(|p| p.contains("zero shards")));
        c.execution = Some(ExecutionMode::Single);
        c.delay_floor_us = Some(-1.0);
        let err = c.validate().expect_err("negative floor must be rejected");
        assert!(err.problems.iter().any(|p| p.contains("delay floor")));
    }

    /// Unvalidated, an infinite floor ran to "sent 242, delivered 0".
    #[test]
    fn interference_floor_defects_are_rejected() {
        let mut c = ScenarioConfig::two_nodes(Variant::Basic, 80.0, 50_000.0, 1);
        let cs = c.radio.cs_thresh;
        for bad in [f64::INFINITY, f64::NAN, -1e-12, cs.value() * 1.01] {
            c.interference_floor = Milliwatts(bad);
            let err = c.validate().expect_err("floor must be rejected");
            let named = |p: &String| {
                p.contains(&format!("{:?}", Milliwatts(bad))) && p.contains(&format!("{cs:?}"))
            };
            assert!(err.problems.iter().any(named), "{bad}: {err}");
        }
        for good in [0.0, cs.value()] {
            c.interference_floor = Milliwatts(good);
            c.validate().expect("disabled, or exactly carrier sense");
        }
    }

    #[test]
    fn fault_plan_defects_are_collected_by_validate() {
        let mut c = ScenarioConfig::paper(Variant::Pcmac, 500.0, 1);
        c.faults = Some(crate::fault::FaultConfig {
            crashes: Some(vec![crate::fault::CrashWindow {
                node: 500,
                at_s: 1.0,
                recover_s: None,
            }]),
            energy_budget_mj: Some(-1.0),
            ..Default::default()
        });
        let err = c.validate().expect_err("bad fault plan must be rejected");
        assert!(err.problems.iter().any(|p| p.contains("out of range")));
        assert!(err.problems.iter().any(|p| p.contains("energy budget")));
    }

    /// Unvalidated, this config ran to "sent 242, delivered 0": the NaN
    /// node sits in grid cell 0 and no gain to it ever clears a threshold.
    #[test]
    #[should_panic(expected = "node 0: start position (NaN, 500) must be finite")]
    fn simulator_construction_refuses_a_nan_coordinate() {
        let mut c = ScenarioConfig::two_nodes(Variant::Basic, 180.0, 50_000.0, 1);
        c.nodes = NodeSetup::Static(vec![Point::new(f64::NAN, 500.0), Point::new(180.0, 500.0)]);
        let _ = crate::Simulator::new(c);
    }

    #[test]
    fn protocol_and_radio_defects_are_rejected() {
        let base = || ScenarioConfig::paper(Variant::Pcmac, 500.0, 1);
        let has = |cfg: ScenarioConfig, needle: &str| {
            let err = cfg.validate().expect_err("must be rejected");
            assert!(
                err.problems.iter().any(|p| p.contains(needle)),
                "expected problem containing {needle:?}, got {:?}",
                err.problems
            );
        };
        let mut c = base();
        c.mac.pcmac.safety_factor = 0.0;
        has(c, "safety factor");
        let mut c = base();
        c.mac.pcmac.capture_ratio = 0.5;
        has(c, "capture ratio");
        let mut c = base();
        c.mac.pcmac.ctrl_rate_bps = 0;
        has(c, "control channel rate");
        let mut c = base();
        c.radio.rx_thresh = Milliwatts(1e-12); // below the 1e-9 noise floor
        has(c, "noise floor");
        let mut c = base();
        c.radio.rx_thresh = c.radio.rx_thresh * 2.0;
        has(c, "differs from the radio decode threshold");
        let mut c = base();
        c.radio.capture_ratio = f64::NAN;
        has(c, "radio capture ratio");
        let mut c = base();
        c.mac.queue_capacity = 0;
        has(c, "queue capacity");
        base().validate().expect("paper scenario stays valid");
    }

    #[test]
    fn flow_pairs_are_distinct() {
        let c = ScenarioConfig::paper(Variant::Basic, 500.0, 3);
        let mut pairs: Vec<_> = c.flows.iter().map(|f| (f.src, f.dst)).collect();
        pairs.sort_by_key(|(s, d)| (s.0, d.0));
        pairs.dedup();
        assert_eq!(pairs.len(), 10);
    }
}
