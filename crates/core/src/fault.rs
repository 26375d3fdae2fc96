//! Deterministic fault injection.
//!
//! A [`FaultConfig`] layers failures on top of an otherwise healthy
//! scenario: scheduled node crashes, seeded crash/recover churn,
//! transient channel impairment bursts, and per-node energy budgets.
//! Everything is derived from the master seed and the static schedule,
//! so the same seed plus the same fault plan produces bit-identical
//! reports on one thread or on region shards, and against the reference
//! channel — the fault layer never touches positions or the spatial
//! index. A `None` field of the plan injects nothing of its kind.
//!
//! The simulator keeps the layer's run-time state in a `FaultState`
//! built from the plan; the state is also the layer's checkpoint
//! section, and the plan itself is read from the scenario every time.

use pcmac_engine::{Duration, NodeId, RngStream, SimTime};
use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

use crate::config::ScenarioConfig;
use crate::event::SimEvent;
use crate::report::{LatencySummary, ResilienceReport};

/// The most down/up cycles a churn plan may expect to precompute over
/// all nodes (nodes × window / (mean up + mean down)).
const MAX_CHURN_CYCLES: f64 = 1e6;

/// One scheduled crash: the node goes dark at `at_s`, and (optionally)
/// comes back at `recover_s`. While down a node neither transmits nor
/// receives nor forwards; its timers keep running so recovery is clean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// Which node crashes.
    pub node: u32,
    /// Crash instant (seconds from scenario start).
    pub at_s: f64,
    /// Recovery instant; `None` means the node stays down for the rest
    /// of the run.
    pub recover_s: Option<f64>,
}

/// Stochastic crash/recover churn: every node alternates exponentially
/// distributed up and down phases, drawn from a per-node substream of
/// the master seed (`faults.churn`, node index).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean length of an up phase (seconds).
    pub mean_uptime_s: f64,
    /// Mean length of a down phase (seconds).
    pub mean_downtime_s: f64,
    /// Churn window start (`None` = scenario start).
    pub start_s: Option<f64>,
    /// Churn window end (`None` = scenario end). Nodes still down when
    /// the window closes recover at the window edge, so the "after"
    /// phase observes a healed network.
    pub stop_s: Option<f64>,
}

/// A transient channel impairment: between `start_s` and `stop_s` every
/// link loses `extra_loss_db` of received power, and (optionally) every
/// radio's noise floor is raised by `noise_mult`. Overlapping bursts
/// compose multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImpairmentBurst {
    /// Burst start (seconds from scenario start).
    pub start_s: f64,
    /// Burst end (seconds).
    pub stop_s: f64,
    /// Extra path loss applied to every link (dB, ≥ 0).
    pub extra_loss_db: f64,
    /// Noise-floor multiplier while active (`None` = 1, unchanged).
    pub noise_mult: Option<f64>,
}

/// The complete fault plan for one scenario. Every field is optional;
/// an all-`None` plan injects nothing (but still produces a resilience
/// report, making "faults off" a valid campaign axis value).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Explicitly scheduled crash windows.
    pub crashes: Option<Vec<CrashWindow>>,
    /// Seeded stochastic churn over all nodes.
    pub churn: Option<ChurnConfig>,
    /// `Some(true)` wipes a node's AODV routing state on recovery
    /// (counters survive); default/`Some(false)` lets routes survive
    /// the outage and age out on their own.
    pub expire_routes: Option<bool>,
    /// Transient channel impairment bursts.
    pub impairments: Option<Vec<ImpairmentBurst>>,
    /// Per-node energy budget (mJ of radiated data-channel energy).
    /// A node that exhausts its budget goes down permanently at the end
    /// of the transmission that crossed the line.
    pub energy_budget_mj: Option<f64>,
}

impl FaultConfig {
    /// Append every defect in the plan to `problems` (the fault-plan
    /// part of [`crate::ScenarioConfig::validate`]).
    /// `node_count` bounds crash targets; `duration_s` bounds windows.
    pub fn collect_problems(&self, node_count: usize, duration_s: f64, problems: &mut Vec<String>) {
        if let Some(crashes) = &self.crashes {
            for (i, cw) in crashes.iter().enumerate() {
                if (cw.node as usize) >= node_count {
                    problems.push(format!(
                        "fault crash {i}: node {} out of range (scenario has {node_count} nodes)",
                        cw.node
                    ));
                }
                if !cw.at_s.is_finite() || cw.at_s < 0.0 {
                    problems.push(format!(
                        "fault crash {i}: crash time {} s must be finite and non-negative",
                        cw.at_s
                    ));
                }
                if let Some(r) = cw.recover_s {
                    if !r.is_finite() || r <= cw.at_s {
                        problems.push(format!(
                            "fault crash {i}: recovery time {r} s must be finite and after the crash at {} s",
                            cw.at_s
                        ));
                    }
                }
            }
        }
        if let Some(ch) = &self.churn {
            for (which, mean) in [
                ("uptime", ch.mean_uptime_s),
                ("downtime", ch.mean_downtime_s),
            ] {
                if !mean.is_finite() || mean <= 0.0 {
                    problems.push(format!(
                        "fault churn: mean {which} {mean} s must be positive and finite"
                    ));
                }
            }
            if let Some(s) = ch.start_s {
                if !s.is_finite() || s < 0.0 {
                    problems.push(format!(
                        "fault churn: start {s} s must be finite and non-negative"
                    ));
                }
            }
            if let Some(e) = ch.stop_s {
                if !e.is_finite() || e <= ch.start_s.unwrap_or(0.0) {
                    problems.push(format!(
                        "fault churn: stop {e} s must be finite and after start {} s",
                        ch.start_s.unwrap_or(0.0)
                    ));
                }
            }
            if ch.start_s.unwrap_or(0.0) >= duration_s {
                problems.push(format!(
                    "fault churn: window starts at {} s, at or beyond the {duration_s} s run",
                    ch.start_s.unwrap_or(0.0)
                ));
            }
            // The simulator draws the whole up/down schedule while it is
            // built, so its expected length is bounded before anything
            // allocates it.
            let window =
                ch.stop_s.unwrap_or(duration_s).min(duration_s) - ch.start_s.unwrap_or(0.0);
            let cycles = node_count as f64 * window / (ch.mean_uptime_s + ch.mean_downtime_s);
            if cycles > MAX_CHURN_CYCLES {
                problems.push(format!(
                    "fault churn: {node_count} nodes over a {window} s window at mean up {} s + \
                     down {} s precompute about {cycles:.1e} down/up cycles, over the cap of \
                     {MAX_CHURN_CYCLES:e}",
                    ch.mean_uptime_s, ch.mean_downtime_s
                ));
            }
        }
        if let Some(bursts) = &self.impairments {
            for (i, b) in bursts.iter().enumerate() {
                if !b.start_s.is_finite() || b.start_s < 0.0 {
                    problems.push(format!(
                        "fault impairment {i}: start {} s must be finite and non-negative",
                        b.start_s
                    ));
                }
                if !b.stop_s.is_finite() || b.stop_s <= b.start_s {
                    problems.push(format!(
                        "fault impairment {i}: stop {} s must be finite and after start {} s",
                        b.stop_s, b.start_s
                    ));
                }
                if !b.extra_loss_db.is_finite() || b.extra_loss_db < 0.0 {
                    problems.push(format!(
                        "fault impairment {i}: extra loss {} dB must be finite and non-negative",
                        b.extra_loss_db
                    ));
                }
                if let Some(m) = b.noise_mult {
                    if !m.is_finite() || m < 1.0 {
                        problems.push(format!(
                            "fault impairment {i}: noise multiplier {m} must be finite and at least 1"
                        ));
                    }
                }
            }
        }
        if let Some(b) = self.energy_budget_mj {
            if !b.is_finite() || b <= 0.0 {
                problems.push(format!(
                    "fault energy budget {b} mJ must be positive and finite"
                ));
            }
        }
    }
}

/// Runtime fault-injection state, present only when the scenario
/// carries a fault plan. Every transition is either precomputed from
/// the master seed at build time (crashes, churn, impairment bursts)
/// or triggered by deterministic event-stream facts (energy budgets),
/// and none of them touch positions or the spatial index — which is
/// what keeps faulted runs bit-identical between the production channel
/// and the reference scan, single-threaded or sharded.
///
/// Crash semantics: a down node schedules no arrivals (nothing it
/// "sends" radiates), is skipped as a receiver (it hears nothing new),
/// and accrues no transmit energy. Its MAC/AODV state machines keep
/// running against the dead radio, so their timer chains stay
/// consistent and a later recovery resumes cleanly; arrivals already
/// in flight at the crash instant still land, keeping the radio's
/// interference bookkeeping exact.
///
/// The struct is the layer's checkpoint section, written field by field
/// in declaration order; the plan it was built from is not part of it.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// `true` while the node is down.
    pub(crate) down: Vec<bool>,
    /// Which impairment bursts are currently active.
    pub(crate) burst_active: Vec<bool>,
    /// Product of the active bursts' linear gain attenuations.
    pub(crate) impair_gain: f64,
    /// Product of the active bursts' noise multipliers.
    pub(crate) noise_mult: f64,
    /// Committed radiated data-channel energy per node (mJ).
    pub(crate) committed_mj: Vec<f64>,
    /// Nodes whose budget ran out (their `NodeDown` is permanent).
    pub(crate) energy_dead: Vec<bool>,
    /// Fault window from the precomputed schedule alone: start of the
    /// first activation, end of the last deactivation. Energy deaths
    /// extend it during the [`FaultState::into_report`] replay.
    window_start: Option<SimTime>,
    window_end: Option<SimTime>,
    /// End of the run (an exhausted budget extends the window to here).
    run_end: SimTime,
    pub(crate) crashes: u64,
    pub(crate) recoveries: u64,
    pub(crate) energy_deaths: u64,
    /// Open route-repair observations: (node, destination, first failure).
    pub(crate) pending_repairs: Vec<(u32, u32, SimTime)>,
    pub(crate) repairs_started: u64,
    pub(crate) repair_latency: pcmac_stats::StreamingQuantile,
    /// Phase-classification facts in processing order, each keyed by the
    /// global `(time, rank)` of the event that produced it. Classifying
    /// lazily at report time (instead of against a live, mutating fault
    /// window) is what lets region shards — which each observe only their
    /// own slice of the event stream — merge their facts into the exact
    /// single-threaded counters: sort by key and replay.
    pub(crate) records: Vec<(SimTime, u128, FaultRecord)>,
}

/// One phase-classification fact (see [`FaultState::records`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultRecord {
    /// A source emitted an application packet (classified by record time).
    Sent,
    /// A packet reached its sink (classified by its emission time; the
    /// record time drives reconvergence detection).
    Delivered {
        /// When the delivered packet was emitted.
        created_at: SimTime,
    },
    /// A node's energy budget ran out; it dies (and the fault window
    /// extends to the end of the run) at `death_at`.
    EnergyDeath {
        /// End of the transmission that exhausted the budget.
        death_at: SimTime,
    },
}

impl FaultState {
    /// Precompute `plan`'s entire crash / recover / impairment schedule
    /// up front, from the master seed and the static plan alone, so the
    /// injected events are identical whatever execution mode runs them.
    /// Each event goes to `schedule`; crash and churn events only for
    /// the nodes `owned` names, impairment edges always.
    pub(crate) fn new(
        plan: &FaultConfig,
        cfg: &ScenarioConfig,
        owned: impl Fn(usize) -> bool,
        mut schedule: impl FnMut(SimTime, SimEvent),
    ) -> FaultState {
        let n = cfg.nodes.count();
        let dur_s = cfg.duration.as_secs_f64();
        let at = |s: f64| SimTime::ZERO + Duration::from_secs_f64(s);
        let mut starts: Vec<f64> = Vec::new();
        let mut ends: Vec<f64> = Vec::new();
        if let Some(crashes) = &plan.crashes {
            for cw in crashes {
                // The fault *window* is global — every shard derives
                // identical phase boundaries — but the events
                // themselves are owner-only.
                let node = NodeId(cw.node);
                if owned(cw.node as usize) {
                    schedule(at(cw.at_s), SimEvent::NodeDown { node });
                }
                starts.push(cw.at_s);
                match cw.recover_s {
                    Some(r) => {
                        if owned(cw.node as usize) {
                            schedule(at(r), SimEvent::NodeUp { node });
                        }
                        ends.push(r.min(dur_s));
                    }
                    None => ends.push(dur_s),
                }
            }
        }
        if let Some(ch) = &plan.churn {
            let w0 = ch.start_s.unwrap_or(0.0);
            let w1 = ch.stop_s.unwrap_or(dur_s).min(dur_s);
            if w1 > w0 {
                starts.push(w0);
                ends.push(w1);
                for i in (0..n).filter(|&i| owned(i)) {
                    let mut rng = RngStream::derive_sub(cfg.seed, "faults.churn", i as u64);
                    let node = NodeId(i as u32);
                    let mut t = w0;
                    loop {
                        t += rng.exponential(ch.mean_uptime_s);
                        if t >= w1 {
                            break;
                        }
                        schedule(at(t), SimEvent::NodeDown { node });
                        let downtime = rng.exponential(ch.mean_downtime_s);
                        // A node still down when the window closes
                        // recovers at the window edge, so the "after"
                        // phase observes a healed network.
                        schedule(at((t + downtime).min(w1)), SimEvent::NodeUp { node });
                        t += downtime;
                        if t >= w1 {
                            break;
                        }
                    }
                }
            }
        }
        let bursts = plan.impairments.as_deref().unwrap_or(&[]);
        for (index, b) in bursts.iter().enumerate() {
            schedule(at(b.start_s), SimEvent::ImpairmentStart { index });
            schedule(at(b.stop_s), SimEvent::ImpairmentEnd { index });
            starts.push(b.start_s);
            ends.push(b.stop_s.min(dur_s));
        }
        FaultState {
            down: vec![false; n],
            burst_active: vec![false; bursts.len()],
            impair_gain: 1.0,
            noise_mult: 1.0,
            committed_mj: vec![0.0; n],
            energy_dead: vec![false; n],
            window_start: starts.iter().copied().reduce(f64::min).map(at),
            window_end: ends.iter().copied().reduce(f64::max).map(at),
            run_end: SimTime::ZERO + cfg.duration,
            crashes: 0,
            recoveries: 0,
            energy_deaths: 0,
            pending_repairs: Vec::new(),
            repairs_started: 0,
            repair_latency: pcmac_stats::StreamingQuantile::new(),
            records: Vec::new(),
        }
    }

    /// Merge per-shard fault states into the global one: per-node state is
    /// taken from each node's owner, counters are summed in shard order,
    /// and the classification records are merged by their global
    /// `(time, rank)` keys (a stable sort, so same-shard facts from one
    /// event keep their intra-event order; cross-shard key collisions are
    /// impossible because a rank pins the event to one node). Open repair
    /// observations are sorted by `(node, destination, first failure)`,
    /// so a merged state is the same whichever lanes it came from — and
    /// so are the checkpoint bytes written from it.
    pub(crate) fn merge(mut parts: Vec<FaultState>, owner: &[u32]) -> FaultState {
        let mut base = parts.remove(0);
        for (k, part) in parts.into_iter().enumerate() {
            let sid = k as u32 + 1;
            for (i, &o) in owner.iter().enumerate() {
                if o == sid {
                    base.down[i] = part.down[i];
                    base.committed_mj[i] = part.committed_mj[i];
                    base.energy_dead[i] = part.energy_dead[i];
                }
            }
            base.crashes += part.crashes;
            base.recoveries += part.recoveries;
            base.energy_deaths += part.energy_deaths;
            base.repairs_started += part.repairs_started;
            base.repair_latency.merge(&part.repair_latency);
            base.pending_repairs.extend(part.pending_repairs);
            base.records.extend(part.records);
        }
        base.pending_repairs.sort_unstable();
        base.records.sort_by_key(|&(t, r, _)| (t, r));
        base
    }

    /// The resilience report of the run `plan` was injected into.
    pub(crate) fn into_report(self, plan: &FaultConfig) -> ResilienceReport {
        // Replay the classification records in global processing order
        // against the static window, applying energy-death window
        // extensions exactly where the live path used to apply them.
        let mut ws = self.window_start;
        let mut we = self.window_end;
        let mut sent_phase = [0u64; 3];
        let mut delivered_phase = [0u64; 3];
        let mut reconverged_at = None;
        // Phase of instant `t`: 0 before, 1 during, 2 after the window.
        let phase = |ws: Option<SimTime>, we: Option<SimTime>, t: SimTime| match ws {
            Some(w) if t >= w => match we {
                Some(e) if t >= e => 2,
                _ => 1,
            },
            _ => 0,
        };
        for &(t, _, rec) in &self.records {
            match rec {
                FaultRecord::Sent => sent_phase[phase(ws, we, t)] += 1,
                FaultRecord::Delivered { created_at } => {
                    delivered_phase[phase(ws, we, created_at)] += 1;
                    if reconverged_at.is_none() && we.is_some_and(|e| t >= e) {
                        reconverged_at = Some(t);
                    }
                }
                FaultRecord::EnergyDeath { death_at } => {
                    if ws.is_none_or(|w| death_at < w) {
                        ws = Some(death_at);
                    }
                    we = Some(self.run_end);
                    // The window now reaches the end of the run: a
                    // delivery after the *old* window end no longer
                    // follows the window (and would lie before its end).
                    reconverged_at = None;
                }
            }
        }
        let pdr = |d: u64, s: u64| if s == 0 { 0.0 } else { d as f64 / s as f64 };
        let residual = plan
            .energy_budget_mj
            .map(|b| self.committed_mj.iter().map(|c| (b - c).max(0.0)).collect());
        ResilienceReport {
            window_start_s: ws.map(SimTime::as_secs_f64),
            window_end_s: we.map(SimTime::as_secs_f64),
            sent_before: sent_phase[0],
            sent_during: sent_phase[1],
            sent_after: sent_phase[2],
            delivered_before: delivered_phase[0],
            delivered_during: delivered_phase[1],
            delivered_after: delivered_phase[2],
            pdr_before: pdr(delivered_phase[0], sent_phase[0]),
            pdr_during: pdr(delivered_phase[1], sent_phase[1]),
            pdr_after: pdr(delivered_phase[2], sent_phase[2]),
            crashes: self.crashes,
            recoveries: self.recoveries,
            energy_deaths: self.energy_deaths,
            dead_nodes_end: self.down.iter().filter(|d| **d).count() as u64,
            repairs_started: self.repairs_started,
            repairs_completed: self.repair_latency.count(),
            repair_latency: LatencySummary::from_streaming(&self.repair_latency),
            reconverged_after_s: match (reconverged_at, we) {
                (Some(t), Some(e)) => Some((t - e).as_secs_f64()),
                _ => None,
            },
            residual_energy_mj: residual,
        }
    }

    /// Take `loaded`, a checkpoint's fault section, in place of this
    /// freshly built state, refusing it unless its node and burst counts
    /// are this scenario's and its open repairs name its nodes. Per-node flags and the global impairment
    /// products replicate everywhere (every lane needs them to
    /// dispatch); cumulative counters, the latency sketch and the
    /// classification records stay only on the `primary` lane
    /// (single-threaded, or region shard 0) so the post-run merge sums
    /// back to the uninterrupted totals. Open repair observations stay
    /// on the lane owning their node per `shard` (`None` keeps them all).
    pub(crate) fn restore(
        &mut self,
        loaded: &FaultState,
        primary: bool,
        shard: Option<(&[u32], u32)>,
    ) -> Result<(), &'static str> {
        let n = self.down.len();
        if [
            loaded.down.len(),
            loaded.committed_mj.len(),
            loaded.energy_dead.len(),
        ] != [n; 3]
        {
            return Err("fault node count");
        }
        if loaded.burst_active.len() != self.burst_active.len() {
            return Err("fault burst count");
        }
        if loaded
            .pending_repairs
            .iter()
            .any(|&(node, _, _)| node as usize >= n)
        {
            return Err("fault repair node");
        }
        *self = loaded.clone();
        self.pending_repairs
            .retain(|&(node, _, _)| shard.is_none_or(|(owner, id)| owner[node as usize] == id));
        if !primary {
            self.crashes = 0;
            self.recoveries = 0;
            self.energy_deaths = 0;
            self.repairs_started = 0;
            self.repair_latency = pcmac_stats::StreamingQuantile::new();
            self.records.clear();
        }
        Ok(())
    }
}

impl Snap for FaultRecord {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            FaultRecord::Sent => w.u8(0),
            FaultRecord::Delivered { created_at } => {
                w.u8(1);
                created_at.save(w);
            }
            FaultRecord::EnergyDeath { death_at } => {
                w.u8(2);
                death_at.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => FaultRecord::Sent,
            1 => FaultRecord::Delivered {
                created_at: Snap::load(r)?,
            },
            2 => FaultRecord::EnergyDeath {
                death_at: Snap::load(r)?,
            },
            _ => return Err(SnapError::Corrupt("fault record tag")),
        })
    }
}

pcmac_snap::snap_struct!(FaultState {
    down,
    burst_active,
    impair_gain,
    noise_mult,
    committed_mj,
    energy_dead,
    window_start,
    window_end,
    run_end,
    crashes,
    recoveries,
    energy_deaths,
    pending_repairs,
    repairs_started,
    repair_latency,
    records,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn full_plan() -> FaultConfig {
        FaultConfig {
            crashes: Some(vec![
                CrashWindow {
                    node: 3,
                    at_s: 2.0,
                    recover_s: Some(4.0),
                },
                CrashWindow {
                    node: 1,
                    at_s: 5.0,
                    recover_s: None,
                },
            ]),
            churn: Some(ChurnConfig {
                mean_uptime_s: 12.0,
                mean_downtime_s: 3.0,
                start_s: Some(1.0),
                stop_s: Some(9.0),
            }),
            expire_routes: Some(true),
            impairments: Some(vec![ImpairmentBurst {
                start_s: 2.5,
                stop_s: 3.5,
                extra_loss_db: 6.0,
                noise_mult: Some(4.0),
            }]),
            energy_budget_mj: Some(250.0),
        }
    }

    #[test]
    fn serde_round_trip_preserves_plan() {
        let plan = full_plan();
        let json = serde_json::to_string_pretty(&plan).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // An all-None plan survives too (and is what a missing key parses as).
        let empty = FaultConfig::default();
        let back: FaultConfig =
            serde_json::from_str(&serde_json::to_string(&empty).unwrap()).unwrap();
        assert_eq!(empty, back);
    }

    #[test]
    fn validation_collects_every_defect() {
        let plan = FaultConfig {
            crashes: Some(vec![CrashWindow {
                node: 99,
                at_s: -1.0,
                recover_s: Some(-2.0),
            }]),
            churn: Some(ChurnConfig {
                mean_uptime_s: 0.0,
                mean_downtime_s: f64::NAN,
                start_s: Some(50.0),
                stop_s: Some(1.0),
            }),
            expire_routes: None,
            impairments: Some(vec![ImpairmentBurst {
                start_s: 5.0,
                stop_s: 4.0,
                extra_loss_db: -3.0,
                noise_mult: Some(0.5),
            }]),
            energy_budget_mj: Some(0.0),
        };
        let mut problems = Vec::new();
        plan.collect_problems(10, 10.0, &mut problems);
        for needle in [
            "out of range",
            "crash time",
            "recovery time",
            "mean uptime",
            "mean downtime",
            "after start",
            "extra loss",
            "noise multiplier",
            "energy budget",
            "beyond the",
        ] {
            assert!(
                problems.iter().any(|p| p.contains(needle)),
                "expected a problem containing {needle:?}, got {problems:?}"
            );
        }
        let mut clean = Vec::new();
        full_plan().collect_problems(10, 10.0, &mut clean);
        assert!(clean.is_empty(), "valid plan rejected: {clean:?}");
    }
}
