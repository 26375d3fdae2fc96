//! Deterministic fault injection.
//!
//! A [`FaultConfig`] layers failures on top of an otherwise healthy
//! scenario: scheduled node crashes, seeded crash/recover churn,
//! transient channel impairment bursts, and per-node energy budgets.
//! Everything is derived from the master seed and the static schedule,
//! so the same seed plus the same fault plan produces bit-identical
//! reports regardless of channel-index, mobility-refresh, or gain-cache
//! mode — the fault layer never touches the spatial data structures.
//!
//! All fields are optional so scenario JSON predating the fault layer
//! parses unchanged.

use serde::{Deserialize, Serialize};

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
    /// `true` when the plan can actually take a node down or impair the
    /// channel.
    pub fn is_active(&self) -> bool {
        self.crashes.as_ref().is_some_and(|c| !c.is_empty())
            || self.churn.is_some()
            || self.impairments.as_ref().is_some_and(|i| !i.is_empty())
            || self.energy_budget_mj.is_some()
    }

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
        assert!(!empty.is_active());
        assert!(plan.is_active());
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
