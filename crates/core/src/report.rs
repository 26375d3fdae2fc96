//! Run reports: the numbers the paper's figures are made of.

use serde::{Deserialize, Serialize};

use pcmac_mac::MacCounters;

use crate::config::ScenarioConfig;
use crate::metrics::SimMetrics;
use crate::node::Node;

/// Routing-layer aggregate counters (mirrors `pcmac_aodv::AodvCounters`
/// into a serialisable report shape).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RoutingCounters {
    /// RREQ floods originated.
    pub rreq_originated: u64,
    /// RREQs rebroadcast.
    pub rreq_forwarded: u64,
    /// RREPs generated.
    pub rrep_generated: u64,
    /// RREPs forwarded.
    pub rrep_forwarded: u64,
    /// RERRs sent.
    pub rerr_sent: u64,
    /// Discoveries that gave up.
    pub discoveries_failed: u64,
    /// Data packets forwarded.
    pub data_forwarded: u64,
    /// Packets dropped by routing.
    pub drops: u64,
}

/// Per-flow delivery outcome (the paper's fairness discussion: a
/// high-power pair must not suppress a nearby low-power pair).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowReport {
    /// Flow id.
    pub flow: u32,
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Application packets emitted.
    pub sent: u64,
    /// Packets delivered at the destination.
    pub delivered: u64,
    /// Mean end-to-end delay of delivered packets (ms).
    pub mean_delay_ms: f64,
}

impl FlowReport {
    /// Per-flow packet delivery ratio.
    pub fn pdr(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

/// Summary statistics over a latency sample (route-repair times).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency (seconds).
    pub mean_s: f64,
    /// 95th-percentile latency (seconds).
    pub p95_s: f64,
    /// Worst latency (seconds).
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarise a latency sample; `None` when it is empty. The sample
    /// is sorted internally, so call order does not matter.
    pub fn from_samples(samples: &[f64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p95 = sorted[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
        Some(LatencySummary {
            count: n as u64,
            mean_s: sorted.iter().sum::<f64>() / n as f64,
            p95_s: p95,
            max_s: sorted[n - 1],
        })
    }

    /// Summarise a streaming estimator. While the population still fits
    /// the estimator's exact window this defers to
    /// [`LatencySummary::from_samples`] over the verbatim samples —
    /// bit-identical to the historical grow-a-`Vec` path — and beyond it
    /// reads the estimator's deterministic bucket summary.
    pub fn from_streaming(q: &pcmac_stats::StreamingQuantile) -> Option<LatencySummary> {
        if q.count() == 0 {
            return None;
        }
        if q.is_exact() {
            return LatencySummary::from_samples(q.exact_samples());
        }
        Some(LatencySummary {
            count: q.count(),
            mean_s: q.mean_s(),
            p95_s: q.quantile_s(0.95),
            max_s: q.max_s(),
        })
    }
}

/// How the network behaved around the fault window. Present on a
/// [`RunReport`] exactly when the scenario carried a fault plan; every
/// field is derived from the deterministic event stream, so it takes
/// part in the bit-identity proof obligation.
///
/// The *fault window* is `[window_start_s, window_end_s)`: from the
/// first scheduled fault activation to the last deactivation (a
/// permanent crash or an exhausted energy budget extends the window to
/// the end of the run). "Before"/"during"/"after" classify application
/// packets by *emission* time; a packet is counted as delivered in the
/// phase it was sent in, so each phase's delivery ratio measures the
/// fate of the traffic offered in that phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// First fault activation (seconds; `None` when an energy-budget-only
    /// plan never killed a node).
    pub window_start_s: Option<f64>,
    /// Last fault deactivation (seconds).
    pub window_end_s: Option<f64>,
    /// Application packets emitted before the fault window.
    pub sent_before: u64,
    /// Application packets emitted during the fault window.
    pub sent_during: u64,
    /// Application packets emitted after the fault window.
    pub sent_after: u64,
    /// Delivered packets that were emitted before the window.
    pub delivered_before: u64,
    /// Delivered packets that were emitted during the window.
    pub delivered_during: u64,
    /// Delivered packets that were emitted after the window.
    pub delivered_after: u64,
    /// Delivery ratio of pre-window traffic.
    pub pdr_before: f64,
    /// Delivery ratio of in-window traffic.
    pub pdr_during: f64,
    /// Delivery ratio of post-window traffic.
    pub pdr_after: f64,
    /// Node-down transitions applied (scheduled, churn, and energy).
    pub crashes: u64,
    /// Node-up transitions applied.
    pub recoveries: u64,
    /// Nodes that exhausted their energy budget.
    pub energy_deaths: u64,
    /// Nodes still down when the run ended.
    pub dead_nodes_end: u64,
    /// Route repairs started (first link failure per (node, destination)).
    pub repairs_started: u64,
    /// Route repairs that completed (data flowed to that destination again).
    pub repairs_completed: u64,
    /// Distribution of completed repair latencies.
    pub repair_latency: Option<LatencySummary>,
    /// Seconds from the fault-window end to the first delivery after it
    /// (`None` if the window reaches the end of the run or nothing was
    /// delivered afterwards).
    pub reconverged_after_s: Option<f64>,
    /// Per-node remaining energy budget (mJ), when a budget was set.
    pub residual_energy_mj: Option<Vec<f64>>,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Scenario label.
    pub name: String,
    /// Protocol under test (paper naming).
    pub protocol: String,
    /// Master seed.
    pub seed: u64,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Aggregate offered application load (kbit/s).
    pub offered_load_kbps: f64,
    /// Application packets emitted by all sources.
    pub sent_packets: u64,
    /// Application packets delivered to their destinations.
    pub delivered_packets: u64,
    /// Aggregate network throughput (kbit/s of delivered application
    /// payload) — the paper's Figure 8 metric. The payload is divided by
    /// the whole simulated duration, although flow `i` of the generated
    /// scenarios starts emitting only at 1 s + 137 ms·`i`
    /// ([`flow_start`](crate::config::flow_start)): a short run reads
    /// below the rate its flows sustained while they were on. Scale by
    /// the duration over the flows' active time before comparing it with
    /// a saturation model.
    pub throughput_kbps: f64,
    /// Mean end-to-end delay (ms) over delivered packets — the paper's
    /// Figure 9 metric. `0` when nothing arrived.
    pub mean_delay_ms: f64,
    /// Median delivered-packet delay (ms, bucket upper edge).
    pub delay_p50_ms: f64,
    /// 95th-percentile delivered-packet delay (ms, bucket upper edge).
    pub delay_p95_ms: f64,
    /// Worst delivered-packet delay (ms).
    pub max_delay_ms: f64,
    /// Network-wide MAC counters.
    pub mac: MacCounters,
    /// Network-wide routing counters.
    pub routing: RoutingCounters,
    /// Total radiated energy across all nodes (mJ).
    pub radiated_mj: f64,
    /// Radiated energy per delivered packet (mJ; `inf` if none arrived).
    pub radiated_mj_per_packet: f64,
    /// Events processed (simulation cost diagnostics).
    pub events: u64,
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// Per-flow breakdown (fairness analysis).
    pub flows: Vec<FlowReport>,
    /// Resilience metrics (`Some` exactly when the scenario carried a
    /// fault plan). Kept optional so report JSON predating the fault
    /// layer parses unchanged.
    pub resilience: Option<ResilienceReport>,
    /// Observability metrics (`Some` exactly when the scenario enabled
    /// the metrics layer). Derived from the deterministic event stream
    /// and free of wall-clock values, so it takes part in the
    /// bit-identity proof obligation. Kept optional so report JSON
    /// predating the metrics layer parses unchanged.
    pub metrics: Option<SimMetrics>,
}

impl RunReport {
    /// Packet delivery ratio in `[0, 1]`.
    pub fn pdr(&self) -> f64 {
        if self.sent_packets == 0 {
            0.0
        } else {
            self.delivered_packets as f64 / self.sent_packets as f64
        }
    }

    /// Jain's fairness index over per-flow delivery counts:
    /// `(Σx)² / (n·Σx²)`, 1 = perfectly fair, `1/n` = one flow takes all.
    /// Quantifies the paper's §III consequence 3 (high-power pairs must
    /// not suppress low-power pairs).
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.flows.iter().map(|f| f.delivered as f64).collect();
        let n = xs.len() as f64;
        if n == 0.0 {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            return 1.0; // nothing delivered anywhere: vacuously fair
        }
        sum * sum / (n * sum_sq)
    }

    pub(crate) fn build(
        cfg: &ScenarioConfig,
        nodes: &[&Node],
        sent_packets: u64,
        events: u64,
        wall_s: f64,
        resilience: Option<ResilienceReport>,
        metrics: Option<SimMetrics>,
    ) -> RunReport {
        let mut delivered = 0u64;
        let mut bytes = 0u64;
        let mut delay_sum_ns = 0u64;
        let mut max_delay_ns = 0u64;
        let mut mac = MacCounters::default();
        let mut routing = RoutingCounters::default();
        let mut radiated_mj = 0.0;
        let mut delay_hist: Option<pcmac_stats::Histogram> = None;

        for node in nodes {
            delivered += node.sink.total_received();
            bytes += node.sink.total_bytes();
            for (_, f) in node.sink.flows() {
                delay_sum_ns += f.delay_sum().as_nanos();
                max_delay_ns = max_delay_ns.max(f.max_delay.as_nanos());
            }
            match (&mut delay_hist, node.sink.delay_histogram()) {
                (Some(h), Some(d)) => h.merge(d),
                (None, Some(d)) => delay_hist = Some(d.clone()),
                (_, None) => {}
            }
            mac.merge(&node.mac.counters);
            let a = &node.aodv.counters;
            routing.rreq_originated += a.rreq_originated;
            routing.rreq_forwarded += a.rreq_forwarded;
            routing.rrep_generated += a.rrep_generated;
            routing.rrep_forwarded += a.rrep_forwarded;
            routing.rerr_sent += a.rerr_sent;
            routing.discoveries_failed += a.discoveries_failed;
            routing.data_forwarded += a.data_forwarded;
            routing.drops += a.drops;
            radiated_mj += node.energy.radiated_mj();
        }

        let duration_s = cfg.duration.as_secs_f64();
        let throughput_kbps = bytes as f64 * 8.0 / duration_s / 1000.0;
        let mean_delay_ms = if delivered > 0 {
            delay_sum_ns as f64 / delivered as f64 / 1e6
        } else {
            0.0
        };
        let (delay_p50_ms, delay_p95_ms) = delay_hist
            .as_ref()
            .map(|h| {
                (
                    h.quantile(0.5).unwrap_or(0.0),
                    h.quantile(0.95).unwrap_or(0.0),
                )
            })
            .unwrap_or((0.0, 0.0));

        let flows = cfg
            .flows
            .iter()
            .map(|spec| {
                let sent = nodes[spec.src.index()]
                    .sources
                    .iter()
                    .find(|s| s.flow() == spec.flow)
                    .map(|s| s.emitted())
                    .unwrap_or(0);
                let (fl_delivered, fl_delay_ms) = nodes[spec.dst.index()]
                    .sink
                    .flow(spec.flow)
                    .map(|f| {
                        (
                            f.received,
                            f.mean_delay().map(|d| d.as_millis_f64()).unwrap_or(0.0),
                        )
                    })
                    .unwrap_or((0, 0.0));
                FlowReport {
                    flow: spec.flow.0,
                    src: spec.src.0,
                    dst: spec.dst.0,
                    sent,
                    delivered: fl_delivered,
                    mean_delay_ms: fl_delay_ms,
                }
            })
            .collect();

        RunReport {
            name: cfg.name.clone(),
            protocol: cfg.variant.name().to_string(),
            seed: cfg.seed,
            duration_s,
            offered_load_kbps: cfg.offered_load_kbps(),
            sent_packets,
            delivered_packets: delivered,
            throughput_kbps,
            mean_delay_ms,
            delay_p50_ms,
            delay_p95_ms,
            max_delay_ms: max_delay_ns as f64 / 1e6,
            mac,
            routing,
            radiated_mj,
            radiated_mj_per_packet: if delivered > 0 {
                radiated_mj / delivered as f64
            } else {
                f64::INFINITY
            },
            events,
            wall_s,
            flows,
            resilience,
            metrics,
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<13} load {:>6.0} kbps | thpt {:>7.1} kbps | delay {:>8.2} ms | pdr {:>5.1}% | sent {:>6} dlvd {:>6}",
            self.protocol,
            self.offered_load_kbps,
            self.throughput_kbps,
            self.mean_delay_ms,
            self.pdr() * 100.0,
            self.sent_packets,
            self.delivered_packets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdr_handles_zero_sent() {
        let r = RunReport {
            name: "x".into(),
            protocol: "Basic 802.11".into(),
            seed: 0,
            duration_s: 1.0,
            offered_load_kbps: 0.0,
            sent_packets: 0,
            delivered_packets: 0,
            throughput_kbps: 0.0,
            mean_delay_ms: 0.0,
            delay_p50_ms: 0.0,
            delay_p95_ms: 0.0,
            max_delay_ms: 0.0,
            mac: MacCounters::default(),
            routing: RoutingCounters::default(),
            radiated_mj: 0.0,
            radiated_mj_per_packet: f64::INFINITY,
            events: 0,
            wall_s: 0.0,
            flows: Vec::new(),
            resilience: None,
            metrics: None,
        };
        assert_eq!(r.pdr(), 0.0);
        assert!(r.summary().contains("Basic 802.11"));
        assert_eq!(r.jain_fairness(), 1.0, "empty run is vacuously fair");
    }

    #[test]
    fn jain_index_extremes() {
        let mk_flow = |flow, delivered| FlowReport {
            flow,
            src: 0,
            dst: 1,
            sent: 100,
            delivered,
            mean_delay_ms: 0.0,
        };
        let mut r = RunReport {
            name: "x".into(),
            protocol: "PCMAC".into(),
            seed: 0,
            duration_s: 1.0,
            offered_load_kbps: 0.0,
            sent_packets: 200,
            delivered_packets: 100,
            throughput_kbps: 0.0,
            mean_delay_ms: 0.0,
            delay_p50_ms: 0.0,
            delay_p95_ms: 0.0,
            max_delay_ms: 0.0,
            mac: MacCounters::default(),
            routing: RoutingCounters::default(),
            radiated_mj: 0.0,
            radiated_mj_per_packet: 0.0,
            events: 0,
            wall_s: 0.0,
            flows: vec![mk_flow(0, 50), mk_flow(1, 50)],
            resilience: None,
            metrics: None,
        };
        assert!(
            (r.jain_fairness() - 1.0).abs() < 1e-12,
            "equal split is fair"
        );
        r.flows = vec![mk_flow(0, 100), mk_flow(1, 0)];
        assert!(
            (r.jain_fairness() - 0.5).abs() < 1e-12,
            "winner-takes-all → 1/n"
        );
    }

    #[test]
    fn latency_summary_orders_and_bounds() {
        assert_eq!(LatencySummary::from_samples(&[]), None);
        let s = LatencySummary::from_samples(&[0.3, 0.1, 0.2]).unwrap();
        assert_eq!(s.count, 3);
        assert!((s.mean_s - 0.2).abs() < 1e-12);
        assert_eq!(s.max_s, 0.3);
        assert_eq!(s.p95_s, 0.3);
        let one = LatencySummary::from_samples(&[0.5]).unwrap();
        assert_eq!((one.p95_s, one.max_s), (0.5, 0.5));
    }
}
