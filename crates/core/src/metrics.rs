//! The observability layer: per-layer counters, time-series probes, and
//! a packet-fate drop taxonomy.
//!
//! A [`RunReport`](crate::RunReport) says *what* happened (PDR, latency,
//! energy); this module records *why* — which layer dropped every
//! undelivered packet, how busy the channel was over time, how hard the
//! MAC retried, and what the channel hot path cost. Everything here is
//! opt-in via [`MetricsConfig`] (`cfg.metrics = Some(..)`) and obeys two
//! contracts:
//!
//! * **Zero behavioral cost.** Collection only *reads* the deterministic
//!   event stream. A metrics-on run is bit-identical in behavior to a
//!   metrics-off run: the periodic
//!   [`SimEvent::MetricsProbe`](crate::SimEvent::MetricsProbe) events
//!   never mutate protocol state, and their queue insertions shift
//!   sequence numbers monotonically without reordering any other pair
//!   of events.
//! * **Bit-identical metrics.** [`SimMetrics`] carries no wall-clock
//!   values and every field is derived from the event stream, so the
//!   metrics section itself is identical across reruns and between the
//!   production channel and the reference scan, hot-path work counts
//!   aside (`channel_equivalence` proves both).
//!
//! The drop taxonomy is conservation-complete by construction: every
//! application packet is registered at emission and assigned exactly one
//! terminal fate (delivered, one of six drop reasons, or still in flight
//! at the end of the run), so the [`DropTaxonomy`] counts always sum to
//! `sent`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use pcmac_aodv::DropReason;
use pcmac_engine::{Duration, Milliwatts, PacketId, SimTime};
use pcmac_phy::SparseCacheStats;

use crate::node::Node;
use crate::report::LatencySummary;

/// Number of buckets in the MAC retransmission histogram: bucket `k`
/// counts exchanges that took `k` retries (short + long), the last
/// bucket is `>= 7`.
pub const RETX_BUCKETS: usize = 8;

/// Number of buckets in the per-node radiated-energy histogram.
pub const ENERGY_BUCKETS: usize = 16;

/// Enables the observability layer on a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsConfig {
    /// Seconds between time-series probe samples. Must be finite and
    /// round to at least 1 ns; one [`ProbeSample`] is recorded at every
    /// multiple of this interval that falls inside the run.
    pub probe_interval_s: f64,
}

impl MetricsConfig {
    /// The probe period, rounded to whole nanoseconds.
    pub(crate) fn interval(&self) -> Duration {
        Duration::from_secs_f64(self.probe_interval_s)
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            probe_interval_s: 1.0,
        }
    }
}

/// One fixed-interval time-series sample, taken by the periodic
/// `MetricsProbe` event. Faulted runs show the dip-and-recover curve
/// here rather than only the phase-split scalars of the resilience
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeSample {
    /// Simulated time of the sample (seconds).
    pub t_s: f64,
    /// Nodes currently up (not crashed / energy-dead).
    pub live_nodes: u64,
    /// Live nodes whose data radio observed a busy carrier.
    pub busy_nodes: u64,
    /// `busy_nodes / live_nodes` (`0` when no node is live).
    pub busy_fraction: f64,
    /// Mean MAC interface-queue depth over live nodes (including the
    /// in-service frame).
    pub mean_queue_len: f64,
    /// Application packets emitted so far (cumulative).
    pub sent_cum: u64,
    /// Application packets delivered so far (cumulative).
    pub delivered_cum: u64,
}

/// Where every undelivered application packet went. Counts are derived
/// from a per-packet fate map, so they are conservation-complete:
/// `sent == delivered_unique + emit_dead + mac_queue_full + no_route +
/// buffer_overflow + buffer_timeout + ttl_expired + in_flight_end`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropTaxonomy {
    /// Application packets emitted.
    pub sent: u64,
    /// Distinct packets delivered to their destination sink.
    pub delivered_unique: u64,
    /// Deliveries of a packet that had already arrived once.
    pub duplicate_deliveries: u64,
    /// Emitted while the source node was down (lost on the spot).
    pub emit_dead: u64,
    /// Rejected by a full MAC interface queue.
    pub mac_queue_full: u64,
    /// Dropped by routing: no route after discovery failed or an
    /// unsalvageable link break.
    pub no_route: u64,
    /// Dropped by routing: discovery buffer overflowed.
    pub buffer_overflow: u64,
    /// Dropped by routing: buffered longer than the discovery timeout.
    pub buffer_timeout: u64,
    /// Dropped by routing: hop budget exhausted.
    pub ttl_expired: u64,
    /// Still queued, buffered, or in the air when the run ended.
    pub in_flight_end: u64,
}

impl DropTaxonomy {
    /// Packets assigned a terminal drop reason.
    pub fn total_dropped(&self) -> u64 {
        self.emit_dead
            + self.mac_queue_full
            + self.no_route
            + self.buffer_overflow
            + self.buffer_timeout
            + self.ttl_expired
    }

    /// `true` iff the counts account for every emitted packet.
    pub fn conserved(&self) -> bool {
        self.sent == self.delivered_unique + self.total_dropped() + self.in_flight_end
    }
}

/// MAC-layer outcome counters, network-wide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MacMetrics {
    /// RTS frames transmitted.
    pub rts_sent: u64,
    /// Unicast DATA frames transmitted (including retries).
    pub data_sent: u64,
    /// CTS timeouts (RTS attempt failed).
    pub cts_timeouts: u64,
    /// ACK timeouts (DATA attempt failed).
    pub ack_timeouts: u64,
    /// Packets dropped after exhausting retries.
    pub retry_drops: u64,
    /// Packets rejected by full interface queues.
    pub queue_drops: u64,
    /// Corrupted receptions observed (collision indicator).
    pub rx_errors: u64,
    /// Retry-count distribution over finished exchanges: bucket `k`
    /// counts exchanges finished after `k` retries, bucket 7 is `>= 7`.
    pub retx_histogram: Vec<u64>,
}

/// PHY-layer arrival fates on the data channel: the frame-level drop
/// taxonomy (why receivers failed to decode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhyMetrics {
    /// Frame arrivals observed (every receiver of every transmission).
    pub arrivals: u64,
    /// Arrivals decoded successfully.
    pub decoded_ok: u64,
    /// Locked arrivals corrupted by overlapping power (collisions).
    pub collided: u64,
    /// Successful decodes that survived at least one overlapping
    /// arrival (capture effect wins).
    pub capture_wins: u64,
    /// Addressed arrivals lost because the radio was already locked to
    /// another frame (captured away).
    pub captured_away: u64,
    /// Addressed arrivals below the receive threshold (heard as noise
    /// at most).
    pub below_rx_thresh: u64,
    /// Addressed arrivals missed because the receiver was transmitting.
    pub missed_while_tx: u64,
    /// Arrivals that began during an active channel-impairment burst.
    pub impaired_arrivals: u64,
}

/// Routing-layer control overhead and discovery latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingMetrics {
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
    /// Route discoveries started.
    pub discoveries_started: u64,
    /// Route discoveries that gave up.
    pub discoveries_failed: u64,
    /// Seconds from discovery start to the route becoming usable, over
    /// completed discoveries (`None` when none completed).
    pub discovery_latency: Option<LatencySummary>,
}

/// TX-power usage and per-node radiated-energy distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxPowerMetrics {
    /// The scenario's discrete power levels (mW), index-aligned with
    /// `data_tx_by_level`.
    pub levels_mw: Vec<f64>,
    /// Data-channel transmissions per power level.
    pub data_tx_by_level: Vec<u64>,
    /// Data-channel transmissions at a power matching no listed level
    /// (always 0 for the paper's variants; a guard, not a bucket).
    pub data_tx_unclassified: u64,
    /// Control-channel broadcasts (PCMAC tolerance frames).
    pub ctrl_tx: u64,
    /// Per-node radiated energy histogram; bucket width is
    /// `energy_bucket_mj`, the last bucket is open-ended.
    pub energy_histogram: Vec<u64>,
    /// Width of one energy histogram bucket (mJ).
    pub energy_bucket_mj: f64,
    /// Mean radiated energy per node (mJ).
    pub energy_mean_mj: f64,
    /// Highest per-node radiated energy (mJ).
    pub energy_max_mj: f64,
}

/// Hot-path self-profiling counters: what the channel maintenance
/// machinery did during the run. Pure work counts — no wall-clock
/// values — so the profile is bit-identical across reruns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotPathProfile {
    /// Spatial-index receiver queries issued, one per row built. Where
    /// static transmitters keep receiver rows, that is one per distinct
    /// transmitter, when its row is first built (a row rebuilt after a
    /// restore is not counted again). Where mobile ones keep candidate
    /// rows, it is one per read — the first, and each after the index
    /// moved under the row — and a restore, which keeps no row, makes
    /// every transmitter read again: like `grid_candidates` and
    /// `exact_samples`, the count depends on the index's history, so a
    /// resumed mobile run may count more than the uninterrupted one.
    /// With unbounded reach nothing is kept: one per transmission.
    pub grid_queries: u64,
    /// Candidate receivers returned across all queries; where static
    /// rows are kept, the neighbours stored.
    pub grid_candidates: u64,
    /// Position-refresh deadline pops processed.
    pub refresh_pops: u64,
    /// Position-refresh deadlines re-armed. Always 0 since candidate
    /// sampling stopped extending deadlines (only the deadline chain
    /// schedules them); kept so reports keep their shape — the repo
    /// benchmark's digest hashes the report's keys — but no snapshot
    /// writes it (version 4 on).
    pub refresh_rearms: u64,
    /// Exact position samples taken for the physics (transmitters,
    /// candidates and deadline refreshes; at most one per node per
    /// instant).
    pub exact_samples: u64,
    /// Metrics probe events processed.
    pub probes: u64,
    /// Always `None`: the block-sparse gain cache these counters
    /// described is gone (receiver rows replay gains instead). The field
    /// stays until the repo benchmark, which reads it, can change.
    pub sparse_cache: Option<SparseCacheStats>,
}

/// The serialized observability section of a
/// [`RunReport`](crate::RunReport): per-layer counters, the probe time
/// series, the drop taxonomy, and the hot-path profile. Contains no
/// wall-clock values — events/sec lives beside it in campaign artifacts,
/// computed from `RunReport::{events, wall_s}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// The probe interval the time series was sampled at (seconds).
    pub probe_interval_s: f64,
    /// Fixed-interval time-series samples, in time order.
    pub samples: Vec<ProbeSample>,
    /// Packet-fate accounting (conservation-complete).
    pub drops: DropTaxonomy,
    /// MAC outcome counters + retry histogram.
    pub mac: MacMetrics,
    /// PHY arrival fates (frame-level drop taxonomy).
    pub phy: PhyMetrics,
    /// Routing control overhead + discovery latency.
    pub routing: RoutingMetrics,
    /// TX-power usage and energy distribution.
    pub tx_power: TxPowerMetrics,
    /// Channel hot-path self-profiling counters.
    pub hot_path: HotPathProfile,
}

/// Terminal fate of one application packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Emitted, no terminal outcome observed yet.
    InFlight,
    /// Reached its destination sink.
    Delivered,
    /// Dropped; the first recorded reason wins. The `(time, rank)` of
    /// the dropping event travels with it in a checkpoint.
    Dropped {
        /// The first recorded reason.
        reason: Drop,
        /// When the drop was recorded.
        t: SimTime,
        /// Rank of the recording event (tie-break at equal times).
        rank: u128,
    },
}

/// The six terminal drop reasons of the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drop {
    /// Emitted while the source was down.
    EmitDead,
    /// MAC interface queue full.
    MacQueueFull,
    /// Routing: no route.
    NoRoute,
    /// Routing: discovery buffer overflow.
    BufferOverflow,
    /// Routing: discovery buffer timeout.
    BufferTimeout,
    /// Routing: TTL exhausted.
    TtlExpired,
}

impl From<DropReason> for Drop {
    fn from(r: DropReason) -> Drop {
        match r {
            DropReason::NoRoute => Drop::NoRoute,
            DropReason::BufferOverflow => Drop::BufferOverflow,
            DropReason::BufferTimeout => Drop::BufferTimeout,
            DropReason::TtlExpired => Drop::TtlExpired,
        }
    }
}

/// One probe sample in raw integer form (see [`MetricsState::samples`]).
#[derive(Debug, Clone, Copy)]
struct RawSample {
    t: SimTime,
    live: u64,
    busy: u64,
    queue_sum: u64,
    sent_cum: u64,
    delivered_cum: u64,
}

mod snap {
    //! Wire format for the metrics checkpoint section.

    use super::{Drop, Fate, HotPathProfile, MetricsState, PhyMetrics, RawSample};
    use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

    impl Snap for Drop {
        fn save(&self, w: &mut SnapWriter) {
            w.u8(match self {
                Drop::EmitDead => 0,
                Drop::MacQueueFull => 1,
                Drop::NoRoute => 2,
                Drop::BufferOverflow => 3,
                Drop::BufferTimeout => 4,
                Drop::TtlExpired => 5,
            });
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.u8()? {
                0 => Drop::EmitDead,
                1 => Drop::MacQueueFull,
                2 => Drop::NoRoute,
                3 => Drop::BufferOverflow,
                4 => Drop::BufferTimeout,
                5 => Drop::TtlExpired,
                _ => return Err(SnapError::Corrupt("drop tag")),
            })
        }
    }

    impl Snap for Fate {
        fn save(&self, w: &mut SnapWriter) {
            match self {
                Fate::InFlight => w.u8(0),
                Fate::Delivered => w.u8(1),
                Fate::Dropped { reason, t, rank } => {
                    w.u8(2);
                    reason.save(w);
                    t.save(w);
                    w.u128(*rank);
                }
            }
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(match r.u8()? {
                0 => Fate::InFlight,
                1 => Fate::Delivered,
                2 => Fate::Dropped {
                    reason: Snap::load(r)?,
                    t: Snap::load(r)?,
                    rank: r.u128()?,
                },
                _ => return Err(SnapError::Corrupt("fate tag")),
            })
        }
    }

    impl Snap for HotPathProfile {
        fn save(&self, w: &mut SnapWriter) {
            // `sparse_cache` is always `None`; the image omits it.
            w.u64(self.grid_queries);
            w.u64(self.grid_candidates);
            w.u64(self.refresh_pops);
            w.u64(self.exact_samples);
            w.u64(self.probes);
        }
        fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(HotPathProfile {
                grid_queries: r.u64()?,
                grid_candidates: r.u64()?,
                refresh_pops: r.u64()?,
                refresh_rearms: 0,
                exact_samples: r.u64()?,
                probes: r.u64()?,
                sparse_cache: None,
            })
        }
    }

    pcmac_snap::snap_struct!(PhyMetrics {
        arrivals,
        decoded_ok,
        collided,
        capture_wins,
        captured_away,
        below_rx_thresh,
        missed_while_tx,
        impaired_arrivals,
    });

    pcmac_snap::snap_struct!(RawSample {
        t,
        live,
        busy,
        queue_sum,
        sent_cum,
        delivered_cum,
    });

    pcmac_snap::snap_struct!(MetricsState {
        probes_scheduled,
        samples,
        sent,
        delivered_cum,
        duplicate_deliveries,
        fates,
        phy,
        rx_overlap,
        data_tx_by_level,
        data_tx_unclassified,
        ctrl_tx,
        hot,
    });
}

/// Live collection state owned by the simulator (`Some` exactly when
/// the scenario enabled metrics). The simulator mutates the public
/// counters inline on its hot paths and calls the `note_*` methods at
/// the packet-fate sites; [`MetricsState::finish`] folds everything
/// into the serializable [`SimMetrics`]. The struct is the layer's
/// checkpoint section, written field by field in declaration order; the
/// probe interval and the power levels are read from the scenario.
#[derive(Debug, Clone)]
pub(crate) struct MetricsState {
    /// `MetricsProbe` events scheduled so far — subtracted from the
    /// queue's scheduled total so the reported event count matches a
    /// metrics-off run exactly.
    pub(crate) probes_scheduled: u64,
    /// Raw integer probe samples; the derived fractions are computed at
    /// [`MetricsState::finish`].
    samples: Vec<RawSample>,
    sent: u64,
    delivered_cum: u64,
    duplicate_deliveries: u64,
    /// Fate per emitted application packet, keyed by raw `PacketId`.
    fates: HashMap<u64, Fate>,
    /// PHY arrival fates, mutated inline by the dispatch loop.
    pub(crate) phy: PhyMetrics,
    /// Per-receiver flag: the arrival currently locked at this node has
    /// seen at least one overlapping arrival (capture-effect bookkeeping).
    pub(crate) rx_overlap: Vec<bool>,
    /// Data-channel transmissions per scenario power level.
    data_tx_by_level: Vec<u64>,
    data_tx_unclassified: u64,
    ctrl_tx: u64,
    /// Hot-path work counters, mutated inline.
    pub(crate) hot: HotPathProfile,
}

impl MetricsState {
    /// A fresh state for `node_count` stations and `levels` power levels.
    pub(crate) fn new(node_count: usize, levels: usize) -> MetricsState {
        MetricsState {
            probes_scheduled: 0,
            samples: Vec::new(),
            sent: 0,
            delivered_cum: 0,
            duplicate_deliveries: 0,
            fates: HashMap::new(),
            phy: PhyMetrics::default(),
            rx_overlap: vec![false; node_count],
            data_tx_by_level: vec![0; levels],
            data_tx_unclassified: 0,
            ctrl_tx: 0,
            hot: HotPathProfile::default(),
        }
    }

    /// Register an emitted application packet (fate: in flight).
    pub(crate) fn note_sent(&mut self, id: PacketId) {
        self.sent += 1;
        self.fates.insert(id.0, Fate::InFlight);
    }

    /// The packet reached its destination sink. Delivery is sticky: it
    /// overrides a previously recorded drop (a salvaged copy made it).
    /// An unseen id records the delivery directly; callers filter
    /// routing control packets out.
    pub(crate) fn note_delivered(&mut self, id: PacketId) {
        match self.fates.entry(id.0) {
            Entry::Occupied(mut o) => {
                if *o.get() == Fate::Delivered {
                    self.duplicate_deliveries += 1;
                } else {
                    o.insert(Fate::Delivered);
                    self.delivered_cum += 1;
                }
            }
            Entry::Vacant(v) => {
                v.insert(Fate::Delivered);
                self.delivered_cum += 1;
            }
        }
    }

    /// The packet hit a terminal drop at the event keyed `(t, rank)`.
    /// Only the first reason sticks, and a delivered packet is never
    /// reclassified. As with deliveries, an unseen id records the drop
    /// directly.
    pub(crate) fn note_dropped(&mut self, id: PacketId, reason: Drop, t: SimTime, rank: u128) {
        match self.fates.entry(id.0) {
            Entry::Occupied(mut o) => {
                if *o.get() == Fate::InFlight {
                    o.insert(Fate::Dropped { reason, t, rank });
                }
            }
            Entry::Vacant(v) => {
                v.insert(Fate::Dropped { reason, t, rank });
            }
        }
    }

    /// Classify a data-channel transmission by the scenario's power
    /// `levels`.
    pub(crate) fn note_data_tx(&mut self, power_mw: f64, levels: &[Milliwatts]) {
        match levels.iter().position(|l| l.value() == power_mw) {
            Some(i) => self.data_tx_by_level[i] += 1,
            None => self.data_tx_unclassified += 1,
        }
    }

    /// Count a control-channel broadcast.
    pub(crate) fn note_ctrl_tx(&mut self) {
        self.ctrl_tx += 1;
    }

    /// Record one time-series sample (the probe event handler computes
    /// the instantaneous integer observables; cumulative fields come
    /// from here; fractions are derived at [`MetricsState::finish`]).
    pub(crate) fn record_probe(
        &mut self,
        t: SimTime,
        live_nodes: u64,
        busy_nodes: u64,
        queue_len_sum: u64,
    ) {
        self.hot.probes += 1;
        self.samples.push(RawSample {
            t,
            live: live_nodes,
            busy: busy_nodes,
            queue_sum: queue_len_sum,
            sent_cum: self.sent,
            delivered_cum: self.delivered_cum,
        });
    }

    /// Take `loaded`, a checkpoint's metrics section, in place of this
    /// freshly built state, refusing it unless its node and power-level
    /// counts are this scenario's.
    pub(crate) fn restore(&mut self, loaded: &MetricsState) -> Result<(), &'static str> {
        if loaded.rx_overlap.len() != self.rx_overlap.len() {
            return Err("metrics node count");
        }
        if loaded.data_tx_by_level.len() != self.data_tx_by_level.len() {
            return Err("metrics power-level count");
        }
        *self = loaded.clone();
        Ok(())
    }

    /// Fold the collected state into the serializable report section,
    /// sampled every `interval` against the scenario's power `levels`.
    pub(crate) fn finish(
        self,
        interval: Duration,
        levels: &[Milliwatts],
        nodes: &[&Node],
    ) -> SimMetrics {
        let mut drops = DropTaxonomy {
            sent: self.sent,
            duplicate_deliveries: self.duplicate_deliveries,
            ..DropTaxonomy::default()
        };
        for fate in self.fates.values() {
            match fate {
                Fate::InFlight => drops.in_flight_end += 1,
                Fate::Delivered => drops.delivered_unique += 1,
                Fate::Dropped { reason, .. } => match reason {
                    Drop::EmitDead => drops.emit_dead += 1,
                    Drop::MacQueueFull => drops.mac_queue_full += 1,
                    Drop::NoRoute => drops.no_route += 1,
                    Drop::BufferOverflow => drops.buffer_overflow += 1,
                    Drop::BufferTimeout => drops.buffer_timeout += 1,
                    Drop::TtlExpired => drops.ttl_expired += 1,
                },
            }
        }

        let samples: Vec<ProbeSample> = self
            .samples
            .iter()
            .map(|s| ProbeSample {
                t_s: s.t.as_secs_f64(),
                live_nodes: s.live,
                busy_nodes: s.busy,
                busy_fraction: if s.live == 0 {
                    0.0
                } else {
                    s.busy as f64 / s.live as f64
                },
                mean_queue_len: if s.live == 0 {
                    0.0
                } else {
                    s.queue_sum as f64 / s.live as f64
                },
                sent_cum: s.sent_cum,
                delivered_cum: s.delivered_cum,
            })
            .collect();

        let mut mac = MacMetrics {
            rts_sent: 0,
            data_sent: 0,
            cts_timeouts: 0,
            ack_timeouts: 0,
            retry_drops: 0,
            queue_drops: 0,
            rx_errors: 0,
            retx_histogram: vec![0; RETX_BUCKETS],
        };
        let mut routing = RoutingMetrics {
            rreq_originated: 0,
            rreq_forwarded: 0,
            rrep_generated: 0,
            rrep_forwarded: 0,
            rerr_sent: 0,
            discoveries_started: 0,
            discoveries_failed: 0,
            discovery_latency: None,
        };
        let mut latencies = pcmac_stats::StreamingQuantile::new();
        let mut energies: Vec<f64> = Vec::with_capacity(nodes.len());
        for node in nodes {
            let c = &node.mac.counters;
            mac.rts_sent += c.rts_sent;
            mac.data_sent += c.data_sent;
            mac.cts_timeouts += c.cts_timeouts;
            mac.ack_timeouts += c.ack_timeouts;
            mac.retry_drops += c.retry_drops;
            mac.queue_drops += c.queue_drops;
            mac.rx_errors += c.rx_errors;
            for (h, n) in mac.retx_histogram.iter_mut().zip(node.mac.retx_histogram()) {
                *h += n;
            }
            let a = &node.aodv.counters;
            routing.rreq_originated += a.rreq_originated;
            routing.rreq_forwarded += a.rreq_forwarded;
            routing.rrep_generated += a.rrep_generated;
            routing.rrep_forwarded += a.rrep_forwarded;
            routing.rerr_sent += a.rerr_sent;
            routing.discoveries_failed += a.discoveries_failed;
            routing.discoveries_started += node.aodv.discoveries_started();
            if let Some(l) = node.aodv.discovery_latency() {
                latencies.merge(l);
            }
            energies.push(node.energy.radiated_mj());
        }
        routing.discovery_latency = LatencySummary::from_streaming(&latencies);

        let energy_max = energies.iter().copied().fold(0.0, f64::max);
        let energy_mean = if energies.is_empty() {
            0.0
        } else {
            energies.iter().sum::<f64>() / energies.len() as f64
        };
        let bucket = if energy_max > 0.0 {
            energy_max / ENERGY_BUCKETS as f64
        } else {
            0.0
        };
        let mut energy_histogram = vec![0u64; ENERGY_BUCKETS];
        for &e in &energies {
            let i = if bucket > 0.0 {
                ((e / bucket) as usize).min(ENERGY_BUCKETS - 1)
            } else {
                0
            };
            energy_histogram[i] += 1;
        }

        SimMetrics {
            probe_interval_s: interval.as_secs_f64(),
            samples,
            drops,
            mac,
            phy: self.phy,
            routing,
            tx_power: TxPowerMetrics {
                levels_mw: levels.iter().map(|p| p.value()).collect(),
                data_tx_by_level: self.data_tx_by_level,
                data_tx_unclassified: self.data_tx_unclassified,
                ctrl_tx: self.ctrl_tx,
                energy_histogram,
                energy_bucket_mj: bucket,
                energy_mean_mj: energy_mean,
                energy_max_mj: energy_max,
            },
            hot_path: self.hot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_probe_interval_is_one_second() {
        assert_eq!(MetricsConfig::default().probe_interval_s, 1.0);
    }

    /// The one power level the tests classify against.
    const LEVELS: &[Milliwatts] = &[Milliwatts(1.0)];

    /// A fresh state for one station.
    fn fresh() -> MetricsState {
        MetricsState::new(1, LEVELS.len())
    }

    /// The report section at the default probe interval.
    fn finish(m: MetricsState) -> SimMetrics {
        let interval = MetricsConfig::default().interval();
        m.finish(interval, LEVELS, &[])
    }

    /// Drop at a synthetic `(time, rank)` key.
    fn drop_at(m: &mut MetricsState, id: u64, reason: Drop, t_ns: u64) {
        m.note_dropped(PacketId(id), reason, SimTime::from_nanos(t_ns), 0);
    }

    #[test]
    fn fate_map_is_conservation_complete() {
        let mut m = fresh();
        for id in 0..6u64 {
            m.note_sent(PacketId(id));
        }
        m.note_delivered(PacketId(0));
        m.note_delivered(PacketId(0)); // duplicate
        drop_at(&mut m, 1, Drop::MacQueueFull, 10);
        drop_at(&mut m, 1, Drop::NoRoute, 20); // first reason wins
        drop_at(&mut m, 2, Drop::EmitDead, 30);
        drop_at(&mut m, 3, Drop::TtlExpired, 40);
        m.note_delivered(PacketId(3)); // delivery overrides a drop
        let s = finish(m);
        let d = &s.drops;
        assert_eq!(d.sent, 6);
        assert_eq!(d.delivered_unique, 2);
        assert_eq!(d.duplicate_deliveries, 1);
        assert_eq!(d.mac_queue_full, 1);
        assert_eq!(d.no_route, 0);
        assert_eq!(d.emit_dead, 1);
        assert_eq!(d.ttl_expired, 0);
        assert_eq!(d.in_flight_end, 2);
        assert!(d.conserved());
    }

    #[test]
    fn probe_samples_divide_safely() {
        let mut m = fresh();
        m.record_probe(SimTime::ZERO + Duration::from_secs_f64(1.0), 0, 0, 0);
        m.record_probe(SimTime::ZERO + Duration::from_secs_f64(2.0), 4, 1, 6);
        let s = finish(m);
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.samples[0].busy_fraction, 0.0);
        assert_eq!(s.samples[1].busy_fraction, 0.25);
        assert_eq!(s.samples[1].mean_queue_len, 1.5);
        assert_eq!(s.hot_path.probes, 2);
    }
}
