//! Unit costs of single layers: timed calls into each layer's public
//! functions, on inputs shaped like the workload's scenario (its node
//! positions, reach, radio and MAC configuration).

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use pcmac_engine::{
    Duration, EventQueue, FlowId, Milliwatts, NodeId, PacketId, Point, RngStream, SimTime,
    TimerToken, UniformGrid,
};
use pcmac_mac::{DcfMac, Frame, MacAction, MacTimerKind};
use pcmac_mobility::RandomWaypoint;
use pcmac_net::Packet;
use pcmac_phy::{Radio, SparseGainCache};

use crate::trace::Trace;
use crate::workloads::Shape;

/// Transmitters sampled for the grid / gain / radio inputs.
const SAMPLE: usize = 1024;
/// Jitter applied by the grid-update benchmark (m): a few refresh
/// intervals of movement, so most updates stay inside their cell.
const UPDATE_JITTER_M: f64 = 25.0;
/// Separation of the two stations of the DCF exchange (m).
const EXCHANGE_DISTANCE_M: f64 = 100.0;

/// Nanoseconds per operation, every field.
pub struct UnitCosts {
    pub queue_hold_d4k: f64,
    pub queue_hold_d256k: f64,
    pub grid_build_per_node: f64,
    pub grid_query: f64,
    pub grid_update: f64,
    pub gain_per_candidate: f64,
    pub sparse_gain_per_candidate: f64,
    pub radio_arrival_pair: f64,
    pub dcf_exchange: f64,
    /// 0 for a static scenario.
    pub waypoint_position: f64,
}

/// Call `batch` — which performs and returns some number of operations —
/// until `budget_s` is spent; nanoseconds per operation.
fn ns_per_op(budget_s: f64, mut batch: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut ops = 0usize;
    loop {
        ops += batch();
        let elapsed = start.elapsed();
        if elapsed.as_secs_f64() >= budget_s {
            return elapsed.as_nanos() as f64 / ops.max(1) as f64;
        }
    }
}

pub fn measure(shape: &Shape, budget_s: f64, trace: &mut Trace) -> UnitCosts {
    let n = shape.positions.len();
    let (w, h) = shape.field;
    let mut rng = RngStream::derive(n as u64, "benchmark.micro");

    let queue_hold_d4k = trace.span("engine.queue", |_| queue_hold(4 << 10, budget_s));
    let queue_hold_d256k = trace.span("engine.queue", |_| queue_hold(256 << 10, budget_s));

    // Grid: build, then query and update at sampled transmitters.
    let builds_per_batch = (4096 / n).max(1);
    let grid_build_per_node = trace.span("engine.grid.build", |_| {
        ns_per_op(budget_s, || {
            for _ in 0..builds_per_batch {
                black_box(UniformGrid::new(w, h, shape.reach_m, &shape.positions));
            }
            builds_per_batch * n
        })
    });
    let mut grid = UniformGrid::new(w, h, shape.reach_m, &shape.positions);
    let sample: Vec<u32> = (0..SAMPLE.min(n))
        .map(|_| rng.below(n as u64) as u32)
        .collect();
    let mut found = Vec::new();
    let grid_query = trace.span("engine.grid.query", |_| {
        ns_per_op(budget_s, || {
            for &i in &sample {
                found.clear();
                grid.query_circle(
                    shape.positions[i as usize],
                    shape.reach_m,
                    Some(i),
                    &mut found,
                );
                black_box(found.len());
            }
            sample.len()
        })
    });
    let jittered: Vec<Point> = sample
        .iter()
        .map(|&i| {
            let p = shape.positions[i as usize];
            let dx = rng.uniform(-UPDATE_JITTER_M, UPDATE_JITTER_M);
            let dy = rng.uniform(-UPDATE_JITTER_M, UPDATE_JITTER_M);
            Point::new((p.x + dx).clamp(0.0, w), (p.y + dy).clamp(0.0, h))
        })
        .collect();
    let grid_update = trace.span("engine.grid.update", |_| {
        ns_per_op(budget_s, || {
            for (&i, &p) in sample.iter().zip(&jittered) {
                grid.update(i, p);
            }
            for &i in &sample {
                grid.update(i, shape.positions[i as usize]);
            }
            2 * sample.len()
        })
    });

    // Gains: each sampled transmitter toward its grid candidates, live
    // and through a warm sparse cache.
    let candidates: Vec<Vec<u32>> = sample
        .iter()
        .map(|&i| {
            let mut c = Vec::new();
            grid.query_circle(shape.positions[i as usize], shape.reach_m, Some(i), &mut c);
            c
        })
        .collect();
    let candidate_points: Vec<Vec<Point>> = candidates
        .iter()
        .map(|c| c.iter().map(|&j| shape.positions[j as usize]).collect())
        .collect();
    let pairs: usize = candidates.iter().map(Vec::len).sum();
    let mut gains = Vec::new();
    let gain_per_candidate = trace.span("phy.gain.live", |_| {
        ns_per_op(budget_s, || {
            for (&i, pts) in sample.iter().zip(&candidate_points) {
                shape
                    .propagation
                    .gains_into(shape.positions[i as usize], pts, &mut gains);
                black_box(gains.len());
            }
            pairs
        })
    });
    let mut cache = SparseGainCache::new(n);
    for i in 0..n as u32 {
        cache.set_cell(i, grid.node_cell(i));
    }
    let mut sparse_pass = |cache: &mut SparseGainCache| {
        for (&i, c) in sample.iter().zip(&candidates) {
            let tx = shape.positions[i as usize];
            cache.gains_with_into(i, c, &mut gains, |j| {
                shape.propagation.gain(tx, shape.positions[j as usize])
            });
            black_box(gains.len());
        }
        pairs
    };
    sparse_pass(&mut cache); // warm: the timed passes replay
    let sparse_gain_per_candidate = trace.span("phy.gain.sparse", |_| {
        ns_per_op(budget_s, || sparse_pass(&mut cache))
    });

    // Radio: arrival pairs at the received powers the sampled
    // transmissions produce, each overlapping the next.
    let powers: Vec<Milliwatts> = sample
        .iter()
        .zip(&candidate_points)
        .flat_map(|(&i, pts)| {
            let tx = shape.positions[i as usize];
            pts.iter()
                .map(move |&p| shape.max_power * shape.propagation.gain(tx, p))
        })
        .take(4 * SAMPLE)
        .collect();
    let radio_arrival_pair = trace.span("phy.radio", |_| radio_pairs(shape, &powers, budget_s));

    let dcf_exchange = trace.span("mac.dcf", |_| dcf_exchanges(shape, budget_s));

    let waypoint_position = shape.mobility.map_or(0.0, |(speed, pause)| {
        let mut walkers: Vec<RandomWaypoint> = sample
            .iter()
            .map(|&i| {
                let rng = RngStream::derive_sub(n as u64, "benchmark.micro.walk", i as u64);
                RandomWaypoint::new(shape.positions[i as usize], w, h, speed, pause, rng)
            })
            .collect();
        let mut now = SimTime::ZERO;
        trace.span("mobility.waypoint", |_| {
            ns_per_op(budget_s, || {
                now += Duration::from_millis(10);
                for walker in &mut walkers {
                    black_box(walker.position(now));
                }
                walkers.len()
            })
        })
    });

    UnitCosts {
        queue_hold_d4k,
        queue_hold_d256k,
        grid_build_per_node,
        grid_query,
        grid_update,
        gain_per_candidate,
        sparse_gain_per_candidate,
        radio_arrival_pair,
        dcf_exchange,
        waypoint_position,
    }
}

/// The hold model: a heap kept at `depth` pending events; one operation
/// pops the earliest and schedules a successor a random increment later.
fn queue_hold(depth: usize, budget_s: f64) -> f64 {
    const BATCH: usize = 4096;
    let mut rng = RngStream::derive(depth as u64, "benchmark.micro.queue");
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(depth);
    // Mean increment of 1 ms over `depth` pending events.
    let span_ns = depth as u64 * 1_000_000;
    for i in 0..depth as u64 {
        queue.schedule_ranked(SimTime::from_nanos(rng.below(span_ns)), i as u128, i);
    }
    let increments: Vec<u64> = (0..BATCH).map(|_| rng.below(2 * span_ns)).collect();
    ns_per_op(budget_s, || {
        for &inc in &increments {
            let e = queue.pop().expect("the heap never drains");
            queue.schedule_ranked(e.at + Duration::from_nanos(inc), e.rank, e.event);
        }
        BATCH
    })
}

fn radio_pairs(shape: &Shape, powers: &[Milliwatts], budget_s: f64) -> f64 {
    let mut radio: Radio<u32> = Radio::new(shape.radio.clone());
    let mut out = Vec::new();
    let mut key = 0u64;
    ns_per_op(budget_s, || {
        // start(k+1) lands before end(k): every arrival overlaps the next.
        radio.on_arrival_start(key, powers[0], SimTime::MAX, &0, &mut out);
        for &p in &powers[1..] {
            radio.on_arrival_start(key + 1, p, SimTime::MAX, &0, &mut out);
            radio.on_arrival_end(key, &mut out);
            out.clear();
            key += 1;
        }
        radio.on_arrival_end(key, &mut out);
        out.clear();
        key += 1;
        powers.len()
    })
}

/// What the two-station medium delivers to a MAC.
enum MacInput {
    Timer(MacTimerKind, TimerToken),
    /// Own transmission over: carrier idle, then `on_tx_end`.
    TxEnd,
    /// A frame starts arriving: carrier busy, then `on_rx_start`.
    RxStart(Frame, Milliwatts, Duration),
    /// The frame finished arriving intact: `on_rx_end`, then carrier idle.
    RxEnd(Frame, Milliwatts),
}

struct Pending {
    at: SimTime,
    seq: u64,
    station: usize,
    input: MacInput,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (time, insertion order).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Two `DcfMac`s in range of each other on a collision-free medium,
/// driven only through their public handlers in the order the simulator
/// calls them.
struct TwoStations {
    macs: [DcfMac; 2],
    pending: BinaryHeap<Pending>,
    seq: u64,
    gain: f64,
    prop_delay: Duration,
    delivered: u64,
    /// Actions awaiting `apply`, and the drained buffer it swaps in.
    actions: Vec<MacAction>,
    spare: Vec<MacAction>,
}

impl TwoStations {
    fn new(shape: &Shape) -> Self {
        let mac = |id| DcfMac::new(NodeId(id), shape.mac.clone(), 1);
        let a = Point::new(0.0, 0.0);
        let b = Point::new(EXCHANGE_DISTANCE_M, 0.0);
        TwoStations {
            macs: [mac(0), mac(1)],
            pending: BinaryHeap::new(),
            seq: 0,
            gain: shape.propagation.gain(a, b),
            prop_delay: Duration::from_nanos((EXCHANGE_DISTANCE_M / 0.299_792_458) as u64),
            delivered: 0,
            actions: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, station: usize, input: MacInput) {
        self.seq += 1;
        self.pending.push(Pending {
            at,
            seq: self.seq,
            station,
            input,
        });
    }

    /// Carry out everything the MAC of `station` asked for at `now`,
    /// including what the carrier edges this triggers ask for in turn.
    fn apply(&mut self, station: usize, now: SimTime) {
        while !self.actions.is_empty() {
            let spare = std::mem::take(&mut self.spare);
            let mut batch = std::mem::replace(&mut self.actions, spare);
            for action in batch.drain(..) {
                self.carry_out(action, station, now);
            }
            self.spare = batch;
        }
    }

    fn carry_out(&mut self, action: MacAction, station: usize, now: SimTime) {
        match action {
            MacAction::TxFrame { frame, power } => {
                let airtime = self.macs[station].config().timing.frame_airtime(&frame);
                self.macs[station].on_carrier(true, now, &mut self.actions);
                self.push(now + airtime, station, MacInput::TxEnd);
                let heard = power * self.gain;
                let arrives = now + self.prop_delay;
                let start = MacInput::RxStart(frame.clone(), heard, airtime);
                self.push(arrives, 1 - station, start);
                self.push(
                    arrives + airtime,
                    1 - station,
                    MacInput::RxEnd(frame, heard),
                );
            }
            MacAction::Arm { kind, delay, token } => {
                self.push(now + delay, station, MacInput::Timer(kind, token));
            }
            MacAction::Deliver { .. } => self.delivered += 1,
            // The control channel carries no DCF state between these two
            // stations (a receiver ignores its own tolerance broadcast;
            // the sender is mid-transmission).
            MacAction::TxCtrl { .. } => {}
            MacAction::LinkFailure { .. } | MacAction::QueueDrop { .. } => {
                panic!("the two-station medium is loss-free")
            }
        }
    }

    /// Hand one packet to station 0 for station 1 and run the medium
    /// until it falls silent.
    fn exchange(&mut self, id: u64, now: SimTime) -> SimTime {
        let packet = Packet::data(PacketId(id), FlowId(0), NodeId(0), NodeId(1), 512, now);
        self.macs[0].enqueue(packet, NodeId(1), now, &mut self.actions);
        self.apply(0, now);
        let mut last = now;
        while let Some(Pending {
            at, station, input, ..
        }) = self.pending.pop()
        {
            last = at;
            let mac = &mut self.macs[station];
            match input {
                MacInput::Timer(kind, token) => mac.on_timer(kind, token, at, &mut self.actions),
                MacInput::TxEnd => {
                    mac.on_carrier(false, at, &mut self.actions);
                    mac.on_tx_end(at, &mut self.actions);
                }
                MacInput::RxStart(frame, power, remaining) => {
                    mac.on_carrier(true, at, &mut self.actions);
                    let noise = Milliwatts::ZERO;
                    mac.on_rx_start(&frame, power, noise, remaining, at, &mut self.actions);
                }
                MacInput::RxEnd(frame, power) => {
                    mac.on_rx_end(frame, power, true, at, &mut self.actions);
                    mac.on_carrier(false, at, &mut self.actions);
                }
            }
            self.apply(station, at);
        }
        last
    }
}

fn dcf_exchanges(shape: &Shape, budget_s: f64) -> f64 {
    const BATCH: u64 = 64;
    let mut medium = TwoStations::new(shape);
    let mut now = SimTime::ZERO;
    let mut sent = 0u64;
    let cost = ns_per_op(budget_s, || {
        for _ in 0..BATCH {
            now = medium.exchange(sent, now) + Duration::from_millis(1);
            sent += 1;
        }
        BATCH as usize
    });
    assert_eq!(medium.delivered, sent, "every exchange must deliver");
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn two_stations_complete_an_exchange_under_every_variant() {
        for variant in pcmac_mac::Variant::ALL {
            let cfg = pcmac::ScenarioConfig::two_nodes(variant, 100.0, 100_000.0, 1);
            let mut medium = TwoStations::new(&workloads::shape(&cfg));
            let mut now = SimTime::ZERO;
            for id in 0..5 {
                now = medium.exchange(id, now) + Duration::from_millis(1);
            }
            assert_eq!(medium.delivered, 5, "{variant:?}");
            let c = &medium.macs[0].counters;
            assert_eq!(
                c.retry_drops + c.cts_timeouts + c.ack_timeouts,
                0,
                "{variant:?}"
            );
        }
    }
}
