//! The simulator: event dispatch, fault injection, checkpointing.
//!
//! Every component of a node is a pure state machine; the [`Simulator`]
//! pops events in `(time, rank)` order, routes each to the node it
//! addresses, and applies the actions the node returns. Cross-node
//! effects only ever travel as events: a transmission is handed to the
//! wireless channel (see the `channel` module), which works out who
//! hears it, how strongly and when, and feeds the arrivals back through
//! the queue. Event dispatch draws its scratch buffers from per-type
//! pools on the simulator, so the steady state allocates nothing.
//!
//! This module holds the [`Simulator`] itself, its public entry points,
//! a station's lazily built cold state and the single-threaded run
//! loop. Each other concern is a private child module over the same
//! fields:
//!
//! - `build` — a simulator from its scenario: placement, mobility,
//!   traffic sources, the fault and metrics layers' first events, the
//!   hot arrays and the channel; whole, or one region shard;
//! - `dispatch` — the event loop (`advance` and its held fan-out walk)
//!   and every handler: arrivals, MAC and routing actions, faults,
//!   metrics probes, transmission. The hot path, kept together;
//! - `persist` — one lane's share of a snapshot, the fold of lanes into
//!   a snapshot or a report, restore, and the checkpoint grid every
//!   execution mode cuts on;
//! - `shard` — the region-sharded engine: the column partition, the
//!   barrier-epoch lanes and the shipments between them.

use std::sync::Arc;

use pcmac_aodv::AodvConfig;
use pcmac_engine::{Duration, EventQueue, NodeId, SimTime};
use pcmac_mac::{MacAction, MacConfig};
use pcmac_phy::RadioConfig;

use crate::channel::{Channel, QueueEntry};
use crate::config::{ExecutionMode, ScenarioConfig};
use crate::event::SimEvent;
use crate::fault::FaultState;
use crate::metrics::MetricsState;
use crate::node::Node;
use crate::report::RunReport;
use crate::snapshot::{RunHooks, RunOutcome, SimSnapshot};
use crate::soa::HotState;
use persist::CutGrid;
pub(crate) use shard::ShardCtx;

mod build;
mod dispatch;
mod persist;
mod shard;

/// A free list of scratch buffers: `take` hands out an empty vector
/// (reusing a previously returned allocation when one exists), `put`
/// clears and shelves it. Action application is reentrant — MAC actions
/// can trigger routing actions that trigger MAC actions — and each
/// nesting level simply takes its own buffer, so pooling is safe at any
/// recursion depth while the steady state allocates nothing.
#[derive(Debug)]
pub(crate) struct BufPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        BufPool { free: Vec::new() }
    }
}

impl<T> BufPool<T> {
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    pub(crate) fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }
}

/// Optional pre-dispatch callback: sees every event, in dispatch order.
type EventObserver<'a> = Option<&'a mut dyn FnMut(&SimEvent, SimTime)>;

/// The first instant past `end` — an inclusive run end as the exclusive
/// bound [`Simulator::advance`] takes.
#[inline]
fn past(end: SimTime) -> SimTime {
    end + Duration::from_nanos(1)
}

/// A configured, runnable simulation.
pub struct Simulator {
    cfg: ScenarioConfig,
    /// Pending events; a transmission's arrivals ride two cursor entries
    /// (see the `channel` module), so only [`Simulator::advance`] pops.
    queue: EventQueue<QueueEntry>,
    /// Cold per-node state, built the first time the simulator must
    /// touch a station (see [`Simulator::node_mut`]): `None` for a
    /// station that has not acted yet, and for every node another region
    /// shard owns. An untouched station is exactly the `Node::new` it
    /// would be built as, and readers that must not build one read it
    /// that way. Boxed so an untouched station costs its 8-byte slot.
    nodes: Vec<Option<Box<Node>>>,
    /// The MAC and routing configurations every node shares.
    mac_cfg: Arc<MacConfig>,
    aodv_cfg: Arc<AodvConfig>,
    /// Struct-of-arrays hot per-node state: positions, movement,
    /// alive flags, last transmit powers, tx-key counters, and the
    /// receive side of every station.
    hot: HotState,
    /// The one radio configuration every receive row is read against:
    /// `cfg.radio` with the noise floor scaled by the active impairment
    /// bursts.
    radio: RadioConfig,
    /// Propagation, the spatial index, gain replay, position refresh
    /// and the arrivals in flight.
    channel: Channel,
    /// `(time, rank)` of the event currently being dispatched — the
    /// global position in the event order, used to key fault records and
    /// packet-drop facts so they merge deterministically across shards.
    cur: (SimTime, u128),
    /// Region-shard context (`Some` iff this simulator is one shard of a
    /// sharded run).
    shard: Option<ShardCtx>,
    /// A snapshot waiting to be applied per lane. [`Simulator::restore`]
    /// applies it to the whole network in every execution mode; a sharded
    /// config also parks it here, because each lane's build
    /// re-initialises the cold state it is donated, so the `shard` module
    /// overlays every lane again after its build.
    resume: Option<Arc<SimSnapshot>>,
    sent_packets: u64,
    /// Fault-injection runtime state (`Some` iff the scenario has a
    /// fault plan).
    faults: Option<FaultState>,
    /// Observability collection state (`Some` iff the scenario enabled
    /// metrics). Only ever *reads* protocol state, so its presence
    /// cannot change a run's behavior.
    metrics: Option<MetricsState>,
    // Scratch-buffer pools for allocation-free dispatch.
    mac_pool: BufPool<MacAction>,
    aodv_pool: BufPool<pcmac_aodv::AodvAction>,
    #[cfg(debug_assertions)]
    audit: dispatch::ArrivalAudit,
}

impl Simulator {
    /// Build the network described by `cfg`.
    ///
    /// # Panics
    /// If the scenario fails [`ScenarioConfig::validate`]; the panic
    /// message lists every defect. Loading paths (spec files, campaign
    /// expansion) validate first and surface the same list as a
    /// `Result` instead.
    pub fn new(cfg: ScenarioConfig) -> Self {
        Self::build(cfg, None, &mut [])
    }

    /// The test oracle: [`Simulator::new`], except that every
    /// transmission finds its receivers by scanning all N nodes at
    /// positions re-sampled per timestamp and prices them with one
    /// propagation call per pair — no spatial index, no refresh
    /// deadlines, no receiver rows (see the `reference` module). The
    /// equivalence suite holds the production channel to this run's
    /// report, bit for bit; nothing else should call it.
    ///
    /// # Panics
    /// As [`Simulator::new`], and if `cfg` asks for sharded execution:
    /// the oracle is single-threaded.
    #[doc(hidden)]
    pub fn new_reference(cfg: ScenarioConfig) -> Self {
        assert_eq!(
            cfg.execution_mode(),
            ExecutionMode::Single,
            "the reference channel runs single-threaded"
        );
        let mut sim = Self::new(cfg);
        sim.channel.use_reference_scan();
        sim
    }

    /// Run to the configured duration and produce the report.
    ///
    /// Under [`ExecutionMode::Sharded`] the run executes on that many
    /// region threads and produces a report bit-identical to the
    /// single-threaded one (hot-path instrumentation counters aside,
    /// which reflect the execution strategy itself).
    pub fn run(self) -> RunReport {
        self.execute(None, &RunHooks::default())
            .report()
            .expect("no cancel token was supplied")
    }

    /// Like [`Simulator::run`], but calls `observer` with every event
    /// just before it is dispatched — the hook for packet traces,
    /// animations, or custom measurements. The observer sees events in
    /// exact execution order (sharded runs buffer per-region streams and
    /// replay the deterministic merge to the observer after the run).
    pub fn run_with_observer(self, mut observer: impl FnMut(&SimEvent, SimTime)) -> RunReport {
        self.execute(Some(&mut observer), &RunHooks::default())
            .report()
            .expect("no cancel token was supplied")
    }

    /// Like [`Simulator::run`], with in-run durability controls: a
    /// cooperative [`CancelToken`](crate::CancelToken) observed at cut
    /// boundaries, and periodic checkpoints on an absolute simulated-time
    /// grid delivered to a sink. Both work identically under single and
    /// sharded execution — checkpoints land at the same simulated
    /// instants with bit-identical state, and a cancelled run returns a
    /// final snapshot instead of a report.
    pub fn run_with_hooks(self, hooks: RunHooks<'_>) -> RunOutcome {
        self.execute(None, &hooks)
    }

    /// The one way a run starts: [`Simulator::run`] is this with no
    /// observer and no hooks.
    fn execute(self, observer: EventObserver<'_>, hooks: &RunHooks<'_>) -> RunOutcome {
        match self.cfg.execution_mode() {
            ExecutionMode::Single => self.run_single(observer, hooks),
            ExecutionMode::Sharded { shards } => self.run_sharded(shards, observer, hooks),
        }
    }

    /// Schedule `ev` at `at` with its content-derived rank.
    #[inline]
    fn sched(&mut self, at: SimTime, ev: SimEvent) {
        sched_into(&mut self.queue, at, ev);
    }

    /// Does this simulator dispatch node `i`'s events? Every node in
    /// single mode; on a region shard, the nodes the owner map gives it.
    #[inline]
    fn owns(&self, i: usize) -> bool {
        self.shard.as_ref().is_none_or(|ctx| ctx.owner[i] == ctx.id)
    }

    /// Node `i` as [`Node::new`] assembles it: what an untouched station
    /// is, and what its first touch builds.
    fn pristine(&self, i: usize) -> Node {
        Node::new(
            NodeId(i as u32),
            Arc::clone(&self.mac_cfg),
            Arc::clone(&self.aodv_cfg),
            self.cfg.seed,
        )
    }

    /// The cold state of node `i`, built on this first touch if the
    /// station has not acted before. [`Node::new`] is a pure function of
    /// the id, the shared configurations and the seed, so a node built
    /// late is the node that would have been built early.
    ///
    /// # Panics
    /// If this shard does not own node `i` — events only ever address
    /// owned nodes, so a miss here is a sharding bug.
    #[inline]
    fn node_mut(&mut self, i: usize) -> &mut Node {
        if self.nodes[i].is_none() {
            return self.build_node(i);
        }
        self.nodes[i].as_deref_mut().expect("checked above")
    }

    /// Build untouched node `i`'s cold state (see
    /// [`Simulator::node_mut`]).
    #[cold]
    #[inline(never)]
    fn build_node(&mut self, i: usize) -> &mut Node {
        assert!(
            self.owns(i),
            "event dispatched for a node this shard does not own"
        );
        let node = Box::new(self.pristine(i));
        self.nodes[i].insert(node)
    }

    /// The single-threaded run. It cuts on the grid every shard lane
    /// cuts on ([`CutGrid`]): whenever the next event's time reaches a
    /// checkpoint grid instant, every grid instant up to it is
    /// snapshotted *before* the event dispatches, so both execution modes
    /// checkpoint at identical simulated times. Without hooks there is no
    /// grid and no token, and the loop below is one
    /// [`Simulator::advance`] call.
    fn run_single(mut self, mut observer: EventObserver<'_>, hooks: &RunHooks<'_>) -> RunOutcome {
        let wall_start = std::time::Instant::now();
        let end = SimTime::ZERO + self.cfg.duration;
        let mut grid = CutGrid::new(hooks.checkpoint_every, self.queue.now());
        let mut ticks: u64 = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let Ok(crossed_grid) = grid.reach(t, |cut| {
                if let Some(sink) = hooks.checkpoint_sink {
                    sink(self.snapshot_at(cut));
                }
                Ok::<_, std::convert::Infallible>(())
            });
            // The token costs an atomic load; amortise it across a batch
            // of dispatches, but always look right after a checkpoint —
            // a watchdog that cancels from the sink must be heard even
            // when few events remain. A cut here is safe at any event
            // boundary: `t` is the next undispatched instant, so
            // everything before it is fully processed.
            if (crossed_grid || ticks & 0xFF == 0)
                && hooks
                    .cancel
                    .is_some_and(crate::snapshot::CancelToken::is_cancelled)
            {
                return RunOutcome::Cancelled(Some(self.snapshot_at(t)));
            }
            // On to the next grid instant or the next look at the token,
            // whichever comes first (`t` precedes both, so this moves).
            let budget = hooks.cancel.map_or(u64::MAX, |_| 0x100 - (ticks & 0xFF));
            ticks += self.advance(grid.clamp(past(end)), budget, &mut observer);
        }
        let (cfg, lane) = self.into_tally();
        RunOutcome::Completed(Self::merge_report(&cfg, &[], vec![lane], wall_start))
    }
}

#[cfg(test)]
impl Simulator {
    /// Dispatch the next event of the run, returning it under its
    /// `(time, rank)` — lets a test stop between any two events,
    /// mid-fan-out included. `None` once the run is over.
    pub(crate) fn step(&mut self) -> Option<(SimTime, u128, SimEvent)> {
        self.step_before(SimTime::MAX)
    }

    /// What a cut at this instant has to carry without a per-node list of
    /// arrivals: how many stations are owed a carrier edge, and how many
    /// are locked onto a frame with another arrival on the air beside it.
    pub(crate) fn receive_census(&self) -> (usize, usize) {
        let held = (0..self.nodes.len())
            .filter(|&i| self.hot.held_edge(i).is_some())
            .count();
        let rows = self.hot.rx.iter().chain(&self.hot.ctrl_rx);
        let in_company = rows.filter(|r| r.is_receiving() && r.on_air() >= 2).count();
        (held, in_company)
    }

    /// Is node `i`'s MAC listening, as of its last input?
    pub(crate) fn mac_listening(&self, i: usize) -> bool {
        self.hot.mac_listening(i)
    }

    /// [`Simulator::step`], unless the next event is due at or after
    /// `until` — stepping to a cut the way the hooked run reaches one.
    pub(crate) fn step_before(&mut self, until: SimTime) -> Option<(SimTime, u128, SimEvent)> {
        let end = SimTime::ZERO + self.cfg.duration;
        let mut stepped = None;
        let mut record = |ev: &SimEvent, at: SimTime| stepped = Some((at, ev.rank(), ev.clone()));
        self.advance(until.min(past(end)), 1, &mut Some(&mut record));
        stepped
    }
}

/// Schedule `ev` as a plain queue entry under its content-derived rank.
#[inline]
fn sched_into(queue: &mut EventQueue<QueueEntry>, at: SimTime, ev: SimEvent) {
    queue.schedule_ranked(at, ev.rank(), QueueEntry::Event(ev));
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pcmac_engine::{Duration, FlowId, NodeId, Point, RngStream, SimTime};
    use pcmac_mac::Variant;

    use crate::config::{FlowShape, NodeSetup, ScenarioConfig};
    use crate::event::SimEvent;
    use crate::snapshot::tests::NodeBlob;
    use crate::Simulator;

    /// 20 waypoint stations, ten flows, 2 s.
    fn scenario() -> ScenarioConfig {
        ScenarioConfig::paper_with(Variant::Pcmac, 400.0, 3, 20, 5.0)
            .with_duration(Duration::from_secs(2))
    }

    /// Shard 0 of two, owning the even stations.
    fn even_shard(cfg: ScenarioConfig) -> (Simulator, Arc<Vec<u32>>) {
        let n = cfg.nodes.count();
        let owner = Arc::new((0..n as u32).map(|i| i % 2).collect::<Vec<_>>());
        let shard = Simulator::build(cfg, Some((0, 2, Arc::clone(&owner))), &mut []);
        (shard, owner)
    }

    #[test]
    #[should_panic(expected = "event dispatched for a node this shard does not own")]
    fn a_shard_refuses_an_event_for_a_node_another_shard_owns() {
        let (mut shard, owner) = even_shard(scenario());
        assert_eq!(owner[1], 1);
        let at = SimTime::ZERO + Duration::from_millis(1);
        shard.dispatch(
            SimEvent::TrafficEmit {
                node: NodeId(1),
                source: 0,
            },
            at,
        );
    }

    #[test]
    fn a_shard_builds_its_own_stations_only_and_only_when_touched() {
        let cfg = scenario();
        let homes: Vec<usize> = cfg.flows.iter().map(|f| f.src.index()).collect();
        let (shard, owner) = even_shard(cfg.clone());
        for (i, node) in shard.nodes.iter().enumerate() {
            let home = owner[i] == 0 && homes.contains(&i);
            assert_eq!(node.is_some(), home, "station {i} after the shard build");
        }

        // A restore onto a fresh shard builds a station iff the shard
        // owns it and its blob holds cold state, which it does iff the
        // run had built the station: a station still unbuilt at the cut
        // stays unbuilt (a flow's home was built with the shard and stays
        // built). Before the first flow starts at 1 s no station has
        // acted; half a second later most have.
        let mut full = Simulator::new(cfg.clone());
        let (mut kept, mut built) = (0, 0);
        for ms in [600, 1_500] {
            let (mut shard, owner) = even_shard(cfg.clone());
            let cut = SimTime::ZERO + Duration::from_millis(ms);
            while full.step_before(cut).is_some() {}
            let snap = full.snapshot_at(cut);
            for (i, blob) in snap.nodes.iter().enumerate() {
                shard
                    .load_node(i, blob)
                    .expect("a blob of the same scenario");
            }
            for (i, node) in shard.nodes.iter().enumerate() {
                let written = NodeBlob::parse(&snap.nodes[i], true).built();
                assert_eq!(written, full.nodes[i].is_some(), "station {i} at {ms} ms");
                let home = homes.contains(&i);
                assert_eq!(
                    node.is_some(),
                    owner[i] == 0 && written,
                    "station {i} after loading at {ms} ms"
                );
                kept += usize::from(owner[i] == 0 && !written);
                built += usize::from(owner[i] == 0 && written && !home);
            }
        }
        assert!(
            kept > 0 && built > 0,
            "{kept} owned stations kept unbuilt, {built} built"
        );
    }

    /// A restored static field builds exactly the stations the
    /// uninterrupted run builds: the ones that acted before the cut come
    /// from their blobs, the rest on their first touch after it.
    #[test]
    fn a_restored_field_builds_as_many_stations_as_the_uninterrupted_run() {
        // 60 stations strewn over 2 km × 2 km: about three within decode
        // range of each, so route requests flood fragments of the field.
        let mut cfg = ScenarioConfig::paper_with(Variant::Basic, 200.0, 3, 60, 5.0)
            .with_duration(Duration::from_secs(2));
        let mut rng = RngStream::derive(3, "test.restored_field");
        cfg.field = (2_000.0, 2_000.0);
        cfg.nodes = NodeSetup::Static(
            (0..60)
                .map(|_| Point::new(rng.uniform(0.0, 2_000.0), rng.uniform(0.0, 2_000.0)))
                .collect(),
        );
        let built = |sim: &Simulator| sim.nodes.iter().filter(|n| n.is_some()).count();
        let mut full = Simulator::new(cfg.clone());
        let cut = SimTime::ZERO + Duration::from_millis(1_300);
        while full.step_before(cut).is_some() {}
        let at_cut = built(&full);
        let census = full.receive_census();
        let snap = full.snapshot_at(cut);
        let written = snap
            .nodes
            .iter()
            .filter(|b| NodeBlob::parse(b, false).built());
        assert_eq!(written.count(), at_cut, "the cut writes what had acted");
        while full.step().is_some() {}
        let mut resumed = Simulator::restore(cfg, &snap).expect("the snapshot restores");
        assert_eq!(built(&resumed), at_cut, "the restore builds what had acted");
        assert_eq!(
            resumed.receive_census(),
            census,
            "and holds what the cut held"
        );
        assert!(census.0 > 0, "the cut held a carrier edge");
        while resumed.step().is_some() {}
        assert_eq!(built(&resumed), built(&full));
        assert!(
            at_cut < built(&full) && built(&full) < 60,
            "stations act after the cut, and some never do"
        );
    }

    /// Two stations 100 m apart under PCMAC for 2 s: a Poisson flow
    /// 0 → 1 and an on/off flow 1 → 0 with short bursts and long gaps.
    fn mixed_sources() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::two_nodes(Variant::Pcmac, 100.0, 200_000.0, 7)
            .with_duration(Duration::from_secs(2));
        let mut back = cfg.flows[0].clone();
        back.flow = FlowId(1);
        back.src = NodeId(1);
        back.dst = NodeId(0);
        back.rate_bps = ONOFF_RATE_BPS;
        back.shape = FlowShape::OnOff {
            mean_on_s: 0.05,
            mean_off_s: 0.2,
        };
        cfg.flows[0].shape = FlowShape::Poisson;
        cfg.flows.push(back);
        cfg
    }

    const ONOFF_RATE_BPS: f64 = 400_000.0;

    /// `(cut, (length, FNV-1a) of station 0's blob, the same of station
    /// 1's)`, recorded at snapshot version 6. Version 5 wrote 1 251 and
    /// 1 227 B: 41 B under version 4's 1 292 for the Poisson home (its
    /// flow's configuration, 33 B, and the source count, 8 B) and 57 B
    /// under 1 284 for the on/off home (49 B of configuration and the
    /// count). Version 6 adds the held-edge option and the build tag to
    /// each: 2 B, and 9 B more where station 1 is cut holding an edge.
    const MIXED_GOLDEN: (u64, (usize, u64), (usize, u64)) = (
        557_162_663,
        (1253, 0xbfe9_88d7_890c_dda5),
        (1238, 0x295d_eb34_0dda_2a43),
    );

    /// Pins the node blobs no paper-scenario golden reaches: a Poisson
    /// source, an on/off source at a cut inside one of its off periods,
    /// and a station cut while its data transmission is on the air (an
    /// open interval in its energy meter). A restore must take them and
    /// write them back unchanged.
    #[test]
    fn mixed_source_blobs_keep_their_bytes() {
        let cfg = mixed_sources();
        let mut sim = Simulator::new(cfg.clone());
        let interval = Duration::from_secs_f64(512.0 * 8.0 / ONOFF_RATE_BPS);
        let warm = SimTime::ZERO + Duration::from_millis(500);
        let mut last_onoff = None;
        loop {
            let (at, _, ev) = sim.step().expect("the cut comes before the end");
            if let SimEvent::TrafficEmit {
                node: NodeId(1), ..
            } = ev
            {
                last_onoff = Some(at);
            }
            let off = last_onoff.is_some_and(|t: SimTime| at.saturating_since(t) > interval);
            if at > warm && off && sim.hot.rx[0].is_transmitting() {
                break;
            }
        }
        let snap = sim.snapshot();
        let pin = |blob: &Vec<u8>| (blob.len(), pcmac_snap::fnv1a64(blob));
        let got = (
            snap.time().as_nanos(),
            pin(&snap.nodes[0]),
            pin(&snap.nodes[1]),
        );
        assert_eq!(got, MIXED_GOLDEN);
        let again = Simulator::restore(cfg, &snap)
            .expect("the snapshot restores")
            .snapshot();
        assert_eq!(again.nodes, snap.nodes, "a restore writes the blobs back");
    }
}
