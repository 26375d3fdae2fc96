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

use std::sync::Arc;

use pcmac_aodv::AodvConfig;
use pcmac_engine::{Duration, EventQueue, Milliwatts, NodeId, Point, RngStream, SimTime};
use pcmac_mac::{CtrlFrame, DcfMac, Frame, MacAction, MacConfig};
use pcmac_mobility::{placement, Mobility, RandomWaypoint};
use pcmac_phy::energy::RadioMode;
use pcmac_phy::{RadioConfig, RxRow};

use crate::channel::{Arrival, Channel, Payload, QueueEntry, Shipment, Transmission};
use crate::config::{ExecutionMode, NodeSetup, ScenarioConfig};
use crate::event::SimEvent;
use crate::fault::{FaultRecord, FaultState};
use crate::metrics::{Drop as PacketDrop, MetricsState};
use crate::node::{Node, TrafficSource};
use crate::report::RunReport;
use crate::snapshot::{RunHooks, RunOutcome, SimSnapshot};
use crate::soa::HotState;
use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

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

/// Per-shard execution context: which nodes this simulator dispatches,
/// the outgoing cross-region arrival shipments of the current window,
/// and the down-state transition log other regions cull against.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    /// This shard's id.
    pub(crate) id: u32,
    /// Owning shard per node (shared, read-only).
    pub(crate) owner: Arc<Vec<u32>>,
    /// Outgoing shipments, bucketed by destination shard (slot `id` is
    /// always empty — owned receivers schedule locally).
    pub(crate) outbox: Vec<Vec<Shipment>>,
    /// Per-owned-node down-state transitions `(time, rank, down)`,
    /// appended only on actual state flips, in event order. Shipped
    /// arrivals are culled against the state strictly before their
    /// transmission's `(time, rank)` — exactly the cull the
    /// single-threaded sender loop applies inline.
    pub(crate) transitions: Vec<Vec<(SimTime, u128, bool)>>,
}

/// What one lane — a region shard, or the whole single-threaded
/// simulator — contributes to the report, extracted after its queue
/// drains and folded by [`Simulator::merge_report`].
pub(crate) struct ShardParts {
    /// The shard's full node replica (only owned entries are merged).
    pub(crate) nodes: Vec<Option<Box<Node>>>,
    /// Application packets emitted by owned sources.
    pub(crate) sent_packets: u64,
    /// Non-probe events scheduled on this shard's queue.
    pub(crate) events: u64,
    pub(crate) faults: Option<FaultState>,
    pub(crate) metrics: Option<MetricsState>,
}

/// Optional pre-dispatch callback: sees every event, in dispatch order.
pub(crate) type EventObserver<'a> = Option<&'a mut dyn FnMut(&SimEvent, SimTime)>;

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
    /// A snapshot waiting to be applied. Single-threaded restores apply
    /// immediately and never stash one; sharded restores park it here so
    /// `parallel::run_sharded` can overlay each owner-only shard *after*
    /// the shard build (which re-initialises the donated cold state).
    resume: Option<Arc<crate::snapshot::SimSnapshot>>,
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
    audit: ArrivalAudit,
}

/// Debug builds count how audible data arrivals are handled and pace the
/// reconciliation of the rows' arrival counts against the queue.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct ArrivalAudit {
    /// Data-channel arrival starts and ends that indicated something.
    audible: u64,
    /// Those that were a carrier edge held back from a MAC that was not
    /// listening: handled without touching the cold node.
    held: u64,
    /// Carrier edges held back so far, whatever indicated them.
    holds: u32,
    /// Fan-out walks so far.
    walks: u32,
}

/// Debug builds reconcile the rows' arrival counts with the pending
/// events on every this-many-th fan-out walk (a reconciliation is
/// O(pending + N)).
#[cfg(debug_assertions)]
const ON_AIR_AUDIT_EVERY: u32 = 4096;

/// Debug builds audit every this-many-th held carrier edge against copies
/// of the MAC it is held from (two clones and two serializations: at
/// every edge that is a tenfold slowdown of a debug run).
#[cfg(debug_assertions)]
const HELD_EDGE_AUDIT_EVERY: u32 = 64;

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

    /// Build shard `id` of a `shards`-way region run directly in
    /// owner-only form: cold [`Node`] state, traffic sources, and
    /// build-time events (first emissions, crashes, churn) materialise
    /// only for owned nodes, and the spatial index is pruned to the
    /// tracked set (owned + halo). Replicated machinery (impairment
    /// bursts, the probe chain) is scheduled everywhere.
    ///
    /// `donor` recycles cold state from an already-built full replica
    /// (see [`Simulator::take_cold_nodes`]): owned entries built there
    /// are *moved* in instead of constructed, so splitting one full
    /// simulator into S shards allocates no second copy of any node —
    /// the process peak stays at one full build. Entries the donor never
    /// built stay unbuilt here too. A freshly built box and a donated one
    /// are identical by construction (per-node RNG streams derive from
    /// the node id; the donor's attached traffic sources are cleared and
    /// re-attached below).
    pub(crate) fn new_shard(
        cfg: ScenarioConfig,
        id: u32,
        shards: usize,
        owner: Arc<Vec<u32>>,
        donor: &mut [Option<Box<Node>>],
    ) -> Self {
        Self::build(cfg, Some((id, shards, owner)), donor)
    }

    /// Move the cold per-node state out (`None` where a station is
    /// untouched) — the donor side of the no-realloc shard split in
    /// [`Simulator::new_shard`].
    pub(crate) fn take_cold_nodes(&mut self) -> Vec<Option<Box<Node>>> {
        std::mem::take(&mut self.nodes)
    }

    fn build(
        cfg: ScenarioConfig,
        shard_plan: Option<(u32, usize, Arc<Vec<u32>>)>,
        donor: &mut [Option<Box<Node>>],
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n = cfg.nodes.count();
        let owned = |i: usize| {
            shard_plan
                .as_ref()
                .is_none_or(|(id, _, owner)| owner[i] == *id)
        };
        let mut nodes: Vec<Option<Box<Node>>> = Vec::with_capacity(n);
        // One copy of the immutable per-scenario configuration, shared
        // by every node.
        let mac_cfg = Arc::new(cfg.mac.clone());
        let aodv_cfg = Arc::new(cfg.aodv.clone());
        let mut mobility = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        let mut any_mobile = false;

        let starts: Vec<Point> = match &cfg.nodes {
            NodeSetup::UniformWaypoint { count, .. } => {
                let mut rng = RngStream::derive(cfg.seed, "scenario.placement");
                placement::uniform(*count, cfg.field.0, cfg.field.1, &mut rng)
            }
            NodeSetup::Static(pts) => pts.clone(),
            NodeSetup::WaypointFrom { starts, .. } => starts.clone(),
        };

        for (i, start) in starts.iter().enumerate() {
            let m = match &cfg.nodes {
                NodeSetup::UniformWaypoint { speed, pause, .. }
                | NodeSetup::WaypointFrom { speed, pause, .. } => {
                    any_mobile = true;
                    Mobility::Waypoint(RandomWaypoint::new(
                        *start,
                        cfg.field.0,
                        cfg.field.1,
                        *speed,
                        *pause,
                        RngStream::derive_sub(cfg.seed, "mobility", i as u64),
                    ))
                }
                NodeSetup::Static(_) => Mobility::Static(*start),
            };
            mobility.push(m);
            // Cold state is built on a station's first touch, and only
            // ever for owned nodes: a shard never assembles the MAC
            // queues and routing tables of nodes another region
            // dispatches. A donated box is taken over as it is.
            let donated = owned(i)
                .then(|| donor.get_mut(i).and_then(Option::take))
                .flatten()
                .map(|mut b| {
                    // Re-attached (identically) by the flow loop below,
                    // like a fresh box's.
                    b.sources.clear();
                    b
                });
            nodes.push(donated);
            positions.push(*start);
        }

        // Attach traffic sources to their homes and schedule first
        // emissions.
        // Depth follows the transmissions and timers in flight, i.e. the
        // active flows, not the node count; the heap grows past this.
        let mut queue = EventQueue::with_capacity(2 * cfg.flows.len());
        for spec in &cfg.flows {
            let home = spec.src.index();
            assert!(home < nodes.len(), "flow source out of range");
            // Source RNG streams derive per flow id, so skipping the
            // foreign homes perturbs nothing an owned source draws.
            if !owned(home) {
                continue;
            }
            // A flow's home is touched at build: it holds the source.
            let home_node = nodes[home].get_or_insert_with(|| {
                Box::new(Node::new(
                    NodeId(home as u32),
                    Arc::clone(&mac_cfg),
                    Arc::clone(&aodv_cfg),
                    cfg.seed,
                ))
            });
            let mut src = TrafficSource::from_spec(spec, cfg.seed);
            if let Some(t0) = src.next_time() {
                let source_idx = home_node.sources.len();
                sched_into(
                    &mut queue,
                    t0,
                    SimEvent::TrafficEmit {
                        node: spec.src,
                        source: source_idx,
                    },
                );
            }
            home_node.sources.push(src);
        }

        let faults = cfg.faults.as_ref().map(|plan| {
            FaultState::new(plan, &cfg, owned, |at, ev| sched_into(&mut queue, at, ev))
        });

        // Observability: the probe chain rides the ordinary event queue.
        // Probe events are pure reads, and their queue insertions only
        // shift sequence numbers monotonically, so every other pair of
        // events keeps its relative order — a metrics-on run behaves
        // bit-identically to a metrics-off run.
        let metrics = cfg.metrics.map(|mc| {
            let mut m = MetricsState::new(n, cfg.mac.levels.count());
            let first = SimTime::ZERO + mc.interval();
            if first <= SimTime::ZERO + cfg.duration {
                sched_into(&mut queue, first, SimEvent::MetricsProbe);
                m.probes_scheduled += 1;
            }
            m
        });

        let mut hot = HotState {
            positions,
            mobility,
            alive: vec![true; n],
            tx_power_mw: vec![0.0; n],
            sampled_at: Vec::new(),
            tx_key_ctr: vec![0; n],
            rx: vec![RxRow::default(); n],
            // Only a PCMAC station ever radiates a control frame.
            ctrl_rx: vec![RxRow::default(); if cfg.mac.variant.is_pcmac() { n } else { 0 }],
            carrier: vec![0; n],
            held_noise: vec![Milliwatts::ZERO; n],
        };
        let mut channel = Channel::new(&cfg, &mut hot, any_mobile);

        // Region shards keep hot state only for owned nodes plus the
        // boundary halo; the spatial index is pruned to match, so grid
        // queries (always issued from owned transmitters) stay exact
        // while bucket memory shrinks to O(N/S + halo).
        let shard = shard_plan.map(|(id, shards, owner)| {
            channel.track_shard(&owner, id, &hot.positions);
            ShardCtx {
                id,
                owner,
                outbox: vec![Vec::new(); shards],
                transitions: vec![Vec::new(); n],
            }
        });

        Simulator {
            radio: cfg.radio.clone(),
            cfg,
            queue,
            nodes,
            mac_cfg,
            aodv_cfg,
            hot,
            channel,
            cur: (SimTime::ZERO, 0),
            shard,
            resume: None,
            sent_packets: 0,
            faults,
            metrics,
            mac_pool: BufPool::default(),
            aodv_pool: BufPool::default(),
            #[cfg(debug_assertions)]
            audit: ArrivalAudit::default(),
        }
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
            ExecutionMode::Sharded { shards } => {
                crate::parallel::run_sharded(self, shards, observer, hooks)
            }
        }
    }

    /// Schedule `ev` at `at` with its content-derived rank.
    #[inline]
    fn sched(&mut self, at: SimTime, ev: SimEvent) {
        sched_into(&mut self.queue, at, ev);
    }

    /// The one event loop: dispatch pending events in `(time, rank)`
    /// order — every one due strictly before `until`, at most `budget` of
    /// them — and return how many were dispatched. The single-threaded
    /// run (to the end, or to the next checkpoint or look at the cancel
    /// token), a shard's window and the test-only `step` are choices of
    /// bound and budget.
    ///
    /// A popped cursor is *held* for as long as its list keeps coming
    /// first (see [`Simulator::walk`]) and is back in the queue before
    /// this returns: whatever runs between two calls — a checkpoint cut,
    /// a cancel check, the window negotiation — sees every pending event
    /// in the queue, none on the side.
    ///
    /// `observer` sees each event just before it is dispatched. An
    /// arrival riding a cursor is materialised as a `SimEvent` for that
    /// call only; its dispatch reads the fan-out in place.
    fn advance(&mut self, until: SimTime, budget: u64, observer: &mut EventObserver<'_>) -> u64 {
        let mut fired = 0;
        while fired < budget {
            if self.queue.peek().is_none_or(|top| top.at >= until) {
                break;
            }
            let top = self.queue.pop().expect("peeked");
            match top.event {
                QueueEntry::Event(ev) => {
                    debug_assert_eq!(ev.rank(), top.rank, "queue key drifted from {ev:?}");
                    self.cur = (top.at, top.rank);
                    if let Some(obs) = observer {
                        obs(&ev, top.at);
                    }
                    self.dispatch(ev, top.at);
                    fired += 1;
                }
                QueueEntry::Cursor { fan, end } => {
                    let room = budget - fired;
                    fired += self.walk(fan, end, until, room, observer);
                    #[cfg(debug_assertions)]
                    {
                        self.audit.walks += 1;
                        if self.audit.walks.is_multiple_of(ON_AIR_AUDIT_EVERY) {
                            self.audit_on_air();
                        }
                    }
                }
            }
        }
        fired
    }

    /// Walk the start or `end` cursor of fan-out `fan`, just popped (its
    /// head's key is fired): dispatch the head arrival, then keep firing
    /// the list's next key and dispatching *in place* while that key
    /// precedes the queue's top and stays inside `until` and `budget`;
    /// otherwise push the cursor back under it. The comparison is made
    /// after every dispatch — a PCMAC receiver locking onto a frame
    /// schedules a zero-delay control broadcast whose first arrival can
    /// precede the data frame's next one. Returns the number dispatched
    /// (at least one).
    fn walk(
        &mut self,
        fan: u32,
        end: bool,
        until: SimTime,
        budget: u64,
        observer: &mut EventObserver<'_>,
    ) -> u64 {
        let (f, mut i) = self.channel.hold(fan, end);
        let mut key = f.key_of(i, end);
        debug_assert_eq!(key.0, self.queue.now(), "cursor keyed with its head");
        let mut fired = 0;
        loop {
            self.cur = key;
            if let Some(obs) = observer {
                obs(&f.event_of(i, end), key.0);
            }
            self.on_arrival(f.arrival(i), end, key.0);
            fired += 1;
            i += 1;
            if i == f.len() {
                break;
            }
            key = f.key_of(i, end);
            let top = self.queue.peek();
            let overtaken = top.is_some_and(|top| (top.at, top.rank) < key);
            if overtaken || fired == budget || key.0 >= until {
                self.queue
                    .push_cursor(key.0, key.1, QueueEntry::Cursor { fan, end });
                break;
            }
            self.queue.fire(key.0);
        }
        self.channel.release(fan, end, f, i);
        fired
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

    /// Read node `i`'s cold state without building it: an untouched
    /// station reads as the pristine node it would be built as.
    fn read_node<R>(&self, i: usize, f: impl FnOnce(&Node) -> R) -> R {
        match self.nodes[i].as_deref() {
            Some(node) => f(node),
            None => f(&self.pristine(i)),
        }
    }

    /// The single-threaded run. The cut logic mirrors the sharded epoch
    /// loop exactly: whenever the next event's time reaches a checkpoint
    /// grid instant, every grid instant up to it is snapshotted *before*
    /// the event dispatches, so both execution modes checkpoint at
    /// identical simulated times. Without hooks there is no grid and no
    /// token, and the loop below is one [`Simulator::advance`] call.
    fn run_single(mut self, mut observer: EventObserver<'_>, hooks: &RunHooks<'_>) -> RunOutcome {
        let wall_start = std::time::Instant::now();
        let end = SimTime::ZERO + self.cfg.duration;
        let every_ns = hooks.checkpoint_every.map(|e| e.as_nanos().max(1));
        let mut next_cp_ns =
            every_ns.map(|e| crate::snapshot::next_grid_point(self.queue.now(), e).as_nanos());
        let mut ticks: u64 = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let mut crossed_grid = false;
            while let Some(cp) = next_cp_ns {
                if t.as_nanos() < cp {
                    break;
                }
                if let Some(sink) = hooks.checkpoint_sink {
                    sink(self.snapshot_at(SimTime::from_nanos(cp)));
                }
                next_cp_ns = Some(cp.saturating_add(every_ns.expect("grid implies interval")));
                crossed_grid = true;
            }
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
            let until = next_cp_ns.map_or(past(end), |cp| past(end).min(SimTime::from_nanos(cp)));
            let budget = hooks.cancel.map_or(u64::MAX, |_| 0x100 - (ticks & 0xFF));
            ticks += self.advance(until, budget, &mut observer);
        }
        let cfg = self.cfg.clone();
        let owner = vec![0u32; cfg.nodes.count()];
        let parts = vec![self.into_shard_parts(end)];
        RunOutcome::Completed(Self::merge_report(&cfg, &owner, parts, wall_start))
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: SimEvent, now: SimTime) {
        match ev {
            SimEvent::ArrivalStart {
                node,
                key,
                power,
                frame,
                ..
            } => self.on_arrival_start(node.index(), key, power, &frame, now),
            SimEvent::ArrivalEnd { node, key, power } => {
                self.on_arrival_end(node.index(), key, power, now)
            }
            SimEvent::TxEnd { node } => {
                let i = node.index();
                let heard = self.hot.rx[i].end_tx(&self.radio);
                self.node_mut(i)
                    .energy
                    .set_mode(now, RadioMode::Idle, Milliwatts::ZERO);
                if heard.edge_after() {
                    self.carrier_edge(i, self.hot.rx[i].reported_busy(), now);
                }
                // A responder with no job of its own was not listening
                // while its CTS or ACK was on the air: both edges of that
                // transmission reach it here, just ahead of `on_tx_end`.
                self.mac_input(i, now, |mac, acts| mac.on_tx_end(now, acts));
            }
            SimEvent::CtrlArrivalStart {
                node,
                key,
                power,
                frame,
                ..
            } => self.on_ctrl_arrival_start(node.index(), key, power, &frame),
            SimEvent::CtrlArrivalEnd { node, key, power } => {
                self.on_ctrl_arrival_end(node.index(), key, power, now)
            }
            SimEvent::CtrlTxEnd { node } => {
                // The tolerance broadcast happens while the data radio is
                // mid-reception; energy for it was accounted at start,
                // and the control channel indicates no carrier edges.
                self.hot.ctrl_rx[node.index()].end_tx(&self.radio);
            }
            SimEvent::MacTimer { node, kind, token } => {
                self.mac_input(node.index(), now, |mac, acts| {
                    mac.on_timer(kind, token, now, acts)
                });
            }
            SimEvent::AodvTimer { node, dst, token } => {
                let i = node.index();
                let mut acts = self.aodv_pool.take();
                self.node_mut(i)
                    .aodv
                    .on_discovery_timeout(dst, token, now, &mut acts);
                self.apply_aodv_actions(i, acts, now);
            }
            SimEvent::TrafficEmit { node, source } => {
                let i = node.index();
                let (packet, next) = {
                    let src = &mut self.node_mut(i).sources[source];
                    let packet = src.emit(now);
                    (packet, src.next_time())
                };
                self.sent_packets += 1;
                if let Some(m) = &mut self.metrics {
                    m.note_sent(packet.id);
                }
                if let Some(t) = next {
                    self.sched(t, SimEvent::TrafficEmit { node, source });
                }
                let cur_rank = self.cur.1;
                if let Some(fs) = &mut self.faults {
                    fs.records.push((now, cur_rank, FaultRecord::Sent));
                    if fs.down[i] {
                        // The application emits into a dead stack:
                        // counted as sent, lost on the spot.
                        if let Some(m) = &mut self.metrics {
                            m.note_dropped(packet.id, PacketDrop::EmitDead, now, cur_rank);
                        }
                        return;
                    }
                }
                let mut acts = self.aodv_pool.take();
                self.node_mut(i).aodv.send(packet, now, &mut acts);
                self.apply_aodv_actions(i, acts, now);
            }
            SimEvent::NodeDown { node } => self.on_node_down(node.index(), now),
            SimEvent::NodeUp { node } => self.on_node_up(node.index(), now),
            SimEvent::ImpairmentStart { index } => self.set_impairment(index, true),
            SimEvent::ImpairmentEnd { index } => self.set_impairment(index, false),
            SimEvent::MetricsProbe => self.on_metrics_probe(now),
        }
    }

    /// One receiver's arrival start or `end`, straight from its fan-out.
    #[inline]
    fn on_arrival(&mut self, a: Arrival<'_>, end: bool, now: SimTime) {
        match (a.payload, end) {
            (Payload::Data(frame), false) => {
                self.on_arrival_start(a.node, a.key, a.power, frame, now)
            }
            (Payload::Data(_), true) => self.on_arrival_end(a.node, a.key, a.power, now),
            (Payload::Ctrl(frame), false) => {
                self.on_ctrl_arrival_start(a.node, a.key, a.power, frame)
            }
            (Payload::Ctrl(_), true) => self.on_ctrl_arrival_end(a.node, a.key, a.power, now),
        }
    }

    /// A frame starts arriving at node `i` on the data channel. Whatever
    /// it does to the interference sum happens on the node's hot row; the
    /// cold node is reached only for a lock-on, or for a carrier edge its
    /// MAC is listening for.
    fn on_arrival_start(
        &mut self,
        i: usize,
        key: u64,
        power: Milliwatts,
        frame: &Arc<Frame>,
        now: SimTime,
    ) {
        let row = &mut self.hot.rx[i];
        // Row state *before* the arrival, for the PHY drop taxonomy.
        let (was_tx, was_rx) = (row.is_transmitting(), row.is_receiving());
        let heard = row.arrival_start(&self.radio, key, power);
        let busy = row.reported_busy();
        if let Some(m) = &mut self.metrics {
            m.phy.arrivals += 1;
            let addressed = frame.rx == NodeId(i as u32) || frame.rx.is_broadcast();
            if heard.rx_start() {
                // Fresh lock: no overlap observed yet.
                m.rx_overlap[i] = false;
            } else if was_rx {
                // Overlaps the arrival the row is locked to.
                m.rx_overlap[i] = true;
                if addressed {
                    m.phy.captured_away += 1;
                }
            } else if was_tx {
                if addressed {
                    m.phy.missed_while_tx += 1;
                }
            } else if addressed {
                // Idle and still not locked: below the decode threshold
                // (heard as noise at most).
                m.phy.below_rx_thresh += 1;
            }
            if addressed
                && self
                    .faults
                    .as_ref()
                    .is_some_and(|f| f.burst_active.iter().any(|b| *b))
            {
                m.phy.impaired_arrivals += 1;
            }
        }
        if heard.is_silent() {
            return;
        }
        #[cfg(debug_assertions)]
        self.count_audible(i, heard);
        if heard.edge_before() {
            self.carrier_edge(i, busy, now);
        }
        if heard.rx_start() {
            self.node_mut(i).locked = Some(Arc::clone(frame));
            let remaining = self.cfg.mac.timing.frame_airtime(frame);
            self.indicate(i, now, |mac, noise, acts| {
                mac.on_rx_start(frame, power, noise, remaining, now, acts)
            });
        }
        if heard.edge_after() {
            self.carrier_edge(i, busy, now);
        }
    }

    /// The data-channel arrival keyed `key`, which started at `power`,
    /// finished at node `i`.
    fn on_arrival_end(&mut self, i: usize, key: u64, power: Milliwatts, now: SimTime) {
        let row = &mut self.hot.rx[i];
        let heard = row.arrival_end(&self.radio, key, power);
        let busy = row.reported_busy();
        if heard.is_silent() {
            return;
        }
        #[cfg(debug_assertions)]
        self.count_audible(i, heard);
        if let Some(ok) = heard.rx_end() {
            if let Some(m) = &mut self.metrics {
                if ok {
                    m.phy.decoded_ok += 1;
                    if m.rx_overlap[i] {
                        m.phy.capture_wins += 1;
                    }
                } else {
                    m.phy.collided += 1;
                }
                m.rx_overlap[i] = false;
            }
            let frame = self
                .node_mut(i)
                .locked
                .take()
                .expect("a locked row's frame is held by its node");
            self.indicate(i, now, |mac, _, acts| {
                mac.on_rx_end((*frame).clone(), power, ok, now, acts)
            });
        }
        if heard.edge_after() {
            self.carrier_edge(i, busy, now);
        }
    }

    /// A power-control broadcast starts arriving at node `i`. The control
    /// channel is pure broadcast signalling — no carrier sense, no NAV —
    /// so unless the row locks on this is row arithmetic and nothing else.
    fn on_ctrl_arrival_start(&mut self, i: usize, key: u64, power: Milliwatts, frame: &CtrlFrame) {
        let heard = self.hot.ctrl_rx[i].arrival_start(&self.radio, key, power);
        if heard.rx_start() {
            self.node_mut(i).ctrl_locked = Some(frame.clone());
        }
    }

    /// The control-channel arrival keyed `key`, which started at `power`,
    /// finished at node `i`: only a successfully decoded broadcast
    /// matters to the MAC.
    fn on_ctrl_arrival_end(&mut self, i: usize, key: u64, power: Milliwatts, now: SimTime) {
        let heard = self.hot.ctrl_rx[i].arrival_end(&self.radio, key, power);
        if let Some(ok) = heard.rx_end() {
            let frame = self
                .node_mut(i)
                .ctrl_locked
                .take()
                .expect("a locked row's frame is held by its node");
            if ok {
                self.with_mac(i, now, |mac| mac.on_ctrl_rx(frame, power, now));
            }
        }
    }

    // ------------------------------------------------------------------
    // Reaching a MAC, and the carrier edges it is owed
    // ------------------------------------------------------------------

    /// Run `f` on node `i`'s MAC — the one place this module takes a MAC
    /// mutably. A carrier edge held back while the MAC was not listening
    /// (see [`Simulator::carrier_edge`]) is told first, so `f` finds the
    /// MAC exactly as eager delivery would have left it; afterwards the
    /// listening bit is read again, since any input can hand the MAC a
    /// job or arm a timer.
    #[inline]
    fn with_mac<R>(&mut self, i: usize, now: SimTime, f: impl FnOnce(&mut DcfMac) -> R) -> R {
        let held = self.hot.held_edge(i);
        let mac = &mut self.node_mut(i).mac;
        if let Some((busy, noise)) = held {
            tell_held_edge(mac, busy, noise, now);
        }
        let out = f(mac);
        let listening = mac.listening();
        self.hot.mac_heard(i, listening);
        out
    }

    /// Give node `i`'s MAC an input and apply the actions it answers with.
    fn mac_input(
        &mut self,
        i: usize,
        now: SimTime,
        f: impl FnOnce(&mut DcfMac, &mut Vec<MacAction>),
    ) {
        let mut acts = self.mac_pool.take();
        self.with_mac(i, now, |mac| f(mac, &mut acts));
        self.apply_mac_actions(i, acts, now);
    }

    /// Give node `i`'s MAC an indication from its data row, behind a
    /// fresh reading of the noise there (which `f` is handed too).
    fn indicate(
        &mut self,
        i: usize,
        now: SimTime,
        f: impl FnOnce(&mut DcfMac, Milliwatts, &mut Vec<MacAction>),
    ) {
        let noise = self.hot.rx[i].noise_power(&self.radio);
        self.mac_input(i, now, |mac, acts| {
            mac.set_noise(noise);
            f(mac, noise, acts)
        });
    }

    /// Node `i`'s data row has indicated a carrier edge towards `busy`.
    /// A MAC that is listening hears it now. For any other MAC the edge
    /// is a carrier bit and a noise figure to store (see
    /// [`DcfMac::listening`]), so it is held on the hot side — its
    /// direction and the noise measured at it — without touching the
    /// cold node, and [`Simulator::with_mac`] tells the latest held edge
    /// ahead of that MAC's next input.
    fn carrier_edge(&mut self, i: usize, busy: bool, now: SimTime) {
        if self.hot.mac_listening(i) {
            return self.indicate(i, now, |mac, _, acts| mac.on_carrier(busy, now, acts));
        }
        let noise = self.hot.rx[i].noise_power(&self.radio);
        #[cfg(debug_assertions)]
        {
            self.audit.holds += 1;
            if self.audit.holds.is_multiple_of(HELD_EDGE_AUDIT_EVERY) {
                self.audit_held_edge(i, busy, noise, now);
            }
        }
        self.hot.hold_edge(i, busy, noise);
    }

    /// Debug builds count the data-channel arrival starts and ends that
    /// indicate anything, and those among them handled without touching
    /// the cold node: a carrier edge and nothing else, held back.
    #[cfg(debug_assertions)]
    fn count_audible(&mut self, i: usize, heard: pcmac_phy::Heard) {
        self.audit.audible += 1;
        self.audit.held += u64::from(heard.edge_only() && !self.hot.mac_listening(i));
    }

    /// Debug builds check a sample of the held edges
    /// ([`HELD_EDGE_AUDIT_EVERY`]) against the proof they rest on: told
    /// to a copy of the MAC the edge produces no action and leaves the
    /// copy not listening, and — when an earlier edge is still held — the
    /// copy told only this edge is byte for byte the copy told both: the
    /// induction step that makes a lazily told MAC the eagerly told one.
    #[cfg(debug_assertions)]
    fn audit_held_edge(&self, i: usize, busy: bool, noise: Milliwatts, now: SimTime) {
        let bytes = |mac: &DcfMac| {
            let mut w = SnapWriter::new();
            mac.save_state(&mut w);
            w.payload().to_vec()
        };
        let mac = self.read_node(i, |node| node.mac.clone());
        let mut latest = mac.clone();
        tell_held_edge(&mut latest, busy, noise, now);
        assert!(!latest.listening(), "a carrier edge made node {i} listen");
        if let Some((earlier, noise_then)) = self.hot.held_edge(i) {
            let mut both = mac;
            tell_held_edge(&mut both, earlier, noise_then, now);
            tell_held_edge(&mut both, busy, noise, now);
            assert!(
                bytes(&latest) == bytes(&both),
                "node {i}: skipping a held carrier edge changed its MAC"
            );
        }
    }

    /// The first node held here whose rows count other arrivals on the
    /// air than `pending` shows started and not ended.
    fn on_air_mismatch(&self, pending: &[(SimTime, u128, SimEvent)]) -> Option<usize> {
        let on_air = arrivals_on_air(pending, self.nodes.len());
        (0..self.nodes.len()).find(|&i| {
            let ctrl = self.hot.ctrl_rx.get(i).map_or(0, RxRow::on_air);
            self.owns(i) && on_air[i] != [i64::from(self.hot.rx[i].on_air()), i64::from(ctrl)]
        })
    }

    /// Debug builds reconcile the rows with the queue as a run goes.
    #[cfg(debug_assertions)]
    fn audit_on_air(&self) {
        let pending = self.channel.pending_events(&self.queue);
        assert_eq!(
            self.on_air_mismatch(&pending),
            None,
            "a node's receive rows disagree with its pending arrivals"
        );
    }

    /// Handle the periodic metrics probe: sample the instantaneous
    /// channel/queue/liveness observables into the time series and
    /// schedule the next probe. Reads only — no protocol state changes.
    fn on_metrics_probe(&mut self, now: SimTime) {
        let end = SimTime::ZERO + self.cfg.duration;
        let mut live = 0u64;
        let mut busy = 0u64;
        let mut queue_sum = 0u64;
        for i in 0..self.hot.alive.len() {
            // Each region shard samples its own nodes; the per-shard
            // integer sums add up to exactly the single-threaded sample.
            if let Some(ctx) = &self.shard {
                if ctx.owner[i] != ctx.id {
                    continue;
                }
            }
            // The probe is the natural audit point for the liveness
            // mirror: debug builds cross-check it against the fault state.
            debug_assert_eq!(
                self.hot.alive[i],
                !self.faults.as_ref().is_some_and(|f| f.down[i]),
                "alive mirror diverged for node {i}"
            );
            if !self.hot.alive[i] {
                continue;
            }
            // Carrier state is the hot row's; queue depth is read where
            // it lives (an untouched station's queue is empty): a probe
            // walks the nodes once a sampling interval, whereas a mirror
            // would have to be refreshed after every event.
            live += 1;
            if self.hot.rx[i].carrier_busy(&self.radio) {
                busy += 1;
            }
            queue_sum += self.nodes[i]
                .as_deref()
                .map_or(0, |node| node.mac.queue_len() as u64);
        }
        let (Some(m), Some(mc)) = (&mut self.metrics, self.cfg.metrics) else {
            return;
        };
        m.record_probe(now, live, busy, queue_sum);
        let next = now + mc.interval();
        if next <= end {
            sched_into(&mut self.queue, next, SimEvent::MetricsProbe);
            m.probes_scheduled += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// `true` while node `i` is crashed.
    fn node_is_down(&self, i: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.down[i])
    }

    /// Apply a `NodeDown`: from here on the node schedules no arrivals,
    /// is skipped as a receiver, and accrues no transmit energy. See
    /// [`FaultState`] for the full crash semantics. In a sharded run the
    /// transition is also logged under its global `(time, rank)` so
    /// neighbouring regions' in-flight transmissions can be culled
    /// against the exact down-state at their send instant.
    fn on_node_down(&mut self, i: usize, now: SimTime) {
        let rank = self.cur.1;
        let Some(fs) = &mut self.faults else { return };
        if fs.down[i] {
            return; // a scheduled crash overlapping churn: already down
        }
        fs.down[i] = true;
        fs.crashes += 1;
        self.hot.alive[i] = false;
        if let Some(ctx) = &mut self.shard {
            ctx.transitions[i].push((now, rank, true));
        }
    }

    /// Apply a `NodeUp`. Exhausted energy budgets are permanent: a
    /// churn recovery scheduled for later cannot resurrect the node.
    fn on_node_up(&mut self, i: usize, now: SimTime) {
        let expire = {
            let (Some(fs), Some(plan)) = (&mut self.faults, &self.cfg.faults) else {
                return;
            };
            if !fs.down[i] || fs.energy_dead[i] {
                return;
            }
            fs.down[i] = false;
            fs.recoveries += 1;
            plan.expire_routes == Some(true)
        };
        self.hot.alive[i] = true;
        if let Some(ctx) = &mut self.shard {
            ctx.transitions[i].push((now, self.cur.1, false));
        }
        if expire {
            // Reboot semantics: routing state is volatile and is lost
            // with the node; the experimenter's counters survive.
            let aodv = &mut self.node_mut(i).aodv;
            let counters = aodv.counters;
            *aodv = pcmac_aodv::AodvAgent::new(NodeId(i as u32), aodv.shared_config());
            aodv.counters = counters;
        }
    }

    /// (De)activate impairment burst `index`: recompute the composite
    /// attenuation and noise multiplier from the plan (products over
    /// the active set, so there is no incremental float drift), and
    /// scale the noise floor every receive row is read against.
    fn set_impairment(&mut self, index: usize, active: bool) {
        let (Some(fs), Some(plan)) = (&mut self.faults, &self.cfg.faults) else {
            return;
        };
        fs.burst_active[index] = active;
        let bursts = plan.impairments.as_deref().unwrap_or(&[]);
        let mut gain = 1.0;
        let mut noise = 1.0;
        for (k, b) in bursts.iter().enumerate() {
            if fs.burst_active[k] {
                gain *= 10f64.powf(-b.extra_loss_db / 10.0);
                noise *= b.noise_mult.unwrap_or(1.0);
            }
        }
        fs.impair_gain = gain;
        fs.noise_mult = noise;
        // The floor stays below any sane carrier-sense threshold, so no
        // busy/idle edge can result; already-locked frames keep the
        // corruption verdicts reached so far.
        self.radio.noise_floor = self.cfg.radio.noise_floor * noise;
    }

    /// Account the radiated energy a data transmission commits (tx
    /// power × airtime) against the node's budget, scheduling its
    /// permanent death at the end of the transmission that exhausts it.
    fn commit_energy(&mut self, i: usize, power: Milliwatts, airtime: Duration, end: SimTime) {
        let (now, cur_rank) = self.cur;
        let died = {
            let (Some(fs), Some(plan)) = (&mut self.faults, &self.cfg.faults) else {
                return;
            };
            let Some(budget) = plan.energy_budget_mj else {
                return;
            };
            if fs.energy_dead[i] {
                return; // death already scheduled at an earlier tx's end
            }
            fs.committed_mj[i] += power.value() * airtime.as_secs_f64();
            if fs.committed_mj[i] >= budget {
                fs.energy_dead[i] = true;
                fs.energy_deaths += 1;
                // An exhausted budget is a fault like any other: it opens
                // (or extends) the fault window to the end of the run —
                // applied during the report replay, at this exact point in
                // the global record order.
                fs.records
                    .push((now, cur_rank, FaultRecord::EnergyDeath { death_at: end }));
                true
            } else {
                false
            }
        };
        if died {
            self.sched(
                end,
                SimEvent::NodeDown {
                    node: NodeId(i as u32),
                },
            );
        }
    }

    /// A data packet at node `i` lost its next hop: open a route-repair
    /// observation for (node, destination) unless one is pending.
    fn note_repair_start(&mut self, i: usize, dst: NodeId, now: SimTime) {
        let Some(fs) = &mut self.faults else { return };
        let key = (i as u32, dst.0);
        if fs.pending_repairs.iter().any(|&(n, d, _)| (n, d) == key) {
            return;
        }
        fs.pending_repairs.push((key.0, key.1, now));
        fs.repairs_started += 1;
    }

    /// Data is flowing from node `i` toward `dst` again (a fresh route
    /// exists): close the pending repair, recording its latency.
    fn note_repair_complete(&mut self, i: usize, dst: NodeId, now: SimTime) {
        let Some(fs) = &mut self.faults else { return };
        let key = (i as u32, dst.0);
        if let Some(idx) = fs
            .pending_repairs
            .iter()
            .position(|&(n, d, _)| (n, d) == key)
        {
            let (_, _, t0) = fs.pending_repairs.swap_remove(idx);
            fs.repair_latency.record((now - t0).as_secs_f64());
        }
    }

    // ------------------------------------------------------------------
    // Action application
    // ------------------------------------------------------------------

    fn apply_mac_actions(&mut self, i: usize, mut actions: Vec<MacAction>, now: SimTime) {
        for a in actions.drain(..) {
            match a {
                MacAction::TxFrame { frame, power } => self.transmit_frame(i, frame, power, now),
                MacAction::TxCtrl { frame, power } => self.transmit_ctrl(i, frame, power, now),
                MacAction::Arm { kind, delay, token } => {
                    self.sched(
                        now + delay,
                        SimEvent::MacTimer {
                            node: NodeId(i as u32),
                            kind,
                            token,
                        },
                    );
                }
                MacAction::Deliver { packet, from } => {
                    let mut acts = self.aodv_pool.take();
                    self.node_mut(i)
                        .aodv
                        .on_packet(packet, from, now, &mut acts);
                    self.apply_aodv_actions(i, acts, now);
                }
                MacAction::LinkFailure { packet, next_hop } => {
                    if self.faults.is_some() && !packet.payload.is_routing() {
                        self.note_repair_start(i, packet.dst, now);
                    }
                    // Purge other frames queued for the dead hop first, so
                    // the routing agent can salvage or drop them too.
                    let drained = self.with_mac(i, now, |mac| mac.drain_next_hop(next_hop));
                    let mut acts = self.aodv_pool.take();
                    self.node_mut(i)
                        .aodv
                        .on_link_failure(packet, next_hop, now, &mut acts);
                    for qp in drained {
                        if self.faults.is_some() && !qp.packet.payload.is_routing() {
                            self.note_repair_start(i, qp.packet.dst, now);
                        }
                        self.node_mut(i)
                            .aodv
                            .on_link_failure(qp.packet, next_hop, now, &mut acts);
                    }
                    self.apply_aodv_actions(i, acts, now);
                }
                MacAction::QueueDrop { packet } => {
                    // Counted inside the MAC; only the fate map cares.
                    // Routing frames never enter the fate map (they were
                    // never `note_sent`), so they are filtered here rather
                    // than registered as spurious drops.
                    if !packet.payload.is_routing() {
                        let cur_rank = self.cur.1;
                        if let Some(m) = &mut self.metrics {
                            m.note_dropped(packet.id, PacketDrop::MacQueueFull, now, cur_rank);
                        }
                    }
                }
            }
        }
        self.mac_pool.put(actions);
    }

    fn apply_aodv_actions(
        &mut self,
        i: usize,
        mut actions: Vec<pcmac_aodv::AodvAction>,
        now: SimTime,
    ) {
        use pcmac_aodv::AodvAction;
        for a in actions.drain(..) {
            match a {
                AodvAction::Transmit { packet, next_hop } => {
                    if self.faults.is_some() && !packet.payload.is_routing() {
                        // A data packet has a usable next hop again.
                        self.note_repair_complete(i, packet.dst, now);
                    }
                    self.mac_input(i, now, |mac, acts| mac.enqueue(packet, next_hop, now, acts));
                }
                AodvAction::DeliverLocal { packet } => {
                    let cur_rank = self.cur.1;
                    if let Some(fs) = &mut self.faults {
                        fs.records.push((
                            now,
                            cur_rank,
                            FaultRecord::Delivered {
                                created_at: packet.created_at,
                            },
                        ));
                    }
                    if !packet.payload.is_routing() {
                        if let Some(m) = &mut self.metrics {
                            m.note_delivered(packet.id);
                        }
                    }
                    self.node_mut(i).sink.deliver(&packet, now);
                }
                AodvAction::Arm { dst, delay, token } => {
                    self.sched(
                        now + delay,
                        SimEvent::AodvTimer {
                            node: NodeId(i as u32),
                            dst,
                            token,
                        },
                    );
                }
                AodvAction::PeerReset { peer } => {
                    self.with_mac(i, now, |mac| mac.reset_peer_state(peer));
                }
                AodvAction::Drop { packet, reason } => {
                    // Counted inside the agent; only the fate map cares
                    // (and only about application packets — see QueueDrop).
                    if !packet.payload.is_routing() {
                        let cur_rank = self.cur.1;
                        if let Some(m) = &mut self.metrics {
                            m.note_dropped(packet.id, reason.into(), now, cur_rank);
                        }
                    }
                }
            }
        }
        self.aodv_pool.put(actions);
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Mint the transmission key for node `i`'s next transmission:
    /// `(node << 32) | per-node counter`. A shard executes exactly the
    /// transmissions of the nodes it owns, in the reference order, so the
    /// counter — and therefore the key carried by every shipped arrival —
    /// matches the single-threaded run.
    #[inline]
    fn tx_key(&mut self, i: usize) -> u64 {
        let k = ((i as u64) << 32) | self.hot.tx_key_ctr[i] as u64;
        self.hot.tx_key_ctr[i] += 1;
        k
    }

    fn transmit_frame(&mut self, i: usize, frame: Frame, power: Milliwatts, now: SimTime) {
        let airtime = self.cfg.mac.timing.frame_airtime(&frame);
        let end = now + airtime;
        let down = self.node_is_down(i);

        let heard = self.hot.rx[i].start_tx(&self.radio);
        let node = self.node_mut(i);
        // Our own transmission aborts a reception in progress.
        node.locked = None;
        if !down {
            node.energy.set_mode(now, RadioMode::Transmit, power);
        }
        if heard.edge_after() {
            self.carrier_edge(i, self.hot.rx[i].reported_busy(), now);
        }
        self.sched(
            end,
            SimEvent::TxEnd {
                node: NodeId(i as u32),
            },
        );
        if down {
            // A crashed node's MAC still goes through the motions (its
            // state machine stays consistent for recovery), but nothing
            // is radiated: no arrivals, no energy.
            return;
        }
        self.commit_energy(i, power, airtime, end);
        self.hot.tx_power_mw[i] = power.value();
        if let Some(m) = &mut self.metrics {
            m.note_data_tx(self.hot.tx_power_mw[i], self.cfg.mac.levels.all());
        }

        self.radiate(i, Payload::Data(Arc::new(frame)), power, now, end);
    }

    fn transmit_ctrl(&mut self, i: usize, frame: CtrlFrame, power: Milliwatts, now: SimTime) {
        let airtime = CtrlFrame::airtime(self.cfg.mac.pcmac.ctrl_rate_bps);
        let end = now + airtime;

        self.hot.ctrl_rx[i].start_tx(&self.radio);
        self.node_mut(i).ctrl_locked = None;
        // The ctrl broadcast radiates too (the data radio may be mid-rx;
        // energy is attributed per-channel, transmit wins for the overlap).
        self.sched(
            end,
            SimEvent::CtrlTxEnd {
                node: NodeId(i as u32),
            },
        );
        if self.node_is_down(i) {
            return; // dead radios broadcast nothing
        }
        if let Some(m) = &mut self.metrics {
            m.note_ctrl_tx();
        }

        self.radiate(i, Payload::Ctrl(frame), power, now, end);
    }

    /// Put `payload` on the air from live node `i` over `[now, end]`
    /// under a freshly minted transmission key.
    fn radiate(
        &mut self,
        i: usize,
        payload: Payload,
        power: Milliwatts,
        now: SimTime,
        end: SimTime,
    ) {
        let tx = Transmission {
            src: i,
            key: self.tx_key(i),
            power,
            impair: self.faults.as_ref().map_or(1.0, |f| f.impair_gain),
            start: now,
            end,
            payload,
            cause: self.cur,
        };
        self.channel.radiate(
            tx,
            &mut self.hot,
            self.metrics.as_mut().map(|m| &mut m.hot),
            self.faults.as_ref().map(|f| &f.down[..]),
            self.shard.as_mut(),
            &mut self.queue,
        );
    }
}

// ----------------------------------------------------------------------
// Checkpoint capture and restore (see the `snapshot` module docs)
// ----------------------------------------------------------------------

/// What one execution lane (the single-threaded simulator, or one region
/// shard) contributes to a collective snapshot at a cut. Contributions
/// are owned clones — merging them needs no further synchronization with
/// the lanes that produced them.
pub(crate) struct SnapContribution {
    /// This lane's full pending population — logical events, cursor
    /// tails expanded — in `(time, rank, insertion)` order.
    pending: Vec<(SimTime, u128, SimEvent)>,
    /// Raw events ever scheduled on this lane's queue.
    scheduled_total: u64,
    /// Probe events scheduled on this lane (every lane schedules its own
    /// replica of the probe chain).
    probes_scheduled: u64,
    sent_packets: u64,
    /// Blobs for owned nodes, untouched ones included (`None` where the
    /// node lives on another shard).
    node_blobs: Vec<Option<Vec<u8>>>,
    tx_key_ctr: Vec<u32>,
    faults: Option<FaultState>,
    metrics: Option<MetricsState>,
    /// Mobility models advanced to the cut; primary lane only (every
    /// lane holds the identical full replica).
    mobility: Option<Vec<Mobility>>,
}

impl Simulator {
    /// Capture the complete deterministic state at the current instant —
    /// every event dispatched so far is reflected, every pending event is
    /// recorded. Restoring the snapshot (under this or any equivalent
    /// execution mode) and running to the end is bit-identical to never
    /// having stopped.
    ///
    /// # Panics
    /// If called on one shard of a sharded run (shards snapshot
    /// *collectively* at epoch boundaries; see `parallel`).
    pub fn snapshot(&self) -> SimSnapshot {
        assert!(
            self.shard.is_none(),
            "snapshot() captures the full simulator, not one region shard"
        );
        self.snapshot_at(self.queue.now())
    }

    /// Single-lane capture at `cut` (every event strictly before `cut`
    /// has been dispatched; callers guarantee `cut` is at most the next
    /// pending event's time).
    pub(crate) fn snapshot_at(&self, cut: SimTime) -> SimSnapshot {
        let owner = vec![0u32; self.cfg.nodes.count()];
        let contrib = self.snap_contribution(cut);
        Self::merge_contributions(&self.cfg, cut, &owner, vec![contrib])
    }

    /// This lane's share of a snapshot at `cut`.
    pub(crate) fn snap_contribution(&self, cut: SimTime) -> SnapContribution {
        let pending = self.channel.pending_events(&self.queue);
        // One scratch writer for every node: per-node `SnapWriter`s pay
        // allocator growth 64k times over at scale.
        let mut scratch = SnapWriter::new();
        let node_blobs: Vec<Option<Vec<u8>>> = (0..self.nodes.len())
            .map(|i| {
                self.owns(i).then(|| {
                    scratch.clear();
                    self.save_node(i, cut, &mut scratch);
                    scratch.payload().to_vec()
                })
            })
            .collect();
        // Advance the mobility clones exactly to the cut: waypoint
        // queries are non-decreasing and idempotent, so this is the
        // state an uninterrupted run carries at `cut` regardless of when
        // each node was last sampled.
        let primary = self.shard.as_ref().is_none_or(|c| c.id == 0);
        let mobility = primary.then(|| {
            let mut m = self.hot.mobility.clone();
            for mm in &mut m {
                let _ = mm.position(cut);
            }
            m
        });
        SnapContribution {
            pending,
            scheduled_total: self.queue.scheduled_total(),
            probes_scheduled: self.metrics.as_ref().map_or(0, |m| m.probes_scheduled),
            sent_packets: self.sent_packets,
            node_blobs,
            tx_key_ctr: self.hot.tx_key_ctr.clone(),
            faults: self.faults.clone(),
            metrics: self.metrics.clone(),
            mobility,
        }
    }

    /// Node `i`'s blob: its receive rows, then the cold state. The MAC
    /// is written **as told**: a held carrier edge lives only in this
    /// simulator's hot arrays, which no snapshot carries, so a MAC that
    /// is owed one is written from a copy that has heard it — the state
    /// eager delivery would have captured, whatever was deferred here.
    /// An untouched station is written as the pristine node it would be
    /// built as, so when a node is built never shows in a checkpoint.
    fn save_node(&self, i: usize, cut: SimTime, w: &mut SnapWriter) {
        self.hot.rx[i].save(w);
        if let Some(row) = self.hot.ctrl_rx.get(i) {
            row.save(w);
        }
        self.read_node(i, |node| {
            let Some((busy, noise)) = self.hot.held_edge(i) else {
                return node.save_state(&node.mac, w);
            };
            let mut told = node.mac.clone();
            tell_held_edge(&mut told, busy, noise, cut);
            node.save_state(&told, w);
        });
    }

    /// Overlay a blob written by [`Simulator::save_node`] on node `i`, if
    /// this simulator owns it, building the node if it is untouched. The
    /// MAC arrives as told, so nothing is held back and only its
    /// listening bit needs deriving.
    fn load_node(&mut self, i: usize, blob: &[u8]) -> Result<(), SnapError> {
        if !self.owns(i) {
            return Ok(());
        }
        let mut r = SnapReader::over(blob);
        self.hot.rx[i] = Snap::load(&mut r)?;
        if let Some(row) = self.hot.ctrl_rx.get_mut(i) {
            *row = Snap::load(&mut r)?;
        }
        let node = self.node_mut(i);
        node.load_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt("node blob trailing bytes"));
        }
        let locked = (node.locked.is_some(), node.ctrl_locked.is_some());
        let listening = node.mac.listening();
        let ctrl_locked = self.hot.ctrl_rx.get(i).is_some_and(RxRow::is_receiving);
        if (self.hot.rx[i].is_receiving(), ctrl_locked) != locked {
            return Err(SnapError::Corrupt("locked frame does not match its row"));
        }
        self.hot.mac_heard(i, listening);
        Ok(())
    }

    /// Fold per-lane contributions into the canonical (single-equivalent)
    /// snapshot. `owner` maps each node to the contributing lane holding
    /// its state (all zeros for a single-threaded capture).
    pub(crate) fn merge_contributions(
        cfg: &ScenarioConfig,
        cut: SimTime,
        owner: &[u32],
        mut parts: Vec<SnapContribution>,
    ) -> SimSnapshot {
        let s = parts.len() as u64;
        let n = owner.len();
        let n_bursts = replicated_bursts(cfg);
        let probes_scheduled = parts[0].probes_scheduled;
        debug_assert!(parts.iter().all(|p| p.probes_scheduled == probes_scheduled));
        // Canonical scheduled total: replicated machinery — the
        // impairment edges every shard schedules, each shard's own probe
        // chain — counted once, exactly like the merged event count.
        let scheduled_total = parts
            .iter()
            .map(|p| p.scheduled_total - p.probes_scheduled)
            .sum::<u64>()
            - (s - 1) * 2 * n_bursts
            + probes_scheduled;
        let sent_packets = parts.iter().map(|p| p.sent_packets).sum();
        // Canonical pending population: the primary lane contributes
        // everything (it holds one replica of the impairment/probe
        // events); other shards contribute their node-addressed events.
        // The sort is stable, so events sharing a full `(time, rank)`
        // key — necessarily same-node, hence same-lane — keep their
        // queue-insertion order.
        let mut pending = std::mem::take(&mut parts[0].pending);
        for p in parts.iter_mut().skip(1) {
            pending.extend(
                p.pending
                    .drain(..)
                    .filter(|(_, _, e)| e.node_index().is_some()),
            );
        }
        pending.sort_by_key(|&(at, rank, _)| (at, rank));
        let mut nodes = vec![Vec::new(); n];
        let mut tx_key_ctr = vec![0u32; n];
        for (i, &o) in owner.iter().enumerate() {
            let p = &mut parts[o as usize];
            nodes[i] = p.node_blobs[i].take().expect("owner holds the node");
            tx_key_ctr[i] = p.tx_key_ctr[i];
        }
        let mobility = parts[0].mobility.take().expect("primary carries mobility");
        let fault_parts: Vec<FaultState> =
            parts.iter_mut().filter_map(|p| p.faults.take()).collect();
        let faults = (!fault_parts.is_empty()).then(|| FaultState::merge(fault_parts, owner));
        let metric_parts: Vec<MetricsState> =
            parts.iter_mut().filter_map(|p| p.metrics.take()).collect();
        let metrics = (!metric_parts.is_empty()).then(|| MetricsState::merge(metric_parts));
        SimSnapshot {
            cfg_digest: crate::snapshot::config_digest(cfg),
            time: cut,
            scheduled_total,
            sent_packets,
            probes_scheduled,
            pending,
            mobility,
            tx_key_ctr,
            nodes,
            faults,
            metrics,
        }
    }

    /// Fold what each lane surrendered when its queue drained
    /// ([`Simulator::into_shard_parts`]) into the run's report — the
    /// counterpart of [`Simulator::merge_contributions`] at the end of a
    /// run. `owner` maps each node to the lane holding its state (all
    /// zeros for a single-threaded run, whose one part this returns
    /// unchanged): per-node state is read from its owner, counters are
    /// summed and fault records replayed in `(time, rank)` order, all in
    /// fixed lane order with no wall-clock input but `wall_s`.
    pub(crate) fn merge_report(
        cfg: &ScenarioConfig,
        owner: &[u32],
        mut parts: Vec<ShardParts>,
        wall_start: std::time::Instant,
    ) -> RunReport {
        // Replicated impairment bursts are scheduled once per lane; every
        // other scheduled event exists on exactly one (probe chains were
        // already subtracted per lane).
        let n_bursts = replicated_bursts(cfg);
        let events =
            parts.iter().map(|p| p.events).sum::<u64>() - (parts.len() as u64 - 1) * 2 * n_bursts;
        let sent = parts.iter().map(|p| p.sent_packets).sum::<u64>();

        // Per-node state: each node's owner holds the authoritative
        // replica. Read where it lies; moving every node out of its box
        // would copy the whole network once more at the very end. A
        // station its owner never touched reads as a pristine node with
        // its ledger closed at the run end, as `into_shard_parts` closes
        // the others'; nothing the report reads is a node's id, so one
        // such node stands in for every untouched station.
        let pools: Vec<Vec<Option<Box<Node>>>> = parts
            .iter_mut()
            .map(|p| std::mem::take(&mut p.nodes))
            .collect();
        let mut untouched = Node::new(
            NodeId(0),
            Arc::new(cfg.mac.clone()),
            Arc::new(cfg.aodv.clone()),
            cfg.seed,
        );
        untouched.energy.finish(SimTime::ZERO + cfg.duration);
        let nodes: Vec<&Node> = owner
            .iter()
            .enumerate()
            .map(|(i, &o)| pools[o as usize][i].as_deref().unwrap_or(&untouched))
            .collect();

        // A layer's state exists on every lane exactly when the scenario
        // configures the layer.
        let resilience = cfg.faults.as_ref().map(|plan| {
            let parts = parts.iter_mut().filter_map(|p| p.faults.take()).collect();
            FaultState::merge(parts, owner).into_report(plan)
        });
        let metrics = cfg.metrics.map(|mc| {
            let parts = parts.iter_mut().filter_map(|p| p.metrics.take()).collect();
            MetricsState::merge(parts).finish(mc.interval(), cfg.mac.levels.all(), &nodes)
        });

        RunReport::build(
            cfg,
            &nodes,
            sent,
            events,
            wall_start.elapsed().as_secs_f64(),
            resilience,
            metrics,
        )
    }

    /// Bring a snapshot back to life under `cfg`. The configuration must
    /// describe the same scenario the snapshot was captured from
    /// ([`SimSnapshot::matches`]); the execution strategy may differ
    /// freely — a snapshot taken single-threaded restores into a sharded
    /// run and vice versa.
    /// Running the result to the end is bit-identical to the
    /// uninterrupted run.
    pub fn restore(cfg: ScenarioConfig, snap: &SimSnapshot) -> Result<Simulator, SnapError> {
        if !snap.matches(&cfg) {
            return Err(SnapError::CfgMismatch);
        }
        let n = cfg.nodes.count();
        if snap.nodes.len() != n || snap.mobility.len() != n || snap.tx_key_ctr.len() != n {
            return Err(SnapError::Corrupt("snapshot node count"));
        }
        if (snap.pending.len() as u64) > snap.scheduled_total {
            return Err(SnapError::Corrupt("pending exceeds scheduled total"));
        }
        let sharded = matches!(cfg.execution_mode(), ExecutionMode::Sharded { .. });
        let mut sim = Simulator::new(cfg);
        if sharded {
            // Shard builds re-initialise the donated cold state, so the
            // overlay must happen per shard, after each shard is built;
            // park the snapshot for `parallel::run_sharded` to apply.
            // Validate the blobs now so worker threads cannot hit a
            // corrupt one mid-run.
            for (i, blob) in snap.nodes.iter().enumerate() {
                sim.load_node(i, blob)?;
            }
            if sim.on_air_mismatch(&snap.pending).is_some() {
                return Err(SnapError::Corrupt("rows disagree with pending arrivals"));
            }
            // Every lane checks the layer sections against the same
            // shapes: refuse a bad one here, not in a worker thread.
            sim.restore_layers(snap)?;
            sim.resume = Some(Arc::new(snap.clone()));
        } else {
            sim.apply_restore(snap)?;
        }
        Ok(sim)
    }

    /// Take the parked snapshot, if any (the sharded-restore handoff).
    pub(crate) fn take_resume(&mut self) -> Option<Arc<SimSnapshot>> {
        self.resume.take()
    }

    /// Overlay `snap` on this freshly-built simulator (single-threaded,
    /// or one owner-only region shard). Exactly one lane — single mode,
    /// or shard 0 — restores as primary and receives the cumulative
    /// counters; see `FaultState::restore` / `MetricsState::restore`
    /// for the replication roles.
    pub(crate) fn apply_restore(&mut self, snap: &SimSnapshot) -> Result<(), SnapError> {
        let cut = snap.time;
        let shard_info: Option<(Arc<Vec<u32>>, u32)> = self
            .shard
            .as_ref()
            .map(|ctx| (Arc::clone(&ctx.owner), ctx.id));
        let primary = self.shard.as_ref().is_none_or(|c| c.id == 0);

        // The event queue: restart the sequence counter at the cut and
        // re-schedule this lane's slice of the canonical pending set in
        // canonical order, so insertion sequence numbers break same-key
        // ties exactly as they did in the original run.
        let pending_bursts = snap
            .pending
            .iter()
            .filter(|(_, _, e)| {
                matches!(
                    e,
                    SimEvent::ImpairmentStart { .. } | SimEvent::ImpairmentEnd { .. }
                )
            })
            .count() as u64;
        let pending_probes = snap
            .pending
            .iter()
            .filter(|(_, _, e)| matches!(e, SimEvent::MetricsProbe))
            .count() as u64;
        let n_bursts = replicated_bursts(&self.cfg);
        let base = if primary {
            // The canonical total already counts this lane's replicated
            // events exactly once.
            snap.scheduled_total
                .checked_sub(snap.pending.len() as u64)
                .ok_or(SnapError::Corrupt("pending exceeds scheduled total"))?
        } else {
            // A foreign shard's scheduled total counts only the
            // replicated machinery it scheduled at build — both edges of
            // every impairment burst and its own probe-chain replica —
            // minus whatever is still pending (and re-scheduled below).
            (2 * n_bursts)
                .checked_sub(pending_bursts)
                .and_then(|b| {
                    snap.probes_scheduled
                        .checked_sub(pending_probes)
                        .map(|p| b + p)
                })
                .ok_or(SnapError::Corrupt("replicated pending exceeds schedule"))?
        };
        self.queue = pcmac_engine::EventQueue::restored(cut, base);
        for (at, rank, ev) in &snap.pending {
            let mine = match ev.node_index() {
                Some(j) => shard_info
                    .as_ref()
                    .is_none_or(|(owner, id)| owner[j] == *id),
                None => true, // replicated events live on every lane
            };
            if mine {
                self.queue
                    .schedule_ranked(*at, *rank, QueueEntry::Event(ev.clone()));
            }
        }

        // Receive rows and cold per-node state, owned nodes only. An
        // arrival's end panics on a row with nothing on the air, so a
        // snapshot whose rows and pending arrivals disagree stops here.
        for (i, blob) in snap.nodes.iter().enumerate() {
            self.load_node(i, blob)?;
        }
        if self.on_air_mismatch(&snap.pending).is_some() {
            return Err(SnapError::Corrupt("rows disagree with pending arrivals"));
        }

        // Hot state: mobility models arrive advanced exactly to the cut,
        // so sampling them at the cut is exact and free of history.
        self.hot.mobility = snap.mobility.clone();
        self.hot.tx_key_ctr = snap.tx_key_ctr.clone();
        self.channel.resync(&mut self.hot, cut);
        self.sent_packets = if primary { snap.sent_packets } else { 0 };
        self.cur = (cut, 0);
        self.restore_layers(snap)
    }

    /// Overlay the snapshot's fault and metrics sections on this lane's
    /// layers, refusing a section whose presence or shape disagrees with
    /// the scenario.
    fn restore_layers(&mut self, snap: &SimSnapshot) -> Result<(), SnapError> {
        let primary = self.shard.as_ref().is_none_or(|c| c.id == 0);

        // The fault layer.
        match (self.faults.as_mut(), snap.faults.as_ref()) {
            (Some(fs), Some(loaded)) => {
                let shard = self
                    .shard
                    .as_ref()
                    .map(|ctx| (ctx.owner.as_slice(), ctx.id));
                fs.restore(loaded, primary, shard)
                    .map_err(SnapError::Corrupt)?;
                // The same product `set_impairment` forms.
                self.radio.noise_floor = self.cfg.radio.noise_floor * fs.noise_mult;
                for (alive, &d) in self.hot.alive.iter_mut().zip(&fs.down) {
                    *alive = !d;
                }
                // Seed the shard transition logs: a node down at the cut
                // must cull in-window arrivals from transmissions after
                // it, exactly as the flip event recorded pre-cut would
                // have.
                if let Some(ctx) = &mut self.shard {
                    let seed = SimTime::from_nanos(snap.time.as_nanos().saturating_sub(1));
                    for (i, t) in ctx.transitions.iter_mut().enumerate() {
                        if fs.down[i] && ctx.owner[i] == ctx.id {
                            t.push((seed, u128::MAX, true));
                        }
                    }
                }
            }
            (None, None) => {}
            _ => return Err(SnapError::Corrupt("fault section presence")),
        }

        // The metrics layer.
        match (self.metrics.as_mut(), snap.metrics.as_ref()) {
            (Some(ms), Some(loaded)) => {
                ms.restore(loaded, primary).map_err(SnapError::Corrupt)?;
            }
            (None, None) => {}
            _ => return Err(SnapError::Corrupt("metrics section presence")),
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Region-shard support (crate-internal; orchestrated by `parallel`)
// ----------------------------------------------------------------------

impl Simulator {
    /// The scenario this simulator was built from.
    pub(crate) fn cfg(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// The spatial index's cell size — region boundaries snap to grid
    /// columns so a cell (and the candidate rings around it) never
    /// straddles more than two regions.
    pub(crate) fn shard_cell_size(&self) -> f64 {
        self.channel.cell_size()
    }

    /// Initial x-coordinates (positions are exact at t = 0), the input
    /// to the column partition.
    pub(crate) fn start_xs(&self) -> Vec<f64> {
        self.hot.positions.iter().map(|p| p.x).collect()
    }

    /// Next event time in nanoseconds for the window negotiation:
    /// `u64::MAX` when the queue is drained past `end`.
    pub(crate) fn shard_peek_ns(&self, end: SimTime) -> u64 {
        match self.queue.peek_time() {
            Some(t) if t <= end => t.as_nanos(),
            _ => u64::MAX,
        }
    }

    /// The conservative lookahead (ns) a region run may use (see
    /// [`Channel::lookahead_ns`]).
    pub(crate) fn derived_lookahead_ns(&self, owner: &[u32], shards: usize) -> u64 {
        self.channel
            .lookahead_ns(&self.hot.positions, owner, shards, self.cfg.duration)
    }

    /// Dispatch every local event strictly before `horizon_ns` (and not
    /// past `end`). Cross-region arrivals pile up in the outboxes; when
    /// `trace` is given, dispatched events are buffered under their
    /// global `(time, rank)` for the post-run observer replay (shard 0
    /// records the replicated impairment/probe events for everyone).
    pub(crate) fn run_window(
        &mut self,
        horizon_ns: u64,
        end: SimTime,
        trace: Option<&mut Vec<(SimTime, u128, SimEvent)>>,
    ) {
        let until = past(end).min(SimTime::from_nanos(horizon_ns));
        let Some(buf) = trace else {
            self.advance(until, u64::MAX, &mut None);
            return;
        };
        let primary = self.shard.as_ref().is_some_and(|c| c.id == 0);
        let mut record = |ev: &SimEvent, at: SimTime| {
            // Events addressing no node are the replicated ones.
            if ev.node_index().is_some() || primary {
                buf.push((at, ev.rank(), ev.clone()));
            }
        };
        self.advance(until, u64::MAX, &mut Some(&mut record));
    }

    /// Take the window's outgoing shipments (one bucket per shard).
    pub(crate) fn take_outboxes(&mut self) -> Vec<Vec<Shipment>> {
        let ctx = self.shard.as_mut().expect("sharded");
        ctx.outbox.iter_mut().map(std::mem::take).collect()
    }

    /// Was owned node `j` down at the instant of the event keyed `tx`?
    /// Replays the transition log: the last flip strictly before `tx`
    /// decides (a flip can never share a full `(time, rank)` key with
    /// another shard's transmission — ranks pin events to nodes).
    fn down_at(&self, j: usize, tx: (SimTime, u128)) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let Some(ctx) = &self.shard else { return false };
        ctx.transitions[j]
            .iter()
            .rev()
            .find(|&&(t, r, _)| (t, r) < tx)
            .is_some_and(|&(_, _, down)| down)
    }

    /// Drain one window's incoming shipments (already ordered: callers
    /// pass the per-sender batches in fixed shard order). Each shipment
    /// is culled against the receiver's authoritative down-state at the
    /// sender's transmit instant — the exact test the single-threaded
    /// sender loop applies inline — then scheduled under its content
    /// rank, landing in the identical queue position.
    pub(crate) fn accept_shipments(&mut self, batches: Vec<Vec<Shipment>>) {
        for s in batches.into_iter().flatten() {
            if self.down_at(s.node.index(), s.tx) {
                continue;
            }
            let start = s.payload.arrival_start(s.node, s.key, s.power, s.end);
            self.sched(s.at, start);
            self.sched(s.end, s.payload.arrival_end(s.node, s.key, s.power));
        }
    }

    /// Finalize this lane after its queue drains: close the energy
    /// ledgers and surrender the pieces [`Simulator::merge_report`]
    /// needs.
    pub(crate) fn into_shard_parts(mut self, end: SimTime) -> ShardParts {
        for node in self.nodes.iter_mut().flatten() {
            node.energy.finish(end);
        }
        let probes = self.metrics.as_ref().map_or(0, |m| m.probes_scheduled);
        ShardParts {
            nodes: self.nodes,
            sent_packets: self.sent_packets,
            events: self.queue.scheduled_total() - probes,
            faults: self.faults,
            metrics: self.metrics,
        }
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

    /// Tell every MAC the carrier edge it is owed, as of `now` (which
    /// builds an untouched station that is owed one).
    pub(crate) fn tell_held_edges(&mut self, now: SimTime) {
        for i in 0..self.nodes.len() {
            if self.owns(i) && self.hot.held_edge(i).is_some() {
                self.with_mac(i, now, |_| ());
            }
        }
    }

    /// `(audible, held)`: data-channel arrival starts and ends that
    /// indicated anything, and those among them that were a carrier edge
    /// held back — handled without touching the cold node.
    #[cfg(debug_assertions)]
    pub(crate) fn arrival_audit(&self) -> (u64, u64) {
        (self.audit.audible, self.audit.held)
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

/// Tell `mac` a carrier edge that was held back while it was not
/// listening (see [`DcfMac::listening`]): a carrier bit and a noise
/// figure to store.
///
/// # Panics
/// If the MAC acts on it — the edge should never have been held.
fn tell_held_edge(mac: &mut DcfMac, busy: bool, noise: Milliwatts, now: SimTime) {
    let mut acts = Vec::new();
    mac.set_noise(noise);
    mac.on_carrier(busy, now, &mut acts);
    assert!(
        acts.is_empty(),
        "a carrier edge held back from node {}'s MAC made it act: {acts:?}",
        mac.id()
    );
}

/// Per node, how many `[data, control]` arrivals `pending` shows on the
/// air: an arrival that has started and not ended is an end event with no
/// start event before it.
fn arrivals_on_air(pending: &[(SimTime, u128, SimEvent)], nodes: usize) -> Vec<[i64; 2]> {
    let mut on_air = vec![[0i64; 2]; nodes];
    for (_, _, ev) in pending {
        let (node, channel, delta) = match ev {
            SimEvent::ArrivalStart { node, .. } => (node, 0, -1),
            SimEvent::ArrivalEnd { node, .. } => (node, 0, 1),
            SimEvent::CtrlArrivalStart { node, .. } => (node, 1, -1),
            SimEvent::CtrlArrivalEnd { node, .. } => (node, 1, 1),
            _ => continue,
        };
        if let Some(counts) = on_air.get_mut(node.index()) {
            counts[channel] += delta;
        }
    }
    on_air
}

/// Impairment bursts in `cfg`'s fault plan: the events every lane
/// schedules a replica of (two edges each), so a merge counts them once.
fn replicated_bursts(cfg: &ScenarioConfig) -> u64 {
    let bursts = cfg.faults.as_ref().and_then(|f| f.impairments.as_ref());
    bursts.map_or(0, Vec::len) as u64
}

/// Schedule `ev` as a plain queue entry under its content-derived rank.
#[inline]
fn sched_into(queue: &mut EventQueue<QueueEntry>, at: SimTime, ev: SimEvent) {
    queue.schedule_ranked(at, ev.rank(), QueueEntry::Event(ev));
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pcmac_engine::{Duration, NodeId, SimTime};
    use pcmac_mac::Variant;

    use crate::config::ScenarioConfig;
    use crate::event::SimEvent;
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
        let shard = Simulator::new_shard(cfg, 0, 2, Arc::clone(&owner), &mut []);
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
        let (mut shard, owner) = even_shard(cfg.clone());
        for (i, node) in shard.nodes.iter().enumerate() {
            let home = owner[i] == 0 && homes.contains(&i);
            assert_eq!(node.is_some(), home, "station {i} after the shard build");
        }

        // Half a second in, most stations have state a pristine node
        // lacks; a restore onto the shard builds exactly the ones it owns.
        let mut full = Simulator::new(cfg);
        let cut = SimTime::ZERO + Duration::from_millis(500);
        while full.step_before(cut).is_some() {}
        let snap = full.snapshot_at(cut);
        for (i, blob) in snap.nodes.iter().enumerate() {
            shard
                .load_node(i, blob)
                .expect("a blob of the same scenario");
        }
        for (i, node) in shard.nodes.iter().enumerate() {
            assert_eq!(node.is_some(), owner[i] == 0, "station {i} after loading");
        }
    }
}
