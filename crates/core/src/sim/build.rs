//! Building a simulator from its scenario — the whole network, or one
//! region shard of it in owner-only form.

use std::sync::Arc;

use pcmac_engine::{EventQueue, Milliwatts, NodeId, Point, RngStream, SimTime, VecMap};
use pcmac_mobility::{placement, RandomWaypoint};
use pcmac_phy::RxRow;
use pcmac_traffic::Source;

use super::{sched_into, BufPool, ShardCtx, Simulator};
use crate::channel::Channel;
use crate::config::{FlowShape, FlowSpec, NodeSetup, ScenarioConfig};
use crate::event::SimEvent;
use crate::fault::FaultState;
use crate::metrics::MetricsState;
use crate::node::Node;
use crate::soa::HotState;

/// The traffic source of the flow `spec`. Random arrival processes draw
/// from a stream derived from the seed and the flow id.
fn source_for(spec: &FlowSpec, seed: u64) -> Source {
    let &FlowSpec {
        flow,
        src,
        dst,
        bytes,
        rate_bps: rate,
        start,
        stop,
        shape,
    } = spec;
    let rng = |label| RngStream::derive_sub(seed, label, flow.0 as u64);
    match shape {
        FlowShape::Cbr => Source::cbr(flow, src, dst, bytes, rate, start, stop),
        FlowShape::Poisson => {
            let rng = rng("traffic.poisson");
            Source::poisson(flow, src, dst, bytes, rate, start, stop, rng)
        }
        FlowShape::OnOff {
            mean_on_s: on,
            mean_off_s: off,
        } => {
            let rng = rng("traffic.onoff");
            Source::on_off(flow, src, dst, bytes, rate, on, off, start, stop, rng)
        }
    }
}

/// Every station's position at t = 0. The column partition of a sharded
/// run reads these too.
pub(super) fn start_positions(cfg: &ScenarioConfig) -> Vec<Point> {
    match &cfg.nodes {
        NodeSetup::UniformWaypoint { count, .. } => {
            let mut rng = RngStream::derive(cfg.seed, "scenario.placement");
            placement::uniform(*count, cfg.field.0, cfg.field.1, &mut rng)
        }
        NodeSetup::Static(pts) => pts.clone(),
        NodeSetup::WaypointFrom { starts, .. } => starts.clone(),
    }
}

impl Simulator {
    /// Build the network of `cfg` — whole, or as shard `id` of a
    /// `shards`-way region run under `shard_plan = (id, shards, owner)`.
    /// A shard is built directly in owner-only form: cold [`Node`] state,
    /// traffic sources and first emissions materialise only for owned
    /// nodes, and the spatial index is pruned to the tracked set (owned +
    /// halo). Only a plain run is sharded, so a shard's scenario carries
    /// neither a fault plan nor metrics.
    ///
    /// `donor` recycles cold state from an already-built full replica's
    /// `nodes`: owned entries built there are *moved* in instead of
    /// constructed, so splitting one full simulator into S shards
    /// allocates no second copy of any node — the process peak stays at
    /// one full build. Entries the donor never built stay unbuilt here
    /// too. A freshly built box and a donated one are identical by
    /// construction (per-node RNG streams derive from the node id; the
    /// donor's attached traffic sources are cleared and re-attached
    /// below).
    pub(super) fn build(
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
        // One copy of the immutable per-scenario configuration, shared
        // by every node.
        let mac_cfg = Arc::new(cfg.mac.clone());
        let aodv_cfg = Arc::new(cfg.aodv.clone());
        let starts = start_positions(&cfg);
        // A movement model per station only when stations move: a static
        // field's positions are `hot.positions` and nothing else.
        let mobility: Vec<RandomWaypoint> = match &cfg.nodes {
            NodeSetup::UniformWaypoint { speed, pause, .. }
            | NodeSetup::WaypointFrom { speed, pause, .. } => starts
                .iter()
                .enumerate()
                .map(|(i, start)| {
                    RandomWaypoint::new(
                        *start,
                        cfg.field.0,
                        cfg.field.1,
                        *speed,
                        *pause,
                        RngStream::derive_sub(cfg.seed, "mobility", i as u64),
                    )
                })
                .collect(),
            NodeSetup::Static(_) => Vec::new(),
        };
        let any_mobile = !mobility.is_empty();
        // Cold state is built on a station's first touch, and only ever
        // for owned nodes: a shard never assembles the MAC queues and
        // routing tables of nodes another region dispatches. A donated
        // box is taken over as it is.
        let mut nodes: Vec<Option<Box<Node>>> = (0..n)
            .map(|i| {
                owned(i)
                    .then(|| donor.get_mut(i).and_then(Option::take))
                    .flatten()
                    .map(|mut b| {
                        // Re-attached (identically) by the flow loop
                        // below, like a fresh box's.
                        b.sources.clear();
                        b
                    })
            })
            .collect();

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
            let mut src = source_for(spec, cfg.seed);
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

        assert!(
            shard_plan.is_none() || (cfg.faults.is_none() && cfg.metrics.is_none()),
            "only a plain run is sharded"
        );
        let faults = cfg
            .faults
            .as_ref()
            .map(|plan| FaultState::new(plan, &cfg, |at, ev| sched_into(&mut queue, at, ev)));

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

        let ctrl_n = if cfg.mac.variant.is_pcmac() { n } else { 0 };
        let mut hot = HotState {
            positions: starts,
            mobility,
            alive: vec![true; n],
            tx_power_mw: vec![0.0; n],
            sampled_at: Vec::new(),
            tx_key_ctr: vec![0; n],
            rx: vec![RxRow::default(); n],
            // Only a PCMAC station ever radiates a control frame.
            ctrl_rx: vec![RxRow::default(); ctrl_n],
            ctrl_locked: VecMap::new(),
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
            restored: false,
            sent_packets: 0,
            faults,
            metrics,
            mac_pool: BufPool::default(),
            aodv_pool: BufPool::default(),
            #[cfg(debug_assertions)]
            audit: Default::default(),
        }
    }
}
