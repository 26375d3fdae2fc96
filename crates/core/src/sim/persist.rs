//! Checkpoints and the end of a run: one lane's share of a snapshot at a
//! cut, the fold of every lane's share into one snapshot or one report,
//! restore, and the absolute grid a hooked run cuts on (see the
//! `snapshot` module docs).

use std::sync::Arc;

use pcmac_engine::{Duration, NodeId, SimTime};
use pcmac_mobility::RandomWaypoint;
use pcmac_phy::RxRow;
use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

use super::dispatch::tell_held_edge;
use super::Simulator;
use crate::channel::QueueEntry;
use crate::config::{ExecutionMode, ScenarioConfig};
use crate::event::SimEvent;
use crate::fault::FaultState;
use crate::metrics::MetricsState;
use crate::node::Node;
use crate::report::RunReport;
use crate::snapshot::{next_grid_point, SimSnapshot};

/// What one execution lane (the single-threaded simulator, or one region
/// shard) contributes to a collective snapshot at a cut. Contributions
/// are owned clones — merging them needs no further synchronization with
/// the lanes that produced them.
pub(super) struct SnapContribution {
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
    /// Movement models advanced to the cut, none on a static field;
    /// primary lane only (every lane holds the identical full replica).
    mobility: Option<Vec<RandomWaypoint>>,
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
    /// *collectively* at epoch boundaries; see the `shard` module).
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
    pub(super) fn snap_contribution(&self, cut: SimTime) -> SnapContribution {
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
        // each node was last sampled. A static field holds no models,
        // and its section is empty.
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
    pub(super) fn load_node(&mut self, i: usize, blob: &[u8]) -> Result<(), SnapError> {
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
    pub(super) fn merge_contributions(
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
        let faults: Vec<FaultState> = parts.iter_mut().filter_map(|p| p.faults.take()).collect();
        let metrics: Vec<MetricsState> =
            parts.iter_mut().filter_map(|p| p.metrics.take()).collect();
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
            faults: cfg
                .faults
                .is_some()
                .then(|| FaultState::merge(faults, owner)),
            metrics: cfg.metrics.is_some().then(|| MetricsState::merge(metrics)),
        }
    }

    /// Fold the lanes whose queues drained — the whole single-threaded
    /// simulator, or every region shard — into the run's report: the
    /// counterpart of [`Simulator::merge_contributions`] at the end of a
    /// run. `owner` maps each node to the lane holding its state (all
    /// zeros for one lane): per-node state is read from its owner, its
    /// energy ledger closed at the run end; counters are summed and fault
    /// records replayed in `(time, rank)` order, all in fixed lane order
    /// with no wall-clock input but `wall_s`.
    pub(super) fn merge_report(
        cfg: &ScenarioConfig,
        owner: &[u32],
        mut lanes: Vec<Simulator>,
        wall_start: std::time::Instant,
    ) -> RunReport {
        let end = SimTime::ZERO + cfg.duration;
        // Every lane schedules its own probe chain and a replica of the
        // impairment bursts; every other scheduled event exists on
        // exactly one.
        let probes = |s: &Simulator| s.metrics.as_ref().map_or(0, |m| m.probes_scheduled);
        let events = lanes
            .iter()
            .map(|s| s.queue.scheduled_total() - probes(s))
            .sum::<u64>()
            - (lanes.len() as u64 - 1) * 2 * replicated_bursts(cfg);
        let sent = lanes.iter().map(|s| s.sent_packets).sum::<u64>();

        // Per-node state: each node's owner holds the authoritative
        // replica. Read where it lies; moving every node out of its box
        // would copy the whole network once more at the very end. A
        // station its owner never touched reads as a pristine node with
        // its ledger closed at the run end, as the others' are; nothing
        // the report reads is a node's id, so one such node stands in for
        // every untouched station.
        let mut pools: Vec<Vec<Option<Box<Node>>>> = lanes
            .iter_mut()
            .map(|s| std::mem::take(&mut s.nodes))
            .collect();
        for node in pools.iter_mut().flatten().flatten() {
            node.energy.finish(end);
        }
        // A layer's state exists on every lane exactly when the scenario
        // configures the layer. Nothing else of a lane is read, so its
        // queue, hot arrays and channel go before the report allocates.
        let faults: Vec<FaultState> = lanes.iter_mut().filter_map(|s| s.faults.take()).collect();
        let metrics: Vec<MetricsState> =
            lanes.iter_mut().filter_map(|s| s.metrics.take()).collect();
        drop(lanes);
        let mut untouched = Node::new(
            NodeId(0),
            Arc::new(cfg.mac.clone()),
            Arc::new(cfg.aodv.clone()),
            cfg.seed,
        );
        untouched.energy.finish(end);
        let nodes: Vec<&Node> = owner
            .iter()
            .enumerate()
            .map(|(i, &o)| pools[o as usize][i].as_deref().unwrap_or(&untouched))
            .collect();

        let resilience = cfg
            .faults
            .as_ref()
            .map(|plan| FaultState::merge(faults, owner).into_report(plan));
        let metrics = cfg.metrics.map(|mc| {
            MetricsState::merge(metrics).finish(mc.interval(), cfg.mac.levels.all(), &nodes)
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
        if snap.nodes.len() != n || snap.tx_key_ctr.len() != n {
            return Err(SnapError::Corrupt("snapshot node count"));
        }
        let mut sim = Simulator::new(cfg);
        sim.apply_restore(snap)?;
        if matches!(sim.cfg.execution_mode(), ExecutionMode::Sharded { .. }) {
            // Each lane's build re-initialises the cold state it is
            // donated, so every lane overlays the snapshot again after
            // its own build. The restore above refused whatever a lane
            // would.
            sim.resume = Some(Arc::new(snap.clone()));
        }
        Ok(sim)
    }

    /// Overlay `snap` on this freshly-built simulator (the whole network,
    /// or one owner-only region shard). Exactly one lane — the whole
    /// network, or shard 0 — restores as primary and receives the
    /// cumulative counters; see `FaultState::restore` /
    /// `MetricsState::restore` for the replication roles. Every check a
    /// lane makes, the whole network makes too, over every station.
    pub(super) fn apply_restore(&mut self, snap: &SimSnapshot) -> Result<(), SnapError> {
        let cut = snap.time;
        let primary = self.shard.as_ref().is_none_or(|c| c.id == 0);

        // The event queue: restart the sequence counter at the cut and
        // re-schedule this lane's slice of the canonical pending set in
        // canonical order, so insertion sequence numbers break same-key
        // ties exactly as they did in the original run.
        let (mut pending_bursts, mut pending_probes) = (0u64, 0u64);
        for (_, _, ev) in &snap.pending {
            match ev {
                SimEvent::ImpairmentStart { .. } | SimEvent::ImpairmentEnd { .. } => {
                    pending_bursts += 1
                }
                SimEvent::MetricsProbe => pending_probes += 1,
                _ => {}
            }
        }
        // A non-primary shard's scheduled total counts only the
        // replicated machinery it scheduled at build — both edges of
        // every impairment burst and its own probe-chain replica — minus
        // whatever is still pending (and re-scheduled below). A valid
        // snapshot leaves that at zero or more on every lane.
        let replicated = (2 * replicated_bursts(&self.cfg))
            .checked_sub(pending_bursts)
            .zip(snap.probes_scheduled.checked_sub(pending_probes))
            .map(|(b, p)| b + p)
            .ok_or(SnapError::Corrupt("replicated pending exceeds schedule"))?;
        let base = if primary {
            // The canonical total already counts this lane's replicated
            // events exactly once.
            snap.scheduled_total
                .checked_sub(snap.pending.len() as u64)
                .ok_or(SnapError::Corrupt("pending exceeds scheduled total"))?
        } else {
            replicated
        };
        self.queue = pcmac_engine::EventQueue::restored(cut, base);
        let bursts = replicated_bursts(&self.cfg) as usize;
        for (at, rank, ev) in &snap.pending {
            if *at < cut {
                return Err(SnapError::Corrupt("pending event before the cut"));
            }
            if let SimEvent::ImpairmentStart { index } | SimEvent::ImpairmentEnd { index } = ev {
                if *index >= bursts {
                    return Err(SnapError::Corrupt("pending impairment names no burst"));
                }
            }
            let mine = match ev.node_index() {
                Some(j) if j >= self.nodes.len() => {
                    return Err(SnapError::Corrupt("pending event names no station"))
                }
                Some(j) => self.owns(j),
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
        // An emission names one of its home's sources, as loaded.
        for (_, _, ev) in &snap.pending {
            if let SimEvent::TrafficEmit { node, source } = ev {
                let i = node.index();
                if self.owns(i) && self.read_node(i, |n| *source >= n.sources.len()) {
                    return Err(SnapError::Corrupt("pending emission names no source"));
                }
            }
        }

        // Hot state: movement models arrive advanced exactly to the cut,
        // so sampling them at the cut is exact and free of history. The
        // section holds one model per station the scenario moves (none
        // on a static field), each walking the scenario's field at its
        // speed and pause.
        if snap.mobility.len() != self.hot.mobility.len() {
            return Err(SnapError::Corrupt(
                "movement section does not fit the scenario",
            ));
        }
        let mut pairs = snap.mobility.iter().zip(&self.hot.mobility);
        if !pairs.all(|(loaded, built)| loaded.same_walk(built)) {
            return Err(SnapError::Corrupt("waypoint does not fit the scenario"));
        }
        self.hot.mobility.clone_from(&snap.mobility);
        self.hot.tx_key_ctr = snap.tx_key_ctr.clone();
        self.channel.resync(&mut self.hot, cut);
        self.sent_packets = if primary { snap.sent_packets } else { 0 };
        self.cur = (cut, 0);

        // The fault and metrics sections, refused when their presence or
        // shape disagrees with the scenario.
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

    /// The first node held here whose rows count other arrivals on the
    /// air than `pending` shows started and not ended.
    pub(super) fn on_air_mismatch(&self, pending: &[(SimTime, u128, SimEvent)]) -> Option<usize> {
        let on_air = arrivals_on_air(pending, self.nodes.len());
        (0..self.nodes.len()).find(|&i| {
            let ctrl = self.hot.ctrl_rx.get(i).map_or(0, RxRow::on_air);
            self.owns(i) && on_air[i] != [i64::from(self.hot.rx[i].on_air()), i64::from(ctrl)]
        })
    }
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

/// The absolute grid a hooked run checkpoints on (see
/// [`next_grid_point`]), in every execution mode: the single-threaded
/// loop and each shard lane cut at every grid instant the next event
/// reaches, before that event dispatches, and never run a window past
/// the next one. Holds `(interval, next grid instant)` in nanoseconds,
/// `None` when the run takes no periodic checkpoints.
pub(super) struct CutGrid(Option<(u64, u64)>);

impl CutGrid {
    /// The grid of `every`, from the first instant after `now`.
    pub(super) fn new(every: Option<Duration>, now: SimTime) -> Self {
        CutGrid(every.map(|e| {
            let e = e.as_nanos().max(1);
            (e, next_grid_point(now, e).as_nanos())
        }))
    }

    /// Call `cut` at every grid instant at or before `t`, the next
    /// undispatched instant, in order. Returns whether there was one.
    pub(super) fn reach<E>(
        &mut self,
        t: SimTime,
        mut cut: impl FnMut(SimTime) -> Result<(), E>,
    ) -> Result<bool, E> {
        let mut crossed = false;
        while let Some((every, next)) = &mut self.0 {
            if t.as_nanos() < *next {
                break;
            }
            cut(SimTime::from_nanos(*next))?;
            *next = next.saturating_add(*every);
            crossed = true;
        }
        Ok(crossed)
    }

    /// `until`, clamped to the next grid instant so that instant stays a
    /// reachable cut.
    pub(super) fn clamp(&self, until: SimTime) -> SimTime {
        self.0
            .map_or(until, |(_, next)| until.min(SimTime::from_nanos(next)))
    }
}
