//! Checkpoints and the end of a run: a snapshot at a cut, restore, the
//! fold of every lane into one report, and the absolute grid a hooked
//! run cuts on (see the `snapshot` module docs).
//!
//! Since snapshot version 6 a station is written as the run holds it —
//! its held carrier edge as itself, no cold state while it is unbuilt —
//! so capture builds nothing and restore re-derives nothing (version 5
//! wrote a told copy of each MAC and a pristine node per unbuilt station).

use std::sync::Arc;

use pcmac_engine::{Duration, Milliwatts, NodeId, SimTime};
use pcmac_mac::CtrlFrame;
use pcmac_phy::RxRow;
use pcmac_snap::{Snap, SnapError, SnapReader, SnapWriter};

use super::{sched_into, Simulator};
use crate::config::ScenarioConfig;
use crate::event::SimEvent;
use crate::fault::FaultState;
use crate::metrics::MetricsState;
use crate::node::Node;
use crate::report::RunReport;
use crate::snapshot::{next_grid_point, SimSnapshot};

/// What the report reads of one execution lane whose queue drained
/// ([`Simulator::into_tally`]).
pub(super) struct LaneTally {
    /// Events scheduled on this lane, its probe chain's not counted.
    events: u64,
    sent_packets: u64,
    /// The lane's cold node slots (`None` where untouched or not owned).
    nodes: Vec<Option<Box<Node>>>,
    faults: Option<FaultState>,
    metrics: Option<MetricsState>,
}

impl Simulator {
    /// Capture the complete deterministic state at the current instant —
    /// every event dispatched so far is reflected, every pending event is
    /// recorded. Restoring the snapshot and running to the end is
    /// bit-identical to never having stopped.
    pub fn snapshot(&self) -> SimSnapshot {
        self.snapshot_at(self.queue.now())
    }

    /// Capture at `cut` (every event strictly before `cut` has been
    /// dispatched; callers guarantee `cut` is at most the next pending
    /// event's time).
    ///
    /// # Panics
    /// If called on one shard of a sharded run, which holds only its
    /// own region's stations and events.
    pub(crate) fn snapshot_at(&self, cut: SimTime) -> SimSnapshot {
        assert!(
            self.shard.is_none(),
            "a snapshot captures the full simulator, not one region shard"
        );
        // Canonical `(time, rank, insertion)` order: events sharing a
        // full key — necessarily same-node — keep their insertion order.
        let pending = self.channel.pending_events(&self.queue);
        // One scratch writer for every node: per-node `SnapWriter`s pay
        // allocator growth 64k times over at scale.
        let mut scratch = SnapWriter::new();
        let nodes = (0..self.nodes.len())
            .map(|i| {
                scratch.clear();
                self.save_node(i, &mut scratch);
                scratch.payload().to_vec()
            })
            .collect();
        // Each model is written advanced exactly to the cut, from a
        // copy: waypoint queries are non-decreasing and idempotent, so
        // this is the state an uninterrupted run carries at `cut`
        // regardless of when each node was last sampled. A static field
        // holds no models, and its section is empty.
        scratch.clear();
        for model in &self.hot.mobility {
            let mut at_cut = model.clone();
            let _ = at_cut.position(cut);
            at_cut.save_state(&mut scratch);
        }
        SimSnapshot {
            cfg_digest: crate::snapshot::config_digest(&self.cfg),
            time: cut,
            scheduled_total: self.queue.scheduled_total(),
            sent_packets: self.sent_packets,
            probes_scheduled: self.metrics.as_ref().map_or(0, |m| m.probes_scheduled),
            pending: pending.into_iter().map(|(at, _, ev)| (at, ev)).collect(),
            mobility: scratch.payload().to_vec(),
            tx_key_ctr: self.hot.tx_key_ctr.clone(),
            nodes,
            faults: self.faults.clone().map(FaultState::canonical),
            metrics: self.metrics.clone(),
        }
    }

    /// Node `i`'s blob, as this simulator holds the station: its data
    /// row, its control row under PCMAC, the carrier edge held back from
    /// its MAC, the control broadcast it is locked onto under PCMAC, and
    /// its cold state, `None` while the station is unbuilt.
    pub(super) fn save_node(&self, i: usize, w: &mut SnapWriter) {
        self.hot.rx[i].save(w);
        let pcmac = !self.hot.ctrl_rx.is_empty();
        if pcmac {
            self.hot.ctrl_rx[i].save(w);
        }
        self.hot.held_edge(i).save(w);
        if pcmac {
            self.hot.ctrl_locked.get(&(i as u32)).cloned().save(w);
        }
        match self.nodes[i].as_deref() {
            None => w.u8(0),
            Some(node) => {
                w.u8(1);
                node.save_state(w);
            }
        }
    }

    /// Overlay a blob written by [`Simulator::save_node`] on node `i` of
    /// this freshly built simulator: the rows, the held edge and the
    /// locked broadcast go back on the hot side, and the station is built
    /// exactly when the blob holds its cold state. Refuses a blob the run
    /// that wrote it could not have held: a flow's home written unbuilt,
    /// a lock whose frame is absent (or a frame without its lock), or a
    /// held edge at a listening MAC.
    pub(super) fn load_node(&mut self, i: usize, blob: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::over(blob);
        self.hot.rx[i] = Snap::load(&mut r)?;
        let pcmac = !self.hot.ctrl_rx.is_empty();
        if pcmac {
            self.hot.ctrl_rx[i] = Snap::load(&mut r)?;
        }
        let held: Option<(bool, Milliwatts)> = Snap::load(&mut r)?;
        let ctrl_frame: Option<CtrlFrame> = if pcmac { Snap::load(&mut r)? } else { None };
        let (data_frame, listening) = match r.u8()? {
            0 if self.nodes[i].is_some() => {
                return Err(SnapError::Corrupt("a flow's home written unbuilt"))
            }
            0 => (false, false),
            1 => {
                let node = self.node_mut(i);
                node.load_state(&mut r)?;
                (node.locked.is_some(), node.mac.listening())
            }
            _ => return Err(SnapError::Corrupt("station build tag")),
        };
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt("node blob trailing bytes"));
        }
        let ctrl_receiving = pcmac && self.hot.ctrl_rx[i].is_receiving();
        if (self.hot.rx[i].is_receiving(), ctrl_receiving) != (data_frame, ctrl_frame.is_some()) {
            return Err(SnapError::Corrupt("locked frame does not match its row"));
        }
        if let Some(frame) = ctrl_frame {
            self.hot.ctrl_locked.insert(i as u32, frame);
        }
        self.hot.mac_heard(i, listening);
        if let Some((busy, noise)) = held {
            if listening {
                return Err(SnapError::Corrupt("carrier edge held at a listening MAC"));
            }
            self.hot.hold_edge(i, busy, noise);
        }
        Ok(())
    }

    /// What the report reads of this lane once its queue drained, and
    /// the scenario it ran, moved out rather than copied; the queue, the
    /// hot arrays and the channel drop here, before the report allocates.
    pub(super) fn into_tally(mut self) -> (ScenarioConfig, LaneTally) {
        let probes = self.metrics.as_ref().map_or(0, |m| m.probes_scheduled);
        let tally = LaneTally {
            events: self.queue.scheduled_total() - probes,
            sent_packets: self.sent_packets,
            nodes: std::mem::take(&mut self.nodes),
            faults: self.faults.take(),
            metrics: self.metrics.take(),
        };
        (self.cfg, tally)
    }

    /// Fold the lanes whose queues drained — the whole single-threaded
    /// simulator, or every region shard of a plain run — into the run's
    /// report. `owner` maps each node to the lane holding its state
    /// (empty for one lane, which holds every node): per-node state is
    /// read from its owner, its energy ledger closed at the run end;
    /// counters are summed in fixed lane order with no wall-clock input
    /// but `wall_s`. Only a single lane carries the fault and metrics
    /// layers.
    pub(super) fn merge_report(
        cfg: &ScenarioConfig,
        owner: &[u32],
        mut lanes: Vec<LaneTally>,
        wall_start: std::time::Instant,
    ) -> RunReport {
        let end = SimTime::ZERO + cfg.duration;
        // Every scheduled event exists on exactly one lane.
        let events = lanes.iter().map(|l| l.events).sum::<u64>();
        let sent = lanes.iter().map(|l| l.sent_packets).sum::<u64>();

        // Per-node state: each node's owner holds the authoritative
        // replica. Read where it lies; moving every node out of its box
        // would copy the whole network once more at the very end. A
        // station its owner never touched reads as a pristine node with
        // its ledger closed at the run end, as the others' are; nothing
        // the report reads is a node's id, so one such node stands in for
        // every untouched station.
        for node in lanes.iter_mut().flat_map(|l| &mut l.nodes).flatten() {
            node.energy.finish(end);
        }
        let (faults, metrics) = (lanes[0].faults.take(), lanes[0].metrics.take());
        debug_assert!(lanes.len() == 1 || (faults.is_none() && metrics.is_none()));
        let mut untouched = Node::new(
            NodeId(0),
            Arc::new(cfg.mac.clone()),
            Arc::new(cfg.aodv.clone()),
            cfg.seed,
        );
        untouched.energy.finish(end);
        let nodes: Vec<&Node> = (0..cfg.nodes.count())
            .map(|i| {
                let lane = owner.get(i).map_or(0, |&o| o as usize);
                lanes[lane].nodes[i].as_deref().unwrap_or(&untouched)
            })
            .collect();

        let resilience = faults
            .zip(cfg.faults.as_ref())
            .map(|(fs, plan)| fs.canonical().into_report(plan));
        let metrics = metrics
            .zip(cfg.metrics)
            .map(|(ms, mc)| ms.finish(mc.interval(), cfg.mac.levels.all(), &nodes));

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
    /// ([`SimSnapshot::matches`]); the execution strategy may differ, and
    /// a restored simulator runs on one thread whatever it asks for.
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
        sim.restored = true;
        Ok(sim)
    }

    /// Overlay `snap` on this freshly-built simulator.
    fn apply_restore(&mut self, snap: &SimSnapshot) -> Result<(), SnapError> {
        let cut = snap.time;

        // The event queue: restart the sequence counter at the cut and
        // re-schedule the pending set in canonical order, each event
        // under its content-derived rank, so insertion sequence numbers
        // break same-key ties exactly as they did in the original run.
        let base = snap
            .scheduled_total
            .checked_sub(snap.pending.len() as u64)
            .ok_or(SnapError::Corrupt("pending exceeds scheduled total"))?;
        self.queue = pcmac_engine::EventQueue::restored(cut, base);
        let bursts = self
            .cfg
            .faults
            .as_ref()
            .and_then(|f| f.impairments.as_ref());
        let bursts = bursts.map_or(0, Vec::len);
        for (at, ev) in &snap.pending {
            if *at < cut {
                return Err(SnapError::Corrupt("pending event before the cut"));
            }
            if let SimEvent::ImpairmentStart { index } | SimEvent::ImpairmentEnd { index } = ev {
                if *index >= bursts {
                    return Err(SnapError::Corrupt("pending impairment names no burst"));
                }
            }
            if ev.node_index().is_some_and(|j| j >= self.nodes.len()) {
                return Err(SnapError::Corrupt("pending event names no station"));
            }
            sched_into(&mut self.queue, *at, ev.clone());
        }

        // Receive rows, held edges and cold per-node state. An arrival's
        // end panics on a row with nothing on the air, so a snapshot
        // whose rows and pending arrivals disagree stops here.
        for (i, blob) in snap.nodes.iter().enumerate() {
            self.load_node(i, blob)?;
        }
        if self
            .on_air_mismatch(snap.pending.iter().map(|(_, ev)| ev))
            .is_some()
        {
            return Err(SnapError::Corrupt("rows disagree with pending arrivals"));
        }
        // An emission names one of the sources its home was built with.
        for (_, ev) in &snap.pending {
            if let SimEvent::TrafficEmit { node, source } = ev {
                let i = node.index();
                let homed = self.nodes[i].as_ref().map_or(0, |n| n.sources.len());
                if *source >= homed {
                    return Err(SnapError::Corrupt("pending emission names no source"));
                }
            }
        }

        // Hot state: movement models arrive advanced exactly to the cut,
        // so sampling them at the cut is exact and free of history. The
        // section holds the state of every model the scenario builds
        // (none on a static field), in station order, and nothing else.
        let misfit = SnapError::Corrupt("movement section does not fit the scenario");
        let mut r = SnapReader::over(&snap.mobility);
        for model in &mut self.hot.mobility {
            model.load_state(&mut r).map_err(|_| misfit.clone())?;
        }
        if !r.is_exhausted() {
            return Err(misfit);
        }
        self.hot.tx_key_ctr = snap.tx_key_ctr.clone();
        self.channel.resync(&mut self.hot, cut);
        self.sent_packets = snap.sent_packets;
        self.cur = (cut, 0);

        // The fault and metrics sections, refused when their presence or
        // shape disagrees with the scenario.
        match (self.faults.as_mut(), snap.faults.as_ref()) {
            (Some(fs), Some(loaded)) => {
                fs.restore(loaded).map_err(SnapError::Corrupt)?;
                // The same product `set_impairment` forms.
                self.radio.noise_floor = self.cfg.radio.noise_floor * fs.noise_mult;
                for (alive, &d) in self.hot.alive.iter_mut().zip(&fs.down) {
                    *alive = !d;
                }
            }
            (None, None) => {}
            _ => return Err(SnapError::Corrupt("fault section presence")),
        }

        // The metrics layer.
        match (self.metrics.as_mut(), snap.metrics.as_ref()) {
            (Some(ms), Some(loaded)) => {
                ms.restore(loaded).map_err(SnapError::Corrupt)?;
            }
            (None, None) => {}
            _ => return Err(SnapError::Corrupt("metrics section presence")),
        }
        Ok(())
    }

    /// The first node held here whose rows count other arrivals on the
    /// air than `pending` shows started and not ended.
    pub(super) fn on_air_mismatch<'a>(
        &self,
        pending: impl IntoIterator<Item = &'a SimEvent>,
    ) -> Option<usize> {
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
fn arrivals_on_air<'a>(
    pending: impl IntoIterator<Item = &'a SimEvent>,
    nodes: usize,
) -> Vec<[i64; 2]> {
    let mut on_air = vec![[0i64; 2]; nodes];
    for ev in pending {
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

/// The absolute grid a hooked run checkpoints on (see
/// [`next_grid_point`]): the run cuts at every grid instant the next
/// event reaches, before that event dispatches, and never advances past
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
