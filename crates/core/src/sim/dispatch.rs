//! The event loop and everything it dispatches to: the held fan-out
//! walk, the arrival handlers, the MAC and routing action appliers, the
//! fault and metrics handlers, and transmission. This is the hot path;
//! it stays in one module.

use std::sync::Arc;

use pcmac_engine::{Duration, Milliwatts, NodeId, SimTime};
use pcmac_mac::{CtrlFrame, DcfMac, Frame, MacAction};
#[cfg(debug_assertions)]
use pcmac_snap::SnapWriter;

use super::{sched_into, EventObserver, Simulator};
use crate::channel::{Payload, QueueEntry, Transmission};
use crate::event::SimEvent;
use crate::fault::FaultRecord;
use crate::metrics::Drop as PacketDrop;

/// Debug builds count how audible data arrivals are handled and pace the
/// reconciliation of the rows' arrival counts against the queue.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
pub(super) struct ArrivalAudit {
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
    pub(super) fn advance(
        &mut self,
        until: SimTime,
        budget: u64,
        observer: &mut EventObserver<'_>,
    ) -> u64 {
        let mut fired = 0;
        while fired < budget {
            if self.queue.peek_time().is_none_or(|at| at >= until) {
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
    /// the list's next key and dispatching while that key precedes the
    /// queue's next entry and stays inside `until` and `budget`;
    /// otherwise push the cursor back under it. The fan-out stays in its
    /// slot and each arrival copies its receiver out of it. The
    /// comparison is made after every dispatch — a PCMAC receiver locking
    /// onto a frame schedules a zero-delay control broadcast whose first
    /// arrival can precede the data frame's next one. Returns the number
    /// dispatched (at least one).
    fn walk(
        &mut self,
        fan: u32,
        end: bool,
        until: SimTime,
        budget: u64,
        observer: &mut EventObserver<'_>,
    ) -> u64 {
        let f = self.channel.fan(fan);
        let (len, ctrl) = (f.len(), f.is_ctrl());
        let mut i = f.next(end);
        let mut key = f.key_of(i, end);
        debug_assert_eq!(key.0, self.queue.now(), "cursor keyed with its head");
        // Starts hand their receivers the payload: one copy per walk — a
        // reference count for a data frame — lets the handlers borrow it
        // while they change the simulator. Ends take none.
        let payload = (!end).then(|| f.payload().clone());
        let mut fired = 0;
        loop {
            self.cur = key;
            let f = self.channel.fan(fan);
            if let Some(obs) = observer {
                obs(&f.event_of(i, end), key.0);
            }
            let (node, tx, power) = f.receiver(i);
            // The list does not change under its own walk: read the next
            // key while the fan-out is at hand.
            let next = (i + 1 < len).then(|| f.key_of(i + 1, end));
            match &payload {
                Some(Payload::Data(frame)) => self.on_arrival_start(node, tx, power, frame, key.0),
                Some(Payload::Ctrl(frame)) => self.on_ctrl_arrival_start(node, tx, power, frame),
                None if ctrl => self.on_ctrl_arrival_end(node, tx, power, key.0),
                None => self.on_arrival_end(node, tx, power, key.0),
            }
            fired += 1;
            i += 1;
            let Some(next) = next else { break };
            key = next;
            if self.queue.next_precedes(key.0, key.1) || fired == budget || key.0 >= until {
                self.queue
                    .push_cursor(key.0, key.1, QueueEntry::Cursor { fan, end });
                break;
            }
            self.queue.fire(key.0);
        }
        self.channel.set_cursor(fan, end, i);
        fired
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    pub(super) fn dispatch(&mut self, ev: SimEvent, now: SimTime) {
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
                self.node_mut(i).energy.end_tx(now);
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
                // The tolerance broadcast went out while the data radio
                // was mid-reception. No energy was metered for it (the
                // meter counts data-channel transmissions only), and the
                // control channel indicates no carrier edges.
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
                mac.on_rx_end(&*frame, power, ok, now, acts)
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
            self.hot.ctrl_locked.insert(i as u32, frame.clone());
        }
    }

    /// The control-channel arrival keyed `key`, which started at `power`,
    /// finished at node `i`: only a successfully decoded broadcast
    /// matters to the MAC.
    fn on_ctrl_arrival_end(&mut self, i: usize, key: u64, power: Milliwatts, now: SimTime) {
        let heard = self.hot.ctrl_rx[i].arrival_end(&self.radio, key, power);
        if let Some(ok) = heard.rx_end() {
            let frame = self
                .hot
                .ctrl_locked
                .remove(&(i as u32))
                .expect("a locked row's frame is held beside it");
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
    pub(super) fn with_mac<R>(
        &mut self,
        i: usize,
        now: SimTime,
        f: impl FnOnce(&mut DcfMac) -> R,
    ) -> R {
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
        let mac = match self.nodes[i].as_deref() {
            Some(node) => node.mac.clone(),
            None => self.pristine(i).mac,
        };
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

    /// Debug builds reconcile the rows with the queue as a run goes.
    #[cfg(debug_assertions)]
    fn audit_on_air(&self) {
        let pending = self.channel.pending_events(&self.queue);
        assert_eq!(
            self.on_air_mismatch(pending.iter().map(|(_, _, ev)| ev)),
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
            if !self.owns(i) {
                continue;
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
            node.energy.start_tx(now, power);
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
        self.hot.ctrl_locked.remove(&(i as u32));
        // The broadcast radiates on the control channel while the data
        // radio may be mid-reception. The energy meter does not see it:
        // `radiated_mj` counts data-channel transmissions only.
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

/// Tell `mac` a carrier edge that was held back while it was not
/// listening (see [`DcfMac::listening`]): a carrier bit and a noise
/// figure to store.
///
/// # Panics
/// If the MAC acts on it — the edge should never have been held.
pub(super) fn tell_held_edge(mac: &mut DcfMac, busy: bool, noise: Milliwatts, now: SimTime) {
    let mut acts = Vec::new();
    mac.set_noise(noise);
    mac.on_carrier(busy, now, &mut acts);
    assert!(
        acts.is_empty(),
        "a carrier edge held back from node {}'s MAC made it act: {acts:?}",
        mac.id()
    );
}

#[cfg(all(test, debug_assertions))]
impl Simulator {
    /// `(audible, held)`: data-channel arrival starts and ends that
    /// indicated anything, and those among them that were a carrier edge
    /// held back — handled without touching the cold node.
    pub(crate) fn arrival_audit(&self) -> (u64, u64) {
        (self.audit.audible, self.audit.held)
    }
}
