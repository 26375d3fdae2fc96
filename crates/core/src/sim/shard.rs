//! Spatial-domain parallel execution: one scenario, every core,
//! bit-identical to the single-threaded reference.
//!
//! # How it works
//!
//! The field is split into vertical column bands — one region per worker
//! thread, boundaries snapped to spatial-index columns, balanced by node
//! count ([`pcmac_shard::partition_columns`]) over the scenario's start
//! positions, so a resumed run splits the field exactly as an
//! uninterrupted one. Every worker builds an *owner-only* shard directly
//! (`Simulator::build`): cold per-node
//! state — MAC queues, routing tables, traffic endpoints — is
//! materialised only for owned nodes (whose receive rows are the only
//! ones a shard ever writes), each the first time its shard touches it,
//! and the struct-of-arrays hot state plus the spatial index are pruned
//! to the owned band and a boundary halo sized by the maximum
//! transmission reach. Shard memory is O(N/S + halo), not O(N).
//! Construction is deterministic, so the shards agree exactly on the
//! global picture they share (positions, ownership, event ranks). At
//! runtime a shard dispatches only events addressing its own nodes; when
//! an owned node transmits, the sender loop runs exactly as in single
//! mode — the halo guarantees the pruned index returns the full
//! candidate set, and gains are pure functions of positions, so the
//! shard computes every receiver's power and delay bit-identically.
//! Owned receivers join the transmission's local fan-out (one sorted
//! list behind two queue cursors, see the `channel` module); arrivals
//! destined for foreign nodes are shipped to their owner as ready-made
//! arrival pairs, which the owner schedules as plain per-receiver
//! entries. Both shapes are the same logical events under the same
//! `(time, rank)` keys, so which one carries an arrival is invisible to
//! the pop order, to checkpoints and to the merged report.
//!
//! # The synchronization protocol
//!
//! Conservative barrier-epoch windows. The per-run lookahead δ is
//! derived by `Channel::lookahead_ns`: at least the configured
//! [`ScenarioConfig::delay_floor`](crate::ScenarioConfig::delay_floor),
//! widened for static scenarios to the propagation time across the
//! narrowest inter-band gap (arrivals are the only cross-region channel,
//! and every cross-band arrival must cross that gap), so an event at `t`
//! can only influence foreign events at `t ≥ t + δ`:
//!
//! 1. each shard publishes the due time of its next event;
//! 2. barrier; the window start `ws` is the global minimum — when every
//!    queue is drained past the run end, the run is over;
//! 3. each shard dispatches every local event in `[ws, ws + δ)`,
//!    accumulating outgoing arrivals per destination shard;
//! 4. outboxes are flushed into per-pair mailboxes; barrier;
//! 5. each shard drains its mailboxes in fixed sender order, culling
//!    each shipment against its authoritative down-state at the sender's
//!    transmit instant, and scheduling the survivors — one plain queue
//!    entry per arrival start and end — under their content-derived
//!    ranks.
//!
//! Shipments land at `ws + δ` or later, so nothing a neighbour did
//! inside a window can affect events already dispatched — and since
//! same-instant order is a pure function of event content (see
//! `SimEvent::rank`), every event pops from its owner's queue in exactly
//! the global reference position. Merging per-shard results is then
//! owner-selection (per-node state), summation (counters), or key-sorted
//! replay (fault records, trace), all in fixed shard order with no
//! wall-clock input anywhere.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pcmac_engine::SimTime;
use pcmac_shard::{partition_columns, Poisoned, SpinBarrier};

use super::build::start_positions;
use super::persist::{CutGrid, SnapContribution};
use super::{past, sched_into, EventObserver, Simulator};
use crate::channel::Shipment;
use crate::event::SimEvent;
use crate::snapshot::{RunHooks, RunOutcome, SimSnapshot};

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

/// A shard's buffered dispatch stream: `(time, rank, event)` per event.
type TracedEvents = Vec<(SimTime, u128, SimEvent)>;

/// How one shard worker ended: its drained lane, `None` when the crew agreed to
/// cancel, or [`Poisoned`] when another worker panicked.
type LaneResult = Result<Option<(Simulator, TracedEvents)>, Poisoned>;

impl Simulator {
    /// Execute this full replica as `shards` region shards and merge the
    /// report, with the durability hooks of
    /// [`Simulator::run_with_hooks`]: cooperative cancellation and
    /// periodic collective checkpoints.
    ///
    /// `observer`, when given, receives the merged event stream after the
    /// run (per-shard streams are buffered and replayed in global
    /// `(time, rank)` order — the exact single-threaded dispatch order).
    ///
    /// # Panics
    /// With the payload of the first (lowest-numbered) shard worker that
    /// panicked — a panicking checkpoint sink, a broken invariant inside a
    /// window — exactly as the single-threaded run would have, once the
    /// rest of the crew has been released from the barrier.
    pub(super) fn run_sharded(
        mut self,
        shards: usize,
        observer: EventObserver<'_>,
        hooks: &RunHooks<'_>,
    ) -> RunOutcome {
        let wall_start = std::time::Instant::now();
        let shards = shards.max(1);
        let resume = self.resume.take();
        let cfg = self.cfg.clone();
        let end = SimTime::ZERO + cfg.duration;
        assert!(
            cfg.delay_floor().as_nanos() > 0,
            "sharded execution requires a positive delay floor (validated at build)"
        );
        let (owner, lookahead_ns) = {
            let starts = start_positions(&cfg);
            let xs: Vec<f64> = starts.iter().map(|p| p.x).collect();
            let cell = self.channel.cell_size();
            let owner = Arc::new(partition_columns(&xs, cfg.field.0, cell, shards));
            let lookahead_ns = self
                .channel
                .lookahead_ns(&starts, &owner, shards, cfg.duration);
            (owner, lookahead_ns)
        };
        let collect_trace = observer.is_some();

        let peeks: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
        // mail[to][from]: written by `from` between the window's two
        // barriers, drained by `to` after the second — never contended.
        let mail: Vec<Vec<Mutex<Vec<Shipment>>>> = (0..shards)
            .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = SpinBarrier::new(shards);

        // Collective-snapshot coordination: each shard parks an owned-clone
        // contribution, one barrier guarantees completeness, then shard 0
        // merges and hands the result off — no second barrier, because
        // contributions are owned data with no references into the lanes
        // that produced them (late mergers just arrive staggered at the
        // next epoch barrier, which the generation-based SpinBarrier
        // tolerates).
        let contribs: Mutex<Vec<Option<SnapContribution>>> =
            Mutex::new((0..shards).map(|_| None).collect());
        let cancel_snap: Mutex<Option<SimSnapshot>> = Mutex::new(None);
        // Shard 0 samples the cancel token once per epoch before the peek
        // barrier; every shard reads the agreed value after it, so all
        // lanes take the same branch at the same epoch.
        let cancel_epoch = AtomicBool::new(false);

        // Split this full replica into S owner-only shards on this
        // thread, *recycling* its cold per-node state: each shard's build
        // moves the boxes the replica has built for its owned nodes (the
        // flow homes of a fresh build, every station of a restored one)
        // out of the donor vec instead of allocating a second copy; a
        // station the replica never touched stays unbuilt on its shard
        // too. This keeps the process peak at one full build — freeing
        // the parent and reallocating in S worker threads would double
        // resident memory, because worker-arena allocations cannot reuse
        // what the main thread's arena freed.
        let shard_sims: Vec<Simulator> = {
            let mut donor = std::mem::take(&mut self.nodes);
            drop(self);
            (0..shards)
                .map(|k| {
                    let plan = (k as u32, shards, Arc::clone(&owner));
                    Simulator::build(cfg.clone(), Some(plan), &mut donor)
                })
                .collect()
        };

        let results: Vec<std::thread::Result<LaneResult>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards);
            for (k, mut s) in shard_sims.into_iter().enumerate() {
                let (barrier, peeks, mail) = (&barrier, &peeks, &mail);
                let (contribs, cancel_snap, cancel_epoch) =
                    (&contribs, &cancel_snap, &cancel_epoch);
                let (cfg, owner) = (&cfg, &owner);
                let resume = resume.clone();
                handles.push(scope.spawn(move || -> LaneResult {
                    // A panic anywhere below must not strand the crew in
                    // the barrier.
                    let _poison = barrier.poison_on_unwind();
                    // Overlay a parked restore *after* the owner-only
                    // build (the build re-initialises the donated cold
                    // state, so a pre-split overlay would be lost).
                    if let Some(snap) = resume.as_deref() {
                        s.apply_restore(snap).expect(
                            "Simulator::restore applied this snapshot to every station, \
                             and a lane checks no more than that",
                        );
                    }
                    // One collective snapshot at `cut`: park this lane's
                    // contribution, wait for everyone, shard 0 merges.
                    let snap_at =
                        |s: &Simulator, cut: SimTime| -> Result<Option<SimSnapshot>, Poisoned> {
                            contribs.lock().expect("contribs")[k] = Some(s.snap_contribution(cut));
                            barrier.wait()?;
                            Ok(if k == 0 {
                                let parts: Vec<SnapContribution> = contribs
                                    .lock()
                                    .expect("contribs")
                                    .iter_mut()
                                    .map(|c| c.take().expect("every shard contributed"))
                                    .collect();
                                Some(Simulator::merge_contributions(cfg, cut, owner, parts))
                            } else {
                                None
                            })
                        };
                    let mut trace = collect_trace.then(Vec::new);
                    let mut grid = CutGrid::new(hooks.checkpoint_every, s.queue.now());
                    loop {
                        if k == 0 {
                            cancel_epoch.store(
                                hooks.cancel.is_some_and(|c| c.is_cancelled()),
                                Ordering::SeqCst,
                            );
                        }
                        // The next event's time, `u64::MAX` once this
                        // queue is drained past the end.
                        let next = s.queue.peek_time().filter(|&t| t <= end);
                        peeks[k].store(next.map_or(u64::MAX, SimTime::as_nanos), Ordering::SeqCst);
                        barrier.wait()?;
                        let ws = peeks
                            .iter()
                            .map(|p| p.load(Ordering::SeqCst))
                            .min()
                            .expect("at least one shard");
                        if ws == u64::MAX {
                            break; // every queue drained past the end
                        }
                        let ws = SimTime::from_nanos(ws);
                        grid.reach(ws, |cut| {
                            if let (Some(snap), Some(sink)) =
                                (snap_at(&s, cut)?, hooks.checkpoint_sink)
                            {
                                sink(snap);
                            }
                            Ok(())
                        })?;
                        if cancel_epoch.load(Ordering::SeqCst) {
                            // Stop at the agreed epoch top — the same cut a
                            // single-threaded run takes: the next
                            // undispatched instant.
                            let snap = snap_at(&s, ws)?;
                            if k == 0 {
                                *cancel_snap.lock().expect("cancel snapshot") = snap;
                            }
                            return Ok(None);
                        }
                        let horizon =
                            SimTime::from_nanos(ws.as_nanos().saturating_add(lookahead_ns));
                        s.run_window(grid.clamp(past(end).min(horizon)), trace.as_mut());
                        let ctx = s.shard.as_mut().expect("a lane is a region shard");
                        for (to, batch) in ctx.outbox.iter_mut().enumerate() {
                            if !batch.is_empty() {
                                *mail[to][k].lock().expect("mailbox") = std::mem::take(batch);
                            }
                        }
                        barrier.wait()?;
                        let incoming: Vec<Vec<Shipment>> = mail[k]
                            .iter()
                            .map(|m| std::mem::take(&mut *m.lock().expect("mailbox")))
                            .collect();
                        s.accept_shipments(incoming);
                    }
                    Ok(Some((s, trace.unwrap_or_default())))
                }));
            }
            handles.into_iter().map(|h| h.join()).collect()
        });

        // A worker that panicked poisoned the barrier and the others bailed
        // out with `Poisoned`; hand its panic on to whoever called `run`.
        let lanes: Vec<LaneResult> = results
            .into_iter()
            .map(|joined| joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        let completed: Option<Vec<(Simulator, TracedEvents)>> = lanes
            .into_iter()
            .map(|lane| lane.expect("the barrier is poisoned only by a panicking worker"))
            .collect();
        let Some(completed) = completed else {
            // Cancellation is an epoch-wide agreement: every lane bailed at
            // the same cut, and shard 0 parked the merged snapshot.
            return RunOutcome::Cancelled(cancel_snap.into_inner().expect("cancel snapshot"));
        };
        let (sims, traces): (Vec<Simulator>, Vec<TracedEvents>) = completed.into_iter().unzip();

        if let Some(obs) = observer {
            let mut all: Vec<(SimTime, u128, SimEvent)> = traces.into_iter().flatten().collect();
            // Stable: same-key events (necessarily same-shard, same-node)
            // keep their shard-local dispatch order.
            all.sort_by_key(|&(t, r, _)| (t, r));
            for (at, _, ev) in &all {
                obs(ev, *at);
            }
        }

        let lanes = sims.into_iter().map(|s| s.into_tally().1).collect();
        RunOutcome::Completed(Simulator::merge_report(&cfg, &owner, lanes, wall_start))
    }

    /// Dispatch every local event strictly before `until`. Cross-region
    /// arrivals pile up in the outboxes; when `trace` is given,
    /// dispatched events are buffered under their global `(time, rank)`
    /// for the post-run observer replay (shard 0 records the replicated
    /// impairment/probe events for everyone).
    fn run_window(&mut self, until: SimTime, trace: Option<&mut TracedEvents>) {
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

    /// Drain one window's incoming shipments (already ordered: callers
    /// pass the per-sender batches in fixed shard order). Each shipment
    /// is culled against the receiver's authoritative down-state at the
    /// sender's transmit instant — the exact test the single-threaded
    /// sender loop applies inline: the receiver's last flip strictly
    /// before the transmission's `(time, rank)` decides (a flip can never
    /// share a full key with another shard's transmission — ranks pin
    /// events to nodes). Survivors are scheduled under their content
    /// rank, landing in the identical queue position.
    fn accept_shipments(&mut self, batches: Vec<Vec<Shipment>>) {
        let ctx = self.shard.as_ref().expect("a lane is a region shard");
        for s in batches.into_iter().flatten() {
            let mut flips = ctx.transitions[s.node.index()].iter().rev();
            if flips
                .find(|&&(t, r, _)| (t, r) < s.tx)
                .is_some_and(|&(_, _, down)| down)
            {
                continue;
            }
            let start = s.payload.arrival_start(s.node, s.key, s.power, s.end);
            sched_into(&mut self.queue, s.at, start);
            let end = s.payload.arrival_end(s.node, s.key, s.power);
            sched_into(&mut self.queue, s.end, end);
        }
    }
}
