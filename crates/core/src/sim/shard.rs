//! Spatial-domain parallel execution: one scenario over several cores,
//! bit-identical to the single-threaded reference.
//!
//! Only a plain run takes this path: [`Simulator::run`] of a freshly
//! built simulator whose scenario asks for
//! [`ExecutionMode::Sharded`](crate::ExecutionMode::Sharded) and carries
//! neither a fault plan nor metrics. Every other run — an observed or
//! hooked one, a restored simulator, a faulted or metered scenario —
//! executes on one thread, which gives the same bytes faster. The
//! engine has never paid for itself (a two-shard run of the benchmark's
//! fields reads 0.49–0.84× the single-threaded speed); it stays so the
//! benchmark can keep timing it.
//!
//! # How it works
//!
//! The field is split into vertical column bands — one region per worker
//! thread, boundaries snapped to spatial-index columns, balanced by node
//! count ([`pcmac_shard::partition_columns`]) over the scenario's start
//! positions. Every worker builds an *owner-only* shard directly
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
//! the pop order and to the merged report.
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
//! 5. each shard drains its mailboxes in fixed sender order and
//!    schedules every shipment — one plain queue entry per arrival start
//!    and end — under its content-derived ranks.
//!
//! Shipments land at `ws + δ` or later, so nothing a neighbour did
//! inside a window can affect events already dispatched — and since
//! same-instant order is a pure function of event content (see
//! `SimEvent::rank`), every event pops from its owner's queue in exactly
//! the global reference position. Merging per-shard results is then
//! owner-selection (per-node state) or summation (counters), in fixed
//! shard order with no wall-clock input anywhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pcmac_engine::SimTime;
use pcmac_shard::{partition_columns, Poisoned, SpinBarrier};

use super::build::start_positions;
use super::{past, sched_into, Simulator};
use crate::channel::Shipment;
use crate::report::RunReport;

/// Per-shard execution context: which nodes this simulator dispatches,
/// and the outgoing cross-region arrival shipments of the current
/// window.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    /// This shard's id.
    pub(crate) id: u32,
    /// Owning shard per node (shared, read-only).
    pub(crate) owner: Arc<Vec<u32>>,
    /// Outgoing shipments, bucketed by destination shard (slot `id` is
    /// always empty — owned receivers schedule locally).
    pub(crate) outbox: Vec<Vec<Shipment>>,
}

impl Simulator {
    /// Execute this freshly built plain simulator as `shards` region
    /// shards and merge the report.
    pub(super) fn run_sharded(self, shards: usize) -> RunReport {
        let wall_start = std::time::Instant::now();
        let (lanes, owner, lookahead_ns) = self.split(shards);
        Simulator::run_lanes(lanes, &owner, lookahead_ns, wall_start)
    }

    /// Split this full replica into `shards` owner-only region shards:
    /// the lanes, the owning shard per node and the lookahead (ns) the
    /// lanes may run ahead of each other.
    pub(super) fn split(mut self, shards: usize) -> (Vec<Simulator>, Arc<Vec<u32>>, u64) {
        let shards = shards.max(1);
        let cfg = self.cfg.clone();
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
        // Each shard's build *recycles* this replica's cold per-node
        // state: it moves the boxes the replica has built for its owned
        // nodes (the flow homes) out of the donor vec instead of
        // allocating a second copy. This keeps the process peak at one
        // full build — freeing the parent and reallocating in S worker
        // threads would double resident memory, because worker-arena
        // allocations cannot reuse what the main thread's arena freed.
        let mut donor = std::mem::take(&mut self.nodes);
        drop(self);
        let lanes = (0..shards)
            .map(|k| {
                let plan = (k as u32, shards, Arc::clone(&owner));
                Simulator::build(cfg.clone(), Some(plan), &mut donor)
            })
            .collect();
        (lanes, owner, lookahead_ns)
    }

    /// Run `lanes`, the shards of one scenario under `owner`, in
    /// barrier-epoch windows `lookahead_ns` wide, and merge the report.
    ///
    /// # Panics
    /// With the payload of the first (lowest-numbered) shard worker that
    /// panicked — a broken invariant inside a window — exactly as the
    /// single-threaded run would have, once the rest of the crew has been
    /// released from the barrier.
    pub(super) fn run_lanes(
        lanes: Vec<Simulator>,
        owner: &[u32],
        lookahead_ns: u64,
        wall_start: std::time::Instant,
    ) -> RunReport {
        let shards = lanes.len();
        let cfg = lanes[0].cfg.clone();
        let end = SimTime::ZERO + cfg.duration;
        let peeks: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
        // mail[to][from]: written by `from` between the window's two
        // barriers, drained by `to` after the second — never contended.
        let mail: Vec<Vec<Mutex<Vec<Shipment>>>> = (0..shards)
            .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = SpinBarrier::new(shards);

        let results: Vec<std::thread::Result<Result<Simulator, Poisoned>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .into_iter()
                    .enumerate()
                    .map(|(k, mut s)| {
                        let (barrier, peeks, mail) = (&barrier, &peeks, &mail);
                        scope.spawn(move || -> Result<Simulator, Poisoned> {
                            // A panic anywhere below must not strand the
                            // crew in the barrier.
                            let _poison = barrier.poison_on_unwind();
                            loop {
                                // The next event's time, `u64::MAX` once
                                // this queue is drained past the end.
                                let next = s.queue.peek_time().filter(|&t| t <= end);
                                peeks[k].store(
                                    next.map_or(u64::MAX, SimTime::as_nanos),
                                    Ordering::SeqCst,
                                );
                                barrier.wait()?;
                                let ws = peeks
                                    .iter()
                                    .map(|p| p.load(Ordering::SeqCst))
                                    .min()
                                    .expect("at least one shard");
                                if ws == u64::MAX {
                                    break; // every queue drained past the end
                                }
                                let horizon = SimTime::from_nanos(ws.saturating_add(lookahead_ns));
                                s.advance(past(end).min(horizon), u64::MAX, &mut None);
                                let ctx = s.shard.as_mut().expect("a lane is a region shard");
                                for (to, batch) in ctx.outbox.iter_mut().enumerate() {
                                    if !batch.is_empty() {
                                        *mail[to][k].lock().expect("mailbox") =
                                            std::mem::take(batch);
                                    }
                                }
                                barrier.wait()?;
                                let incoming: Vec<Vec<Shipment>> = mail[k]
                                    .iter()
                                    .map(|m| std::mem::take(&mut *m.lock().expect("mailbox")))
                                    .collect();
                                s.accept_shipments(incoming);
                            }
                            Ok(s)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });

        // A worker that panicked poisoned the barrier and the others bailed
        // out with `Poisoned`; hand its panic on to whoever called `run`.
        let lanes: Vec<Result<Simulator, Poisoned>> = results
            .into_iter()
            .map(|joined| joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        let lanes = lanes
            .into_iter()
            .map(|lane| {
                let sim = lane.expect("the barrier is poisoned only by a panicking worker");
                sim.into_tally().1
            })
            .collect();
        Simulator::merge_report(&cfg, owner, lanes, wall_start)
    }

    /// Schedule one window's incoming shipments (callers pass the
    /// per-sender batches in fixed shard order), each arrival under its
    /// content rank, landing in the identical queue position.
    fn accept_shipments(&mut self, batches: Vec<Vec<Shipment>>) {
        for s in batches.into_iter().flatten() {
            let start = s.payload.arrival_start(s.node, s.key, s.power, s.end);
            sched_into(&mut self.queue, s.at, start);
            let end = s.payload.arrival_end(s.node, s.key, s.power);
            sched_into(&mut self.queue, s.end, end);
        }
    }
}
