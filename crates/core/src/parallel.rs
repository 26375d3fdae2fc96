//! Spatial-domain parallel execution: one scenario, every core,
//! bit-identical to the single-threaded reference.
//!
//! # How it works
//!
//! The field is split into vertical column bands — one region per worker
//! thread, boundaries snapped to spatial-index columns, balanced by node
//! count ([`pcmac_shard::partition_columns`]). Every worker builds an
//! *owner-only* shard directly (`Simulator::new_shard`): cold per-node
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
//! derived by `Simulator::derived_lookahead_ns`: at least the configured
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

use pcmac_shard::{partition_columns, Poisoned, SpinBarrier};

use pcmac_engine::SimTime;

use crate::channel::Shipment;
use crate::event::SimEvent;
use crate::sim::{EventObserver, ShardParts, Simulator, SnapContribution};
use crate::snapshot::{next_grid_point, RunHooks, RunOutcome, SimSnapshot};

/// A shard's buffered dispatch stream: `(time, rank, event)` per event.
type TracedEvents = Vec<(SimTime, u128, SimEvent)>;

/// How one shard worker ended: its parts, `None` when the crew agreed to
/// cancel, or [`Poisoned`] when another worker panicked.
type LaneResult = Result<Option<(ShardParts, TracedEvents)>, Poisoned>;

/// Execute `sim` as `shards` region shards and merge the report, with
/// the durability hooks of `Simulator::run_with_hooks`: cooperative
/// cancellation and periodic collective checkpoints.
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
pub(crate) fn run_sharded(
    mut sim: Simulator,
    shards: usize,
    observer: EventObserver<'_>,
    hooks: &RunHooks<'_>,
) -> RunOutcome {
    let wall_start = std::time::Instant::now();
    let shards = shards.max(1);
    let resume = sim.take_resume();
    let cfg = sim.cfg().clone();
    let end = SimTime::ZERO + cfg.duration;
    assert!(
        cfg.delay_floor().as_nanos() > 0,
        "sharded execution requires a positive delay floor (validated at build)"
    );
    let owner: Arc<Vec<u32>> = Arc::new(partition_columns(
        &sim.start_xs(),
        cfg.field.0,
        sim.shard_cell_size(),
        shards,
    ));
    let lookahead_ns = sim.derived_lookahead_ns(&owner, shards);
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
    let every_ns = hooks.checkpoint_every.map(|e| e.as_nanos().max(1));
    let start_now = resume.as_ref().map_or(SimTime::ZERO, |s| s.time());
    let cp0_ns = every_ns.map(|e| next_grid_point(start_now, e).as_nanos());

    // Split the caller's full replica into S owner-only shards on this
    // thread, *recycling* its cold per-node state: each shard's build
    // moves the boxes the replica has built for its owned nodes (the
    // flow homes of a fresh build, every station of a restored one) out
    // of the donor vec instead of allocating a second copy; a station
    // the replica never touched stays unbuilt on its shard too. This keeps the
    // process peak at one full build — freeing the parent and
    // reallocating in S worker threads would double resident memory,
    // because worker-arena allocations cannot reuse what the main
    // thread's arena freed.
    let shard_sims: Vec<Simulator> = {
        let mut sim = sim;
        let mut donor = sim.take_cold_nodes();
        drop(sim);
        (0..shards)
            .map(|k| {
                Simulator::new_shard(
                    cfg.clone(),
                    k as u32,
                    shards,
                    Arc::clone(&owner),
                    &mut donor,
                )
            })
            .collect()
    };

    let results: Vec<std::thread::Result<LaneResult>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards);
        for (k, mut s) in shard_sims.into_iter().enumerate() {
            let (barrier, peeks, mail) = (&barrier, &peeks, &mail);
            let (contribs, cancel_snap, cancel_epoch) = (&contribs, &cancel_snap, &cancel_epoch);
            let (cfg, owner) = (&cfg, &owner);
            let resume = resume.clone();
            handles.push(scope.spawn(move || -> LaneResult {
                // A panic anywhere below must not strand the crew in
                // the barrier.
                let _poison = barrier.poison_on_unwind();
                // Overlay a parked restore *after* the owner-only build
                // (the build re-initialises the donated cold state, so a
                // pre-split overlay would be lost).
                if let Some(snap) = resume.as_deref() {
                    s.apply_restore(snap)
                        .expect("snapshot validated by Simulator::restore");
                }
                // One collective snapshot at `cut_ns`: park this lane's
                // contribution, wait for everyone, shard 0 merges.
                let snap_at =
                    |s: &Simulator, cut_ns: u64| -> Result<Option<SimSnapshot>, Poisoned> {
                        let cut = SimTime::from_nanos(cut_ns);
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
                let mut next_cp_ns = cp0_ns;
                loop {
                    if k == 0 {
                        cancel_epoch.store(
                            hooks.cancel.is_some_and(|c| c.is_cancelled()),
                            Ordering::SeqCst,
                        );
                    }
                    peeks[k].store(s.shard_peek_ns(end), Ordering::SeqCst);
                    barrier.wait()?;
                    let ws = peeks
                        .iter()
                        .map(|p| p.load(Ordering::SeqCst))
                        .min()
                        .expect("at least one shard");
                    if ws == u64::MAX {
                        break; // every queue drained past the end
                    }
                    // Periodic checkpoints: every grid instant this
                    // epoch reaches, before any of its events dispatch —
                    // the same cuts, in the same order, as single mode.
                    while let Some(cp) = next_cp_ns {
                        if ws < cp {
                            break;
                        }
                        if let Some(snap) = snap_at(&s, cp)? {
                            if let Some(sink) = hooks.checkpoint_sink {
                                sink(snap);
                            }
                        }
                        next_cp_ns =
                            Some(cp.saturating_add(every_ns.expect("grid implies interval")));
                    }
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
                    let mut horizon = ws.saturating_add(lookahead_ns);
                    if let Some(cp) = next_cp_ns {
                        // Clamp the window at the next grid instant so
                        // it stays an epoch boundary — that is what
                        // makes checkpoint cuts land on the same
                        // absolute simulated instants as in single mode.
                        horizon = horizon.min(cp);
                    }
                    s.run_window(horizon, end, trace.as_mut());
                    for (to, batch) in s.take_outboxes().into_iter().enumerate() {
                        if !batch.is_empty() {
                            *mail[to][k].lock().expect("mailbox") = batch;
                        }
                    }
                    barrier.wait()?;
                    let incoming: Vec<Vec<Shipment>> = mail[k]
                        .iter()
                        .map(|m| std::mem::take(&mut *m.lock().expect("mailbox")))
                        .collect();
                    s.accept_shipments(incoming);
                }
                Ok(Some((s.into_shard_parts(end), trace.unwrap_or_default())))
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
    let completed: Option<Vec<(ShardParts, TracedEvents)>> = lanes
        .into_iter()
        .map(|lane| lane.expect("the barrier is poisoned only by a panicking worker"))
        .collect();
    let Some(completed) = completed else {
        // Cancellation is an epoch-wide agreement: every lane bailed at
        // the same cut, and shard 0 parked the merged snapshot.
        return RunOutcome::Cancelled(cancel_snap.into_inner().expect("cancel snapshot"));
    };
    let (parts, traces): (Vec<ShardParts>, Vec<TracedEvents>) = completed.into_iter().unzip();

    if let Some(obs) = observer {
        let mut all: Vec<(SimTime, u128, SimEvent)> = traces.into_iter().flatten().collect();
        // Stable: same-key events (necessarily same-shard, same-node)
        // keep their shard-local dispatch order.
        all.sort_by_key(|&(t, r, _)| (t, r));
        for (at, _, ev) in &all {
            obs(ev, *at);
        }
    }

    RunOutcome::Completed(Simulator::merge_report(&cfg, &owner, parts, wall_start))
}
