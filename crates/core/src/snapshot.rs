//! In-run durability: checkpoint/restore with bit-identical resume,
//! and cooperative cancellation.
//!
//! A [`SimSnapshot`] captures the *complete* deterministic state of a
//! run at a cut instant: the pending *logical* event population (with
//! its `(time, rank)` order), every station's receive rows and per-node
//! protocol machines (MAC, AODV, traffic sources, sink, energy meter),
//! the movement models with their RNG streams (none on a static field),
//! and the fault/metrics layers. The hard guarantee
//! — proven by the `channel_equivalence` matrix — is that restoring a
//! snapshot and running to the end produces a report **bit-identical**
//! to the uninterrupted run, in both single-threaded and region-sharded
//! execution.
//!
//! # Cut semantics
//!
//! A cut is a *globally consistent instant* `g`: every event strictly
//! before `g` has been dispatched and every event at or after `g` is
//! still pending. Single-threaded runs cut whenever the next event's
//! time reaches a checkpoint grid point; sharded runs cut at an epoch
//! top — after a barrier, when every shard has dispatched its window
//! and accepted all cross-region shipments — with the window horizon
//! clamped to the next grid point so the same grid instants are
//! reachable cuts in every execution mode. Both constructions leave the
//! run in the exact state a single-threaded replay would have at `g`,
//! which is why a snapshot taken under one shard count restores under
//! any other.
//!
//! # Pending events are logical
//!
//! At run time a transmission's arrivals are not queue entries of their
//! own: they sit in a sorted receiver list walked by two queue cursors
//! (see the `channel` module). That is a *physical* layout and never
//! reaches a snapshot. Capture expands every cursor's un-walked tail
//! back into the `ArrivalStart`/`ArrivalEnd` events it stands for and
//! merges them with the plain entries in canonical `(time, rank,
//! insertion)` order, so the pending list — and the bytes — are those of
//! a queue holding one entry per event; restore schedules every listed
//! event as a plain entry. A cut may therefore fall anywhere, including
//! between two arrivals of one transmission.
//!
//! # Wire format
//!
//! [`SimSnapshot::to_bytes`] wraps the payload in the `pcmac-snap`
//! envelope (magic, version, length, FNV-1a checksum). Checkpoint files
//! are **host-independent**: every field is fixed-width little-endian,
//! floats travel as IEEE-754 bit patterns, and hash maps serialize in
//! sorted key order, so a file written on one machine restores with
//! bit-identical results on any other.
//!
//! The envelope is at **version 4**. A node's blob opens with its radio
//! section — the data-channel receive row (`pcmac_phy::RxRow`: in-air
//! sum, locked power and key, arrivals on the air, mode, corruption
//! verdict, last carrier state indicated), the control-channel row when
//! the scenario runs PCMAC, then the locked data frame and the locked
//! control frame as options — followed by the MAC, the routing agent,
//! the sources, the sink and the meter. Version 1 wrote a whole radio
//! there: its configuration, a lock that serialized a diagnostic
//! `until`, and the list of arrivals on the air in the order a per-node
//! `Vec`'s `push` / `swap_remove` history had left it in. A design that
//! keeps a sum and a count cannot reproduce that order, so the list left
//! the format and a pending `ArrivalEnd` / `CtrlArrivalEnd` carries the
//! received power it has to hand back. Version-1 files fail
//! `SnapReader::open` with `BadVersion`; the campaign runner recomputes
//! the cell.
//!
//! Version 3 writes a MAC's power control as the three pieces of state
//! it has — the needed-level table, the RTS ladder rung and the noise
//! last measured at the radio — where version 2 wrote the rung and the
//! table among the exchange fields, the noise after them, and beside the
//! table a copy of four configuration values: the entry expiry, the
//! level list, the decode threshold and a threshold margin that was
//! always 1. The configuration is rebuilt from the scenario on restore
//! (and the snapshot's config digest pins it), so the copy carried
//! nothing: it cost 112 B per station per cut. Every variant writes the
//! same shape — Basic's table is empty and only PCMAC reads the rung —
//! so the blob has one layout. Version-2 files are refused as
//! `BadVersion(2)` and their cells recomputed, as version 1's are.
//!
//! Version 4 applies that rule to every section: a checkpoint holds
//! what a layer holds at run time and cannot rebuild from the scenario.
//! Version 3 still wrote, per station, an energy meter in the layout of
//! an electrical model no scenario used (three zero draws, a mode tag
//! the power implies, the radiated total three times: 65 B for 24 B of
//! state), an on/off source's stop time twice, and three copies of the
//! MAC configuration — the contention window's bounds, the PCMAC
//! retransmission cap and the interface queue's capacity. It wrote one
//! fixed position per station of a static field, where the movement
//! section is now empty, and a hot-path counter that is always 0 in the
//! metrics section. Restore checks what the copies used to carry against
//! the scenario instead: a contention window outside
//! `[cw_min, cw_max]`, a queue longer than its capacity, a movement
//! section with another model count than the scenario moves, or a model
//! walking another field, speed or pause, is `SnapError::Corrupt`.
//! Version-3 files are refused as `BadVersion(3)` and their cells
//! recomputed.
//!
//! The fault and metrics sections follow the same rule: each is its
//! layer's own run-time state, written field by field (`FaultState`,
//! `MetricsState`), with no copy of the layer's configuration. The
//! fault plan, the probe interval and the power levels are rebuilt from
//! the scenario on restore. Restore checks each section against the
//! state the scenario builds — present exactly when the layer is
//! configured, with its node, impairment-burst and power-level counts —
//! and refuses a mismatch as `SnapError::Corrupt`, on one thread and on
//! region shards alike.
//!
//! Two things a snapshot does **not** carry, by construction. The MAC is
//! written *as told*: a carrier edge the simulator is holding back from
//! a MAC that is not listening (see the `soa` module) is told to a copy
//! of that MAC at capture and the copy is what is written, so the held
//! edge itself never reaches the wire and restore only re-derives each
//! MAC's listening bit. And the noise floor every row is read against
//! is rebuilt as `cfg.radio.noise_floor × fault noise multiplier`, the
//! product `set_impairment` forms. Restore cross-checks each row's
//! arrival count against the pending arrival events and each lock
//! against its frame, and refuses a snapshot where they disagree.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pcmac_engine::{Duration, SimTime};
use pcmac_mobility::RandomWaypoint;
use pcmac_snap::{checksum64, fnv1a64, Snap, SnapError, SnapReader, SnapWriter};

use crate::config::ScenarioConfig;
use crate::event::SimEvent;
use crate::fault::FaultState;
use crate::metrics::MetricsState;
use crate::report::RunReport;

/// A cooperative cancellation handle: clone it, hand one side to the
/// run via [`RunHooks::cancel`], and call [`CancelToken::cancel`] from
/// any thread (a watchdog, a Ctrl-C handler). The run observes the
/// token at safe cut boundaries, takes a final snapshot, and returns
/// [`RunOutcome::Cancelled`] instead of blocking until the simulated
/// end — no thread is ever abandoned mid-dispatch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Optional run-control hooks for
/// [`Simulator::run_with_hooks`](crate::Simulator::run_with_hooks). The
/// default (all `None`) is exactly [`Simulator::run`](crate::Simulator::run).
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Observed at cut boundaries; when cancelled the run stops cleanly
    /// with a final snapshot.
    pub cancel: Option<&'a CancelToken>,
    /// Take a periodic checkpoint every this much *simulated* time.
    pub checkpoint_every: Option<Duration>,
    /// Receives every periodic checkpoint (called on the driving thread
    /// in single mode, on shard 0's worker thread in sharded mode).
    pub checkpoint_sink: Option<&'a (dyn Fn(SimSnapshot) + Sync)>,
}

/// How a hooked run ended.
//
// The variants differ in size, but exactly one `RunOutcome` exists per
// run — boxing the report would cost every caller a deref for nothing.
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// Ran to the simulated end; the ordinary report.
    Completed(RunReport),
    /// Stopped at a cancellation cut; carries the state at the cut so
    /// the caller can persist it and resume later. `None` only when the
    /// event queue was already empty (nothing left to resume into).
    Cancelled(Option<SimSnapshot>),
}

impl RunOutcome {
    /// The report, if the run completed.
    pub fn report(self) -> Option<RunReport> {
        match self {
            RunOutcome::Completed(r) => Some(r),
            RunOutcome::Cancelled(_) => None,
        }
    }
}

/// The complete deterministic state of a run at a cut instant. Obtain
/// one from [`Simulator::snapshot`](crate::Simulator::snapshot), a
/// periodic [`RunHooks::checkpoint_sink`], or a cancellation; bring it
/// back to life with [`Simulator::restore`](crate::Simulator::restore).
#[derive(Clone)]
pub struct SimSnapshot {
    /// Digest of the behavior-relevant scenario configuration; restore
    /// refuses a snapshot whose digest mismatches the offered config.
    pub(crate) cfg_digest: u64,
    /// The cut instant.
    pub(crate) time: SimTime,
    /// Canonical (single-equivalent) count of events ever scheduled by
    /// the cut: replicated events — impairment edges, the probe chain —
    /// counted once.
    pub(crate) scheduled_total: u64,
    /// Application packets emitted by the cut.
    pub(crate) sent_packets: u64,
    /// `MetricsProbe` events scheduled by the cut (0 when metrics are
    /// off) — every restored lane carries this so post-cut probe
    /// accounting continues identically.
    pub(crate) probes_scheduled: u64,
    /// The pending logical event population (cursor tails expanded) in
    /// canonical `(time, rank, insertion)` order.
    pub(crate) pending: Vec<(SimTime, u128, SimEvent)>,
    /// Per-node movement models, advanced exactly to the cut; empty on
    /// a static field.
    pub(crate) mobility: Vec<RandomWaypoint>,
    /// Per-node transmission-key counters.
    pub(crate) tx_key_ctr: Vec<u32>,
    /// Per-node cold-state blobs ([`Node::save_state`]
    /// (crate::node::Node) wire format), indexed by node.
    pub(crate) nodes: Vec<Vec<u8>>,
    /// Fault-layer state (`Some` iff the scenario has a fault plan).
    pub(crate) faults: Option<FaultState>,
    /// Metrics-layer state (`Some` iff the scenario enabled metrics).
    pub(crate) metrics: Option<MetricsState>,
}

impl SimSnapshot {
    /// The cut instant this snapshot captures.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Does this snapshot belong to `cfg` (same behavior-relevant
    /// configuration)? The execution strategy and the display name are
    /// excluded — they do not change behavior, so a snapshot moves
    /// freely across them.
    pub fn matches(&self, cfg: &ScenarioConfig) -> bool {
        self.cfg_digest == config_digest(cfg)
    }

    /// Serialize into the checksummed, versioned `pcmac-snap` envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        // The node blobs are nearly all of it; sizing for them up front
        // spares the buffer its doubling copies on the way to tens of MB.
        let blobs: usize = self.nodes.iter().map(|b| b.len() + 8).sum();
        let mut w = SnapWriter::with_capacity(blobs + blobs / 8);
        self.save_core(&mut w);
        self.metrics.save(&mut w);
        w.finish()
    }

    /// Parse an envelope produced by [`SimSnapshot::to_bytes`]. Returns
    /// a structured [`SnapError`] — never panics — on truncation, magic
    /// or version mismatch, checksum failure, or trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapError> {
        let mut r = SnapReader::open(bytes)?;
        let snap = SimSnapshot {
            cfg_digest: r.u64()?,
            time: Snap::load(&mut r)?,
            scheduled_total: r.u64()?,
            sent_packets: r.u64()?,
            probes_scheduled: r.u64()?,
            pending: Snap::load(&mut r)?,
            mobility: Snap::load(&mut r)?,
            tx_key_ctr: Snap::load(&mut r)?,
            nodes: {
                let n = r.len_prefix()?;
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push(r.blob()?);
                }
                nodes
            },
            faults: Snap::load(&mut r)?,
            metrics: Snap::load(&mut r)?,
        };
        if !r.is_exhausted() {
            return Err(SnapError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(snap)
    }

    /// A digest of the *behavioral* state: everything except the
    /// metrics section (whose diagnostic counters — hot-path work
    /// counts, per-shard probe tallies — legitimately differ across
    /// execution strategies). Two runs of the same scenario are at the
    /// same behavioral state at a cut iff these match; the divergence
    /// bisector binary-searches over this. The config digest is
    /// excluded — it identifies the *scenario*, not the state — so two
    /// differently-configured runs that are supposed to be bit-identical
    /// can still be compared cut by cut.
    pub fn state_fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        self.save_core(&mut w);
        checksum64(&w.payload()[8..])
    }

    /// Everything except the metrics section, in wire order.
    fn save_core(&self, w: &mut SnapWriter) {
        w.u64(self.cfg_digest);
        self.time.save(w);
        w.u64(self.scheduled_total);
        w.u64(self.sent_packets);
        w.u64(self.probes_scheduled);
        self.pending.save(w);
        self.mobility.save(w);
        self.tx_key_ctr.save(w);
        // Node blobs go through the bulk-copy path: the generic
        // `Vec<Vec<u8>>` impl writes the same bytes one `u8` at a time,
        // which dominated checkpoint cost at N = 64k.
        w.u64(self.nodes.len() as u64);
        for blob in &self.nodes {
            w.blob(blob);
        }
        self.faults.save(w);
    }
}

/// Digest of the behavior-relevant scenario configuration: the master
/// seed, duration, field, nodes, flows, radio/MAC/AODV parameters,
/// variant, interference floor, shadowing, fault plan, metrics config
/// and delay floor. Execution strategy and the display name are
/// normalized away — proven behavior-invariant by the equivalence
/// matrix — so a snapshot restores across either. The digest hashes the
/// canonical JSON encoding, which is identical on every host.
pub(crate) fn config_digest(cfg: &ScenarioConfig) -> u64 {
    let mut c = cfg.clone();
    c.name = String::new();
    c.execution = None;
    let json = serde_json::to_string(&c).expect("scenario config serializes");
    fnv1a64(json.as_bytes())
}

/// The first checkpoint grid instant strictly after `after`: grid points
/// are absolute multiples of the interval, so a resumed run and an
/// uninterrupted one — and every execution mode — checkpoint at
/// identical simulated instants no matter where they started.
pub(crate) fn next_grid_point(after: SimTime, every_ns: u64) -> SimTime {
    let e = every_ns.max(1);
    SimTime::from_nanos((after.as_nanos() / e + 1).saturating_mul(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_are_absolute() {
        let e = 1_000_000_000u64; // 1 s
        let g = |ns: u64| next_grid_point(SimTime::from_nanos(ns), e).as_nanos();
        assert_eq!(g(0), e);
        assert_eq!(g(1), e);
        assert_eq!(g(e - 1), e);
        assert_eq!(g(e), 2 * e); // strictly after
        assert_eq!(g(e + 1), 2 * e);
        assert_eq!(next_grid_point(SimTime::from_nanos(5), 0).as_nanos(), 6);
    }

    /// Restore refuses a fault or metrics section whose presence or
    /// shape disagrees with the scenario, an open repair naming no
    /// station, a movement section with another model count than the
    /// scenario moves or a model walking another field, speed or pause,
    /// and a pending list with more replicated
    /// events than the snapshot says were scheduled, an event naming no
    /// station, burst or source, or one due before the cut, on one
    /// thread and on two shards alike, in the calling thread: a snapshot
    /// is outside input.
    #[test]
    fn restore_refuses_a_snapshot_that_does_not_fit_the_scenario() {
        use crate::fault::{FaultConfig, ImpairmentBurst};
        use crate::metrics::MetricsConfig;
        use crate::{ExecutionMode, NodeSetup, Simulator};
        use pcmac_engine::{Milliwatts, Point};
        use pcmac_mac::Variant;
        use pcmac_phy::PowerLevels;

        // `n` stations and `bursts` impairment bursts, each layer on
        // when asked for.
        let cfg = |n: usize, bursts: usize, faults: bool, metrics: bool| {
            let mut c = ScenarioConfig::paper_with(Variant::Pcmac, 300.0, 1, n, 5.0)
                .with_duration(Duration::from_secs(2));
            c.delay_floor_us = Some(10.0);
            c.metrics = metrics.then(MetricsConfig::default);
            c.faults = faults.then(|| FaultConfig {
                impairments: Some(
                    (0..bursts)
                        .map(|k| ImpairmentBurst {
                            start_s: 0.5 + k as f64,
                            stop_s: 0.8 + k as f64,
                            extra_loss_db: 3.0,
                            noise_mult: None,
                        })
                        .collect(),
                ),
                ..FaultConfig::default()
            });
            c
        };
        let snap = |c: ScenarioConfig| Simulator::new(c).snapshot();
        let both = snap(cfg(12, 1, true, true));
        let mut one_level = cfg(12, 1, true, true);
        one_level.mac.levels = PowerLevels::fixed(Milliwatts(281.8));

        let mut cases: Vec<(ScenarioConfig, SimSnapshot, &str)> = Vec::new();
        let mut s = both.clone();
        s.faults = snap(cfg(13, 1, true, false)).faults;
        cases.push((cfg(12, 1, true, true), s, "fault node count"));
        let mut s = both.clone();
        s.faults = snap(cfg(12, 2, true, false)).faults;
        cases.push((cfg(12, 1, true, true), s, "fault burst count"));
        let mut s = both.clone();
        s.metrics = snap(cfg(13, 1, false, true)).metrics;
        cases.push((cfg(12, 1, true, true), s, "metrics node count"));
        let mut s = both.clone();
        s.metrics = snap(one_level).metrics;
        cases.push((cfg(12, 1, true, true), s, "metrics power-level count"));
        let mut s = both.clone();
        let repairs = &mut s.faults.as_mut().expect("a fault section").pending_repairs;
        repairs.push((12, 0, SimTime::ZERO));
        cases.push((cfg(12, 1, true, true), s, "fault repair node"));
        let mut s = both.clone();
        s.faults = None;
        cases.push((cfg(12, 1, true, true), s, "fault section presence"));
        let mut s = both.clone();
        s.metrics = None;
        cases.push((cfg(12, 1, true, true), s, "metrics section presence"));
        let mut s = snap(cfg(12, 1, false, false));
        s.faults = both.faults.clone();
        cases.push((cfg(12, 1, false, false), s, "fault section presence"));
        let mut s = snap(cfg(12, 1, false, false));
        s.metrics = both.metrics.clone();
        cases.push((cfg(12, 1, false, false), s, "metrics section presence"));
        // One more pending event than the scenario schedules, with the
        // scheduled total raised to match.
        let extra = |ev: SimEvent| {
            let mut s = both.clone();
            let at = SimTime::ZERO + Duration::from_millis(1500);
            s.pending.push((at, ev.rank(), ev));
            s.pending.sort_by_key(|&(at, rank, _)| (at, rank));
            s.scheduled_total += 1;
            s
        };
        let probe = extra(SimEvent::MetricsProbe);
        let message = "replicated pending exceeds schedule";
        cases.push((cfg(12, 1, true, true), probe, message));
        let emit = extra(SimEvent::TrafficEmit {
            node: pcmac_engine::NodeId(12),
            source: 0,
        });
        let message = "pending event names no station";
        cases.push((cfg(12, 1, true, true), emit, message));
        // The cut moved past the burst's start, still pending.
        let mut s = both.clone();
        s.time = SimTime::ZERO + Duration::from_secs(1);
        cases.push((cfg(12, 1, true, true), s, "pending event before the cut"));
        // A pending event's payload rewritten to index past what its
        // target holds: the plan's one burst, the home's sources.
        let rewrite = |f: &dyn Fn(&SimEvent) -> Option<SimEvent>| {
            let mut s = both.clone();
            let hit = s.pending.iter_mut().find_map(|(_, rank, ev)| {
                let new = f(ev)?;
                *rank = new.rank();
                *ev = new;
                Some(())
            });
            assert!(hit.is_some(), "the snapshot holds such an event");
            s.pending.sort_by_key(|&(at, rank, _)| (at, rank));
            s
        };
        let message = "pending impairment names no burst";
        let start = rewrite(&|ev| {
            matches!(ev, SimEvent::ImpairmentStart { .. })
                .then_some(SimEvent::ImpairmentStart { index: 1 })
        });
        cases.push((cfg(12, 1, true, true), start, message));
        let end = rewrite(&|ev| {
            matches!(ev, SimEvent::ImpairmentEnd { .. })
                .then_some(SimEvent::ImpairmentEnd { index: 1 })
        });
        cases.push((cfg(12, 1, true, true), end, message));
        let emit = rewrite(&|ev| match *ev {
            SimEvent::TrafficEmit { node, .. } => Some(SimEvent::TrafficEmit { node, source: 12 }),
            _ => None,
        });
        cases.push((
            cfg(12, 1, true, true),
            emit,
            "pending emission names no source",
        ));
        // The movement section: a static scenario's holds a model, a
        // mobile one's lacks one, or a model walks at another speed or
        // pauses for another time than the scenario's.
        let fixed = || {
            let mut c = cfg(12, 1, true, true);
            let row = (0..12)
                .map(|k| Point::new(60.0 * k as f64, 300.0))
                .collect();
            c.nodes = NodeSetup::Static(row);
            c
        };
        let still = snap(fixed());
        assert!(still.mobility.is_empty());
        let message = "movement section does not fit the scenario";
        let mut s = still.clone();
        s.mobility.push(both.mobility[5].clone());
        cases.push((fixed(), s, message));
        let mut s = both.clone();
        s.mobility.pop();
        cases.push((cfg(12, 1, true, true), s, message));
        let foreign = |speed: f64, pause: Duration| {
            let mut c = cfg(12, 1, true, true);
            c.nodes = NodeSetup::UniformWaypoint {
                count: 12,
                speed,
                pause,
            };
            let mut s = both.clone();
            s.mobility[5] = snap(c).mobility[5].clone();
            s
        };
        let message = "waypoint does not fit the scenario";
        for s in [
            foreign(6.0, Duration::from_secs(3)),
            foreign(5.0, Duration::from_secs(4)),
        ] {
            cases.push((cfg(12, 1, true, true), s, message));
        }

        for (c, s, message) in cases {
            for execution in [ExecutionMode::Single, ExecutionMode::Sharded { shards: 2 }] {
                let mut c = c.clone();
                c.execution = Some(execution);
                match Simulator::restore(c, &s) {
                    Err(SnapError::Corrupt(m)) => assert_eq!(m, message, "{execution:?}"),
                    Err(e) => panic!("{message} on {execution:?}: {e:?}"),
                    Ok(_) => panic!("{message} on {execution:?}: restored"),
                }
            }
        }
        // The unmutated snapshots restore on both.
        for execution in [ExecutionMode::Single, ExecutionMode::Sharded { shards: 2 }] {
            let mut c = cfg(12, 1, true, true);
            c.execution = Some(execution);
            assert!(Simulator::restore(c, &both).is_ok(), "{execution:?}");
            let mut c = fixed();
            c.execution = Some(execution);
            assert!(Simulator::restore(c, &still).is_ok(), "{execution:?}");
        }
    }

    #[test]
    fn cancel_token_round_trip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }
}
