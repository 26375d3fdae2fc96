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
//! The envelope is at **version 6**, and every section holds what its
//! layer holds at run time and cannot rebuild from the scenario, as the
//! run holds it: restore builds the network from the scenario (the
//! snapshot's config digest pins it) and overwrites the run-time state of
//! what it built, so configuration never travels. In wire order:
//!
//! * the cut, the event counters and the pending events, each as its
//!   time and content: restore ranks every event by its content
//!   (`SimEvent::rank`), as the run that scheduled it did;
//! * the movement section: one blob holding, in station order, the RNG
//!   and current leg of every waypoint model the scenario builds (empty
//!   on a static field), read into the built models;
//! * the per-station transmission-key counters;
//! * one blob per station, in this order: the data-channel receive row
//!   (`pcmac_phy::RxRow`: in-air sum, locked power and key, arrivals on
//!   the air, mode, corruption verdict, last carrier state indicated);
//!   the control-channel row when the scenario runs PCMAC; the carrier
//!   edge held back from the station's MAC, as an option of its
//!   direction and the noise measured at it; the control broadcast the
//!   station is locked onto, as an option, when the scenario runs PCMAC;
//!   and the station's cold state as an option — absent for a station
//!   the run never built, otherwise the locked data frame, the MAC as it
//!   is, the routing agent, the sink, the energy meter (its power on the
//!   air, last change and radiated total) and the run-time state of each
//!   traffic source the station homes (next emission, count, and the
//!   arrival process's RNG and on/off phase), with no count: the
//!   scenario fixes the flows a station homes;
//! * the fault and metrics sections, each its layer's own run-time
//!   state written field by field (`FaultState`, `MetricsState`); the
//!   fault plan, the probe interval and the power levels come from the
//!   scenario.
//!
//! Restore refuses what does not fit the built network: a movement
//! section or a node blob with state left over or missing (the model
//! count of the section, the source count of a blob), a contention
//! window outside `[cw_min, cw_max]`, a backoff count above its window,
//! a queue longer than its capacity, and a fault or metrics section
//! whose presence or node, impairment-burst or power-level counts
//! disagree with the scenario, on one thread and on region shards
//! alike. Files of versions 1 to 5 fail `SnapReader::open` with
//! `BadVersion` and the campaign runner recomputes their cells; README's
//! checkpoint section keeps the history of the format.
//!
//! Restore infers nothing about a station: it puts the rows, the held
//! edge and the locked broadcast back on the hot side, builds exactly the
//! stations written with cold state, and leaves the rest unbuilt. It
//! refuses what the run that wrote a blob could not have held: a flow's
//! home written unbuilt (the home is built with the network, and its
//! sources' state would be missing), a lock whose frame is absent or a
//! frame without its lock (an unbuilt station has no data frame), and a
//! held edge at a MAC that is listening (every edge goes straight to
//! such a MAC, and told late it would make the MAC act). Restore also
//! cross-checks each row's arrival count against the pending arrival
//! events. One thing a snapshot does **not** carry, by construction: the
//! noise floor every row is read against, which is rebuilt as
//! `cfg.radio.noise_floor × fault noise multiplier`, the product
//! `set_impairment` forms.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pcmac_engine::{Duration, SimTime};
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
    /// canonical `(time, rank, insertion)` order. The rank is not stored:
    /// restore ranks each event by its content ([`SimEvent::rank`]).
    pub(crate) pending: Vec<(SimTime, SimEvent)>,
    /// The movement section: the state of every station's movement
    /// model, advanced exactly to the cut, in station order
    /// (`RandomWaypoint::save_state` wire format); empty on a static
    /// field.
    pub(crate) mobility: Vec<u8>,
    /// Per-node transmission-key counters.
    pub(crate) tx_key_ctr: Vec<u32>,
    /// Per-station blobs, indexed by node: the rows, the held edge, the
    /// locked broadcast and, for a station the run built, its cold state
    /// (see the module docs).
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
            mobility: r.blob()?,
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
        w.blob(&self.mobility);
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
pub(crate) mod tests {
    use super::*;
    use pcmac_engine::Milliwatts;
    use pcmac_mac::CtrlFrame;
    use pcmac_phy::RxRow;

    /// A node blob taken apart into what the simulator writes for a
    /// station: its data row, its control row under PCMAC, the carrier
    /// edge held back from its MAC, the control broadcast it is locked
    /// onto under PCMAC, and the cold part from its build tag on (a lone
    /// 0 for a station the run never built).
    pub(crate) struct NodeBlob {
        pub(crate) rx: RxRow,
        pub(crate) ctrl: Option<(RxRow, Option<CtrlFrame>)>,
        pub(crate) held: Option<(bool, Milliwatts)>,
        pub(crate) cold: Vec<u8>,
    }

    impl NodeBlob {
        pub(crate) fn parse(blob: &[u8], pcmac: bool) -> NodeBlob {
            let mut r = SnapReader::over(blob);
            let rx = RxRow::load(&mut r).expect("a data row");
            let ctrl_row = pcmac.then(|| RxRow::load(&mut r).expect("a control row"));
            let held = Snap::load(&mut r).expect("a held edge");
            let ctrl = ctrl_row.map(|row| (row, Snap::load(&mut r).expect("a locked broadcast")));
            let mut parsed = NodeBlob {
                rx,
                ctrl,
                held,
                cold: Vec::new(),
            };
            let hot = parsed.to_bytes().len();
            parsed.cold = blob[hot..].to_vec();
            parsed
        }

        /// Whether the blob holds the station's cold state.
        pub(crate) fn built(&self) -> bool {
            self.cold.first() == Some(&1)
        }

        pub(crate) fn to_bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.rx.save(&mut w);
            if let Some((row, _)) = &self.ctrl {
                row.save(&mut w);
            }
            self.held.save(&mut w);
            if let Some((_, frame)) = &self.ctrl {
                frame.save(&mut w);
            }
            let mut bytes = w.payload().to_vec();
            bytes.extend_from_slice(&self.cold);
            bytes
        }
    }

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
    /// scenario moves, a node blob with another source count than the
    /// station homes, and a pending list with more replicated
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
            s.pending.push((at, ev));
            s.pending.sort_by_key(|(at, ev)| (*at, ev.rank()));
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
            let hit = s.pending.iter_mut().find_map(|(_, ev)| {
                *ev = f(ev)?;
                Some(())
            });
            assert!(hit.is_some(), "the snapshot holds such an event");
            s.pending.sort_by_key(|(at, ev)| (*at, ev.rank()));
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
        // mobile one's lacks one.
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
        let model = both.mobility.len() / 12;
        let message = "movement section does not fit the scenario";
        let mut s = still.clone();
        s.mobility
            .extend_from_slice(&both.mobility[5 * model..6 * model]);
        cases.push((fixed(), s, message));
        let mut s = both.clone();
        s.mobility.truncate(11 * model);
        cases.push((cfg(12, 1, true, true), s, message));
        // A flow's home with one source state more, or one less, than the
        // scenario attaches to it: the states close its blob.
        let home = both
            .pending
            .iter()
            .find_map(|(_, ev)| match ev {
                SimEvent::TrafficEmit { node, .. } => Some(node.index()),
                _ => None,
            })
            .expect("a pending first emission");
        let cbr = 16;
        let mut s = both.clone();
        let blob = &mut s.nodes[home];
        blob.extend_from_within(blob.len() - cbr..);
        let extra = s;
        let mut s = both.clone();
        let blob = &mut s.nodes[home];
        blob.truncate(blob.len() - cbr);
        let missing = s;

        let mut cases: Vec<_> = cases
            .into_iter()
            .map(|(c, s, message)| (c, s, SnapError::Corrupt(message)))
            .collect();
        let trailing = SnapError::Corrupt("node blob trailing bytes");
        cases.push((cfg(12, 1, true, true), extra, trailing));
        cases.push((cfg(12, 1, true, true), missing, SnapError::Truncated));

        for (c, s, want) in cases {
            for execution in [ExecutionMode::Single, ExecutionMode::Sharded { shards: 2 }] {
                let mut c = c.clone();
                c.execution = Some(execution);
                match Simulator::restore(c, &s) {
                    Err(e) => assert_eq!(e, want, "{execution:?}"),
                    Ok(_) => panic!("{want:?} on {execution:?}: restored"),
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

    /// 12 waypoint stations under PCMAC for 2 s with the paper's ten
    /// flows, on one thread or two shards.
    fn twelve_stations(execution: crate::ExecutionMode) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper_with(pcmac_mac::Variant::Pcmac, 300.0, 1, 12, 5.0)
            .with_duration(Duration::from_secs(2));
        c.delay_floor_us = Some(10.0);
        c.execution = Some(execution);
        c
    }

    /// The twelve-station run stepped until `stop` holds, and its snapshot.
    fn stepped_until(
        mut stop: impl FnMut(&crate::Simulator) -> bool,
    ) -> (crate::Simulator, SimSnapshot) {
        let mut sim = crate::Simulator::new(twelve_stations(crate::ExecutionMode::Single));
        while !stop(&sim) {
            sim.step().expect("the run reaches such a state");
        }
        let snap = sim.snapshot();
        (sim, snap)
    }

    /// `snap` with station `i`'s blob rewritten by `edit` is refused as
    /// `Corrupt(want)` on one thread and on two shards.
    fn refused(snap: &SimSnapshot, i: usize, edit: impl FnOnce(&mut NodeBlob), want: &'static str) {
        use crate::{ExecutionMode, Simulator};
        let mut s = snap.clone();
        let mut blob = NodeBlob::parse(&s.nodes[i], true);
        edit(&mut blob);
        s.nodes[i] = blob.to_bytes();
        for execution in [ExecutionMode::Single, ExecutionMode::Sharded { shards: 2 }] {
            match Simulator::restore(twelve_stations(execution), &s) {
                Err(e) => assert_eq!(e, SnapError::Corrupt(want), "{execution:?}"),
                Ok(_) => panic!("{want} on {execution:?}: restored"),
            }
        }
        for execution in [ExecutionMode::Single, ExecutionMode::Sharded { shards: 2 }] {
            let restored = Simulator::restore(twelve_stations(execution), snap);
            assert!(restored.is_ok(), "the unedited snapshot on {execution:?}");
        }
    }

    /// A carrier edge is only ever held back from a MAC that is not
    /// listening; told to one that is, it would make the MAC act.
    #[test]
    fn restore_refuses_a_held_edge_at_a_listening_mac() {
        let listening = |sim: &crate::Simulator| (0..12).find(|&i| sim.mac_listening(i));
        let (sim, snap) = stepped_until(|sim| listening(sim).is_some());
        let i = listening(&sim).expect("stepped until one listens");
        assert!(NodeBlob::parse(&snap.nodes[i], true).held.is_none());
        refused(
            &snap,
            i,
            |blob| blob.held = Some((true, Milliwatts(1e-9))),
            "carrier edge held at a listening MAC",
        );
    }

    /// A flow's home is built with the network: its sources' state is
    /// in its cold part, which an unbuilt station does not have.
    #[test]
    fn restore_refuses_a_flows_home_written_unbuilt() {
        let (_, snap) = stepped_until(|_| true);
        let home = twelve_stations(crate::ExecutionMode::Single).flows[0]
            .src
            .index();
        assert!(NodeBlob::parse(&snap.nodes[home], true).built());
        refused(
            &snap,
            home,
            |blob| blob.cold = vec![0],
            "a flow's home written unbuilt",
        );
    }

    /// A station the run never built holds no data frame, so a data row
    /// locked onto one there is a lock whose frame is absent.
    #[test]
    fn restore_refuses_a_lock_without_its_frame_at_an_unbuilt_station() {
        let receiving = |snap: &SimSnapshot| {
            snap.nodes
                .iter()
                .map(|blob| NodeBlob::parse(blob, true).rx)
                .find(|row| row.is_receiving())
        };
        let (_, mid_run) = stepped_until(|sim| receiving(&sim.snapshot()).is_some());
        let locked = receiving(&mid_run).expect("stepped until one is receiving");
        let (_, at_start) = stepped_until(|_| true);
        let unbuilt = (0..12)
            .find(|&i| !NodeBlob::parse(&at_start.nodes[i], true).built())
            .expect("a station no flow homes");
        refused(
            &at_start,
            unbuilt,
            |blob| blob.rx = locked,
            "locked frame does not match its row",
        );
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
