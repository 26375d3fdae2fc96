//! The campaign runner: expand lazily → run in parallel → aggregate.
//!
//! The runner is crash-proof: each `(point × seed)` run executes on its
//! own worker under `catch_unwind` with an optional wall-clock watchdog,
//! so a panicking or hanging point becomes a structured
//! [`PointFailure`] in the report instead of taking the whole sweep
//! down. The watchdog is *cooperative*: an over-budget run is asked to
//! stop via its [`CancelToken`], reaches a safe cut, persists a resume
//! checkpoint, and its worker thread is joined — only a run that
//! ignores the token past the grace period is abandoned the old way.
//!
//! When an output path is given, the aggregated artifact is rewritten
//! (atomically, tmp + rename) after every finished point with
//! `complete: Some(false)`; an interrupted campaign resumes from that
//! partial artifact, skipping every point that already ran cleanly.
//! With [`RunOptions::checkpoint_every`] set, each in-progress run
//! additionally checkpoints its *simulator state* periodically to a
//! sidecar directory, so resuming a killed campaign restarts mid-cell
//! from the newest valid checkpoint instead of recomputing the run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcmac::{CancelToken, RunHooks, RunOutcome, RunReport, SimSnapshot, Simulator};
use pcmac_engine::Duration as SimDuration;
use pcmac_stats::Table;

use crate::aggregate::{CampaignReport, FailureKind, PointFailure, PointSummary};
use crate::campaign::{CampaignGrid, CampaignSpec, PointKey};
use crate::spec::SpecError;

/// Everything a campaign produced: the aggregated report (the
/// `CAMPAIGN_*.json` artifact) plus the raw per-run reports for callers
/// that need more than the per-point summaries (per-run counters, flow
/// fairness analyses).
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-point aggregation.
    pub report: CampaignReport,
    /// Raw reports of the runs *this invocation executed*, point-major
    /// and seed-minor in expansion order. Failed runs leave no entry,
    /// and on resume the previously-finished points are represented
    /// only by their summaries in `report`.
    pub runs: Vec<RunReport>,
    /// The grid point each entry of `runs` belongs to, aligned with it.
    pub run_keys: Vec<PointKey>,
}

impl CampaignOutcome {
    /// One row per executed run: the point, the seed, the headline
    /// metrics and the MAC / routing counters the per-point means
    /// cannot carry (control-channel traffic, handshake timeouts,
    /// implicit retransmissions, decode errors, route repair).
    pub fn render_runs_table(&self) -> String {
        let mut t = Table::new(&[
            "point",
            "load kbps",
            "nodes",
            "seed",
            "thpt kbps",
            "delay ms",
            "pdr %",
            "ctrlDef",
            "ctrlBcast",
            "ctsT/O",
            "ackT/O",
            "implRetx",
            "rxErr",
            "rerr",
            "rreq",
        ]);
        for (key, r) in self.run_keys.iter().zip(&self.runs) {
            t.row(&[
                key.label(),
                format!("{:.0}", key.load_kbps),
                format!("{}", key.node_count),
                format!("{}", r.seed),
                format!("{:.1}", r.throughput_kbps),
                format!("{:.1}", r.mean_delay_ms),
                format!("{:.1}", r.pdr() * 100.0),
                format!("{}", r.mac.ctrl_deferrals),
                format!("{}", r.mac.ctrl_broadcasts),
                format!("{}", r.mac.cts_timeouts),
                format!("{}", r.mac.ack_timeouts),
                format!("{}", r.mac.implicit_retx),
                format!("{}", r.mac.rx_errors),
                format!("{}", r.routing.rerr_sent),
                format!("{}", r.routing.rreq_originated + r.routing.rreq_forwarded),
            ]);
        }
        t.render()
    }
}

/// How [`run_campaign_with`] executes a campaign.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker parallelism; `0` means one per available core.
    pub threads: usize,
    /// Per-run wall-clock budget. A run that exceeds it is abandoned
    /// and recorded as [`FailureKind::TimedOut`]. `None` disables the
    /// watchdog.
    pub timeout: Option<Duration>,
    /// Where to persist the aggregated report incrementally. `None`
    /// skips persistence (the caller writes the final report itself).
    pub out: Option<PathBuf>,
    /// Resume from a partial artifact at `out`: points whose key
    /// matches a summary in the existing report are skipped; points
    /// with recorded failures (or no summary) re-run.
    pub resume: bool,
    /// Checkpoint each in-progress run's simulator state every this
    /// much *simulated* time into a sidecar directory next to `out`
    /// (requires `out`). On resume, a run restarts from its newest
    /// valid checkpoint; corrupt or mismatched checkpoint files fall
    /// back to a full recompute, never a panic.
    pub checkpoint_every: Option<SimDuration>,
    /// How long a cancelled run gets to reach a safe cut before its
    /// thread is abandoned. Defaults to the watchdog timeout itself,
    /// capped at 2 s.
    pub grace: Option<Duration>,
}

/// Per-run control handle passed to the run closure: the cancellation
/// token the watchdog fires, plus this run's checkpoint policy.
/// Closures that drive the simulator themselves should finish with
/// [`JobCtl::run`], which wires all of it up.
pub struct JobCtl {
    /// Cancelled when the run exceeds its wall-clock budget; a
    /// cooperative run observes it at a cut and stops cleanly.
    pub cancel: CancelToken,
    /// Periodic checkpoint interval in simulated time, if enabled.
    pub checkpoint_every: Option<SimDuration>,
    /// This run's checkpoint file, if persistence is enabled.
    pub checkpoint_file: Option<PathBuf>,
}

impl JobCtl {
    /// The standard resilient run: restore from this job's checkpoint
    /// when a valid one exists (anything corrupt, truncated, or
    /// belonging to a different scenario falls back to a fresh run —
    /// structured, never a panic), checkpoint periodically, and stop
    /// cleanly at a cut when cancelled — persisting the cut state so
    /// the run resumes instead of recomputing.
    pub fn run(&self, cfg: pcmac::ScenarioConfig) -> RunOutcome {
        let sim = match self.load_checkpoint(&cfg) {
            Some(snap) => Simulator::restore(cfg.clone(), &snap)
                .unwrap_or_else(|_| Simulator::new(cfg.clone())),
            None => Simulator::new(cfg.clone()),
        };
        let sink = |snap: SimSnapshot| {
            if let Some(path) = &self.checkpoint_file {
                // Best-effort: a failed checkpoint write only costs
                // resume granularity, not the run.
                let _ = write_atomic_bytes(path, &snap.to_bytes());
            }
        };
        let sink_ref: &(dyn Fn(SimSnapshot) + Sync) = &sink;
        let outcome = sim.run_with_hooks(RunHooks {
            cancel: Some(&self.cancel),
            checkpoint_every: self.checkpoint_every,
            checkpoint_sink: self.checkpoint_file.is_some().then_some(sink_ref),
        });
        match &outcome {
            // A finished run's checkpoint is stale state: remove it so
            // a later resume of the campaign cannot trip over it.
            RunOutcome::Completed(_) => {
                if let Some(path) = &self.checkpoint_file {
                    let _ = std::fs::remove_file(path);
                }
            }
            RunOutcome::Cancelled(Some(snap)) => {
                if let Some(path) = &self.checkpoint_file {
                    let _ = write_atomic_bytes(path, &snap.to_bytes());
                }
            }
            RunOutcome::Cancelled(None) => {}
        }
        outcome
    }

    /// The newest valid checkpoint for this job, if any.
    fn load_checkpoint(&self, cfg: &pcmac::ScenarioConfig) -> Option<SimSnapshot> {
        let bytes = std::fs::read(self.checkpoint_file.as_ref()?).ok()?;
        let snap = SimSnapshot::from_bytes(&bytes).ok()?;
        snap.matches(cfg).then_some(snap)
    }
}

fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    }
}

/// Expand `spec` and run every `(point × seed)` with the stock
/// simulator — no watchdog, no persistence.
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> Result<CampaignOutcome, SpecError> {
    run_campaign_with(
        spec,
        RunOptions {
            threads,
            ..RunOptions::default()
        },
        |cfg, ctl| ctl.run(cfg),
    )
}

/// One `(cell × seed)` job.
#[derive(Clone, Copy)]
struct Job {
    cell: usize,
    seed: u64,
}

/// Per-cell accumulation while the sweep drains.
#[derive(Default)]
struct CellProgress {
    /// Successful reports, tagged with their job index for final
    /// ordering.
    ok: Vec<(usize, RunReport)>,
    /// Failures of this cell's seeds.
    failed: Vec<PointFailure>,
    resolved: usize,
}

/// Bookkeeping shared by the dispatch loop and the incremental
/// persistence path.
struct SweepState<'a> {
    grid: &'a CampaignGrid,
    campaign: String,
    /// Finished summaries by cell index (resumed points pre-filled).
    done: Vec<Option<PointSummary>>,
    progress: HashMap<usize, CellProgress>,
    wall_s: f64,
}

impl SweepState<'_> {
    fn record_failure(&mut self, job: Job, kind: FailureKind, error: String) {
        let p = self.progress.entry(job.cell).or_default();
        p.failed.push(PointFailure {
            key: self.grid.cells[job.cell].key.clone(),
            seed: Some(job.seed),
            kind,
            error,
        });
        p.resolved += 1;
    }

    fn record_success(&mut self, job: Job, id: usize, report: RunReport) {
        self.wall_s += report.wall_s;
        let p = self.progress.entry(job.cell).or_default();
        p.ok.push((id, report));
        p.resolved += 1;
    }

    /// All failures recorded so far, cell-major / seed-minor.
    fn failures(&self) -> Vec<PointFailure> {
        let mut by_cell: Vec<(usize, &CellProgress)> =
            self.progress.iter().map(|(&i, p)| (i, p)).collect();
        by_cell.sort_unstable_by_key(|&(i, _)| i);
        by_cell
            .into_iter()
            .flat_map(|(_, p)| p.failed.iter().cloned())
            .collect()
    }

    fn report(&self, complete: bool) -> CampaignReport {
        let points: Vec<PointSummary> = self.done.iter().flatten().cloned().collect();
        let failures = self.failures();
        CampaignReport {
            campaign: self.campaign.clone(),
            runs: points.iter().map(|s| s.seeds.len()).sum(),
            duration_s: self
                .grid
                .cells
                .first()
                .map(|c| c.spec.duration_s)
                .unwrap_or(0.0),
            wall_s: self.wall_s,
            points,
            complete: Some(complete),
            failures: (!failures.is_empty()).then_some(failures),
        }
    }

    /// When every seed of `cell` has resolved, collapse the clean cell
    /// into its summary and (with an output path set) persist the
    /// partial report so an interrupted campaign can resume from it.
    fn finish_cell_if_done(&mut self, cell: usize, out: Option<&Path>) {
        let Some(p) = self.progress.get(&cell) else {
            return;
        };
        if p.resolved < self.grid.seeds.len() {
            return;
        }
        if p.failed.is_empty() {
            // Seed order, not finishing order: the running statistics
            // round differently when their samples come in another order.
            let mut ok: Vec<&(usize, RunReport)> = p.ok.iter().collect();
            ok.sort_unstable_by_key(|&&(id, _)| id);
            let reports: Vec<RunReport> = ok.into_iter().map(|(_, r)| r.clone()).collect();
            self.done[cell] = Some(PointSummary::from_reports(
                self.grid.cells[cell].key.clone(),
                self.grid.seeds.clone(),
                &reports,
            ));
        }
        if let Some(path) = out {
            // Persistence is best-effort mid-run: a full disk surfaces
            // at the final write, which does propagate the error.
            let _ = write_atomic(path, &self.report(false).to_json());
        }
    }
}

/// Expand `spec` into its grid skeleton and run every `(point × seed)`
/// through `run` (`threads == 0` means one per core), isolating each
/// run so one bad point cannot abort the sweep:
///
/// * a panic inside `run` is caught and recorded as
///   [`FailureKind::Panicked`];
/// * a run outliving [`RunOptions::timeout`] has its [`JobCtl::cancel`]
///   token fired; a cooperative run stops cleanly at a cut (recorded as
///   [`FailureKind::TimedOut`] with the clean-stop cut noted, its
///   thread joined, its checkpoint retained for resume), while a run
///   that ignores the token past the grace period is abandoned the old
///   way — its late result is discarded;
/// * a spec that fails to materialize is recorded as
///   [`FailureKind::Invalid`].
///
/// Each point's seeds are aggregated with mean / stddev / 95% CI per
/// metric; with [`RunOptions::out`] set, the partial report is
/// persisted after every finished point so an interrupted campaign
/// resumes ([`RunOptions::resume`]) without recomputing clean points —
/// and, with [`RunOptions::checkpoint_every`], without recomputing the
/// finished prefix of in-progress runs.
pub fn run_campaign_with<F>(
    spec: &CampaignSpec,
    opts: RunOptions,
    run: F,
) -> Result<CampaignOutcome, SpecError>
where
    F: Fn(pcmac::ScenarioConfig, &JobCtl) -> RunOutcome + Send + Sync + 'static,
{
    let grid = spec.grid()?;
    let mut state = SweepState {
        grid: &grid,
        campaign: spec.name.clone(),
        done: vec![None; grid.cells.len()],
        progress: HashMap::new(),
        wall_s: 0.0,
    };

    // Resume: lift finished points (and the wall-clock already spent)
    // out of a partial artifact; anything failed or missing re-runs.
    if let (Some(path), true) = (&opts.out, opts.resume) {
        if let Some(report) = load_partial(path, &spec.name) {
            state.wall_s = report.wall_s;
            for summary in report.points {
                if let Some(i) = grid.cells.iter().position(|c| c.key == summary.key) {
                    state.done[i] = Some(summary);
                }
            }
        }
    }

    let jobs: Vec<Job> = grid
        .cells
        .iter()
        .enumerate()
        .filter(|&(i, _)| state.done[i].is_none())
        .flat_map(|(i, _)| grid.seeds.iter().map(move |&seed| Job { cell: i, seed }))
        .collect();

    let run = Arc::new(run);
    let threads = worker_count(opts.threads).max(1);
    let out = opts.out.as_deref();
    // Sidecar directory for within-run checkpoints, next to the
    // artifact: CAMPAIGN_x.json → CAMPAIGN_x.ckpt/cellNNN_seedS.snap.
    let ckpt_dir: Option<PathBuf> = match (&opts.out, opts.checkpoint_every) {
        (Some(path), Some(_)) => {
            let dir = path.with_extension("ckpt");
            std::fs::create_dir_all(&dir)
                .map_err(|e| SpecError::one(format!("create {}: {e}", dir.display())))?;
            Some(dir)
        }
        _ => None,
    };
    let budget_s = opts.timeout.map(|t| t.as_secs_f64()).unwrap_or(0.0);
    let grace = opts.grace.unwrap_or_else(|| {
        opts.timeout
            .unwrap_or(Duration::from_secs(2))
            .min(Duration::from_secs(2))
    });

    struct InFlight {
        id: usize,
        deadline: Option<Instant>,
        cancel: CancelToken,
        handle: std::thread::JoinHandle<()>,
        /// The watchdog has fired; `deadline` is now the grace deadline.
        cancelled: bool,
    }

    let (result_tx, result_rx) = mpsc::channel::<(usize, std::thread::Result<RunOutcome>)>();
    // Jobs whose grace period expired; late results from their (still
    // running, but abandoned) threads are discarded on arrival.
    let mut abandoned: Vec<usize> = Vec::new();
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut next_job = 0usize;
    let mut resolved_jobs = 0usize;

    while resolved_jobs < jobs.len() {
        // Keep the thread budget full, one thread per run.
        // Materialization failures resolve immediately (no thread) as
        // Invalid.
        while next_job < jobs.len() && in_flight.len() < threads {
            let id = next_job;
            let job = jobs[id];
            next_job += 1;
            match grid.cells[job.cell].spec.materialize(job.seed) {
                Err(e) => {
                    state.record_failure(job, FailureKind::Invalid, e.problems.join("; "));
                    resolved_jobs += 1;
                    state.finish_cell_if_done(job.cell, out);
                }
                Ok(cfg) => {
                    let tx = result_tx.clone();
                    let run = Arc::clone(&run);
                    let ctl = JobCtl {
                        cancel: CancelToken::new(),
                        checkpoint_every: opts.checkpoint_every,
                        checkpoint_file: ckpt_dir
                            .as_ref()
                            .map(|d| d.join(format!("cell{:03}_seed{}.snap", job.cell, job.seed))),
                    };
                    let cancel = ctl.cancel.clone();
                    let handle = std::thread::spawn(move || {
                        let outcome = catch_unwind(AssertUnwindSafe(|| run(cfg, &ctl)));
                        // The receiver outlives us unless we were
                        // abandoned; either way a failed send is fine.
                        let _ = tx.send((id, outcome));
                    });
                    in_flight.push(InFlight {
                        id,
                        deadline: opts.timeout.map(|t| Instant::now() + t),
                        cancel,
                        handle,
                        cancelled: false,
                    });
                }
            }
        }
        if in_flight.is_empty() {
            continue; // every dispatched job resolved synchronously
        }

        let next_deadline = in_flight.iter().filter_map(|f| f.deadline).min();
        let received = match next_deadline {
            None => result_rx.recv().ok(),
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                match result_rx.recv_timeout(wait) {
                    Ok(r) => Some(r),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("runner holds a live sender")
                    }
                }
            }
        };

        match received {
            Some((id, result)) => {
                if let Some(pos) = abandoned.iter().position(|&a| a == id) {
                    abandoned.swap_remove(pos); // late result of a timed-out run
                    continue;
                }
                let Some(pos) = in_flight.iter().position(|f| f.id == id) else {
                    continue;
                };
                let fl = in_flight.swap_remove(pos);
                // The worker has sent its result and is exiting; the
                // join is immediate and guarantees no resolved run ever
                // leaks a thread past the sweep.
                let _ = fl.handle.join();
                let job = jobs[id];
                match result {
                    Ok(RunOutcome::Completed(report)) => state.record_success(job, id, report),
                    Ok(RunOutcome::Cancelled(snap)) => {
                        // The cooperative path: the run heard its token,
                        // stopped at a cut, and its state survives for a
                        // resumed campaign to pick up.
                        let cut = snap
                            .map(|s| {
                                format!(
                                    "; stopped cleanly at the t = {:.3} s cut \
                                     (checkpoint retained for resume)",
                                    s.time().as_nanos() as f64 / 1e9
                                )
                            })
                            .unwrap_or_else(|| "; stopped cleanly".into());
                        state.record_failure(
                            job,
                            FailureKind::TimedOut,
                            format!("exceeded the {budget_s:.1} s wall-clock budget{cut}"),
                        );
                    }
                    Err(payload) => state.record_failure(
                        job,
                        FailureKind::Panicked,
                        panic_message(payload.as_ref()),
                    ),
                }
                resolved_jobs += 1;
                state.finish_cell_if_done(job.cell, out);
            }
            None => {
                let now = Instant::now();
                // First strike: fire the token and start the grace
                // clock. A cooperative run reaches a cut and resolves
                // through the ordinary result path above.
                for f in in_flight.iter_mut() {
                    if !f.cancelled && f.deadline.is_some_and(|d| d <= now) {
                        f.cancel.cancel();
                        f.cancelled = true;
                        f.deadline = Some(now + grace);
                    }
                }
                // Second strike: the grace period passed without the
                // run reaching a cut — it is stuck in non-cooperative
                // code. Abandon it the old way (there is no portable
                // way to kill a thread); its eventual result is
                // discarded on arrival.
                let mut i = 0;
                while i < in_flight.len() {
                    if in_flight[i].cancelled && in_flight[i].deadline.is_some_and(|d| d <= now) {
                        let fl = in_flight.swap_remove(i);
                        abandoned.push(fl.id);
                        drop(fl.handle); // detached
                        state.record_failure(
                            jobs[fl.id],
                            FailureKind::TimedOut,
                            format!(
                                "exceeded the {budget_s:.1} s wall-clock budget and ignored \
                                 cancellation for {:.1} s; thread abandoned",
                                grace.as_secs_f64()
                            ),
                        );
                        resolved_jobs += 1;
                        state.finish_cell_if_done(jobs[fl.id].cell, out);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    let report = state.report(state.failures().is_empty());
    if let Some(path) = out {
        write_atomic(path, &report.to_json()).map_err(SpecError::one)?;
    }
    if report.complete == Some(true) {
        if let Some(dir) = &ckpt_dir {
            // Every run finished, so every checkpoint was consumed; the
            // empty sidecar directory has nothing left to say.
            let _ = std::fs::remove_dir(dir);
        }
    }

    // Raw reports of this invocation, point-major / seed-minor.
    let mut runs_tagged: Vec<(usize, RunReport)> =
        state.progress.into_values().flat_map(|p| p.ok).collect();
    runs_tagged.sort_unstable_by_key(|&(id, _)| id);
    let run_keys = runs_tagged
        .iter()
        .map(|&(id, _)| grid.cells[jobs[id].cell].key.clone())
        .collect();
    let runs = runs_tagged.into_iter().map(|(_, r)| r).collect();

    Ok(CampaignOutcome {
        report,
        runs,
        run_keys,
    })
}

/// A run panicked; pull the human-readable message out of the payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "run panicked (non-string payload)".to_string()
    }
}

/// Parse a resumable partial artifact: it must exist, parse, belong to
/// this campaign, and be explicitly incomplete.
fn load_partial(path: &Path, campaign: &str) -> Option<CampaignReport> {
    let text = std::fs::read_to_string(path).ok()?;
    let report = CampaignReport::from_json(&text).ok()?;
    (report.campaign == campaign && report.complete == Some(false)).then_some(report)
}

/// Crash-consistent write: the artifact is either the old version or
/// the new one, never a torn half.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// [`write_atomic`] for binary checkpoint files: a reader never sees a
/// torn snapshot, only the previous one or the new one (a kill between
/// write and rename leaves a `.tmp` that no reader touches).
fn write_atomic_bytes(path: &Path, contents: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("snap.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        MobilitySpec, NodesSpec, PlacementSpec, ScenarioSpec, TrafficPattern, TrafficSpec,
    };
    use pcmac::{FlowShape, Variant};

    fn tiny_campaign() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            base: ScenarioSpec {
                name: "tiny".into(),
                variant: Variant::Basic,
                duration_s: 2.0,
                field: (500.0, 500.0),
                nodes: NodesSpec {
                    count: Some(4),
                    placement: PlacementSpec::Ring { radius: 80.0 },
                    mobility: None,
                },
                traffic: TrafficSpec {
                    pattern: TrafficPattern::NeighbourPairs { flows: 2 },
                    bytes: 512,
                    offered_load_kbps: 100.0,
                    shape: FlowShape::Cbr,
                },
                power_levels_mw: None,
                shadowing: None,
                protocol: None,
                radio: None,
                aodv: None,
                faults: None,
                metrics: None,
                trace: None,
                execution: None,
            },
            duration_s: None,
            seeds: vec![1, 2],
            sweep: Some(vec![crate::Axis::new(
                "traffic.offered_load_kbps",
                &[50.0, 100.0],
            )]),
        }
    }

    #[test]
    fn runner_aggregates_every_point() {
        let spec = tiny_campaign();
        assert_eq!(spec.run_count(), 4);
        let outcome = run_campaign(&spec, 0).expect("runs");
        assert_eq!(outcome.runs.len(), 4);
        assert_eq!(outcome.report.points.len(), 2);
        assert_eq!(outcome.report.complete, Some(true));
        assert!(outcome.report.failures.is_none());
        for p in &outcome.report.points {
            assert_eq!(p.seeds, vec![1, 2]);
            assert!(p.throughput_kbps.mean > 0.0, "static ring delivers");
            assert!(p.pdr.mean > 0.0);
            assert!(p.throughput_kbps.ci95.is_finite());
        }
        // Points follow expansion order: load 50 then load 100.
        assert_eq!(outcome.report.points[0].key.load_kbps, 50.0);
        assert_eq!(outcome.report.points[1].key.load_kbps, 100.0);
    }

    #[test]
    fn mobility_spec_on_generated_placement_runs() {
        let mut spec = tiny_campaign();
        spec.base.nodes.mobility = Some(MobilitySpec {
            speed_mps: 2.0,
            pause_s: 1.0,
        });
        spec.sweep = None;
        spec.seeds = vec![3];
        let outcome = run_campaign(&spec, 0).expect("mobile ring runs");
        assert_eq!(outcome.runs.len(), 1);
        assert!(outcome.runs[0].sent_packets > 0);
    }

    #[test]
    fn patch_axis_campaign_runs_and_keys_each_point() {
        let mut spec = tiny_campaign();
        spec.base.variant = Variant::Pcmac;
        spec.seeds = vec![1];
        spec.sweep = Some(vec![crate::Axis::new(
            "protocol.safety_factor",
            &[0.5, 0.9],
        )]);
        let outcome = run_campaign(&spec, 0).expect("patch sweep runs");
        assert_eq!(outcome.runs.len(), 2);
        assert_eq!(outcome.report.points.len(), 2);
        let labels: Vec<String> = outcome
            .report
            .points
            .iter()
            .map(|p| p.key.patches_label())
            .collect();
        assert_eq!(labels, vec!["safety_factor=0.5", "safety_factor=0.9"]);
    }
}
