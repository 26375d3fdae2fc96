//! The campaign runner must survive hostile points: a panicking run and
//! a hanging run are recorded as structured failures, the partial
//! artifact is persisted incrementally, and a rerun resumes from it
//! without recomputing the points that already finished. The runner
//! also meters concurrency in OS threads, not jobs: a sharded run counts
//! as its shard count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use pcmac::{FlowShape, RunOutcome, ScenarioConfig, Variant};
use pcmac_campaign::{
    run_campaign_with, Axis, CampaignOutcome, CampaignReport, CampaignSpec, ExecutionSpec,
    FailureKind, NodesSpec, PlacementSpec, RunOptions, ScenarioSpec, TrafficPattern, TrafficSpec,
};

/// Three grid cells (loads 50/75/100) x two seeds: load 50 is clean,
/// load 75 panics on seed 1, load 100 hangs on seed 2.
fn hostile_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "hostile".into(),
        base: ScenarioSpec {
            name: "hostile".into(),
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
        sweep: Some(vec![Axis::new(
            "traffic.offered_load_kbps",
            &[50.0, 75.0, 100.0],
        )]),
    }
}

/// Aggregate offered load of a materialized config, to identify which
/// grid cell a `run_fn` invocation belongs to.
fn load_of(cfg: &ScenarioConfig) -> f64 {
    (cfg.flows.iter().map(|f| f.rate_bps).sum::<f64>() / 1000.0).round()
}

fn scratch_artifact(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "pcmac-resilient-{}-{}.json",
        tag,
        std::process::id()
    ))
}

#[test]
fn runner_survives_panics_and_hangs_then_resumes() {
    let out = scratch_artifact("survive");
    let _ = std::fs::remove_file(&out);

    // First pass: one panicking point, one hanging point.
    let opts = RunOptions {
        threads: 2,
        timeout: Some(Duration::from_millis(400)),
        // A non-cooperative sleeper only gets a short grace before it
        // is abandoned, keeping the test fast.
        grace: Some(Duration::from_millis(200)),
        out: Some(out.clone()),
        resume: false,
        ..RunOptions::default()
    };
    let spec = hostile_campaign();
    let outcome = run_campaign_with(&spec, opts, |cfg, ctl| {
        let load = load_of(&cfg);
        if load == 75.0 && cfg.seed == 1 {
            panic!("injected panic at load 75 seed 1");
        }
        if load == 100.0 && cfg.seed == 2 {
            // Far beyond the watchdog budget, and deaf to the cancel
            // token: the runner must abandon it after the grace period.
            std::thread::sleep(Duration::from_secs(20));
        }
        ctl.run(cfg)
    })
    .expect("the sweep itself survives hostile points");

    // Both failures are recorded, with the right kinds and coordinates.
    let failures = outcome
        .report
        .failures
        .as_ref()
        .expect("failures are reported");
    assert_eq!(failures.len(), 2);
    let panicked = failures
        .iter()
        .find(|f| f.kind == FailureKind::Panicked)
        .expect("panicking point recorded");
    assert_eq!(panicked.key.load_kbps, 75.0);
    assert_eq!(panicked.seed, Some(1));
    assert!(
        panicked.error.contains("injected panic"),
        "panic message captured: {}",
        panicked.error
    );
    let hung = failures
        .iter()
        .find(|f| f.kind == FailureKind::TimedOut)
        .expect("hanging point recorded");
    assert_eq!(hung.key.load_kbps, 100.0);
    assert_eq!(hung.seed, Some(2));

    // Only the clean cell has a summary; the report says "incomplete".
    assert_eq!(outcome.report.complete, Some(false));
    assert_eq!(outcome.report.points.len(), 1);
    assert_eq!(outcome.report.points[0].key.load_kbps, 50.0);

    // The artifact on disk is the same partial report.
    let text = std::fs::read_to_string(&out).expect("partial artifact written");
    let on_disk: CampaignReport = serde_json::from_str(&text).expect("artifact parses");
    assert_eq!(on_disk.complete, Some(false));
    assert_eq!(on_disk.points.len(), 1);
    assert_eq!(on_disk.failures.as_ref().map(Vec::len), Some(2));

    // Second pass: same artifact, healthy run_fn. Only the two failed
    // cells (2 cells x 2 seeds) are recomputed.
    let recomputed = Arc::new(AtomicUsize::new(0));
    let counter = recomputed.clone();
    let opts = RunOptions {
        threads: 2,
        timeout: Some(Duration::from_secs(30)),
        out: Some(out.clone()),
        resume: true,
        ..RunOptions::default()
    };
    let outcome = run_campaign_with(&spec, opts, move |cfg, ctl| {
        counter.fetch_add(1, Ordering::SeqCst);
        assert_ne!(
            load_of(&cfg),
            50.0,
            "the finished cell must not be recomputed on resume"
        );
        ctl.run(cfg)
    })
    .expect("resume pass runs");

    assert_eq!(recomputed.load(Ordering::SeqCst), 4);
    assert_eq!(outcome.runs.len(), 4, "only this pass's runs are returned");
    assert_eq!(outcome.report.complete, Some(true));
    assert!(outcome.report.failures.is_none());
    assert_eq!(outcome.report.points.len(), 3);
    for p in &outcome.report.points {
        assert_eq!(p.seeds, vec![1, 2]);
    }
    // Point order follows the expansion order despite the resume.
    let loads: Vec<f64> = outcome
        .report
        .points
        .iter()
        .map(|p| p.key.load_kbps)
        .collect();
    assert_eq!(loads, vec![50.0, 75.0, 100.0]);

    let text = std::fs::read_to_string(&out).expect("final artifact written");
    let on_disk: CampaignReport = serde_json::from_str(&text).expect("artifact parses");
    assert_eq!(on_disk.complete, Some(true));
    assert_eq!(on_disk.points.len(), 3);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn fresh_run_ignores_a_finished_artifact() {
    let out = scratch_artifact("fresh");
    let _ = std::fs::remove_file(&out);
    let mut spec = hostile_campaign();
    spec.sweep = Some(vec![Axis::new("traffic.offered_load_kbps", &[50.0])]);

    let opts = RunOptions {
        threads: 0,
        timeout: None,
        out: Some(out.clone()),
        resume: false,
        ..RunOptions::default()
    };
    let first = run_campaign_with(&spec, opts, |cfg, ctl| ctl.run(cfg)).expect("runs");
    assert_eq!(first.report.complete, Some(true));

    // `resume: true` against a COMPLETE artifact recomputes everything:
    // only partial artifacts are resumable.
    let counted = Arc::new(AtomicUsize::new(0));
    let counter = counted.clone();
    let opts = RunOptions {
        threads: 0,
        timeout: None,
        out: Some(out.clone()),
        resume: true,
        ..RunOptions::default()
    };
    let second = run_campaign_with(&spec, opts, move |cfg, ctl| {
        counter.fetch_add(1, Ordering::SeqCst);
        ctl.run(cfg)
    })
    .expect("runs");
    assert_eq!(counted.load(Ordering::SeqCst), 2);
    assert_eq!(second.report.complete, Some(true));
    let _ = std::fs::remove_file(&out);
}

#[test]
fn invalid_grid_cells_are_structured_failures_not_aborts() {
    // A sweep axis that patches a value the spec layer rejects at
    // materialization time must surface as `FailureKind::Invalid`.
    let mut spec = hostile_campaign();
    spec.seeds = vec![1];
    spec.base.faults = Some(pcmac::FaultConfig {
        churn: Some(pcmac::ChurnConfig {
            mean_uptime_s: 60.0,
            mean_downtime_s: 10.0,
            start_s: None,
            stop_s: None,
        }),
        ..pcmac::FaultConfig::default()
    });
    spec.sweep = Some(vec![Axis::new("faults.churn.mean_uptime_s", &[5.0, -3.0])]);

    // Validation catches the defect up front, listing the poisoned cell.
    let err = spec.grid().expect_err("negative uptime is invalid");
    assert!(
        err.problems.iter().any(|p| p.contains("mean uptime")),
        "aggregated defect list names the knob: {:?}",
        err.problems
    );
}

/// Run the six-run campaign with every cell on `shards` region shards
/// (`None`: single-threaded, same delay floor) through a `threads`-wide
/// dispatcher. Each run adds itself to two gauges while it is in
/// flight; returns the outcome with the peak number of concurrent runs
/// and the peak number of OS threads they asked for between them.
fn run_metered(shards: Option<usize>, threads: usize) -> (CampaignOutcome, usize, usize) {
    #[derive(Default)]
    struct Gauge {
        now: AtomicUsize,
        peak: AtomicUsize,
    }
    impl Gauge {
        fn enter(&self, n: usize) {
            let now = self.now.fetch_add(n, Ordering::SeqCst) + n;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }
        fn leave(&self, n: usize) {
            self.now.fetch_sub(n, Ordering::SeqCst);
        }
    }

    let mut spec = hostile_campaign();
    spec.base.execution = Some(ExecutionSpec {
        shards,
        delay_floor_us: Some(10.0),
    });
    let gauges = Arc::new((Gauge::default(), Gauge::default()));
    let seen = Arc::clone(&gauges);
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let outcome = run_campaign_with(&spec, opts, move |cfg, ctl| {
        let (runs, os_threads) = &*seen;
        let width = cfg.shards();
        runs.enter(1);
        os_threads.enter(width);
        // Long enough that a dispatcher counting jobs, which starts
        // `threads` of them back to back, is caught overlapping them.
        std::thread::sleep(Duration::from_millis(40));
        let result = ctl.run(cfg);
        os_threads.leave(width);
        runs.leave(1);
        result
    })
    .expect("the campaign runs");
    assert_eq!(outcome.runs.len(), 6);
    assert!(outcome.report.failures.is_none());
    let (runs, os_threads) = &*gauges;
    (
        outcome,
        runs.peak.load(Ordering::SeqCst),
        os_threads.peak.load(Ordering::SeqCst),
    )
}

#[test]
fn sharded_runs_debit_their_shard_count_from_the_thread_budget() {
    // Single-threaded cells fill a two-thread budget two at a time.
    let (single, runs, os_threads) = run_metered(None, 2);
    assert_eq!((runs, os_threads), (2, 2), "the gauges see an overlap");

    // Two-shard cells: one in flight at a time, never 2 x 2 threads.
    let (sharded, runs, os_threads) = run_metered(Some(2), 2);
    assert_eq!((runs, os_threads), (1, 2));

    // A cell wider than the whole budget is clamped to it: it still
    // starts, alone.
    let (wide, runs, os_threads) = run_metered(Some(4), 2);
    assert_eq!((runs, os_threads), (1, 4));

    // Metering changes when a run starts, not what it computes: the
    // sharded runs equal their single-threaded twins, in order.
    for other in [&sharded, &wide] {
        for (a, b) in single.runs.iter().zip(&other.runs) {
            assert_eq!((a.seed, a.offered_load_kbps), (b.seed, b.offered_load_kbps));
            assert_eq!(a.events, b.events);
            assert_eq!(a.delivered_packets, b.delivered_packets);
        }
    }
}

/// A cell's summary does not depend on which of its seeds finishes
/// first. With two workers, seed 1's run starts only once seed 2's has
/// finished, so the runner hears the seeds out of order; the points must
/// equal the ones a single worker writes in seed order. The throughputs
/// are set to 0.1 and 0.7 kbps because a running mean over them rounds
/// differently in the two orders (0.4 against 0.39999999999999997).
#[test]
fn a_cell_summarizes_its_seeds_in_seed_order_whatever_order_they_finish() {
    let mut spec = hostile_campaign();
    spec.sweep = None;
    let points = |threads: usize| {
        let second_done = Arc::new(Barrier::new(2));
        let opts = RunOptions {
            threads,
            ..RunOptions::default()
        };
        let outcome = run_campaign_with(&spec, opts, move |cfg, ctl| {
            let seed = cfg.seed;
            if threads > 1 && seed == 1 {
                second_done.wait();
            }
            let mut outcome = ctl.run(cfg);
            if let RunOutcome::Completed(report) = &mut outcome {
                report.throughput_kbps = if seed == 1 { 0.1 } else { 0.7 };
            }
            if threads > 1 && seed == 2 {
                second_done.wait();
            }
            outcome
        })
        .expect("the sweep runs");
        format!("{:?}", outcome.report.points)
    };
    assert_eq!(points(2), points(1));
}
