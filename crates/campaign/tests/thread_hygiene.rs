//! A timed-out *cooperative* run must not leak its worker thread: the
//! watchdog fires the cancel token, the simulator stops cleanly at the
//! next cut, and the runner joins the thread. This lives in its own
//! test binary (= its own process) so `/proc/self/task` counting is
//! not polluted by the deliberately-abandoned sleeper threads of
//! `resilient_runner.rs`.

use std::time::Duration;

use pcmac::{FlowShape, Variant};
use pcmac_campaign::{
    run_campaign_with, CampaignSpec, FailureKind, NodesSpec, PlacementSpec, RunOptions,
    ScenarioSpec, TrafficPattern, TrafficSpec,
};

/// One grid cell that is slow by construction: 10^5 simulated seconds
/// is minutes of wall clock at any plausible simulator speed, so the
/// 250 ms watchdog must step in no matter how fast the event loop gets
/// (at 600 s the run used to *finish* inside the budget once the loop
/// sped up, and the test failed for lack of a timeout).
fn slow_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "hygiene".into(),
        base: ScenarioSpec {
            name: "hygiene".into(),
            variant: Variant::Basic,
            duration_s: 1e5,
            field: (500.0, 500.0),
            nodes: NodesSpec {
                count: Some(8),
                placement: PlacementSpec::Ring { radius: 80.0 },
                mobility: None,
            },
            traffic: TrafficSpec {
                pattern: TrafficPattern::NeighbourPairs { flows: 4 },
                bytes: 512,
                offered_load_kbps: 200.0,
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
        seeds: vec![1],
        sweep: None,
    }
}

fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(1)
}

#[cfg(target_os = "linux")]
#[test]
fn cooperative_timeout_joins_the_worker_thread() {
    let baseline = live_threads();

    let opts = RunOptions {
        threads: 1,
        timeout: Some(Duration::from_millis(250)),
        grace: Some(Duration::from_secs(5)),
        out: None,
        resume: false,
        ..RunOptions::default()
    };
    let outcome = run_campaign_with(&slow_campaign(), opts, |cfg, ctl| ctl.run(cfg))
        .expect("the sweep survives the timed-out point");

    // The point is recorded as a structured timeout whose message says
    // the run *cooperated*: it stopped cleanly at a cut instead of
    // being abandoned mid-dispatch.
    let failures = outcome
        .report
        .failures
        .as_ref()
        .expect("the timed-out point is recorded");
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].kind, FailureKind::TimedOut);
    assert!(
        failures[0].error.contains("stopped cleanly"),
        "clean cooperative stop recorded: {}",
        failures[0].error
    );

    // The worker thread was joined, not abandoned: the process thread
    // count returns to the pre-campaign baseline. Poll briefly — the
    // OS needs a moment to reap a just-exited thread from /proc.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if live_threads() <= baseline {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker thread leaked: {} live threads vs baseline {}",
            live_threads(),
            baseline
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
