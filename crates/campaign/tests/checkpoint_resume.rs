//! Within-run checkpoint/resume through the campaign runner: a run
//! cancelled mid-flight leaves a checkpoint in the artifact's sidecar
//! directory, a resume pass restores from it instead of recomputing
//! from scratch, and the final artifact is byte-identical (modulo
//! wall-clock time) to an uninterrupted reference campaign.

use std::sync::atomic::{AtomicUsize, Ordering};

use pcmac::{
    FlowShape, RunHooks, RunOutcome, ScenarioConfig, SimSnapshot, Simulator, SnapError, Variant,
};
use pcmac_campaign::{
    run_campaign_with, CampaignReport, CampaignSpec, FailureKind, NodesSpec, PlacementSpec,
    RunOptions, ScenarioSpec, TrafficPattern, TrafficSpec,
};
use pcmac_engine::Duration as SimDuration;

/// One cell, one seed, with faults and mobility exercised so the
/// checkpoint has non-trivial state to carry.
fn campaign() -> CampaignSpec {
    CampaignSpec {
        name: "ckpt-resume".into(),
        base: ScenarioSpec {
            name: "ckpt-resume".into(),
            variant: Variant::Pcmac,
            duration_s: 3.0,
            field: (600.0, 600.0),
            nodes: NodesSpec {
                count: Some(8),
                placement: PlacementSpec::Ring { radius: 100.0 },
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

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pcmac-ckpt-{}-{}.json", tag, std::process::id()))
}

/// Load an artifact and strip its only volatile field.
fn normalized(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).expect("artifact readable");
    let mut report: CampaignReport = serde_json::from_str(&text).expect("artifact parses");
    report.wall_s = 0.0;
    serde_json::to_string(&report).expect("report serializes")
}

/// Run `spec` uninterrupted into a fresh artifact and return its path.
fn reference_run(spec: &CampaignSpec, tag: &str) -> std::path::PathBuf {
    let ref_out = scratch(tag);
    let _ = std::fs::remove_file(&ref_out);
    run_campaign_with(
        spec,
        RunOptions {
            threads: 0,
            out: Some(ref_out.clone()),
            ..RunOptions::default()
        },
        |cfg, ctl| ctl.run(cfg),
    )
    .expect("reference campaign runs");
    ref_out
}

/// Interrupted pass into `out`: checkpoint every 300 ms of simulated
/// time, cancel deterministically at the 4th checkpoint (t = 1.2 s of a
/// 3 s run), persisting the freshest snapshot exactly the way
/// `JobCtl::run` does — after `rewrite` has had its way with the final
/// checkpoint's bytes. Returns the retained checkpoint file.
fn interrupted_run(
    spec: &CampaignSpec,
    out: &std::path::Path,
    rewrite: impl Fn(&ScenarioConfig, Vec<u8>) -> Vec<u8> + Send + Sync + 'static,
) -> std::path::PathBuf {
    let _ = std::fs::remove_file(out);
    let ckpt_dir = out.with_extension("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let opts = RunOptions {
        threads: 0,
        checkpoint_every: Some(SimDuration::from_millis(300)),
        out: Some(out.to_path_buf()),
        ..RunOptions::default()
    };
    let outcome = run_campaign_with(spec, opts, move |cfg, ctl| {
        let path = ctl
            .checkpoint_file
            .clone()
            .expect("checkpoint sidecar is configured");
        let cancel = ctl.cancel.clone();
        let seen = AtomicUsize::new(0);
        let sink = move |snap: SimSnapshot| {
            std::fs::write(&path, snap.to_bytes()).expect("checkpoint write");
            if seen.fetch_add(1, Ordering::SeqCst) + 1 == 4 {
                cancel.cancel();
            }
        };
        let outcome = Simulator::new(cfg.clone()).run_with_hooks(RunHooks {
            cancel: Some(&ctl.cancel),
            checkpoint_every: ctl.checkpoint_every,
            checkpoint_sink: Some(&sink),
        });
        if let RunOutcome::Cancelled(Some(snap)) = &outcome {
            let path = ctl.checkpoint_file.as_ref().unwrap();
            std::fs::write(path, rewrite(&cfg, snap.to_bytes())).expect("final checkpoint write");
        }
        outcome
    })
    .expect("interrupted pass survives");

    // The interruption is a structured clean stop, the artifact is
    // partial, and the checkpoint survives in the sidecar directory
    // under the runner's naming convention.
    assert_eq!(outcome.report.complete, Some(false));
    let failures = outcome.report.failures.expect("cancelled point recorded");
    assert_eq!(failures[0].kind, FailureKind::TimedOut);
    assert!(failures[0].error.contains("stopped cleanly"));
    let ckpt_file = ckpt_dir.join("cell000_seed1.snap");
    assert!(ckpt_file.exists(), "checkpoint retained for resume");
    ckpt_file
}

#[test]
fn interrupted_campaign_resumes_from_checkpoint_bit_identically() {
    let spec = campaign();
    let ref_out = reference_run(&spec, "reference");
    let out = scratch("resume");
    let ckpt_file = interrupted_run(&spec, &out, |_, bytes| bytes);
    let ckpt_dir = out.with_extension("ckpt");

    // Resume pass: the standard `JobCtl::run` path must pick the
    // checkpoint up, finish the run from t = 1.2 s, and produce a
    // summary bit-identical to the uninterrupted reference.
    let opts = RunOptions {
        threads: 0,
        checkpoint_every: Some(SimDuration::from_millis(300)),
        out: Some(out.clone()),
        resume: true,
        ..RunOptions::default()
    };
    let ckpt_probe = ckpt_file.clone();
    let resumed = run_campaign_with(&spec, opts, move |cfg, ctl| {
        assert!(
            ckpt_probe.exists(),
            "the resume pass starts from the retained checkpoint"
        );
        ctl.run(cfg)
    })
    .expect("resume pass runs");
    assert_eq!(resumed.report.complete, Some(true));

    // The consumed checkpoint and its sidecar directory are gone.
    assert!(!ckpt_file.exists(), "finished run deletes its checkpoint");
    assert!(!ckpt_dir.exists(), "empty sidecar directory removed");

    // Final artifact == uninterrupted artifact, modulo wall time.
    assert_eq!(normalized(&out), normalized(&ref_out));

    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&ref_out);
}

/// The 8-byte config digest a snapshot opens with, as [`Simulator`]
/// computes it: FNV-1a over the canonical JSON of the scenario with the
/// display name and execution strategy blanked. `extra_keys` is spliced
/// in between `"shadowing"` and `"faults"`, where earlier releases
/// serialized the channel knobs that have since left the config.
fn config_digest(cfg: &ScenarioConfig, extra_keys: &str) -> u64 {
    let mut c = cfg.clone();
    c.name = String::new();
    c.execution = None;
    let json = serde_json::to_string(&c).expect("configs serialize");
    assert_eq!(json.matches(r#""faults""#).count(), 1);
    let json = json.replace(r#""faults""#, &format!(r#"{extra_keys}"faults""#));
    pcmac_snap::fnv1a64(json.as_bytes())
}

/// Each commit that took channel options out of `ScenarioConfig` — the
/// channel-index and refresh-mode knobs first, the gain-cache selector
/// after them — changed every scenario's config digest once (keys left
/// the canonical JSON). A checkpoint written before either must be
/// refused with `CfgMismatch` — and `JobCtl::run` must then recompute
/// the cell from scratch, to the uninterrupted result.
#[test]
fn checkpoint_from_before_the_channel_knobs_left_resumes_as_a_fresh_run() {
    let spec = campaign();
    let ref_out = reference_run(&spec, "old-digest-reference");
    for (tag, old_keys) in [
        (
            "old-digest-index",
            r#""channel_index":"Grid","mobility_refresh":null,"gain_cache":null,"#,
        ),
        ("old-digest-cache", r#""gain_cache":null,"#),
    ] {
        let out = scratch(tag);
        let ckpt_file = interrupted_run(&spec, &out, |cfg, mut bytes| {
            // Envelope: magic, version, payload length (16 bytes), payload
            // (the digest first), checksum of the payload.
            let end = bytes.len() - 8;
            let stored = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
            assert_eq!(
                stored,
                config_digest(cfg, ""),
                "this test reconstructs the digest's input exactly"
            );
            let old = config_digest(cfg, old_keys);
            assert_ne!(old, stored, "the digest changed with the config's shape");
            bytes[16..24].copy_from_slice(&old.to_le_bytes());
            let sum = pcmac_snap::checksum64(&bytes[16..end]);
            bytes[end..].copy_from_slice(&sum.to_le_bytes());

            let snap = SimSnapshot::from_bytes(&bytes).expect("still a well-formed snapshot");
            assert!(!snap.matches(cfg));
            assert!(matches!(
                Simulator::restore(cfg.clone(), &snap),
                Err(SnapError::CfgMismatch)
            ));
            bytes
        });

        let opts = RunOptions {
            threads: 0,
            checkpoint_every: Some(SimDuration::from_millis(300)),
            out: Some(out.clone()),
            resume: true,
            ..RunOptions::default()
        };
        let resumed =
            run_campaign_with(&spec, opts, |cfg, ctl| ctl.run(cfg)).expect("resume pass runs");
        assert_eq!(resumed.report.complete, Some(true));
        assert!(!ckpt_file.exists(), "finished run deletes its checkpoint");
        assert_eq!(normalized(&out), normalized(&ref_out), "{tag}");
        let _ = std::fs::remove_file(&out);
    }
    let _ = std::fs::remove_file(&ref_out);
}

/// Every snapshot version changes the layout (version 5 took the flow
/// and walk configuration out of the source and movement sections), so a
/// checkpoint left behind by the previous release cannot be read. It must
/// be refused as `BadVersion` at the envelope — never misread — and the
/// cell holding it must complete as a fresh run with the same artifact.
#[test]
fn a_previous_version_checkpoint_file_resumes_as_a_fresh_run() {
    const PREVIOUS: u32 = pcmac_snap::VERSION - 1;
    let spec = campaign();
    let ref_out = reference_run(&spec, "prev-reference");
    let out = scratch("prev");
    let ckpt_file = interrupted_run(&spec, &out, |_, mut bytes| {
        // Envelope: magic (4 bytes), version (4), payload length (8).
        assert_eq!(bytes[4..8], pcmac_snap::VERSION.to_le_bytes());
        bytes[4..8].copy_from_slice(&PREVIOUS.to_le_bytes());
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapError::BadVersion(PREVIOUS))
        ));
        bytes
    });

    let opts = RunOptions {
        threads: 0,
        checkpoint_every: Some(SimDuration::from_millis(300)),
        out: Some(out.clone()),
        resume: true,
        ..RunOptions::default()
    };
    let resumed =
        run_campaign_with(&spec, opts, |cfg, ctl| ctl.run(cfg)).expect("resume pass runs");
    assert_eq!(resumed.report.complete, Some(true));
    assert!(!ckpt_file.exists(), "finished run deletes its checkpoint");
    assert_eq!(normalized(&out), normalized(&ref_out));

    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&ref_out);
}
