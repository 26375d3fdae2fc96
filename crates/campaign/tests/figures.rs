//! The figure pipeline: the shape validators, and the `figures`
//! subcommand end to end.

use pcmac_campaign::figures::{
    check_figure8_shape, check_figure9_shape, delay_series, throughput_series,
};
use pcmac_campaign::CampaignReport;
use pcmac_stats::Series;

fn mk_series(name: &str, points: &[(f64, f64)]) -> Series {
    let mut s = Series::new(name);
    for &(x, y) in points {
        s.push(x, y);
    }
    s
}

#[test]
fn figure8_check_accepts_paper_shape() {
    // Approximate digitization of the paper's own Figure 8.
    let series = vec![
        mk_series(
            "Basic 802.11",
            &[(300.0, 360.0), (650.0, 500.0), (1000.0, 545.0)],
        ),
        mk_series("PCMAC", &[(300.0, 362.0), (650.0, 530.0), (1000.0, 595.0)]),
        mk_series(
            "Scheme 1",
            &[(300.0, 355.0), (650.0, 470.0), (1000.0, 520.0)],
        ),
        mk_series(
            "Scheme 2",
            &[(300.0, 350.0), (650.0, 450.0), (1000.0, 495.0)],
        ),
    ];
    assert!(check_figure8_shape(&series).is_ok());
}

#[test]
fn figure8_check_rejects_pcmac_losing() {
    let series = vec![
        mk_series("Basic 802.11", &[(300.0, 360.0), (1000.0, 600.0)]),
        mk_series("PCMAC", &[(300.0, 362.0), (1000.0, 500.0)]),
        mk_series("Scheme 1", &[(300.0, 355.0), (1000.0, 520.0)]),
        mk_series("Scheme 2", &[(300.0, 350.0), (1000.0, 495.0)]),
    ];
    assert!(check_figure8_shape(&series).is_err());
}

#[test]
fn figure9_check_accepts_paper_shape() {
    let series = vec![
        mk_series("Basic 802.11", &[(300.0, 50.0), (1000.0, 1100.0)]),
        mk_series("PCMAC", &[(300.0, 40.0), (1000.0, 800.0)]),
        mk_series("Scheme 1", &[(300.0, 80.0), (1000.0, 1200.0)]),
        mk_series("Scheme 2", &[(300.0, 90.0), (1000.0, 1400.0)]),
    ];
    assert!(check_figure9_shape(&series).is_ok());
}

#[test]
fn figure9_check_rejects_shrinking_delay() {
    let series = vec![
        mk_series("Basic 802.11", &[(300.0, 500.0), (1000.0, 100.0)]),
        mk_series("PCMAC", &[(300.0, 40.0), (1000.0, 80.0)]),
        mk_series("Scheme 1", &[(300.0, 80.0), (1000.0, 200.0)]),
        mk_series("Scheme 2", &[(300.0, 90.0), (1000.0, 300.0)]),
    ];
    assert!(check_figure9_shape(&series).is_err());
}

#[test]
fn shape_checks_reject_empty_and_missing_series_without_panicking() {
    let checks = [check_figure8_shape, check_figure9_shape];
    let point = [(300.0, 1.0)];
    for check in checks {
        // No series at all, a missing protocol, an empty protocol, and
        // an empty bystander curve.
        assert!(check(&[]).is_err());
        assert!(check(&[mk_series("PCMAC", &point)]).is_err());
        assert!(check(&[mk_series("PCMAC", &[]), mk_series("Basic 802.11", &point)]).is_err());
        assert!(check(&[
            mk_series("PCMAC", &point),
            mk_series("Basic 802.11", &point),
            mk_series("Scheme 1", &[]),
        ])
        .is_err());
    }
}

/// The smallest real sweep through the whole `figures` subcommand: one
/// load, 4 s, one seed — four runs.
#[test]
fn tiny_sweep_runs_end_to_end() {
    let dir = std::env::temp_dir().join(format!("pcmac-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (raw, report) = (dir.join("raw.jsonl"), dir.join("report.json"));
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_pcmac-campaign"))
        .args(["figures", "--secs", "4", "--loads", "300", "--seeds", "1"])
        .arg("--json")
        .arg(&raw)
        .arg("--campaign-json")
        .arg(&report)
        .output()
        .expect("the binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    // At one load and 4 s the curves need not have the paper's shape
    // (exit 1); anything else is a broken pipeline.
    assert!(
        matches!(output.status.code(), Some(0 | 1)),
        "{:?}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    for needle in [
        "Figure 8 —",
        "Figure 9 —",
        "shape check vs paper Fig. 8:",
        "shape check vs paper Fig. 9:",
    ] {
        assert!(stdout.contains(needle), "`{needle}` missing:\n{stdout}");
    }

    // Raw reports: one JSON line per run.
    let lines = std::fs::read_to_string(&raw).expect("--json written");
    assert_eq!(lines.lines().count(), 4, "one run per protocol");
    for line in lines.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(v.get("throughput_kbps").is_some());
    }

    // The aggregated report carries both figures' series.
    let text = std::fs::read_to_string(&report).expect("--campaign-json written");
    let campaign = CampaignReport::from_json(&text).expect("artifact parses");
    for family in [throughput_series(&campaign), delay_series(&campaign)] {
        assert_eq!(family.len(), 4);
        for s in &family {
            assert_eq!(s.points.len(), 1);
            assert_eq!(s.points[0].0, 300.0);
            assert!(s.points[0].1 > 0.0, "{} moved no data", s.name);
        }
    }

    // An unwritable output path is an error message and exit 1, not a
    // panic.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_pcmac-campaign"))
        .args(["figures", "--secs", "4", "--loads", "300", "--seeds", "1"])
        .arg("--json")
        .arg(dir.join("no-such-dir").join("raw.jsonl"))
        .output()
        .expect("the binary starts");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot write raw reports"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep the flags make invalid, or a flag that does not parse, is a
/// message naming the problem and exit 1 before anything runs.
#[test]
fn bad_figure_flags_are_reported_not_panicked() {
    for (args, needle) in [
        (["--secs", "0"], "sweep configuration is invalid"),
        (["--loads", "300,x"], "--loads"),
        (["--seeds", "1.5"], "--seeds"),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_pcmac-campaign"))
            .arg("figures")
            .args(args)
            .output()
            .expect("the binary starts");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
