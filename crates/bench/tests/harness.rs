//! Tests for the figure harness itself: CLI parsing, sweep plumbing and
//! the shape validators.

use pcmac_bench::{check_figure8_shape, check_figure9_shape, try_flag, try_flag_list, Sweep};
use pcmac_stats::Series;

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(|x| x.to_string()).collect()
}

#[test]
fn default_sweep_matches_paper_axis() {
    let s = Sweep::default();
    assert_eq!(
        s.loads,
        vec![300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0]
    );
    assert_eq!(s.seeds, vec![1]);
}

#[test]
fn cli_flags_parse() {
    let s = Sweep::from_args(&args("--secs 30 --seeds 1,2,3 --loads 300,500 --threads 2"));
    assert_eq!(s.secs, 30);
    assert_eq!(s.seeds, vec![1, 2, 3]);
    assert_eq!(s.loads, vec![300.0, 500.0]);
    assert_eq!(s.threads, 2);
}

#[test]
fn full_flag_selects_400s() {
    let s = Sweep::from_args(&args("--full"));
    assert_eq!(s.secs, 400);
}

#[test]
fn unknown_flags_are_ignored() {
    let s = Sweep::from_args(&args("--json out.jsonl --secs 12"));
    assert_eq!(s.secs, 12);
}

#[test]
fn typed_flags_parse_without_f64_truncation() {
    // The old parser went through `f64` (`grab(...) as u64`): any seed
    // above 2^53 silently lost bits. The typed path must be exact.
    let big = u64::MAX - 1;
    let a = args(&format!("--seed {big}"));
    assert_eq!(try_flag::<u64>(&a, "--seed").unwrap(), Some(big));
    assert!(big as f64 as u64 != big, "the old path really was lossy");

    // Absent flags are None, not an error.
    assert_eq!(try_flag::<u64>(&a, "--secs").unwrap(), None);
}

#[test]
fn malformed_flag_values_are_errors_not_defaults() {
    // `--secs 1.5` used to truncate to 1; now it must be rejected.
    assert!(try_flag::<u64>(&args("--secs 1.5"), "--secs").is_err());
    assert!(try_flag::<u64>(&args("--secs abc"), "--secs").is_err());
    // A flag with no value following it is an error too.
    assert!(try_flag::<u64>(&args("--secs"), "--secs").is_err());
}

#[test]
fn flag_lists_reject_bad_elements_instead_of_dropping_them() {
    // The old list parser used filter_map: `--loads 300,x,500` silently
    // became [300, 500].
    assert!(try_flag_list::<f64>(&args("--loads 300,x,500"), "--loads").is_err());
    assert_eq!(
        try_flag_list::<f64>(&args("--loads 300,500"), "--loads").unwrap(),
        Some(vec![300.0, 500.0])
    );
    assert_eq!(
        try_flag_list::<u64>(&args("--loads 1"), "--seeds").unwrap(),
        None
    );
}

#[test]
fn explicit_secs_wins_over_full_in_any_order() {
    assert_eq!(Sweep::from_args(&args("--full --secs 30")).secs, 30);
    assert_eq!(Sweep::from_args(&args("--secs 30 --full")).secs, 30);
}

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
fn tiny_sweep_runs_end_to_end() {
    // Smallest possible real sweep through the whole pipeline.
    let result = Sweep {
        loads: vec![300.0],
        secs: 4,
        seeds: vec![1],
        threads: 0,
    }
    .run();
    assert_eq!(result.reports.len(), 4, "one run per protocol");
    let thpt = result.throughput_series();
    assert_eq!(thpt.len(), 4);
    for s in &thpt {
        assert_eq!(s.points.len(), 1);
        assert!(s.points[0].1 > 0.0, "{} moved no data", s.name);
    }
    // JSON lines round-trip.
    let json = result.to_json_lines();
    assert_eq!(json.lines().count(), 4);
    for line in json.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(v.get("throughput_kbps").is_some());
    }
}

/// The three artifact pipelines, driven once at reduced scale so they
/// keep running under `cargo test`: the Figure 8 / Figure 9 sweep (two
/// loads, 12 s, one seed) through the same series builders and shape
/// checks the `fig8_throughput` / `fig9_delay` binaries use, and the
/// §IV power-level table against the ranges the paper quotes, as
/// `table_power_levels` computes it.
#[test]
fn reduced_figure_and_table_pipelines_keep_their_shape() {
    let result = Sweep {
        loads: vec![300.0, 1000.0],
        secs: 12,
        seeds: vec![1],
        threads: 0,
    }
    .run();
    let throughput = result.throughput_series();
    if let Err(e) = check_figure8_shape(&throughput) {
        panic!(
            "figure 8 shape violated: {e}\n{}",
            result.render_table("thpt", &throughput)
        );
    }
    let delay = result.delay_series();
    if let Err(e) = check_figure9_shape(&delay) {
        panic!(
            "figure 9 shape violated: {e}\n{}",
            result.render_table("delay", &delay)
        );
    }

    use pcmac_phy::{PowerLevels, Propagation, TwoRayGround};
    let model = TwoRayGround::ns2_default();
    let paper = [
        40.0, 60.0, 80.0, 90.0, 100.0, 110.0, 120.0, 150.0, 180.0, 250.0,
    ];
    let levels = PowerLevels::paper_defaults();
    assert_eq!(levels.all().len(), paper.len());
    for (&p, want) in levels.all().iter().zip(paper) {
        let decode = model.range_for(p, pcmac_engine::Milliwatts(3.652e-7));
        assert!(
            (decode - want).abs() <= 4.0,
            "{p:?} decodes to {decode:.1} m, paper quotes {want} m"
        );
    }
}
