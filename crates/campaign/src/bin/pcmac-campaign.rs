//! `pcmac-campaign` — run declarative scenario campaigns from spec files.
//!
//! ```text
//! pcmac-campaign run <campaign.json> [--threads N] [--out FILE]
//! pcmac-campaign figures [--full] [--secs N] [--seeds a,b] [--loads x,y]
//! pcmac-campaign expand <campaign.json>
//! pcmac-campaign validate <campaign.json | scenario.json>...
//! pcmac-campaign scenario <scenario.json> [--seed S]
//! pcmac-campaign dashboard [DIR] [--baseline DIR] [--band PCT]
//! pcmac-campaign example
//! ```

use std::process::ExitCode;

use pcmac::{MetricsConfig, ScenarioConfig, Simulator, TraceWriter};
use pcmac_campaign::{
    bisect_configs, cli, dashboard, figures, run_campaign, run_campaign_with, Axis, CampaignSpec,
    MetricsArtifact, RunOptions, ScenarioSpec, SpecError,
};
use pcmac_stats::{ascii_plot, series::to_csv, Series};

const USAGE: &str = "\
usage: pcmac-campaign <command> [args]

commands:
  run <campaign.json> [--threads N] [--out FILE] [--timeout SECS]
                      [--duration SECS] [--fresh] [--metrics]
                      [--checkpoint-interval SECS]
        expand the campaign, run every point x seed in parallel, print the
        aggregated table, then one row per executed run with its MAC and
        routing counters, and write CAMPAIGN_<name>.json (or FILE). The
        artifact is persisted after every finished point; rerunning with
        the same output path resumes an interrupted campaign (--fresh
        recomputes from scratch). --timeout abandons runs that exceed the
        wall-clock budget; --duration overrides the simulated seconds per
        run (smoke-shrinking a published campaign). Panicking, hanging,
        and invalid points are recorded as structured failures (exit 1)
        without aborting the sweep. --metrics turns on the observability
        layer for every run (behaviour-identical; see the README's
        Observability section) and additionally writes
        METRICS_<name>.json with the per-run metrics. Every run executes
        on one thread. --checkpoint-interval additionally
        checkpoints every in-progress run's simulator state that often
        (simulated seconds) into a sidecar <out>.ckpt/ directory, so a
        killed campaign resumes mid-run from the newest checkpoint
        instead of recomputing the cell; timed-out runs stop cleanly at
        a checkpoint cut. Checkpoint files are host-independent.
  figures [--full] [--secs N] [--seeds a,b,c] [--loads x,y,z] [--threads N]
          [--json FILE] [--campaign-json FILE]
        regenerate the paper's Figure 8 (aggregate throughput) and
        Figure 9 (mean end-to-end delay) from one sweep of the section IV
        scenario over offered load x all four protocols x seeds: table,
        ASCII plot and CSV per figure, then the per-point aggregation.
        Defaults: loads 300..1000 step 100 kbps, seed 1, 60 s per run;
        --full runs the paper's 400 s, an explicit --secs wins over it.
        --json writes every raw report as JSON lines, --campaign-json the
        aggregated report. Exit 1 when either figure fails its shape
        check against the paper (PCMAC best at saturation, no collapse,
        delay growing with load)
  expand <campaign.json>
        print the grid a campaign expands to, without running it
  validate <campaign.json | scenario.json>...
        check each campaign spec and every expanded grid cell, or a
        single ScenarioSpec, and report every file; exit 0 when all are
        clean, 1 with each file's aggregated defect list, one problem
        per line
  scenario <scenario.json> [--seed S]
        materialize and run a single ScenarioSpec (default seed 1). A
        spec with a `metrics` section reports its observability metrics;
        one with a `trace` section also writes TRACE_<name>.txt
  bisect <a.json> <b.json> [--seed S] [--interval SECS]
        localize the first divergent event between two ScenarioSpecs
        that are expected to be bit-identical: run both with periodic
        state fingerprints (every --interval simulated seconds, default
        duration/32), binary-search the cuts for the last common state,
        replay both from it, and report the first divergent event's
        time, class, node, and rank. Exit 0 when the runs are
        bit-identical, 1 with the triage report when they diverge
  dashboard [DIR] [--baseline DIR] [--band PCT] [--out FILE]
        render the repo benchmark's end-to-end table (medians with
        min / max / n from DIR/benchmark/out/result.json, which the
        harness writes in all-workloads mode) and the CAMPAIGN_*.json /
        METRICS_*.json artifacts in DIR (default .) into markdown
        (default DIR/DASHBOARD.md; `-` prints to stdout). With
        --baseline, gate against that directory's result.json and
        METRICS_*.json and exit 1 on a regression: peak_rss_mib worse
        than its BENCHMARK.json bound; a timing metric worse than its
        bound with every run outside the baseline's [min, max] (inside
        it the metric is printed as unresolved); METRICS events/sec more
        than --band percent (default 20) below the baseline
  example
        print a starter campaign spec (pipe into a .json file to begin)

Any other --flag is an error.";

/// What is invalid, then its defects, one per line.
fn invalid(what: &str, e: SpecError) -> String {
    format!("{what} is invalid:\n  - {}", e.problems.join("\n  - "))
}

fn read_spec(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// When `flag` is on the command line, write `contents()` to the path
/// that follows it.
fn write_output_flag(
    args: &[String],
    flag: &str,
    what: &str,
    contents: impl FnOnce() -> String,
) -> Result<(), String> {
    if let Some(path) = cli::flag_value(args, flag) {
        std::fs::write(path, contents())
            .map_err(|e| format!("cannot write {what} to {path}: {e}"))?;
        eprintln!("wrote {what} to {path}");
    }
    Ok(())
}

fn load_campaign(path: &str) -> Result<CampaignSpec, String> {
    let text = read_spec(path)?;
    let spec = CampaignSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.validate().map_err(|e| invalid(path, e))?;
    Ok(spec)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let text = read_spec(path)?;
    let mut spec = CampaignSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(d) = cli::try_flag::<f64>(args, "--duration")? {
        spec.duration_s = Some(d);
    }
    spec.validate().map_err(|e| invalid(path, e))?;
    let threads = cli::try_flag(args, "--threads")?.unwrap_or(0usize);
    let timeout = cli::try_flag::<f64>(args, "--timeout")?.map(std::time::Duration::from_secs_f64);
    let out = cli::flag_value(args, "--out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("CAMPAIGN_{}.json", cli::sanitize(&spec.name)));
    let fresh = args.iter().any(|a| a == "--fresh");
    let with_metrics = args.iter().any(|a| a == "--metrics");
    let resume = !fresh && std::path::Path::new(&out).exists();
    if resume {
        eprintln!("{out} exists: resuming if it is a partial artifact (--fresh recomputes)");
    }

    eprintln!(
        "campaign `{}`: {} points x {} seeds = {} runs",
        spec.name,
        spec.point_count(),
        spec.seeds.len(),
        spec.run_count()
    );
    let checkpoint_every = cli::try_flag::<f64>(args, "--checkpoint-interval")?
        .map(pcmac_engine::Duration::from_secs_f64);
    if checkpoint_every.is_some_and(|e| e.is_zero()) {
        return Err("--checkpoint-interval: need a positive number of simulated seconds".into());
    }
    let opts = RunOptions {
        threads,
        timeout,
        out: Some(out.clone().into()),
        resume,
        checkpoint_every,
        grace: None,
    };
    let outcome = run_campaign_with(&spec, opts, move |mut cfg, ctl| {
        // The metrics layer is behaviour-identical (proved by the
        // channel-equivalence suite), so flipping it on here cannot
        // change any campaign number.
        if with_metrics && cfg.metrics.is_none() {
            cfg.metrics = Some(MetricsConfig::default());
        }
        // The standard resilient run: checkpoint periodically, resume
        // from this cell's newest valid checkpoint, stop cleanly at a
        // cut when the watchdog cancels.
        ctl.run(cfg)
    })
    .map_err(|e| e.to_string())?;

    if with_metrics {
        if let Some(artifact) = MetricsArtifact::from_runs(&spec.name, &outcome.runs) {
            let path = format!("METRICS_{}.json", cli::sanitize(&spec.name));
            std::fs::write(&path, artifact.to_json()).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }

    println!(
        "campaign `{}` — {} runs, {:.0} s each, {:.1} s CPU total\n",
        outcome.report.campaign,
        outcome.report.runs,
        outcome.report.duration_s,
        outcome.report.wall_s
    );
    println!("{}", outcome.report.render_table());
    println!("{}", outcome.render_runs_table());
    eprintln!("wrote {out}");

    if let Some(failures) = &outcome.report.failures {
        eprintln!("\n{} run(s) failed:", failures.len());
        for f in failures {
            eprintln!(
                "  [{:?}] {} seed {}: {}",
                f.kind,
                f.key.label(),
                f.seed.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                f.error
            );
        }
        return Err(format!(
            "campaign `{}` finished with {} failed run(s); rerunning with the same \
             --out resumes and retries only the failed points",
            spec.name,
            failures.len()
        ));
    }
    Ok(())
}

/// Print one figure: title, table, ASCII plot, CSV.
fn print_figure(title: &str, value_label: &str, plot_title: &str, series: &[Series], note: &str) {
    println!("{title}\n({note})\n");
    println!("{}", figures::render_table(value_label, series));
    println!(
        "{}",
        ascii_plot(plot_title, "offered load kbps", series, 64, 16)
    );
    println!("CSV:\n{}", to_csv("offered_load_kbps", series));
}

fn cmd_figures(args: &[String]) -> Result<(), String> {
    let secs = cli::figure_secs(args)?;
    let seeds = cli::try_flag_list(args, "--seeds")?.unwrap_or_else(|| vec![1u64]);
    let loads = cli::try_flag_list(args, "--loads")?.unwrap_or_else(figures::paper_loads);
    let threads = cli::try_flag(args, "--threads")?.unwrap_or(0usize);
    let spec = figures::sweep_spec(&loads, secs, &seeds);
    eprintln!(
        "figures: loads {loads:?} kbps, {secs} s per run, {} seed(s), 4 protocols → {} runs",
        seeds.len(),
        spec.run_count()
    );

    let outcome = run_campaign(&spec, threads).map_err(|e| invalid("sweep configuration", e))?;
    if let Some(failures) = &outcome.report.failures {
        return Err(format!(
            "{} run(s) of the sweep failed, first: {}",
            failures.len(),
            failures[0].error
        ));
    }
    let throughput = figures::throughput_series(&outcome.report);
    let delay = figures::delay_series(&outcome.report);
    let note = format!("{secs} s per run, {} seed(s) averaged", seeds.len());

    print_figure(
        "Figure 8 — aggregate network throughput (kbps) vs offered load (kbps)",
        "throughput kbps",
        "Figure 8 (reproduced)",
        &throughput,
        &note,
    );
    print_figure(
        "Figure 9 — average end-to-end delay (ms) vs offered load (kbps)",
        "delay ms",
        "Figure 9 (reproduced)",
        &delay,
        &note,
    );
    println!(
        "per-point aggregation (mean ± 95% CI over seeds):\n{}",
        outcome.report.render_table()
    );

    write_output_flag(args, "--json", "raw reports", || {
        outcome
            .runs
            .iter()
            .map(|r| serde_json::to_string(r).expect("reports serialize"))
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    write_output_flag(
        args,
        "--campaign-json",
        "aggregated campaign report",
        || outcome.report.to_json(),
    )?;

    let mut failed = false;
    for (figure, result, claim) in [
        (
            "Fig. 8",
            figures::check_figure8_shape(&throughput),
            "PCMAC > Basic at saturation; no collapse",
        ),
        (
            "Fig. 9",
            figures::check_figure9_shape(&delay),
            "delay grows with load; PCMAC lowest at saturation",
        ),
    ] {
        match result {
            Ok(()) => println!("shape check vs paper {figure}: PASS ({claim})"),
            Err(e) => {
                println!("shape check vs paper {figure}: FAIL — {e}");
                failed = true;
            }
        }
    }
    if failed {
        return Err("the reproduced figures do not have the paper's shape".into());
    }
    Ok(())
}

fn cmd_expand(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let spec = load_campaign(path)?;
    // The grid skeleton is all `expand` needs — no scenario is
    // materialized just to print coordinates.
    let grid = spec.grid().map_err(|e| e.to_string())?;
    println!(
        "campaign `{}`: {} points x {} seeds = {} runs",
        spec.name,
        grid.point_count(),
        grid.seeds.len(),
        grid.run_count()
    );
    for cell in &grid.cells {
        println!(
            "  {:<14} load {:>6.0} kbps  {:>4} nodes  levels {:<7} knobs {:<24} seeds {:?}",
            cell.key.variant,
            cell.key.load_kbps,
            cell.key.node_count,
            cell.key
                .power_levels_mw
                .as_ref()
                .map(|l| format!("{}-level", l.len()))
                .unwrap_or_else(|| "paper".into()),
            cell.key.patches_label(),
            grid.seeds,
        );
    }
    Ok(())
}

/// Check every file named, printing one verdict each; fail when any
/// file is defective.
fn cmd_validate(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err(USAGE.into());
    }
    let mut failed = 0;
    for path in args {
        match validate_file(path) {
            Ok(verdict) => println!("{path}: OK ({verdict})"),
            Err(e) => {
                eprintln!("{e}");
                failed += 1;
            }
        }
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} of {} spec file(s) are invalid", args.len())),
    }
}

/// A campaign spec and every grid cell it expands to, or one scenario
/// spec: what it holds when valid, else its defects.
fn validate_file(path: &str) -> Result<String, String> {
    let text = read_spec(path)?;
    let spec = match CampaignSpec::from_json(&text) {
        Ok(spec) => spec,
        Err(not_campaign) => {
            let scenario = ScenarioSpec::from_json(&text).map_err(|not_scenario| {
                format!(
                    "{path}: neither a campaign spec ({not_campaign}) nor a scenario spec \
                     ({not_scenario})"
                )
            })?;
            scenario.validate().map_err(|e| invalid(path, e))?;
            return Ok(format!("scenario `{}`", scenario.name));
        }
    };
    // Expanding the grid validates the campaign *and* every grid cell,
    // aggregating the defects of all of them into one list.
    spec.grid().map_err(|e| invalid(path, e))?;
    Ok(format!(
        "{} points x {} seeds",
        spec.point_count(),
        spec.seeds.len()
    ))
}

fn cmd_scenario(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let text = read_spec(path)?;
    let spec = ScenarioSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let seed = cli::try_flag(args, "--seed")?.unwrap_or(1u64);
    let cfg = spec.materialize(seed).map_err(|e| invalid(path, e))?;
    eprintln!(
        "running `{}` ({} nodes, {} flows)",
        cfg.name,
        cfg.nodes.count(),
        cfg.flows.len()
    );
    let report = if let Some(filter) = spec.trace {
        let trace_path = format!("TRACE_{}.txt", cli::sanitize(&cfg.name));
        let mut tw = TraceWriter::with_filter(filter);
        let report = {
            let tw = std::cell::RefCell::new(&mut tw);
            Simulator::new(cfg).run_with_observer(|ev, at| tw.borrow_mut().record(ev, at))
        };
        let mut file =
            std::fs::File::create(&trace_path).map_err(|e| format!("create {trace_path}: {e}"))?;
        tw.write_to(&mut file)
            .map_err(|e| format!("write {trace_path}: {e}"))?;
        eprintln!("wrote {trace_path} ({} lines)", tw.len());
        report
    } else {
        Simulator::new(cfg).run()
    };
    println!("{}", report.summary());
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("reports serialize")
    );
    Ok(())
}

fn cmd_bisect(args: &[String]) -> Result<(), String> {
    let (a_path, b_path) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) if !a.starts_with("--") && !b.starts_with("--") => (a, b),
        _ => return Err(USAGE.to_string()),
    };
    let seed = cli::try_flag(args, "--seed")?.unwrap_or(1u64);
    let load = |path: &str| -> Result<ScenarioConfig, String> {
        let text = read_spec(path)?;
        let spec = ScenarioSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        spec.materialize(seed).map_err(|e| invalid(path, e))
    };
    let cfg_a = load(a_path)?;
    let cfg_b = load(b_path)?;
    let interval = match cli::try_flag::<f64>(args, "--interval")? {
        Some(s) if s > 0.0 => pcmac_engine::Duration::from_secs_f64(s),
        Some(_) => return Err("--interval: need a positive number of simulated seconds".into()),
        None => pcmac_engine::Duration::from_nanos((cfg_a.duration.as_nanos() / 32).max(1)),
    };
    eprintln!(
        "bisecting `{}` vs `{}` (seed {seed}, state fingerprints every {:.3} s)",
        cfg_a.name,
        cfg_b.name,
        interval.as_secs_f64()
    );
    let report = bisect_configs(cfg_a, cfg_b, interval);
    print!("{}", report.render());
    if report.identical {
        Ok(())
    } else {
        Err("the runs diverge (details above)".into())
    }
}

fn cmd_dashboard(args: &[String]) -> Result<(), String> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or(".");
    let dir = std::path::Path::new(dir);
    let band = cli::try_flag::<f64>(args, "--band")?.unwrap_or(20.0);
    if !band.is_finite() || band <= 0.0 {
        return Err(format!("--band {band}: must be a positive percentage"));
    }
    let snap = dashboard::scan(dir).map_err(|e| format!("scan {}: {e}", dir.display()))?;
    let md = dashboard::render(&snap);
    match cli::flag_value(args, "--out").unwrap_or("DASHBOARD.md") {
        "-" => println!("{md}"),
        out => {
            let path = if std::path::Path::new(out).is_absolute() {
                std::path::PathBuf::from(out)
            } else {
                dir.join(out)
            };
            std::fs::write(&path, &md).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    if let Some(baseline) = cli::flag_value(args, "--baseline") {
        let baseline = std::path::Path::new(baseline);
        let base = dashboard::scan(baseline)
            .map_err(|e| format!("scan baseline {}: {e}", baseline.display()))?;
        let gate = dashboard::compare(&snap, &base, band);
        for line in &gate.unresolved {
            eprintln!("perf gate: unresolved (runs overlap the baseline's): {line}");
        }
        if !gate.regressions.is_empty() {
            return Err(format!(
                "perf gate: {} regression(s):\n  - {}",
                gate.regressions.len(),
                gate.regressions.join("\n  - ")
            ));
        }
        eprintln!(
            "perf gate: end-to-end metrics within their BENCHMARK.json bounds ({} unresolved), \
             {} events/sec mean(s) within the {band:.0}% band",
            gate.unresolved.len(),
            base.events_per_sec.len()
        );
    }
    Ok(())
}

fn cmd_example() -> Result<(), String> {
    let spec = CampaignSpec {
        name: "paper-load-sweep".into(),
        base: ScenarioSpec::paper(),
        duration_s: Some(60.0),
        seeds: vec![1, 2],
        // Each axis is a dotted path in the spec's JSON (here the load,
        // the protocol and the paper's 0.7 safety factor) and multiplies
        // the grid.
        sweep: Some(vec![
            Axis::new("traffic.offered_load_kbps", &[300.0, 650.0, 1000.0]),
            Axis::new("variant", &[pcmac::Variant::Basic, pcmac::Variant::Pcmac]),
            Axis::new("protocol.safety_factor", &[0.5, 0.7]),
        ]),
    };
    println!("{}", spec.to_json());
    Ok(())
}

/// A subcommand: what runs it, and the flags it takes.
type Command = (fn(&[String]) -> Result<(), String>, &'static [&'static str]);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command: Option<Command> = match args.first().map(String::as_str) {
        Some("run") => Some((
            cmd_run,
            &[
                "--threads",
                "--out",
                "--timeout",
                "--duration",
                "--fresh",
                "--metrics",
                "--checkpoint-interval",
            ],
        )),
        Some("figures") => Some((
            cmd_figures,
            &[
                "--full",
                "--secs",
                "--seeds",
                "--loads",
                "--threads",
                "--json",
                "--campaign-json",
            ],
        )),
        Some("expand") => Some((cmd_expand, &[])),
        Some("validate") => Some((cmd_validate, &[])),
        Some("scenario") => Some((cmd_scenario, &["--seed"])),
        Some("bisect") => Some((cmd_bisect, &["--seed", "--interval"])),
        Some("dashboard") => Some((cmd_dashboard, &["--baseline", "--band", "--out"])),
        Some("example") => Some((|_| cmd_example(), &[])),
        _ => None,
    };
    let result = match command {
        Some((run, flags)) => {
            let rest = &args[1..];
            cli::check_flags(rest, flags).and_then(|()| run(rest))
        }
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
