//! The repo benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//! ```
//!
//! `--trace 0` (default) prints the end-to-end metrics, measured with
//! tracing off; `--trace 1` prints the per-layer metrics. Every metric
//! is printed as `workload name value unit`, and the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero if any operation
//! failed. Without `--workload`, every workload is run in fresh child
//! processes — `REPS` untraced runs and one traced run each — and the
//! medians are printed with their min, max and n.
//!
//! All timings are host wall time. Simulated outputs are exact,
//! seed-determined counts: they are checked, not timed. The repo holds
//! no numeric reference curves from the paper, so the model is
//! shape-validated and numerically unvalidated; no error figure is given.

mod e2e;
mod layers;
mod metrics;
mod micro;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::e2e::{Judge, Session};
use crate::layers::ClassTable;
use crate::metrics::DISPATCH_CLASSES;
use crate::trace::Trace;
use crate::workloads::Workload;

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 25.0;
/// Untraced child runs per workload when every workload is run.
const REPS: usize = 5;

const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The `key = value` lines of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut keys: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    keys.sort();
    keys
}

/// Refuse to measure a build whose release profile differs from the one
/// the root workspace ships with.
fn profile_guard() -> Result<(), String> {
    let root = release_profile(include_str!("../../Cargo.toml"));
    let own = release_profile(include_str!("../Cargo.toml"));
    if root.is_empty() || root != own {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ));
    }
    if cfg!(debug_assertions) {
        return Err("built without --release".into());
    }
    Ok(())
}

fn metrics_json(rows: &[(String, f64, &'static str)]) -> Value {
    Value::Map(
        rows.iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.clone(), Value::Map(entry))
            })
            .collect(),
    )
}

/// Phase spans, per-class aggregates and the run's metrics, for
/// `out/trace.json`.
fn trace_json(
    args: &Args,
    workload: &str,
    trace: &Trace,
    classes: &ClassTable,
    rows: &[(String, f64, &'static str)],
    judge: &Judge,
    digest: Option<u64>,
) -> Value {
    let spans = trace
        .spans
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
            ])
        })
        .collect();
    let classes = DISPATCH_CLASSES
        .iter()
        .zip(classes)
        .map(|(name, cost)| {
            Value::Map(vec![
                ("class".into(), Value::Str(name.to_string())),
                ("events".into(), Value::U64(cost.events)),
                ("self_ns".into(), Value::U64(cost.ns)),
            ])
        })
        .collect();
    Value::Map(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        (
            "digest".into(),
            digest.map_or(Value::Null, |d| Value::Str(format!("{d:016x}"))),
        ),
        ("attempted".into(), Value::U64(judge.attempted)),
        ("failed".into(), Value::U64(judge.failed)),
        (
            "failures".into(),
            Value::Seq(judge.reasons.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics".into(), metrics_json(rows)),
        ("dispatch_classes".into(), Value::Seq(classes)),
        ("spans".into(), Value::Seq(spans)),
    ])
}

fn write_out(file: &str, doc: &Value) {
    let text = serde_json::to_string_pretty(doc).expect("values serialize") + "\n";
    let path = Path::new(OUT_DIR).join(file);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Measure one workload in this process.
fn run_one(args: &Args, w: &'static Workload) -> ExitCode {
    println!("# {}: {}", w.name, w.why);
    let mut session = Session::new(w, args.seed);
    let (values, classes, declared) = if args.traced {
        let (values, classes) = layers::measure(&mut session, args.seconds);
        (values, Some(classes), metrics::per_layer())
    } else {
        let values = e2e::measure(&mut session, args.seconds);
        (values, None, metrics::end_to_end())
    };
    let Session { trace, judge, .. } = session;
    let digest = judge.workload_digest();
    for reason in &judge.reasons {
        eprintln!("FAILED: {reason}");
    }
    let rows = match metrics::check(&declared, &values) {
        Ok(rows) => rows,
        Err(problems) => {
            eprintln!("no result: {problems}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &rows {
        println!("{} {name} {value} {unit}", w.name);
    }
    if let Some(d) = digest {
        println!("{} digest {d:016x} hash", w.name);
    }
    if let Some(classes) = &classes {
        let doc = trace_json(args, w.name, &trace, classes, &rows, &judge, digest);
        write_out("trace.json", &doc);
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(judge.failed == 0)),
        ("attempted".into(), Value::U64(judge.attempted)),
        ("failed".into(), Value::U64(judge.failed)),
        ("metrics".into(), metrics_json(&rows)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("values serialize")
    );
    if judge.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one child run printed: its `workload name value unit` rows, the
/// digest, and the counts of its result line.
struct ChildRun {
    rows: Vec<(String, f64, String)>,
    digest: Option<String>,
    attempted: u64,
    failed: u64,
}

fn child_run(w: &Workload, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    let Ok(Value::Map(result)) = serde_json::from_str::<Value>(last) else {
        return Err(format!(
            "{} printed no result (exit {:?})",
            w.name,
            out.status.code()
        ));
    };
    let count = |key: &str| match result.iter().find(|(k, _)| k == key) {
        Some((_, Value::U64(n))) => *n,
        _ => 0,
    };
    let mut run = ChildRun {
        rows: Vec::new(),
        digest: None,
        attempted: count("attempted"),
        failed: count("failed"),
    };
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[..] {
            [name, "digest", hex, "hash"] if name == w.name => run.digest = Some(hex.to_string()),
            [name, metric, value, unit] if name == w.name => {
                if let Ok(v) = value.parse() {
                    run.rows.push((metric.to_string(), v, unit.to_string()));
                }
            }
            _ => {}
        }
    }
    Ok(run)
}

/// Run every workload: `REPS` untraced child processes each, then one
/// traced child. Prints medians with min, max and n; writes
/// `out/result.json`.
fn run_all(args: &Args) -> ExitCode {
    let mut attempted = 0;
    let mut failed = 0;
    let mut docs = Vec::new();
    for w in &workloads::WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..REPS {
            match child_run(w, args, false) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    attempted += 1;
                    failed += 1;
                }
            }
        }
        let traced = child_run(w, args, true);
        if let Err(e) = &traced {
            eprintln!("FAILED: {e}");
            attempted += 1;
            failed += 1;
        }
        runs.extend(traced.ok());
        let digests: Vec<&String> = runs.iter().filter_map(|r| r.digest.as_ref()).collect();
        if digests.windows(2).any(|d| d[0] != d[1]) {
            eprintln!(
                "FAILED: {} digests disagree across processes: {digests:?}",
                w.name
            );
            failed += 1;
        }
        attempted += runs.iter().map(|r| r.attempted).sum::<u64>();
        failed += runs.iter().map(|r| r.failed).sum::<u64>();

        let mut entries = Vec::new();
        let mut names: Vec<(&String, &String)> = Vec::new();
        for (name, _, unit) in runs.iter().flat_map(|r| &r.rows) {
            if !names.iter().any(|(n, _)| *n == name) {
                names.push((name, unit));
            }
        }
        for (name, unit) in names {
            let samples: Vec<f64> = runs
                .iter()
                .flat_map(|r| &r.rows)
                .filter(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v)
                .collect();
            let (median, min, max) = (
                stats::median(&samples),
                stats::min(&samples),
                stats::max(&samples),
            );
            println!(
                "{} {name} {median} {unit} n={} min={min} max={max}",
                w.name,
                samples.len()
            );
            entries.push((
                name.clone(),
                Value::Map(vec![
                    ("median".into(), Value::F64(median)),
                    ("min".into(), Value::F64(min)),
                    ("max".into(), Value::F64(max)),
                    ("n".into(), Value::U64(samples.len() as u64)),
                    ("unit".into(), Value::Str(unit.clone())),
                ]),
            ));
        }
        if let Some(d) = digests.first() {
            println!("{} digest {d} hash", w.name);
            entries.push(("digest".into(), Value::Str(d.to_string())));
        }
        docs.push((w.name.to_string(), Value::Map(entries)));
    }
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!("all attempted {attempted} count");
    println!("all failed {failed} count");
    println!("all failed_share {failed_share} ratio");
    write_out(
        "result.json",
        &Value::Map(vec![
            ("seed".into(), Value::U64(args.seed)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("attempted".into(), Value::U64(attempted)),
            ("failed".into(), Value::U64(failed)),
            ("workloads".into(), Value::Map(docs)),
        ]),
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| profile_guard().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pcmac-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_only_its_own_table() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# note\nlto  =  \"thin\"\ndebug = true\n\n[profile.bench]\ndebug = false\n";
        assert_eq!(
            release_profile(manifest),
            ["debug = true", "lto = \"thin\""]
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn the_committed_profiles_agree() {
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert_eq!(root, release_profile(include_str!("../Cargo.toml")));
        assert!(!root.is_empty());
    }
}
