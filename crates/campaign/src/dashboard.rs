//! Cross-commit performance dashboard over run artifacts.
//!
//! The repo benchmark (`benchmark/`, declared by `BENCHMARK.json`) is the
//! one place a performance number is read: run in all-workloads mode it
//! writes `benchmark/out/result.json` — per workload and metric a median
//! with min, max and n. The campaign driver leaves `CAMPAIGN_*.json` and
//! `METRICS_*.json` at the repo root. This module renders one markdown
//! page over all of them ([`render`]) and — given a second directory
//! holding the previous commit's artifacts — gates on them
//! ([`compare`]): each end-to-end benchmark metric against the bound
//! `BENCHMARK.json` fixes for it, and events per wall-second of the
//! `METRICS_*.json` runs within a tolerance band.
//!
//! A timing read on a shared runner is noisy, so a timing metric fails
//! the gate only when the medians differ by more than the bound *and*
//! the two `[min, max]` ranges do not overlap; a median past the bound
//! inside overlapping ranges is reported as unresolved, not as a
//! regression. Memory does not depend on the host's speed and fails on
//! the bound alone. The simulation-quality metrics in `CAMPAIGN_*.json`
//! are deterministic in the seed and guarded by tests, so the dashboard
//! renders but never gates on them.

use std::fmt::Write as _;
use std::path::Path;

use pcmac::{RunReport, SimMetrics};
use serde::{Deserialize, Serialize, Value};

/// The `METRICS_<name>.json` campaign artifact: one entry per run this
/// invocation executed, carrying the run's [`SimMetrics`] plus the
/// wall-clock throughput numbers the perf gate compares.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsArtifact {
    /// Campaign label the runs came from.
    pub campaign: String,
    /// Per-run metrics, point-major / seed-minor in expansion order.
    pub runs: Vec<MetricsRun>,
}

/// One run's slice of a [`MetricsArtifact`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsRun {
    /// Materialized scenario name.
    pub name: String,
    /// Protocol under test.
    pub protocol: String,
    /// Master seed.
    pub seed: u64,
    /// Events processed.
    pub events: u64,
    /// Wall-clock seconds (nondeterministic; excluded from bit-identity
    /// obligations, which cover only the `metrics` section).
    pub wall_s: f64,
    /// Simulation throughput: `events / wall_s`.
    pub events_per_sec: f64,
    /// The run's deterministic observability metrics.
    pub metrics: SimMetrics,
}

impl MetricsArtifact {
    /// Collect the metrics-bearing runs of a campaign outcome. Returns
    /// `None` when no run carried metrics (the layer was off).
    pub fn from_runs(campaign: &str, runs: &[RunReport]) -> Option<Self> {
        let runs: Vec<MetricsRun> = runs
            .iter()
            .filter_map(|r| {
                let metrics = r.metrics.clone()?;
                Some(MetricsRun {
                    name: r.name.clone(),
                    protocol: r.protocol.clone(),
                    seed: r.seed,
                    events: r.events,
                    wall_s: r.wall_s,
                    events_per_sec: if r.wall_s > 0.0 {
                        r.events as f64 / r.wall_s
                    } else {
                        0.0
                    },
                    metrics,
                })
            })
            .collect();
        (!runs.is_empty()).then(|| MetricsArtifact {
            campaign: campaign.to_string(),
            runs,
        })
    }

    /// Serialize to pretty JSON (the `METRICS_*.json` artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifacts always serialize")
    }

    /// Parse a `METRICS_*.json` artifact back.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name (`ns_per_event`, `setup_s`, `peak_rss_mib`).
    pub metric: String,
    /// `true` when a lower value is the better one.
    pub lower_is_better: bool,
    /// Largest tolerated relative worsening of the median.
    pub bound: f64,
}

/// One `(workload, metric)` cell of the harness's `result.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStat {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit as the harness printed it (`ns`, `s`, `MiB`, …).
    pub unit: String,
    /// Median over the repetitions.
    pub median: f64,
    /// Fastest / smallest repetition.
    pub min: f64,
    /// Slowest / largest repetition.
    pub max: f64,
    /// Repetitions behind the median.
    pub n: u64,
}

impl BenchStat {
    /// Wall-clock metrics follow the host; everything else repeats.
    fn is_timing(&self) -> bool {
        matches!(self.unit.as_str(), "ns" | "s")
    }
}

/// One artifact directory scanned into the numbers the dashboard
/// renders and the gate compares.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// The end-to-end metrics and bounds of `BENCHMARK.json` (empty when
    /// the directory has none — a baseline directory never does).
    pub bounds: Vec<Bound>,
    /// Every cell of the repo benchmark's `result.json` (empty when the
    /// harness has not been run in all-workloads mode).
    pub bench: Vec<BenchStat>,
    /// `(file stem, mean events/sec across runs)` per `METRICS_*.json`.
    pub events_per_sec: Vec<(String, f64)>,
    /// The `result.json` header line: seed, seconds, operations, failed.
    bench_header: String,
    /// Raw parsed artifacts for rendering: `(file name, value)`.
    campaigns: Vec<(String, Value)>,
    metrics: Vec<(String, MetricsArtifact)>,
}

/// Scan `dir` for the artifact families: `BENCHMARK.json`, the repo
/// benchmark's result (`benchmark/out/result.json` where the harness
/// wrote it, or a bare `result.json` in a stashed baseline directory),
/// and the campaign driver's `CAMPAIGN_*.json` / `METRICS_*.json`.
/// Unparseable files are skipped with a stderr note rather than failing
/// the whole dashboard — a half-written artifact should not hide the
/// rest.
pub fn scan(dir: &Path) -> std::io::Result<Snapshot> {
    let mut snap = Snapshot::default();
    let parsed = |path: &Path| -> Option<Value> {
        let text = std::fs::read_to_string(path).ok()?;
        serde_json::from_str::<Value>(&text)
            .map_err(|e| eprintln!("skipping {}: {e}", path.display()))
            .ok()
    };
    if let Some(v) = parsed(&dir.join("BENCHMARK.json")) {
        snap.bounds = parse_bounds(&v);
    }
    let result = ["benchmark/out/result.json", "result.json"]
        .iter()
        .find_map(|rel| parsed(&dir.join(rel)));
    if let Some(v) = result {
        snap.bench = parse_result(&v);
        let field = |key: &str| v.get(key).map_or_else(|| "?".into(), scalar_str);
        snap.bench_header = format!(
            "seed {}, {} s per run, {} operations, {} failed",
            field("seed"),
            field("seconds"),
            field("attempted"),
            field("failed")
        );
    }
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        if name.starts_with("CAMPAIGN_") {
            if let Some(v) = parsed(&path) {
                snap.campaigns.push((name, v));
            }
        } else if name.starts_with("METRICS_") {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            match MetricsArtifact::from_json(&text) {
                Ok(a) => {
                    let n = a.runs.len() as f64;
                    let mean = a.runs.iter().map(|r| r.events_per_sec).sum::<f64>() / n.max(1.0);
                    snap.events_per_sec.push((name.clone(), mean));
                    snap.metrics.push((name, a));
                }
                Err(e) => eprintln!("skipping {name}: {e}"),
            }
        }
    }
    Ok(snap)
}

/// The `end_to_end` entries of a parsed `BENCHMARK.json`.
fn parse_bounds(v: &Value) -> Vec<Bound> {
    let entries = v.get("end_to_end").and_then(Value::as_seq).unwrap_or(&[]);
    entries
        .iter()
        .filter_map(|e| {
            Some(Bound {
                metric: e.get("name")?.as_str()?.to_string(),
                lower_is_better: e.get("better")?.as_str()? == "lower",
                bound: e.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// Every `(workload, metric)` cell of a parsed `result.json`; cells
/// missing a field are skipped.
fn parse_result(v: &Value) -> Vec<BenchStat> {
    let mut out = Vec::new();
    let workloads = v.get("workloads").and_then(Value::as_map).unwrap_or(&[]);
    for (workload, metrics) in workloads {
        for (metric, cell) in metrics.as_map().unwrap_or(&[]) {
            let stat = || {
                Some(BenchStat {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    unit: cell.get("unit")?.as_str()?.to_string(),
                    median: cell.get("median")?.as_f64()?,
                    min: cell.get("min")?.as_f64()?,
                    max: cell.get("max")?.as_f64()?,
                    n: cell.get("n")?.as_u64()?,
                })
            };
            out.extend(stat());
        }
    }
    out
}

fn scalar_str(v: &Value) -> String {
    if let Some(s) = v.as_str() {
        return s.to_string();
    }
    if let Some(u) = v.as_u64() {
        return u.to_string();
    }
    if let Some(f) = v.as_f64() {
        return format_num(f);
    }
    if let Some(b) = v.as_bool() {
        return b.to_string();
    }
    String::from("-")
}

fn format_num(f: f64) -> String {
    if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.0}")
    } else if f.abs() >= 1000.0 {
        format!("{f:.1}")
    } else if f.abs() < 0.01 {
        // Sub-millisecond set-up times would all read "0.000".
        format!("{f:.2e}")
    } else {
        format!("{f:.3}")
    }
}

/// Render the whole snapshot as one markdown page.
pub fn render(snap: &Snapshot) -> String {
    let mut md = String::new();
    md.push_str("# Performance dashboard\n\n");
    md.push_str(
        "Rendered by `pcmac-campaign dashboard` from the repo benchmark's \
         `benchmark/out/result.json` and the committed `CAMPAIGN_*.json` \
         and `METRICS_*.json` artifacts. Regenerate after refreshing any \
         of them.\n",
    );

    md.push_str("\n## Repo benchmark\n");
    let rows: Vec<(&BenchStat, &Bound)> = snap
        .bench
        .iter()
        .filter_map(|s| Some((s, snap.bounds.iter().find(|b| b.metric == s.metric)?)))
        .collect();
    if rows.is_empty() {
        md.push_str(
            "\n_No repo-benchmark result: run the harness in all-workloads mode \
             (`benchmark/README.md`) to write `benchmark/out/result.json`._\n",
        );
    } else {
        let _ = writeln!(
            md,
            "\nEnd-to-end metrics of `benchmark/out/result.json` ({}); the bound is the \
             relative worsening of the median `BENCHMARK.json` tolerates.\n",
            snap.bench_header
        );
        md.push_str("| workload | metric | median | min | max | n | bound |\n");
        md.push_str("|---|---|---|---|---|---|---|\n");
        for (s, b) in rows {
            let _ = writeln!(
                md,
                "| {} | {} ({}) | {} | {} | {} | {} | {:.0}% |",
                s.workload,
                s.metric,
                s.unit,
                format_num(s.median),
                format_num(s.min),
                format_num(s.max),
                s.n,
                b.bound * 100.0
            );
        }
    }

    md.push_str("\n## Campaigns\n");
    if snap.campaigns.is_empty() {
        md.push_str("\n_No `CAMPAIGN_*.json` artifacts found._\n");
    }
    for (file, v) in &snap.campaigns {
        let _ = writeln!(md, "\n### {file}");
        let runs = v.get("runs").and_then(Value::as_u64).unwrap_or(0);
        let wall = v.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0);
        let complete = v.get("complete").and_then(Value::as_bool);
        let _ = writeln!(
            md,
            "\n{runs} runs, {wall:.1} s CPU total{}",
            match complete {
                Some(false) => " — **incomplete artifact**",
                _ => "",
            }
        );
        let Some(points) = v.get("points").and_then(Value::as_seq) else {
            continue;
        };
        md.push_str("\n| protocol | load kbps | nodes | thpt kbps | delay ms | pdr % |\n");
        md.push_str("|---|---|---|---|---|---|\n");
        for p in points {
            let key = &p["key"];
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {} |",
                key.get("variant").and_then(Value::as_str).unwrap_or("-"),
                scalar_str(&key["load_kbps"]),
                scalar_str(&key["node_count"]),
                scalar_str(&p["throughput_kbps"]["mean"]),
                scalar_str(&p["mean_delay_ms"]["mean"]),
                p["pdr"]["mean"]
                    .as_f64()
                    .map(|x| format!("{:.1}", x * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }

    md.push_str("\n## Metrics\n");
    if snap.metrics.is_empty() {
        md.push_str("\n_No `METRICS_*.json` artifacts found._\n");
    }
    for (file, a) in &snap.metrics {
        let _ = writeln!(md, "\n### {file}");
        let _ = writeln!(md, "\nCampaign `{}`, {} runs.", a.campaign, a.runs.len());
        md.push_str(
            "\n| run | seed | events | events/s | sent | delivered | dropped | in flight |\n",
        );
        md.push_str("|---|---|---|---|---|---|---|---|\n");
        for r in &a.runs {
            let d = &r.metrics.drops;
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                r.name,
                r.seed,
                r.events,
                format_num(r.events_per_sec),
                d.sent,
                d.delivered_unique,
                d.total_dropped(),
                d.in_flight_end,
            );
        }
    }
    md
}

/// What the gate found against a baseline.
#[derive(Debug, Default, PartialEq)]
pub struct GateReport {
    /// One message per regression (empty = the gate passes).
    pub regressions: Vec<String>,
    /// Timing medians past their bound whose `[min, max]` ranges still
    /// overlap the baseline's: too noisy to call either way.
    pub unresolved: Vec<String>,
}

/// How one benchmark cell compares with its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    Unresolved,
}

fn judge(bound: &Bound, cur: &BenchStat, base: &BenchStat) -> Verdict {
    let worsening = if bound.lower_is_better {
        cur.median / base.median - 1.0
    } else {
        1.0 - cur.median / base.median
    };
    // NaN (a zero or missing baseline) compares false: nothing to gate.
    if worsening.is_nan() || worsening <= bound.bound {
        return Verdict::Pass;
    }
    let overlapping = cur.min <= base.max && base.min <= cur.max;
    if cur.is_timing() && overlapping {
        Verdict::Unresolved
    } else {
        Verdict::Fail
    }
}

/// Compare `current` against `baseline`: every end-to-end repo-benchmark
/// metric against its `BENCHMARK.json` bound (see the module docs for
/// the timing rule), and every METRICS events/sec mean within
/// `band_pct` percent of the baseline value. Cells present on only one
/// side are ignored — adding a workload or a campaign must not fail CI.
pub fn compare(current: &Snapshot, baseline: &Snapshot, band_pct: f64) -> GateReport {
    let mut report = GateReport::default();
    for base in &baseline.bench {
        let Some(bound) = current.bounds.iter().find(|b| b.metric == base.metric) else {
            continue;
        };
        let Some(cur) = current
            .bench
            .iter()
            .find(|c| c.workload == base.workload && c.metric == base.metric)
        else {
            continue;
        };
        let line = || {
            format!(
                "{} {}: median {} {} [{} .. {}] against the baseline's {} [{} .. {}], bound {:.0}%",
                cur.workload,
                cur.metric,
                format_num(cur.median),
                cur.unit,
                format_num(cur.min),
                format_num(cur.max),
                format_num(base.median),
                format_num(base.min),
                format_num(base.max),
                bound.bound * 100.0
            )
        };
        match judge(bound, cur, base) {
            Verdict::Pass => {}
            Verdict::Fail => report.regressions.push(line()),
            Verdict::Unresolved => report.unresolved.push(line()),
        }
    }
    let floor = 1.0 - band_pct / 100.0;
    for (file, base) in &baseline.events_per_sec {
        let Some((_, cur)) = current.events_per_sec.iter().find(|(f, _)| f == file) else {
            continue;
        };
        if *base > 0.0 && *cur < base * floor {
            report.regressions.push(format!(
                "{file}: mean events/sec {} fell more than {band_pct:.0}% below the \
                 baseline {}",
                format_num(*cur),
                format_num(*base),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end":[
        {"name":"ns_per_event","unit":"ns","better":"lower","bound":0.25},
        {"name":"peak_rss_mib","unit":"MiB","better":"lower","bound":0.15}],
        "per_layer":[{"name":"core.sim.run_s","unit":"s","better":"lower"}]}"#;

    fn stat(metric: &str, unit: &str, median: f64, min: f64, max: f64) -> BenchStat {
        BenchStat {
            workload: "static_field".into(),
            metric: metric.into(),
            unit: unit.into(),
            median,
            min,
            max,
            n: 5,
        }
    }

    fn snap_with(bench: Vec<BenchStat>, eps: f64) -> Snapshot {
        Snapshot {
            bounds: parse_bounds(&serde_json::from_str(BENCHMARK).unwrap()),
            bench,
            events_per_sec: vec![("METRICS_churn.json".into(), eps)],
            ..Snapshot::default()
        }
    }

    #[test]
    fn benchmark_declaration_and_result_parse() {
        let bounds = parse_bounds(&serde_json::from_str(BENCHMARK).unwrap());
        assert_eq!(bounds.len(), 2, "per-layer metrics carry no bound");
        assert_eq!(bounds[1].metric, "peak_rss_mib");
        assert!(bounds[1].lower_is_better);
        assert_eq!(bounds[1].bound, 0.15);

        let result: Value = serde_json::from_str(
            r#"{"seed":13,"seconds":2.0,"attempted":204,"failed":0,"workloads":{
                "static_field":{
                  "ns_per_event":{"median":170.5,"min":160.0,"max":190.25,"n":5,"unit":"ns"},
                  "core.sim.run_s":{"median":2.0,"min":2.0,"max":2.0,"n":1,"unit":"s"},
                  "half_written":{"median":1.0}},
                "paper_mobile":{
                  "peak_rss_mib":{"median":15.5,"min":15.0,"max":16.0,"n":5,"unit":"MiB"}}}}"#,
        )
        .unwrap();
        let cells = parse_result(&result);
        assert_eq!(cells.len(), 3, "the cell without min/max/n/unit is skipped");
        assert_eq!(cells[0], stat("ns_per_event", "ns", 170.5, 160.0, 190.25));
        assert_eq!(cells[2].workload, "paper_mobile");
        assert!(cells[0].is_timing() && !cells[2].is_timing());
    }

    #[test]
    fn scan_reads_the_harness_result_and_tolerates_its_absence() {
        let dir = std::env::temp_dir().join(format!("pcmac-dashboard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("benchmark/out")).unwrap();
        std::fs::write(dir.join("BENCHMARK.json"), BENCHMARK).unwrap();

        let empty = scan(&dir).expect("scans");
        assert!(empty.bench.is_empty());
        assert!(render(&empty).contains("_No repo-benchmark result"));

        let result = r#"{"seed":1,"seconds":5.0,"attempted":8,"failed":0,"workloads":{
            "static_field":{"peak_rss_mib":{"median":68.0,"min":67.5,"max":68.5,"n":5,"unit":"MiB"},
            "core.sim.run_s":{"median":2.0,"min":2.0,"max":2.0,"n":1,"unit":"s"}}}}"#;
        std::fs::write(dir.join("benchmark/out/result.json"), result).unwrap();
        let snap = scan(&dir).expect("scans");
        let md = render(&snap);
        assert!(
            md.contains("| static_field | peak_rss_mib (MiB) | 68 | 67.500 | 68.500 | 5 | 15% |"),
            "{md}"
        );
        assert!(!md.contains("core.sim.run_s"), "end-to-end metrics only");

        // A stashed baseline is the bare file, without BENCHMARK.json.
        let base = dir.join("baseline");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::write(base.join("result.json"), result).unwrap();
        let baseline = scan(&base).expect("scans");
        assert_eq!(baseline.bench, snap.bench);
        assert_eq!(compare(&snap, &baseline, 20.0), GateReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_fails_on_the_bound_alone() {
        let base = snap_with(vec![stat("peak_rss_mib", "MiB", 68.0, 60.0, 90.0)], 1.0);
        let ok = snap_with(vec![stat("peak_rss_mib", "MiB", 78.0, 60.0, 90.0)], 1.0);
        assert_eq!(compare(&ok, &base, 20.0), GateReport::default());
        let shrink = snap_with(vec![stat("peak_rss_mib", "MiB", 30.0, 29.0, 31.0)], 1.0);
        assert_eq!(compare(&shrink, &base, 20.0), GateReport::default());
        // Overlapping ranges do not excuse a deterministic metric.
        let bad = snap_with(vec![stat("peak_rss_mib", "MiB", 79.0, 60.0, 90.0)], 1.0);
        let gate = compare(&bad, &base, 20.0);
        assert_eq!(gate.regressions.len(), 1, "{gate:?}");
        assert!(gate.regressions[0].contains("static_field peak_rss_mib"));
        assert!(gate.unresolved.is_empty());
    }

    #[test]
    fn timing_passes_fails_or_stays_unresolved() {
        let base = snap_with(vec![stat("ns_per_event", "ns", 100.0, 95.0, 120.0)], 1.0);
        let within = snap_with(vec![stat("ns_per_event", "ns", 124.0, 121.0, 140.0)], 1.0);
        assert_eq!(compare(&within, &base, 20.0), GateReport::default());
        // Past the bound, every run slower than every baseline run.
        let slower = snap_with(vec![stat("ns_per_event", "ns", 130.0, 121.0, 140.0)], 1.0);
        let gate = compare(&slower, &base, 20.0);
        assert_eq!((gate.regressions.len(), gate.unresolved.len()), (1, 0));
        // Past the bound, but its fastest run beats the baseline's slowest.
        let noisy = snap_with(vec![stat("ns_per_event", "ns", 130.0, 110.0, 140.0)], 1.0);
        let gate = compare(&noisy, &base, 20.0);
        assert_eq!((gate.regressions.len(), gate.unresolved.len()), (0, 1));
        assert!(gate.unresolved[0].contains("ns_per_event"));
    }

    #[test]
    fn gate_passes_within_band() {
        let base = snap_with(Vec::new(), 100_000.0);
        let cur = snap_with(Vec::new(), 95_000.0);
        assert_eq!(compare(&cur, &base, 10.0), GateReport::default());
    }

    #[test]
    fn gate_fails_beyond_band() {
        let base = snap_with(Vec::new(), 100_000.0);
        let cur = snap_with(Vec::new(), 80_000.0);
        let gate = compare(&cur, &base, 10.0);
        assert_eq!(gate.regressions.len(), 1, "{gate:?}");
    }

    #[test]
    fn missing_rows_do_not_gate() {
        let base = snap_with(vec![stat("ns_per_event", "ns", 1.0, 1.0, 1.0)], 100_000.0);
        let cur = Snapshot::default();
        assert_eq!(compare(&cur, &base, 10.0), GateReport::default());
        // A metric BENCHMARK.json does not bound is not gated either.
        let unbounded = vec![stat("core.sim.run_s", "s", 9.0, 9.0, 9.0)];
        let base = snap_with(vec![stat("core.sim.run_s", "s", 1.0, 1.0, 1.0)], 1.0);
        assert_eq!(
            compare(&snap_with(unbounded, 1.0), &base, 10.0),
            GateReport::default()
        );
    }
}
