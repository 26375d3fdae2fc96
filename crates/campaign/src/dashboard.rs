//! Cross-commit performance dashboard over committed artifacts.
//!
//! Every run of the bench and campaign drivers leaves machine-readable
//! JSON at the repo root (`BENCH_*.json`, `CAMPAIGN_*.json`,
//! `METRICS_*.json`). This module renders one markdown page over all of
//! them ([`render`]) and — given a second directory holding the
//! previous commit's artifacts — compares the perf-bearing numbers
//! within a tolerance band ([`compare`]), turning the CI perf smoke
//! into a regression *gate* instead of a trend log nobody reads.
//!
//! The comparison deliberately sticks to ratio-style metrics (bench
//! speedups, events per wall-second) because those are what the repo's
//! optimisation claims are phrased in; the simulation-quality metrics
//! in `CAMPAIGN_*.json` are deterministic in the seed and guarded by
//! tests, so the dashboard renders but never gates on them.

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

/// One artifact directory scanned into the numbers the dashboard
/// renders and the gate compares.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// `(file stem, row label, speedup)` per `BENCH_*.json` result row.
    pub bench_speedups: Vec<(String, String, f64)>,
    /// `(file stem, row label, peak RSS bytes)` per bench result row
    /// carrying a `peak_rss_bytes` field (the parallel bench's per-row
    /// child-process `VmHWM` probes).
    pub bench_memory: Vec<(String, String, u64)>,
    /// `(file stem, mean events/sec across runs)` per `METRICS_*.json`.
    pub events_per_sec: Vec<(String, f64)>,
    /// Raw parsed artifacts for rendering: `(file name, value)`.
    benches: Vec<(String, Value)>,
    campaigns: Vec<(String, Value)>,
    metrics: Vec<(String, MetricsArtifact)>,
}

/// Scan `dir` for the three artifact families. Unparseable files are
/// skipped with a stderr note rather than failing the whole dashboard —
/// a half-written artifact should not hide the rest.
pub fn scan(dir: &Path) -> std::io::Result<Snapshot> {
    let mut snap = Snapshot::default();
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        if name.starts_with("BENCH_") {
            match serde_json::from_str::<Value>(&text) {
                Ok(v) => {
                    collect_bench_speedups(&name, &v, &mut snap.bench_speedups);
                    collect_bench_memory(&name, &v, &mut snap.bench_memory);
                    snap.benches.push((name, v));
                }
                Err(e) => eprintln!("skipping {name}: {e}"),
            }
        } else if name.starts_with("CAMPAIGN_") {
            match serde_json::from_str::<Value>(&text) {
                Ok(v) => snap.campaigns.push((name, v)),
                Err(e) => eprintln!("skipping {name}: {e}"),
            }
        } else if name.starts_with("METRICS_") {
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

/// Pull every `speedup*` field out of a bench artifact's result rows,
/// labelling each row by its non-timing coordinates (`n`, `mobility`).
fn collect_bench_speedups(file: &str, v: &Value, out: &mut Vec<(String, String, f64)>) {
    let Some(rows) = v.get("results").and_then(Value::as_seq) else {
        return;
    };
    for row in rows {
        let Some(fields) = row.as_map() else { continue };
        let mut label = String::new();
        for key in ["n", "mobility", "shards"] {
            if let Some(val) = row.get(key) {
                if !label.is_empty() {
                    label.push(' ');
                }
                let _ = write!(label, "{key}={}", scalar_str(val));
            }
        }
        for (k, val) in fields {
            if k.starts_with("speedup") {
                if let Some(s) = val.as_f64() {
                    out.push((file.to_string(), format!("{label} {k}"), s));
                }
            }
        }
    }
}

/// Pull every `peak_rss_bytes` field out of a bench artifact's result
/// rows, labelled like [`collect_bench_speedups`] so current and
/// baseline rows pair up in the gate.
fn collect_bench_memory(file: &str, v: &Value, out: &mut Vec<(String, String, u64)>) {
    let Some(rows) = v.get("results").and_then(Value::as_seq) else {
        return;
    };
    for row in rows {
        let Some(bytes) = row.get("peak_rss_bytes").and_then(Value::as_u64) else {
            continue;
        };
        let mut label = String::new();
        for key in ["n", "mobility", "shards"] {
            if let Some(val) = row.get(key) {
                if !label.is_empty() {
                    label.push(' ');
                }
                let _ = write!(label, "{key}={}", scalar_str(val));
            }
        }
        out.push((file.to_string(), label, bytes));
    }
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
    } else {
        format!("{f:.3}")
    }
}

/// Render the whole snapshot as one markdown page.
pub fn render(snap: &Snapshot) -> String {
    let mut md = String::new();
    md.push_str("# Performance dashboard\n\n");
    md.push_str(
        "Rendered by `pcmac-campaign dashboard` from the committed \
         `BENCH_*.json`, `CAMPAIGN_*.json`, and `METRICS_*.json` \
         artifacts. Regenerate after refreshing any of them.\n",
    );

    md.push_str("\n## Benches\n");
    if snap.benches.is_empty() {
        md.push_str("\n_No `BENCH_*.json` artifacts found._\n");
    }
    for (file, v) in &snap.benches {
        let _ = writeln!(md, "\n### {file}");
        if let Some(desc) = v.get("description").and_then(Value::as_str) {
            let _ = writeln!(md, "\n{desc}");
        }
        if let Some(rows) = v.get("results").and_then(Value::as_seq) {
            render_generic_table(&mut md, rows);
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

/// Render a sequence of JSON maps as markdown tables: rows sharing a
/// key set share a table whose columns are their keys (insertion order),
/// tables in first-seen order. A table whose rows carry a `bench_section`
/// name is labelled with it instead of repeating it in every row — that
/// is how an artifact's odd-shaped rows (e.g. `BENCH_parallel.json`'s
/// `checkpoint_overhead`) appear under their own columns rather than as
/// a line of dashes under the first row's.
fn render_generic_table(md: &mut String, rows: &[Value]) {
    let mut shapes: Vec<(Vec<&str>, Vec<&Value>)> = Vec::new();
    for row in rows {
        let Some(map) = row.as_map() else { continue };
        let mut keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        match shapes.iter_mut().find(|(k, _)| *k == keys) {
            Some((_, same)) => same.push(row),
            None => shapes.push((keys, vec![row])),
        }
    }
    for (_, rows) in &shapes {
        let first = rows[0].as_map().expect("only maps were grouped");
        let section = rows[0].get("bench_section").map(scalar_str);
        let cols: Vec<&str> = first
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|&c| !(c == "bench_section" && section.is_some()))
            .collect();
        let headers: Vec<&str> = cols
            .iter()
            .map(|&c| {
                if c == "peak_rss_bytes" {
                    "peak RSS (MiB)"
                } else {
                    c
                }
            })
            .collect();
        md.push('\n');
        if let Some(section) = &section {
            let _ = writeln!(md, "`{section}`\n");
        }
        let _ = writeln!(md, "| {} |", headers.join(" | "));
        let _ = writeln!(md, "|{}", "---|".repeat(cols.len()));
        for row in rows {
            let cells: Vec<String> = cols
                .iter()
                .map(|&c| match row.get(c) {
                    Some(v) if c == "peak_rss_bytes" => v
                        .as_u64()
                        .map(|b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)))
                        .unwrap_or_else(|| scalar_str(v)),
                    Some(v) => scalar_str(v),
                    None => "-".into(),
                })
                .collect();
            let _ = writeln!(md, "| {} |", cells.join(" | "));
        }
    }
}

/// Ceiling for per-row peak-RSS growth against the baseline artifact:
/// a bench row using over 20% more memory than the committed baseline
/// fails the gate regardless of the (speed-oriented) `band_pct` — the
/// owner-only shard memory model is a headline claim, and a silent
/// creep back toward full replicas would not show up in speedups.
const MEMORY_BAND_PCT: f64 = 20.0;

/// Compare the perf-bearing numbers of `current` against `baseline`:
/// every bench speedup and every METRICS events/sec mean must stay
/// within `band_pct` percent of the baseline value, and every bench
/// row's peak RSS must stay under [`MEMORY_BAND_PCT`] percent *above*
/// its baseline. Returns one message per regression (empty = gate
/// passes). Rows present on only one side are ignored — adding a bench
/// size or a campaign must not fail CI.
pub fn compare(current: &Snapshot, baseline: &Snapshot, band_pct: f64) -> Vec<String> {
    let floor = 1.0 - band_pct / 100.0;
    let mut regressions = Vec::new();
    for (file, label, base) in &baseline.bench_memory {
        let Some((_, _, cur)) = current
            .bench_memory
            .iter()
            .find(|(f, l, _)| f == file && l == label)
        else {
            continue;
        };
        let ceiling = (*base as f64 * (1.0 + MEMORY_BAND_PCT / 100.0)) as u64;
        if *base > 0 && *cur > ceiling {
            regressions.push(format!(
                "{file} {label}: peak RSS {} MiB grew more than {MEMORY_BAND_PCT:.0}% above                  the baseline {} MiB",
                *cur / (1024 * 1024),
                *base / (1024 * 1024),
            ));
        }
    }
    for (file, label, base) in &baseline.bench_speedups {
        let Some((_, _, cur)) = current
            .bench_speedups
            .iter()
            .find(|(f, l, _)| f == file && l == label)
        else {
            continue;
        };
        if *base > 0.0 && *cur < base * floor {
            regressions.push(format!(
                "{file} {label}: speedup {cur:.3} fell more than {band_pct:.0}% below \
                 the baseline {base:.3}"
            ));
        }
    }
    for (file, base) in &baseline.events_per_sec {
        let Some((_, cur)) = current.events_per_sec.iter().find(|(f, _)| f == file) else {
            continue;
        };
        if *base > 0.0 && *cur < base * floor {
            regressions.push(format!(
                "{file}: mean events/sec {} fell more than {band_pct:.0}% below the \
                 baseline {}",
                format_num(*cur),
                format_num(*base),
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(speedup: f64, eps: f64) -> Snapshot {
        Snapshot {
            bench_speedups: vec![(
                "BENCH_mobility.json".into(),
                "n=200 mobility=waypoint speedup".into(),
                speedup,
            )],
            events_per_sec: vec![("METRICS_churn.json".into(), eps)],
            ..Snapshot::default()
        }
    }

    fn snap_with_memory(bytes: u64) -> Snapshot {
        Snapshot {
            bench_memory: vec![(
                "BENCH_parallel.json".into(),
                "n=64000 shards=8".into(),
                bytes,
            )],
            ..Snapshot::default()
        }
    }

    #[test]
    fn memory_gate_fails_only_past_twenty_percent_growth() {
        let base = snap_with_memory(100 * 1024 * 1024);
        let ok = snap_with_memory(115 * 1024 * 1024);
        assert!(compare(&ok, &base, 10.0).is_empty());
        let shrink = snap_with_memory(40 * 1024 * 1024);
        assert!(
            compare(&shrink, &base, 10.0).is_empty(),
            "shrinking never gates"
        );
        let bad = snap_with_memory(130 * 1024 * 1024);
        let regressions = compare(&bad, &base, 10.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("peak RSS"));
    }

    #[test]
    fn bench_memory_rows_are_collected_and_labelled() {
        let v: Value = serde_json::from_str(
            r#"{"bench":"parallel","results":[
                {"n":4000,"shards":0,"peak_rss_bytes":1048576},
                {"n":4000,"shards":8,"peak_rss_bytes":2097152},
                {"n":16000,"shards":4}]}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        collect_bench_memory("BENCH_parallel.json", &v, &mut out);
        assert_eq!(out.len(), 2, "rows without the field are skipped");
        assert_eq!(out[0].1, "n=4000 shards=0");
        assert_eq!(out[1].2, 2_097_152);
    }

    #[test]
    fn odd_shaped_bench_rows_get_their_own_labelled_table() {
        let v: Value = serde_json::from_str(
            r#"[{"n":4000,"shards":0,"wall_ns":5.0},
                {"n":4000,"shards":2,"wall_ns":7.0},
                {"bench_section":"checkpoint_overhead","n":64000,"checkpoints":3},
                {"n":16000,"shards":0,"wall_ns":9.0}]"#,
        )
        .unwrap();
        let mut md = String::new();
        render_generic_table(&mut md, v.as_seq().unwrap());
        assert_eq!(
            md,
            "\n| n | shards | wall_ns |\n|---|---|---|\n\
             | 4000 | 0 | 5 |\n| 4000 | 2 | 7 |\n| 16000 | 0 | 9 |\n\
             \n`checkpoint_overhead`\n\n| n | checkpoints |\n|---|---|\n| 64000 | 3 |\n"
        );
        assert!(
            !md.contains("| - |"),
            "no row is squeezed under foreign columns"
        );
    }

    #[test]
    fn gate_passes_within_band() {
        let base = snap_with(1.5, 100_000.0);
        let cur = snap_with(1.45, 95_000.0);
        assert!(compare(&cur, &base, 10.0).is_empty());
    }

    #[test]
    fn gate_fails_beyond_band() {
        let base = snap_with(1.5, 100_000.0);
        let cur = snap_with(1.2, 80_000.0);
        let regressions = compare(&cur, &base, 10.0);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
    }

    #[test]
    fn missing_rows_do_not_gate() {
        let base = snap_with(1.5, 100_000.0);
        let cur = Snapshot::default();
        assert!(compare(&cur, &base, 10.0).is_empty());
    }

    #[test]
    fn bench_speedups_are_collected_per_row() {
        let v: Value = serde_json::from_str(
            r#"{"bench":"mobility","results":[
                {"n":200,"mobility":"waypoint","speedup_x":1.5},
                {"n":400,"speedup_x":2.0},
                {"n":16000,"shards":4,"speedup_x":3.0}]}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        collect_bench_speedups("BENCH_mobility.json", &v, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].1, "n=200 mobility=waypoint speedup_x");
        assert_eq!(out[1].2, 2.0);
        assert_eq!(out[2].1, "n=16000 shards=4 speedup_x");
    }
}
