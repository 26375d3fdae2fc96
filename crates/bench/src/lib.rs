//! # pcmac-bench — figure regeneration harness
//!
//! Shared machinery for the binaries that regenerate the paper's
//! evaluation artifacts:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig8_throughput` | Figure 8: aggregate throughput vs offered load |
//! | `fig9_delay` | Figure 9: mean end-to-end delay vs offered load |
//! | `table_power_levels` | §IV power-level ↔ range table |
//! | `ablations` | design-choice sweeps (safety factor, ctrl bandwidth, capture policy, handshake arity) |
//!
//! The sweep grid is (protocol × offered load × seed); runs execute in
//! parallel and seeds are averaged. `--full` switches to the paper's
//! exact 400-second duration (the default is a faster 60 s, which already
//! shows the same curve shapes).
//!
//! The sweep itself is a thin veneer over the `pcmac-campaign` subsystem:
//! [`Sweep::to_campaign`] builds the declarative [`CampaignSpec`] the CLI
//! flags describe, and [`Sweep::run`] executes it through
//! [`pcmac_campaign::run_campaign`], so the figure binaries share the
//! expansion, validation, and per-point mean ± CI aggregation with every
//! spec-file campaign.

use pcmac::{RunReport, Variant};
use pcmac_campaign::{run_campaign, AxesSpec, CampaignReport, CampaignSpec, ScenarioSpec};
use pcmac_stats::{Series, Table};

// Typed CLI flag parsing shared by every bench binary, re-exported
// from `pcmac_campaign::cli` (the crate below both binary families) so
// one implementation serves the whole workspace. The pre-redesign
// binaries funnelled all flags through one `f64` grabber
// (`grab("--seed", 1.0) as u64`), silently truncating fractional input
// and any seed above 2⁵³.
pub use pcmac_campaign::cli::{
    flag_list_or, flag_opt, flag_or, flag_value, sanitize, try_flag, try_flag_list,
};

/// Sweep parameters shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Offered-load points (kbps). Paper: 300..=1000 step 100.
    pub loads: Vec<f64>,
    /// Simulated seconds per run. Paper: 400.
    pub secs: u64,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            loads: (3..=10).map(|k| k as f64 * 100.0).collect(),
            secs: 60,
            seeds: vec![1],
            threads: 0,
        }
    }
}

impl Sweep {
    /// Parse the common CLI flags:
    /// `--full` (400 s), `--secs N`, `--seeds a,b,c`, `--loads x,y,z`,
    /// `--threads N`. An explicit `--secs` wins over `--full` regardless
    /// of flag order; malformed values exit with status 2 instead of
    /// silently falling back to defaults.
    pub fn from_args(args: &[String]) -> Self {
        let mut sweep = Sweep::default();
        if args.iter().any(|a| a == "--full") {
            sweep.secs = 400;
        }
        sweep.secs = flag_or(args, "--secs", sweep.secs);
        sweep.seeds = flag_list_or(args, "--seeds", sweep.seeds);
        sweep.loads = flag_list_or(args, "--loads", sweep.loads);
        sweep.threads = flag_or(args, "--threads", 0);
        sweep
    }

    /// The declarative campaign this sweep describes: the paper's base
    /// scenario swept over (offered load × all four variants) × seeds.
    pub fn to_campaign(&self) -> CampaignSpec {
        CampaignSpec {
            name: "figures".into(),
            base: ScenarioSpec::paper(),
            duration_s: Some(self.secs as f64),
            seeds: self.seeds.clone(),
            axes: Some(AxesSpec {
                loads_kbps: Some(self.loads.clone()),
                node_counts: None,
                variants: Some(Variant::ALL.to_vec()),
                power_level_sets_mw: None,
            }),
            sweep: None,
        }
    }

    /// Run the full (protocol × load × seed) grid through the campaign
    /// subsystem.
    ///
    /// Exits with a clean message (status 2) when the CLI flags describe
    /// an invalid sweep — e.g. `--secs` shorter than the flow start
    /// stagger, or non-positive `--loads` values.
    pub fn run(&self) -> SweepResult {
        let outcome = run_campaign(&self.to_campaign(), self.threads).unwrap_or_else(|e| {
            eprintln!("sweep configuration is invalid:");
            for p in &e.problems {
                eprintln!("  - {p}");
            }
            std::process::exit(2);
        });
        SweepResult {
            loads: self.loads.clone(),
            seeds: self.seeds.len(),
            campaign: outcome.report,
            reports: outcome.runs,
        }
    }
}

/// The grid of reports from a sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Load axis.
    pub loads: Vec<f64>,
    /// Number of seeds averaged.
    pub seeds: usize,
    /// Per-point aggregation (mean ± CI per metric) from the campaign
    /// runner — the `CAMPAIGN_*.json` artifact shape.
    pub campaign: CampaignReport,
    /// All raw reports (point-major: load, then protocol, then seed).
    pub reports: Vec<RunReport>,
}

impl SweepResult {
    /// Mean of `metric` for (protocol, load) across seeds.
    fn mean_metric(&self, protocol: &str, load: f64, metric: impl Fn(&RunReport) -> f64) -> f64 {
        let vals: Vec<f64> = self
            .reports
            .iter()
            .filter(|r| r.protocol == protocol && (r.offered_load_kbps - load).abs() < 1e-6)
            .map(metric)
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// One series per protocol for the given metric.
    pub fn series(&self, metric: impl Fn(&RunReport) -> f64 + Copy) -> Vec<Series> {
        Variant::ALL
            .iter()
            .map(|v| {
                let mut s = Series::new(v.name());
                for &load in &self.loads {
                    s.push(load, self.mean_metric(v.name(), load, metric));
                }
                s
            })
            .collect()
    }

    /// Figure 8 series: throughput (kbps) per protocol over load.
    pub fn throughput_series(&self) -> Vec<Series> {
        self.series(|r| r.throughput_kbps)
    }

    /// Figure 9 series: mean delay (ms) per protocol over load.
    pub fn delay_series(&self) -> Vec<Series> {
        self.series(|r| r.mean_delay_ms)
    }

    /// Render a family of series as an aligned table (rows = loads).
    pub fn render_table(&self, value_label: &str, series: &[Series]) -> String {
        let mut header: Vec<String> = vec![format!("load kbps ({value_label})")];
        header.extend(series.iter().map(|s| s.name.clone()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);
        for (i, &load) in self.loads.iter().enumerate() {
            let mut row = vec![format!("{load:.0}")];
            for s in series {
                row.push(format!("{:.1}", s.points[i].1));
            }
            table.row(&row);
        }
        table.render()
    }

    /// Dump every report as JSON lines (provenance for EXPERIMENTS.md).
    pub fn to_json_lines(&self) -> String {
        self.reports
            .iter()
            .map(|r| serde_json::to_string(r).expect("reports serialize"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Shared output plumbing for the figure binaries: when `flag` is
/// present on the command line, write `contents()` to the path that
/// follows it.
pub fn write_output_flag(
    args: &[String],
    flag: &str,
    what: &str,
    contents: impl FnOnce() -> String,
) {
    if let Some(path) = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
    {
        std::fs::write(path, contents())
            .unwrap_or_else(|e| panic!("cannot write {what} to {path}: {e}"));
        eprintln!("wrote {what} to {path}");
    }
}

/// Shape checks shared by the figure binaries and the regression tests:
/// the qualitative claims of the paper that must hold for the
/// reproduction to count.
pub fn check_figure8_shape(series: &[Series]) -> Result<(), String> {
    let get = |name: &str| {
        series
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("missing series {name}"))
    };
    let pcmac = get("PCMAC")?;
    let basic = get("Basic 802.11")?;
    // At the highest (saturated) load PCMAC must beat Basic.
    let last = pcmac.points.len() - 1;
    let (load, p) = pcmac.points[last];
    let (_, b) = basic.points[last];
    if p <= b {
        return Err(format!(
            "PCMAC ({p:.1}) must exceed Basic ({b:.1}) at saturation (load {load:.0})"
        ));
    }
    // Throughput must be monotone-ish then saturate: the last point of
    // every protocol must be at least 80% of its own maximum (no
    // collapse).
    for s in series {
        let max = s.points.iter().map(|(_, y)| *y).fold(0.0, f64::max);
        let (_, lasty) = *s.points.last().unwrap();
        if lasty < 0.5 * max {
            return Err(format!("{} collapses past saturation", s.name));
        }
    }
    Ok(())
}

/// Figure 9 qualitative checks: delay grows with load for every protocol,
/// and PCMAC's saturated delay stays below Basic's.
pub fn check_figure9_shape(series: &[Series]) -> Result<(), String> {
    let get = |name: &str| {
        series
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("missing series {name}"))
    };
    let pcmac = get("PCMAC")?;
    let basic = get("Basic 802.11")?;
    let last = pcmac.points.len() - 1;
    if pcmac.points[last].1 >= basic.points[last].1 {
        return Err(format!(
            "PCMAC delay ({:.1} ms) must stay below Basic ({:.1} ms) at saturation",
            pcmac.points[last].1, basic.points[last].1
        ));
    }
    for s in series {
        let first = s.points.first().unwrap().1;
        let lasty = s.points.last().unwrap().1;
        if lasty < first {
            return Err(format!("{}: delay should grow with load", s.name));
        }
    }
    Ok(())
}
