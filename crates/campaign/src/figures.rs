//! The paper's Figures 8 and 9 as one campaign: the §IV scenario swept
//! over (offered load × all four variants) × seeds, read back as one
//! curve per protocol, and judged against the qualitative claims the
//! reproduction stands on.
//!
//! The curves are read from the [`CampaignReport`] the runner already
//! aggregated (`throughput_kbps.mean`, `mean_delay_ms.mean`), so the
//! `pcmac-campaign figures` subcommand and the regression tests judge
//! exactly what the `CAMPAIGN_*.json` artifact records.

use pcmac::Variant;
use pcmac_stats::{Series, Table};

use crate::aggregate::{CampaignReport, PointSummary};
use crate::campaign::{Axis, CampaignSpec};
use crate::spec::ScenarioSpec;

/// The paper's offered-load axis (kbps): 300..=1000 step 100.
pub fn paper_loads() -> Vec<f64> {
    (3..=10).map(|k| k as f64 * 100.0).collect()
}

/// The campaign behind both figures: the paper's base scenario swept
/// over (offered load × all four variants) × seeds, `secs` simulated
/// seconds per run (the paper runs 400).
pub fn sweep_spec(loads: &[f64], secs: u64, seeds: &[u64]) -> CampaignSpec {
    CampaignSpec {
        name: "figures".into(),
        base: ScenarioSpec::paper(),
        duration_s: Some(secs as f64),
        seeds: seeds.to_vec(),
        sweep: Some(vec![
            Axis::new("traffic.offered_load_kbps", loads),
            Axis::new("variant", &Variant::ALL),
        ]),
    }
}

/// One curve per protocol over offered load, in the report's expansion
/// order.
fn series(report: &CampaignReport, metric: fn(&PointSummary) -> f64) -> Vec<Series> {
    Variant::ALL
        .iter()
        .map(|v| {
            let mut s = Series::new(v.name());
            for p in report.points.iter().filter(|p| p.key.variant == v.name()) {
                s.push(p.key.load_kbps, metric(p));
            }
            s
        })
        .collect()
}

/// Figure 8 series: seed-mean throughput (kbps) per protocol over load.
pub fn throughput_series(report: &CampaignReport) -> Vec<Series> {
    series(report, |p| p.throughput_kbps.mean)
}

/// Figure 9 series: seed-mean delay (ms) per protocol over load.
pub fn delay_series(report: &CampaignReport) -> Vec<Series> {
    series(report, |p| p.mean_delay_ms.mean)
}

/// Render a family of series as an aligned table (rows = the first
/// series' loads; a series with no sample on a row shows `-`).
pub fn render_table(value_label: &str, series: &[Series]) -> String {
    let mut header: Vec<String> = vec![format!("load kbps ({value_label})")];
    header.extend(series.iter().map(|s| s.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    let loads = series.first().map(|s| s.points.as_slice()).unwrap_or(&[]);
    for (i, (load, _)) in loads.iter().enumerate() {
        let mut row = vec![format!("{load:.0}")];
        for s in series {
            row.push(match s.points.get(i) {
                Some((_, y)) => format!("{y:.1}"),
                None => "-".into(),
            });
        }
        table.row(&row);
    }
    table.render()
}

/// The saturated (highest-load) point of the named protocol's curve —
/// where both figures' headline claims compare PCMAC with Basic 802.11.
fn saturation_point(series: &[Series], name: &str) -> Result<(f64, f64), String> {
    series
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("missing series {name}"))?
        .points
        .last()
        .copied()
        .ok_or_else(|| format!("series {name} is empty"))
}

/// First and last sample of a curve.
fn ends(s: &Series) -> Result<(f64, f64), String> {
    match (s.points.first(), s.points.last()) {
        (Some(&(_, first)), Some(&(_, last))) => Ok((first, last)),
        _ => Err(format!("series {} is empty", s.name)),
    }
}

/// Figure 8 qualitative checks — the claims of the paper that must hold
/// for the reproduction to count: PCMAC beats Basic 802.11 at
/// saturation, and no protocol collapses past it.
pub fn check_figure8_shape(series: &[Series]) -> Result<(), String> {
    let (load, p) = saturation_point(series, "PCMAC")?;
    let (_, b) = saturation_point(series, "Basic 802.11")?;
    if p <= b {
        return Err(format!(
            "PCMAC ({p:.1}) must exceed Basic ({b:.1}) at saturation (load {load:.0})"
        ));
    }
    // Throughput rises then saturates: the last point of every protocol
    // must be at least 50% of its own maximum (no collapse).
    for s in series {
        let (_, last) = ends(s)?;
        let max = s.points.iter().map(|(_, y)| *y).fold(0.0, f64::max);
        if last < 0.5 * max {
            return Err(format!("{} collapses past saturation", s.name));
        }
    }
    Ok(())
}

/// Figure 9 qualitative checks: delay grows with load for every protocol,
/// and PCMAC's saturated delay stays below Basic's.
pub fn check_figure9_shape(series: &[Series]) -> Result<(), String> {
    let (_, p) = saturation_point(series, "PCMAC")?;
    let (_, b) = saturation_point(series, "Basic 802.11")?;
    if p >= b {
        return Err(format!(
            "PCMAC delay ({p:.1} ms) must stay below Basic ({b:.1} ms) at saturation"
        ));
    }
    for s in series {
        let (first, last) = ends(s)?;
        if last < first {
            return Err(format!("{}: delay should grow with load", s.name));
        }
    }
    Ok(())
}
