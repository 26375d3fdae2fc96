//! Terminal line plots.
//!
//! `pcmac-campaign figures` renders its series as ASCII charts so the curve
//! *shapes* — who saturates where, who crosses whom — are visible right
//! in its output, next to the exact numbers.

use crate::series::Series;
use std::fmt::Write as _;

/// Marker characters assigned to series in order.
const MARKS: &[char] = &['B', 'P', '1', '2', '*', '+', 'x', 'o'];

/// Render a family of series as an ASCII chart of the given size.
/// X positions interpolate linearly between the minimum and maximum x
/// across all series; y starts at zero unless data goes negative.
pub fn ascii_plot(
    title: &str,
    y_label: &str,
    series: &[Series],
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 16 && height >= 4);
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let x_min = pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = pts.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let y_min = pts
        .iter()
        .map(|p| p.1)
        .fold(f64::INFINITY, f64::min)
        .min(0.0);
    let y_max = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let x_span = (x_max - x_min).max(1e-12);
    let y_span = (y_max - y_min).max(1e-12);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        // Draw interpolated segments so curves read as lines.
        for w in s.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let steps = width * 2;
            for k in 0..=steps {
                let f = k as f64 / steps as f64;
                let x = x0 + (x1 - x0) * f;
                let y = y0 + (y1 - y0) * f;
                let col = ((x - x_min) / x_span * (width - 1) as f64).round() as usize;
                let row = ((y - y_min) / y_span * (height - 1) as f64).round() as usize;
                let row = height - 1 - row.min(height - 1);
                let cell = &mut grid[row][col.min(width - 1)];
                // Data points win over line dots; earlier series keep
                // their cell on exact ties (stable, documented).
                if *cell == ' ' || *cell == '.' {
                    *cell = if k == 0 || k == steps { mark } else { '.' };
                }
            }
        }
        // Single-point series still get their marker.
        if s.points.len() == 1 {
            let (x, y) = s.points[0];
            let col = ((x - x_min) / x_span * (width - 1) as f64).round() as usize;
            let row = ((y - y_min) / y_span * (height - 1) as f64).round() as usize;
            let row = height - 1 - row.min(height - 1);
            grid[row][col.min(width - 1)] = mark;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{}={}", MARKS[i % MARKS.len()], s.name))
        .collect();
    let _ = writeln!(out, "[{}]", legend.join("  "));
    let _ = writeln!(out, "{y_max:>9.1} ┤{}", grid[0].iter().collect::<String>());
    for row in &grid[1..height - 1] {
        let _ = writeln!(out, "{:>9} │{}", "", row.iter().collect::<String>());
    }
    let _ = writeln!(
        out,
        "{y_min:>9.1} ┤{}",
        grid[height - 1].iter().collect::<String>()
    );
    let _ = writeln!(out, "{:>10}└{}", "", "─".repeat(width));
    let _ = writeln!(
        out,
        "{:>11}{:<12.0}{:>width$.0}   ({y_label})",
        "",
        x_min,
        x_max,
        width = width.saturating_sub(12)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(name: &str, pts: &[(f64, f64)]) -> Series {
        let mut s = Series::new(name);
        for &(x, y) in pts {
            s.push(x, y);
        }
        s
    }

    #[test]
    fn plot_contains_markers_and_legend() {
        let a = series("Basic 802.11", &[(300.0, 350.0), (1000.0, 550.0)]);
        let b = series("PCMAC", &[(300.0, 360.0), (1000.0, 600.0)]);
        let out = ascii_plot("Fig 8", "kbps", &[a, b], 40, 10);
        assert!(out.contains("B=Basic 802.11"));
        assert!(out.contains("P=PCMAC"));
        assert!(out.contains('B'));
        assert!(out.contains('P'));
        assert!(out.contains("600.0"), "y max labelled: {out}");
    }

    #[test]
    fn empty_series_is_graceful() {
        let out = ascii_plot("empty", "y", &[], 40, 10);
        assert!(out.contains("no data"));
    }

    #[test]
    fn higher_curve_renders_above_lower() {
        let low = series("low", &[(0.0, 10.0), (10.0, 10.0)]);
        let high = series("high", &[(0.0, 90.0), (10.0, 90.0)]);
        let out = ascii_plot("t", "y", &[low.clone(), high.clone()], 30, 12);
        let lines: Vec<&str> = out.lines().collect();
        let row_of = |m: char| {
            lines
                .iter()
                .position(|l| l.contains(m) && (l.contains('┤') || l.contains('│')))
                .unwrap()
        };
        // 'h' mark is MARKS[1]='P'... markers are positional: low gets 'B',
        // high gets 'P'. High values sit on earlier (upper) lines.
        assert!(row_of('P') < row_of('B'), "{out}");
    }

    #[test]
    fn single_point_series_marked() {
        let s = series("solo", &[(5.0, 5.0)]);
        let out = ascii_plot("t", "y", &[s], 20, 6);
        assert!(out.contains('B'));
    }
}
