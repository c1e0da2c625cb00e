//! ASCII line plots for the figure regenerators.
//!
//! The figure experiments print each series both as machine-readable
//! rows and as a terminal plot, so the *shape* claims (burst
//! periodicity, IB decay, scaling flatness) are visible in `repro`
//! output without external tooling.

/// Render `series` (x, y) as an ASCII scatter/line plot of the given
/// character dimensions, with axis labels.
pub fn ascii_plot(title: &str, series: &[(f64, f64)], width: usize, height: usize) -> String {
    ascii_multi_plot(title, &[("", series)], width, height)
}

/// Render multiple named series in one frame; each series gets its own
/// glyph (`*`, `o`, `+`, `x`, ...).
pub(crate) fn ascii_multi_plot(
    title: &str,
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 8 && height >= 2, "plot area too small");
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    let mut out = String::new();
    if !title.is_empty() {
        out.push_str(title);
        out.push('\n');
    }
    if all.is_empty() {
        out.push_str("(empty series)\n");
        return out;
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
    for &(x, y) in &all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in s.iter() {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{ymax:>9.1} |")
        } else if i == height - 1 {
            format!("{ymin:>9.1} |")
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{:>9}  {}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>11}{:<.1}{}{:>.1}\n",
        "",
        xmin,
        " ".repeat(width.saturating_sub(8)),
        xmax
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .filter(|(_, (name, _))| !name.is_empty())
        .map(|(i, (name, _))| format!("{} {}", GLYPHS[i % GLYPHS.len()], name))
        .collect();
    if !legend.is_empty() {
        out.push_str(&format!("{:>11}{}\n", "", legend.join("   ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plots_have_expected_frame() {
        let series: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, (i as f64).sin() + 1.0)).collect();
        let s = ascii_plot("sine", &series, 40, 10);
        assert!(s.starts_with("sine\n"));
        let lines: Vec<&str> = s.lines().collect();
        // title + 10 rows + rule + x labels.
        assert_eq!(lines.len(), 13);
        assert!(s.contains('*'));
    }

    #[test]
    fn multi_series_legend_and_glyphs() {
        let a: Vec<(f64, f64)> = vec![(0.0, 0.0), (1.0, 1.0)];
        let b: Vec<(f64, f64)> = vec![(0.0, 1.0), (1.0, 0.0)];
        let s = ascii_multi_plot("two", &[("up", &a), ("down", &b)], 20, 5);
        assert!(s.contains("* up"));
        assert!(s.contains("o down"));
        assert!(s.contains('o'));
    }

    #[test]
    fn empty_series_is_graceful() {
        let s = ascii_plot("nothing", &[], 20, 5);
        assert!(s.contains("(empty series)"));
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let series = vec![(0.0, 5.0), (1.0, 5.0)];
        let s = ascii_plot("flat", &series, 20, 5);
        assert!(s.contains('*'));
    }
}
