//! Paper-vs-measured comparison rows.
//!
//! Every experiment regenerator ends by printing these rows, and the
//! `repro` binary collects them into `EXPERIMENTS.md`. The point is
//! honesty: the substrate is a calibrated simulator, so we report
//! *shape agreement* (who wins, how curves move) and the per-cell
//! relative deltas, not a claim of matching a 2004 cluster's absolute
//! numbers.

use super::stats::relative_error;
use super::table::{fnum, TextTable};

/// One measured quantity against its paper value.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Experiment id (e.g. "Table 4 / Sage-1000MB avg IB").
    pub label: String,
    /// Value from the paper.
    pub paper: f64,
    /// Value we measured.
    pub measured: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Comparison {
    /// Build a row.
    pub(crate) fn new(
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: &'static str,
    ) -> Self {
        Self { label: label.into(), paper, measured, unit }
    }

    /// Signed relative delta (measured vs paper).
    pub(crate) fn delta(&self) -> f64 {
        relative_error(self.measured, self.paper)
    }

    /// Whether the measurement is within `tol` relative tolerance.
    pub fn within(&self, tol: f64) -> bool {
        self.delta().abs() <= tol
    }
}

/// Render comparisons as an aligned table.
pub fn comparison_table(title: &str, rows: &[Comparison]) -> String {
    let mut t = TextTable::new(title).header(&["experiment", "paper", "measured", "delta", "unit"]);
    for c in rows {
        t.row(vec![
            c.label.clone(),
            fnum(c.paper, 1),
            fnum(c.measured, 1),
            format!("{:+.0}%", c.delta() * 100.0),
            c.unit.to_string(),
        ]);
    }
    t.render()
}

/// Render comparisons as Markdown table rows (for EXPERIMENTS.md).
pub fn comparison_markdown(rows: &[Comparison]) -> String {
    let mut out = String::from("| experiment | paper | measured | delta |\n|---|---:|---:|---:|\n");
    for c in rows {
        out.push_str(&format!(
            "| {} | {} {} | {} {} | {:+.0}% |\n",
            c.label,
            fnum(c.paper, 1),
            c.unit,
            fnum(c.measured, 1),
            c.unit,
            c.delta() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_tolerance() {
        let c = Comparison::new("avg IB", 78.8, 82.0, "MB/s");
        assert!(c.delta() > 0.0 && c.delta() < 0.05);
        assert!(c.within(0.05));
        assert!(!c.within(0.01));
    }

    #[test]
    fn table_rendering() {
        let rows =
            vec![Comparison::new("x", 100.0, 90.0, "MB/s"), Comparison::new("y", 10.0, 10.0, "s")];
        let s = comparison_table("T", &rows);
        assert!(s.contains("-10%"));
        assert!(s.contains("+0%"));
        let md = comparison_markdown(&rows);
        assert!(md.starts_with("| experiment"));
        assert!(md.contains("| x | 100.0 MB/s | 90.0 MB/s | -10% |"));
    }
}
