//! Aligned text tables.
//!
//! The table regenerators print in the same row/column structure as
//! the paper's tables, so a reader can diff them side by side.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), header: Vec::new(), rows: Vec::new() }
    }

    /// Set the header row.
    pub fn header(mut self, cells: &[&str]) -> Self {
        self.header = cells.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Append a data row (must match the header width if one is set).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        if !self.header.is_empty() {
            assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        }
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align the first column (names), right-align data.
                if i == 0 {
                    line.push_str(&format!("{:<width$}", c, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", c, width = widths[i]));
                }
            }
            line
        };
        if !self.header.is_empty() {
            out.push_str(&fmt_row(&self.header, &widths));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float with `digits` decimals.
pub fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Table X").header(&["Application", "Max", "Avg"]);
        t.row(vec!["Sage-1000MB".into(), "274.9".into(), "78.8".into()]);
        t.row(vec!["LU".into(), "12.5".into(), "12.5".into()]);
        let s = t.render();
        assert!(s.contains("Table X"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "title + header + rule + 2 rows");
        // All data lines are the same width (alignment).
        assert_eq!(lines[3].len(), lines[4].len());
        assert!(lines[3].starts_with("Sage-1000MB"));
        assert!(lines[4].starts_with("LU "));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new("t").header(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn headerless_table() {
        let mut t = TextTable::new("");
        t.row(vec!["a".into(), "1".into()]);
        assert_eq!(t.render(), "a  1\n");
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(78.8123, 1), "78.8");
        assert_eq!(fnum(0.5, 0), "0");
    }
}
