//! Plain-text table rendering for the bench harness.
//!
//! The harness prints the same rows the paper's tables report; this is a
//! dependency-free fixed-width formatter with right/left alignment.

use std::fmt::Write as _;

/// A simple text table with a header row.
///
/// # Examples
///
/// ```
/// use bios_analytics::report::TextTable;
///
/// let mut t = TextTable::new(vec!["Sensor", "Sensitivity"]);
/// t.add_row(vec!["MWCNT/Nafion + GOD".into(), "55.5".into()]);
/// let s = t.render();
/// assert!(s.contains("Sensor"));
/// assert!(s.contains("55.5"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Renders the table with a separator under the header.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                let _ = write!(out, "{}{}", cell, " ".repeat(pad));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Formats a relative error as a signed percentage, e.g. `-12.3%`.
#[must_use]
pub fn format_percent(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["A", "BBBB"]);
        t.add_row(vec!["xxx".into(), "1".into()]);
        t.add_row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines[0].trim_end().len() <= lines[1].len());
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn unicode_widths_counted_by_chars() {
        let mut t = TextTable::new(vec!["µA·mM⁻¹·cm⁻²"]);
        t.add_row(vec!["55.5".into()]);
        let s = t.render();
        assert!(s.contains("µA·mM⁻¹·cm⁻²"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(format_percent(0.123), "+12.3%");
        assert_eq!(format_percent(-0.05), "-5.0%");
    }
}
