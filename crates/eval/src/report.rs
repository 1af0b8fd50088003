//! Plain-text table rendering for the regeneration binaries.

use core::fmt;

/// A column-aligned text table.
///
/// # Examples
///
/// ```
/// use ldp_eval::TextTable;
///
/// let mut t = TextTable::new(vec!["dataset", "MAE"]);
/// t.row(vec!["statlog-heart".into(), "7.3".into()]);
/// let text = t.to_string();
/// assert!(text.contains("statlog-heart"));
/// assert!(text.lines().count() >= 3); // header, rule, one row
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for i in 0..cols {
                widths[i] = widths[i].max(row[i].len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(f, &rule)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats `mae ± std` with sensible precision.
pub fn fmt_mae(mae: f64, std: f64) -> String {
    if mae >= 100.0 {
        format!("{mae:.0}±{std:.0}")
    } else if mae >= 1.0 {
        format!("{mae:.1}±{std:.1}")
    } else {
        format!("{mae:.3}±{std:.3}")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align() {
        let mut t = TextTable::new(vec!["a", "bb"]);
        t.row(vec!["xxxx".into(), "y".into()]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().map(|l| l.trim_end()).collect();
        assert_eq!(lines.len(), 3);
        // The second column starts at the same offset in every line.
        let off = lines[0].find("bb").unwrap();
        assert_eq!(lines[2].find('y').unwrap(), off);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        TextTable::new(vec!["a"]).row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn mae_formatting_scales() {
        assert_eq!(fmt_mae(1234.6, 67.8), "1235±68");
        assert_eq!(fmt_mae(7.31, 1.62), "7.3±1.6");
        assert_eq!(fmt_mae(0.0612, 0.0081), "0.061±0.008");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(0.086), "8.6%");
    }
}
