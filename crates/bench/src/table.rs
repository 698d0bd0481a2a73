//! Minimal aligned-table rendering for experiment output.

/// A simple experiment result table: header + rows of cells.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (printed above the grid).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and header.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are any Display).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity must match the header"
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                // Right-align numbers-ish cells, left-align the first col.
                if i == 0 {
                    s.push_str(&format!("{:<width$}", c, width = widths[i]));
                } else {
                    s.push_str(&format!("{:>width$}", c, width = widths[i]));
                }
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-name"));
        // Header and rows share the alignment width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.5), "50.0%");
    }
}
