//! Plain-text table rendering and CSV output.
//!
//! The repro harness prints the same rows the paper's figures plot; the
//! renderer right-aligns numeric columns and pads headers, which is all the
//! formatting the terminal needs.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned table.
///
/// ```
/// use smt_stats::Table;
/// let mut t = Table::new("demo", &["policy", "ipc"]);
/// t.row(vec!["ICOUNT".into(), "2.554".into()]);
/// assert!(t.render().contains("ICOUNT"));
/// assert_eq!(t.cell("ICOUNT", "ipc"), Some("2.554"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The cell under header `col` in the first row whose leading cell is
    /// `row`.
    pub fn cell(&self, row: &str, col: &str) -> Option<&str> {
        let c = self.headers.iter().position(|h| h == col)?;
        let r = self.rows.iter().find(|r| r[0] == row)?;
        Some(&r[c])
    }

    /// Render to a string (title, rule, headers, rows).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "-".repeat(total.max(self.title.len())));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Write the table as CSV (headers + rows) to `path`.
    pub fn to_csv(&self, path: &Path) -> io::Result<()> {
        let mut body = String::new();
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        body.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        body.push('\n');
        for row in &self.rows {
            body.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            body.push('\n');
        }
        std::fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["name", "ipc"]);
        t.row(vec!["ICOUNT".into(), "2.41".into()]);
        t.row(vec!["RR".into(), "1.9".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // "name" is padded to width 6 ("ICOUNT"), "ipc" to width 4 ("2.41").
        assert_eq!(lines[2], "  name   ipc");
        assert!(lines[3].contains("ICOUNT"));
        // Cells right-aligned to equal width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let dir = std::env::temp_dir().join("smt_stats_test_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["x,y".into(), "he said \"hi\"".into()]);
        t.to_csv(&path).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    fn counts() {
        let mut t = Table::new("T", &["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.n_rows(), 1);
    }
}
