//! The paper's tables and figures ([`paper::TABLES`], printed by the
//! `paper` binary) and their shared helpers: plain-text table and
//! ASCII-chart rendering, so each table prints rows directly comparable
//! to the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;

/// A simple left-padded text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with a header row.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    ///
    /// # Panics
    /// Panics on a column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render the table.
    #[must_use]
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:>w$}", w = width[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Format a float with a fixed number of decimals.
#[must_use]
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Format a large integer with thousands separators (paper style).
#[must_use]
pub fn grouped(mut n: u64) -> String {
    if n == 0 {
        return "0".into();
    }
    let mut parts = Vec::new();
    while n > 0 {
        parts.push((n % 1000, n >= 1000));
        n /= 1000;
    }
    parts
        .iter()
        .rev()
        .map(|&(v, pad)| {
            if pad {
                format!("{v:03}")
            } else {
                v.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// One chart series: label, plot symbol, (x, y) points.
pub type Series = (String, char, Vec<(f64, f64)>);

/// A crude ASCII line chart: series of (x, y) points rendered on a
/// character grid, one symbol per series. Good enough to *see* the
/// stair-step that Figures 1–3 show.
#[must_use]
pub fn ascii_chart(series: &[Series], width: usize, height: usize) -> String {
    let mut xmin = f64::INFINITY;
    let mut xmax = f64::NEG_INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for (_, _, pts) in series {
        for &(x, y) in pts {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() || xmax <= xmin || ymax <= 0.0 {
        return String::from("(no data)\n");
    }
    let mut grid = vec![vec![' '; width]; height];
    for (_, sym, pts) in series {
        for &(x, y) in pts {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = (y / ymax * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = *sym;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("y max = {ymax:.1}\n"));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(" x: {xmin:.0} .. {xmax:.0}\n"));
    for (name, sym, _) in series {
        out.push_str(&format!("  {sym} = {name}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["P", "steps/hr"]);
        t.row(vec!["1".into(), "181".into()]);
        t.row(vec!["128".into(), "5087".into()]);
        let s = t.render();
        assert!(s.contains("steps/hr"));
        assert!(s.lines().count() == 4);
        // right-aligned: the 1 sits under the P column's right edge
        assert!(s.lines().nth(2).unwrap().starts_with("  1"));
    }

    #[test]
    fn grouped_thousands() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1_000), "1,000");
        assert_eq!(grouped(12_800_000_000), "12,800,000,000");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(2.71534, 2), "2.72");
        assert_eq!(f(15.0, 3), "15.000");
    }

    #[test]
    fn chart_renders() {
        let pts: Vec<(f64, f64)> = (1..=50).map(|p| (p as f64, (p as f64).min(15.0))).collect();
        let s = ascii_chart(&[("15 units".into(), '*', pts)], 60, 12);
        assert!(s.contains('*'));
        assert!(s.contains("x: 1 .. 50"));
    }

    #[test]
    fn chart_handles_empty() {
        assert_eq!(ascii_chart(&[], 10, 5), "(no data)\n");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only".into()]);
    }
}
