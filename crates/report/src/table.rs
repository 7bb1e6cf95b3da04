//! Plain-text table rendering with CSV export.

/// Column alignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A renderable table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Per-column alignment; missing entries default to `Right`.
    pub aligns: Vec<Align>,
    /// Row cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers; first column left-aligned, rest right.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        let mut aligns = vec![Align::Right; headers.len()];
        if !aligns.is_empty() {
            aligns[0] = Align::Left;
        }
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns,
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are stringified by the caller to control
    /// formatting).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as a boxed plain-text table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = w.saturating_sub(cell.chars().count());
                let align = self.aligns.get(i).copied().unwrap_or(Align::Right);
                match align {
                    Align::Left => s.push_str(&format!(" {cell}{} |", " ".repeat(pad))),
                    Align::Right => s.push_str(&format!(" {}{cell} |", " ".repeat(pad))),
                }
            }
            s
        };
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }

    /// CSV export (headers + rows; cells quoted when they contain commas).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format helpers shared by the experiment builders.
pub mod fmt {
    /// Thousands-separated integer.
    pub fn int(v: u64) -> String {
        let s = v.to_string();
        let mut out = String::new();
        for (i, c) in s.chars().enumerate() {
            if i > 0 && (s.len() - i).is_multiple_of(3) {
                out.push(',');
            }
            out.push(c);
        }
        out
    }

    /// Fixed-point float.
    pub fn f(v: f64, digits: usize) -> String {
        format!("{v:.digits$}")
    }

    /// Percent with one decimal.
    pub fn pct(v: f64) -> String {
        format!("{v:.1}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_boxes() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.starts_with("Demo\n+"));
        assert!(s.contains("| alpha |     1 |"));
        assert!(s.contains("| b     | 12345 |"));
        // Three separator lines: top, under-header, bottom.
        let sep_lines = s.lines().filter(|l| l.starts_with("+-")).count();
        assert_eq!(sep_lines, 3);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["has,comma".into(), "has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt::int(0), "0");
        assert_eq!(fmt::int(999), "999");
        assert_eq!(fmt::int(1_000), "1,000");
        assert_eq!(fmt::int(350_687), "350,687");
        assert_eq!(fmt::f(1.23456, 2), "1.23");
        assert_eq!(fmt::pct(16.24), "16.2%");
    }
}
