//! Figure artifacts: named series with CSV export and a small ascii
//! plotter for terminal inspection.

/// One named data series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points, in plot order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Build from points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }
}

/// Axis scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Log10 axis (non-positive values are dropped from the plot).
    Log,
}

/// A renderable figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// X-axis scale.
    pub x_scale: Scale,
    /// Y-axis scale.
    pub y_scale: Scale,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// New linear-scale figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series: Vec::new(),
        }
    }

    /// Add a series (builder style).
    pub fn with(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Switch the y-axis to log scale (builder style).
    pub fn log_y(mut self) -> Self {
        self.y_scale = Scale::Log;
        self
    }

    /// Switch the x-axis to log scale (builder style).
    pub fn log_x(mut self) -> Self {
        self.x_scale = Scale::Log;
        self
    }

    /// Long-format CSV: `series,x,y` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                out.push_str(&format!("{},{x},{y}\n", s.name.replace(',', ";")));
            }
        }
        out
    }

    /// Render an ascii plot (distinct glyph per series).
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
        let width = width.clamp(20, 200);
        let height = height.clamp(5, 60);

        let tx = |v: f64| -> Option<f64> {
            match self.x_scale {
                Scale::Linear => Some(v),
                Scale::Log => (v > 0.0).then(|| v.log10()),
            }
        };
        let ty = |v: f64| -> Option<f64> {
            match self.y_scale {
                Scale::Linear => Some(v),
                Scale::Log => (v > 0.0).then(|| v.log10()),
            }
        };

        let mut pts: Vec<(usize, f64, f64)> = Vec::new();
        for (si, s) in self.series.iter().enumerate() {
            for (x, y) in &s.points {
                if let (Some(x), Some(y)) = (tx(*x), ty(*y)) {
                    pts.push((si, x, y));
                }
            }
        }
        if pts.is_empty() {
            return format!("{} (no plottable points)\n", self.title);
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, x, y) in &pts {
            x0 = x0.min(*x);
            x1 = x1.max(*x);
            y0 = y0.min(*y);
            y1 = y1.max(*y);
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }

        let mut grid = vec![vec![' '; width]; height];
        for (si, x, y) in &pts {
            let cx = (((x - x0) / (x1 - x0)) * (width as f64 - 1.0)).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = GLYPHS[si % GLYPHS.len()];
        }

        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        for row in &grid {
            out.push('|');
            out.extend(row.iter());
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out.push_str(&format!(
            "x: {} [{:.3}..{:.3}{}]  y: {} [{:.3}..{:.3}{}]\n",
            self.x_label,
            x0,
            x1,
            if self.x_scale == Scale::Log {
                " log10"
            } else {
                ""
            },
            self.y_label,
            y0,
            y1,
            if self.y_scale == Scale::Log {
                " log10"
            } else {
                ""
            },
        ));
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], s.name));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_long_format() {
        let fig = Figure::new("t", "x", "y")
            .with(Series::new("a", vec![(0.0, 1.0), (1.0, 2.0)]))
            .with(Series::new("b,c", vec![(0.5, 0.5)]));
        let csv = fig.to_csv();
        assert!(csv.starts_with("series,x,y\n"));
        assert!(csv.contains("a,0,1\n"));
        assert!(csv.contains("b;c,0.5,0.5\n"));
    }

    #[test]
    fn ascii_plot_contains_glyphs_and_legend() {
        let fig = Figure::new("demo", "rank", "share").with(Series::new(
            "cell",
            vec![(1.0, 10.0), (2.0, 5.0), (3.0, 1.0)],
        ));
        let s = fig.render_ascii(40, 10);
        assert!(s.contains('*'));
        assert!(s.contains("cell"));
        assert!(s.contains("x: rank"));
    }

    #[test]
    fn log_scale_drops_nonpositive() {
        let fig = Figure::new("d", "x", "y")
            .log_y()
            .with(Series::new("s", vec![(1.0, 0.0), (2.0, 10.0)]));
        let s = fig.render_ascii(30, 8);
        // Only one plottable point survives.
        assert!(s.contains("log10"));
        let empty = Figure::new("e", "x", "y")
            .log_y()
            .with(Series::new("s", vec![(1.0, 0.0)]));
        assert!(empty.render_ascii(30, 8).contains("no plottable points"));
    }
}
