//! Plain-text rendering of experiment results: aligned tables like the
//! paper's, plus CSV for plotting.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use vlpp_sim::report::TextTable;
///
/// let mut t = TextTable::new(vec!["bench".into(), "rate".into()]);
/// t.row(vec!["gcc".into(), "4.3%".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("gcc"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable { header, rows: Vec::new() }
    }

    /// Appends a row. Rows shorter than the header are padded with
    /// empty cells; longer rows extend the width.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns (first column left-
    /// aligned, the rest right-aligned, numbers-style).
    pub fn render(&self) -> String {
        let columns = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        self.render_row(&mut out, &self.header, &widths);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            self.render_row(&mut out, row, &widths);
        }
        out
    }

    fn render_row(&self, out: &mut String, row: &[String], widths: &[usize]) {
        for (i, width) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                let _ = write!(out, "{cell:<width$}");
            } else {
                let _ = write!(out, "{cell:>width$}");
            }
        }
        out.push('\n');
    }
}

impl vlpp_trace::json::ToJson for TextTable {
    /// `{"header": [...], "rows": [[...], ...]}` — the structural form
    /// of the table, for tools that consume the text reports.
    fn to_json(&self) -> vlpp_trace::json::JsonValue {
        vlpp_trace::json::JsonValue::Object(vec![
            ("header".to_string(), vlpp_trace::json::ToJson::to_json(&self.header)),
            ("rows".to_string(), vlpp_trace::json::ToJson::to_json(&self.rows)),
        ])
    }
}

/// Formats a rate in `[0, 1]` as a percentage with two decimals, like
/// the paper's tables.
pub fn percent(rate: f64) -> String {
    format!("{:.2}%", 100.0 * rate)
}

/// A terminal line chart for size-sweep series (Figures 9–10): one
/// column per x value, one letter per series, misprediction rate on the
/// y axis.
///
/// # Example
///
/// ```
/// use vlpp_sim::report::AsciiChart;
///
/// let mut chart = AsciiChart::new(vec!["1KB".into(), "4KB".into()]);
/// chart.series('g', "gshare", vec![0.20, 0.15]);
/// chart.series('v', "variable", vec![0.09, 0.07]);
/// let drawn = chart.render(12);
/// assert!(drawn.contains("g = gshare"));
/// ```
#[derive(Debug, Clone)]
pub struct AsciiChart {
    x_labels: Vec<String>,
    series: Vec<(char, String, Vec<f64>)>,
}

impl AsciiChart {
    /// Creates a chart over the given x-axis labels.
    pub fn new(x_labels: Vec<String>) -> Self {
        AsciiChart { x_labels, series: Vec::new() }
    }

    /// Adds a series drawn with `glyph`. Values beyond the x-axis length
    /// are ignored; missing values leave gaps.
    pub fn series(&mut self, glyph: char, name: impl Into<String>, values: Vec<f64>) {
        self.series.push((glyph, name.into(), values));
    }

    /// Renders the chart `height` rows tall (plus axes and legend).
    pub fn render(&self, height: usize) -> String {
        let height = height.max(2);
        let max = self
            .series
            .iter()
            .flat_map(|(_, _, values)| values.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let columns = self.x_labels.len();
        let column_width = 6usize;
        let mut grid = vec![vec![' '; columns * column_width]; height];
        for (glyph, _, values) in &self.series {
            for (x, &value) in values.iter().take(columns).enumerate() {
                let row = ((1.0 - value / max) * (height - 1) as f64).round() as usize;
                let column = x * column_width + column_width / 2;
                // Later series win collisions; the legend disambiguates.
                grid[row.min(height - 1)][column] = *glyph;
            }
        }
        let mut out = String::new();
        for (i, row) in grid.iter().enumerate() {
            let y_value = max * (1.0 - i as f64 / (height - 1) as f64);
            let _ = writeln!(
                out,
                "{:>6} |{}",
                format!("{:.1}%", 100.0 * y_value),
                row.iter().collect::<String>()
            );
        }
        let _ = writeln!(out, "{:>6} +{}", "", "-".repeat(columns * column_width));
        let mut labels = String::new();
        for label in &self.x_labels {
            let _ = write!(labels, "{label:^column_width$}");
        }
        let _ = writeln!(out, "{:>6}  {}", "", labels);
        for (glyph, name, _) in &self.series {
            let _ = writeln!(out, "        {glyph} = {name}");
        }
        out
    }
}

/// Formats a count with `K`/`M` suffixes, like the paper's Table 1.
pub fn human_count(count: u64) -> String {
    if count >= 10_000_000 {
        format!("{:.1} M", count as f64 / 1_000_000.0)
    } else if count >= 1_000_000 {
        format!("{:.2} M", count as f64 / 1_000_000.0)
    } else if count >= 1_000 {
        format!("{:.1} K", count as f64 / 1_000.0)
    } else {
        count.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines are equally wide (alignment).
        assert!(lines[0].len() <= lines[1].len());
        assert!(r.contains("long-name"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(vec!["a".into(), "b".into(), "c".into()]);
        t.row(vec!["x".into()]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn empty_len() {
        let t = TextTable::new(vec!["a".into()]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.0432), "4.32%");
        assert_eq!(percent(0.0), "0.00%");
    }

    #[test]
    fn chart_renders_axes_legend_and_points() {
        let mut chart = AsciiChart::new(vec!["1KB".into(), "4KB".into(), "16KB".into()]);
        chart.series('g', "gshare", vec![0.2, 0.15, 0.12]);
        chart.series('v', "variable", vec![0.09, 0.08, 0.07]);
        let drawn = chart.render(10);
        assert!(drawn.contains('g'));
        assert!(drawn.contains('v'));
        assert!(drawn.contains("g = gshare"));
        assert!(drawn.contains("v = variable"));
        assert!(drawn.contains("1KB"));
        assert!(drawn.contains("20.0%"), "y-axis top should be the max value: {drawn}");
        // Higher rates must be drawn on higher rows.
        let lines: Vec<&str> = drawn.lines().collect();
        let g_row = lines.iter().position(|l| l.contains('|') && l.contains('g')).unwrap();
        let v_row = lines.iter().position(|l| l.contains('|') && l.contains('v')).unwrap();
        assert!(g_row < v_row, "gshare (worse) should sit above variable");
    }

    #[test]
    fn chart_handles_empty_series() {
        let chart = AsciiChart::new(vec!["a".into()]);
        let drawn = chart.render(5);
        assert!(drawn.contains('+'));
    }

    #[test]
    fn human_counts() {
        assert_eq!(human_count(42), "42");
        assert_eq!(human_count(17_600), "17.6 K");
        assert_eq!(human_count(1_010_000), "1.01 M");
        assert_eq!(human_count(92_600_000), "92.6 M");
    }
}
