//! Line and stacked-bar charts.
//!
//! Both chart types share the same anatomy: a title block, a plot area
//! with hairline horizontal gridlines and a baseline axis, muted tick
//! labels, and a legend column on the right. Colors come from
//! [`crate::palette`] in fixed slot order; series identity is carried by
//! color **and** (for line charts) dash pattern, so charts stay readable
//! without color alone.

use crate::palette;
use crate::scale::{fmt_tick, ticks_upto, LinearScale};
use crate::svg::Doc;

const MARGIN_LEFT: f64 = 64.0;
const MARGIN_TOP: f64 = 64.0;
const MARGIN_BOTTOM: f64 = 64.0;
const LEGEND_WIDTH: f64 = 190.0;
const LEGEND_ROW: f64 = 18.0;

/// One data point of a [`Series`]: a position plus the standard
/// deviation across seed replicas (`0.0` draws no error bar).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// X value (e.g. thread count).
    pub x: f64,
    /// Y value (e.g. mean speedup over seeds).
    pub y: f64,
    /// Half-height of the error bar (stddev); `0.0` suppresses it.
    pub err: f64,
}

/// One line-chart series.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// Points in x order.
    pub points: Vec<Point>,
    /// SVG dash pattern (empty = solid). Used to distinguish schemes of
    /// the same workload without spending another color slot.
    pub dash: String,
    /// Explicit palette slot; `None` assigns slots by series order.
    /// Pinning a slot lets color follow the *entity* (one workload, two
    /// schemes share a slot, dashed vs solid) rather than legend rank.
    pub slot: Option<usize>,
}

impl Series {
    /// An empty solid series.
    pub fn new(name: &str) -> Self {
        Series {
            name: name.to_string(),
            points: Vec::new(),
            dash: String::new(),
            slot: None,
        }
    }

    /// Sets the dash pattern (e.g. `"5 4"`).
    pub fn dashed(mut self, dash: &str) -> Self {
        self.dash = dash.to_string();
        self
    }

    /// Pins the palette slot (see [`Series::slot`]).
    pub fn slot(mut self, slot: usize) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Appends a point without an error bar.
    pub fn point(mut self, x: f64, y: f64) -> Self {
        self.points.push(Point { x, y, err: 0.0 });
        self
    }

    /// Appends a point with a ± `err` error bar.
    pub fn point_err(mut self, x: f64, y: f64, err: f64) -> Self {
        self.points.push(Point { x, y, err });
        self
    }
}

/// A line chart: one or more [`Series`] over a shared numeric x-axis.
#[derive(Clone, Debug)]
pub struct LineChart {
    title: String,
    subtitle: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    log2_x: bool,
    plot_width: f64,
    plot_height: f64,
}

impl LineChart {
    /// A chart with the given title and default geometry.
    pub fn new(title: &str) -> Self {
        LineChart {
            title: title.to_string(),
            subtitle: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            series: Vec::new(),
            log2_x: false,
            plot_width: 440.0,
            plot_height: 280.0,
        }
    }

    /// Sets the secondary title line.
    pub fn subtitle(mut self, subtitle: &str) -> Self {
        self.subtitle = subtitle.to_string();
        self
    }

    /// Sets the x-axis label.
    pub fn x_label(mut self, label: &str) -> Self {
        self.x_label = label.to_string();
        self
    }

    /// Sets the y-axis label.
    pub fn y_label(mut self, label: &str) -> Self {
        self.y_label = label.to_string();
        self
    }

    /// Spaces x positions by log₂ (thread sweeps 1–128 read best this
    /// way). Requires every x > 0; charts with non-positive x fall back
    /// to linear spacing.
    pub fn log2_x(mut self, on: bool) -> Self {
        self.log2_x = on;
        self
    }

    /// Adds a series; its color is the next palette slot.
    pub fn series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Renders the chart to SVG text (deterministic for equal inputs).
    pub fn render(&self) -> String {
        let width = MARGIN_LEFT + self.plot_width + LEGEND_WIDTH;
        let height = MARGIN_TOP + self.plot_height + MARGIN_BOTTOM;
        let (left, top) = (MARGIN_LEFT, MARGIN_TOP);
        let (right, bottom) = (left + self.plot_width, top + self.plot_height);
        let mut doc = Doc::new(width, height, palette::SURFACE);
        title_block(&mut doc, &self.title, &self.subtitle);

        let log2 = self.log2_x
            && self
                .series
                .iter()
                .all(|s| s.points.iter().all(|p| p.x > 0.0));
        let tx = |x: f64| if log2 { x.log2() } else { x };

        // Domains: x spans the data; y spans 0..max(y + err), niced.
        let mut xs: Vec<f64> = Vec::new();
        let mut y_max = 0.0f64;
        for s in &self.series {
            for p in &s.points {
                if !xs.contains(&p.x) {
                    xs.push(p.x);
                }
                y_max = y_max.max(p.y + p.err);
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        let y_ticks = ticks_upto(y_max, 5);
        let y_top = *y_ticks.last().expect("at least one tick");
        let (x_lo, x_hi) = match (xs.first(), xs.last()) {
            (Some(&lo), Some(&hi)) => (tx(lo), tx(hi)),
            _ => (0.0, 1.0),
        };
        let sx = LinearScale::new(x_lo, x_hi, left + 12.0, right - 12.0);
        let sy = LinearScale::new(0.0, y_top, bottom, top);

        // Gridlines, axes and ticks.
        for &t in &y_ticks {
            let y = sy.map(t);
            if t > 0.0 {
                doc.line(left, y, right, y, palette::GRID, 1.0);
            }
            doc.text(
                left - 8.0,
                y + 3.5,
                &fmt_tick(t),
                palette::INK_MUTED,
                11.0,
                "end",
                "",
                0.0,
            );
        }
        doc.line(left, bottom, right, bottom, palette::AXIS, 1.0);
        for &x in &xs {
            let xp = sx.map(tx(x));
            doc.line(xp, bottom, xp, bottom + 4.0, palette::AXIS, 1.0);
            doc.text(
                xp,
                bottom + 17.0,
                &fmt_tick(x),
                palette::INK_MUTED,
                11.0,
                "middle",
                "",
                0.0,
            );
        }
        axis_titles(
            &mut doc,
            &self.x_label,
            &self.y_label,
            (left + right) / 2.0,
            bottom + 38.0,
            (top + bottom) / 2.0,
        );

        // Series: error bars under lines, lines under markers.
        for (i, s) in self.series.iter().enumerate() {
            let color = palette::series_color(s.slot.unwrap_or(i));
            let pts: Vec<(f64, f64)> = s
                .points
                .iter()
                .map(|p| (sx.map(tx(p.x)), sy.map(p.y)))
                .collect();
            for p in &s.points {
                if p.err > 0.0 {
                    doc.error_bar(
                        sx.map(tx(p.x)),
                        sy.map((p.y - p.err).max(0.0)),
                        sy.map(p.y + p.err),
                        color,
                    );
                }
            }
            if pts.len() > 1 {
                doc.polyline(&pts, color, 2.0, &s.dash);
            }
            for (p, &(xp, yp)) in s.points.iter().zip(&pts) {
                let title = format!("{}: x={} y={:.3} ±{:.3}", s.name, fmt_tick(p.x), p.y, p.err);
                doc.marker(xp, yp, 3.5, color, palette::SURFACE, &title);
            }
        }

        // Legend (identity is never color-alone: the sample repeats the
        // series' dash pattern). A single series needs no legend box.
        if self.series.len() > 1 {
            let lx = right + 24.0;
            for (i, s) in self.series.iter().enumerate() {
                let y = top + 6.0 + i as f64 * LEGEND_ROW;
                let color = palette::series_color(s.slot.unwrap_or(i));
                if s.dash.is_empty() {
                    doc.line(lx, y, lx + 18.0, y, color, 2.0);
                } else {
                    doc.polyline(&[(lx, y), (lx + 18.0, y)], color, 2.0, &s.dash);
                }
                doc.marker(lx + 9.0, y, 3.0, color, palette::SURFACE, "");
                doc.text(
                    lx + 26.0,
                    y + 3.5,
                    &s.name,
                    palette::INK_SECONDARY,
                    11.0,
                    "",
                    "",
                    0.0,
                );
            }
        }
        doc.finish()
    }
}

/// One bar of a [`BarGroup`]: a stack of segment values (aligned with the
/// chart's segment names) plus an error bar on the stack total.
#[derive(Clone, Debug, PartialEq)]
pub struct Bar {
    /// Sub-label under the bar (e.g. `commtm@32`).
    pub label: String,
    /// One value per chart segment, bottom-up.
    pub segments: Vec<f64>,
    /// Half-height of the error bar on the stack total.
    pub err: f64,
}

impl Bar {
    /// A bar with the given sub-label, segment values and total error.
    pub fn new(label: &str, segments: Vec<f64>, err: f64) -> Self {
        Bar {
            label: label.to_string(),
            segments,
            err,
        }
    }
}

/// One labeled group of bars (e.g. all bars of one workload).
#[derive(Clone, Debug, PartialEq)]
pub struct BarGroup {
    /// Group label under the axis.
    pub label: String,
    /// Bars, left to right.
    pub bars: Vec<Bar>,
}

impl BarGroup {
    /// An empty group.
    pub fn new(label: &str) -> Self {
        BarGroup {
            label: label.to_string(),
            bars: Vec::new(),
        }
    }

    /// Appends a bar.
    pub fn bar(mut self, bar: Bar) -> Self {
        self.bars.push(bar);
        self
    }
}

/// A grouped, stacked bar chart (the Fig. 17/18/19 breakdown style).
///
/// Segment colors follow [`crate::palette`] slot order; stacked fills are
/// separated by a 2-pixel surface gap so adjacent segments never touch.
#[derive(Clone, Debug)]
pub struct BarChart {
    title: String,
    subtitle: String,
    y_label: String,
    segment_names: Vec<String>,
    groups: Vec<BarGroup>,
    plot_height: f64,
}

impl BarChart {
    /// A chart whose stacks are built from `segment_names` (bottom-up
    /// order; also the legend order).
    pub fn new(title: &str, segment_names: &[&str]) -> Self {
        BarChart {
            title: title.to_string(),
            subtitle: String::new(),
            y_label: String::new(),
            segment_names: segment_names.iter().map(|s| s.to_string()).collect(),
            groups: Vec::new(),
            plot_height: 280.0,
        }
    }

    /// Sets the secondary title line.
    pub fn subtitle(mut self, subtitle: &str) -> Self {
        self.subtitle = subtitle.to_string();
        self
    }

    /// Sets the y-axis label.
    pub fn y_label(mut self, label: &str) -> Self {
        self.y_label = label.to_string();
        self
    }

    /// Adds a group of bars.
    pub fn group(mut self, group: BarGroup) -> Self {
        self.groups.push(group);
        self
    }

    /// Renders the chart to SVG text (deterministic for equal inputs).
    pub fn render(&self) -> String {
        const BAR_W: f64 = 22.0;
        const BAR_GAP: f64 = 8.0;
        const GROUP_PAD: f64 = 22.0;

        let plot_width: f64 = self
            .groups
            .iter()
            .map(|g| g.bars.len() as f64 * (BAR_W + BAR_GAP) + GROUP_PAD)
            .sum::<f64>()
            .max(200.0);
        let width = MARGIN_LEFT + plot_width + LEGEND_WIDTH;
        let height = MARGIN_TOP + self.plot_height + MARGIN_BOTTOM + 16.0;
        let (left, top) = (MARGIN_LEFT, MARGIN_TOP);
        let (right, bottom) = (left + plot_width, top + self.plot_height);
        let mut doc = Doc::new(width, height, palette::SURFACE);
        title_block(&mut doc, &self.title, &self.subtitle);

        let y_max = self
            .groups
            .iter()
            .flat_map(|g| &g.bars)
            .map(|b| b.segments.iter().sum::<f64>() + b.err)
            .fold(0.0f64, f64::max);
        let y_ticks = ticks_upto(y_max, 5);
        let y_top = *y_ticks.last().expect("at least one tick");
        let sy = LinearScale::new(0.0, y_top, bottom, top);

        for &t in &y_ticks {
            let y = sy.map(t);
            if t > 0.0 {
                doc.line(left, y, right, y, palette::GRID, 1.0);
            }
            doc.text(
                left - 8.0,
                y + 3.5,
                &fmt_tick(t),
                palette::INK_MUTED,
                11.0,
                "end",
                "",
                0.0,
            );
        }
        doc.line(left, bottom, right, bottom, palette::AXIS, 1.0);
        axis_titles(&mut doc, "", &self.y_label, 0.0, 0.0, (top + bottom) / 2.0);

        let mut x = left;
        for group in &self.groups {
            x += GROUP_PAD / 2.0;
            let group_start = x;
            for bar in &group.bars {
                // Stack bottom-up, leaving a 2px surface gap between fills.
                let mut base = 0.0;
                for (si, &v) in bar.segments.iter().enumerate() {
                    let y0 = sy.map(base);
                    let y1 = sy.map(base + v);
                    let gap = if si + 1 < bar.segments.len() && v > 0.0 {
                        2.0
                    } else {
                        0.0
                    };
                    let h = (y0 - y1 - gap).max(0.0);
                    if h > 0.0 {
                        let name = self
                            .segment_names
                            .get(si)
                            .map(String::as_str)
                            .unwrap_or("?");
                        let title = format!("{} {} · {name}: {v:.3}", group.label, bar.label);
                        doc.rect(
                            x,
                            y1 + gap,
                            BAR_W,
                            h,
                            palette::series_color(si),
                            "seg",
                            &title,
                        );
                    }
                    base += v;
                }
                if bar.err > 0.0 {
                    doc.error_bar(
                        x + BAR_W / 2.0,
                        sy.map((base - bar.err).max(0.0)),
                        sy.map(base + bar.err),
                        palette::INK_SECONDARY,
                    );
                }
                doc.text(
                    x + BAR_W / 2.0 + 3.0,
                    bottom + 10.0,
                    &bar.label,
                    palette::INK_MUTED,
                    9.5,
                    "end",
                    "",
                    -45.0,
                );
                x += BAR_W + BAR_GAP;
            }
            doc.text(
                (group_start + x - BAR_GAP) / 2.0,
                bottom + 52.0,
                &group.label,
                palette::INK_SECONDARY,
                11.5,
                "middle",
                "600",
                0.0,
            );
            x += GROUP_PAD / 2.0;
        }

        // Legend: one swatch per stack segment. A single unnamed segment
        // (plain bars) needs no legend box.
        if self.segment_names.len() > 1 {
            let lx = right + 24.0;
            for (i, name) in self.segment_names.iter().enumerate() {
                let y = top + i as f64 * LEGEND_ROW;
                doc.rect(lx, y, 12.0, 12.0, palette::series_color(i), "", "");
                doc.text(
                    lx + 18.0,
                    y + 10.0,
                    name,
                    palette::INK_SECONDARY,
                    11.0,
                    "",
                    "",
                    0.0,
                );
            }
        }
        doc.finish()
    }
}

/// Writes the shared title/subtitle block.
fn title_block(doc: &mut Doc, title: &str, subtitle: &str) {
    doc.text(16.0, 26.0, title, palette::INK, 15.0, "", "600", 0.0);
    if !subtitle.is_empty() {
        doc.text(
            16.0,
            44.0,
            subtitle,
            palette::INK_SECONDARY,
            11.5,
            "",
            "",
            0.0,
        );
    }
}

/// Writes the axis titles: x centered below the plot, y rotated along the
/// left edge.
#[allow(clippy::too_many_arguments)] // thin wrapper over text placement
fn axis_titles(doc: &mut Doc, x_label: &str, y_label: &str, x_mid: f64, x_y: f64, y_mid: f64) {
    if !x_label.is_empty() {
        doc.text(
            x_mid,
            x_y,
            x_label,
            palette::INK_MUTED,
            11.5,
            "middle",
            "",
            0.0,
        );
    }
    if !y_label.is_empty() {
        doc.text(
            16.0,
            y_mid,
            y_label,
            palette::INK_MUTED,
            11.5,
            "middle",
            "",
            -90.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_series_chart() -> LineChart {
        LineChart::new("speedup")
            .subtitle("2 seeds")
            .x_label("threads")
            .y_label("speedup")
            .log2_x(true)
            .series(
                Series::new("counter (commtm)")
                    .point_err(1.0, 1.0, 0.0)
                    .point_err(8.0, 7.5, 0.4)
                    .point_err(32.0, 28.0, 1.2),
            )
            .series(
                Series::new("counter (baseline)")
                    .dashed("5 4")
                    .point(1.0, 1.0)
                    .point(8.0, 0.9)
                    .point(32.0, 0.8),
            )
    }

    #[test]
    fn line_chart_renders_series_legend_and_error_bars() {
        let svg = two_series_chart().render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("counter (commtm)"));
        assert!(svg.contains("counter (baseline)"));
        assert!(svg.contains("class=\"errbar\""), "err > 0 draws bars");
        assert!(svg.contains("stroke-dasharray=\"5 4\""));
        assert!(!svg.contains("NaN"));
        assert_eq!(
            svg.matches("<polyline").count(),
            2 + 1,
            "2 lines + legend dash sample"
        );
    }

    #[test]
    fn zero_stddev_draws_no_error_bars() {
        let svg = LineChart::new("t")
            .series(Series::new("a").point(1.0, 1.0).point(2.0, 2.0))
            .render();
        assert!(!svg.contains("errbar"));
        // Single series: no legend text beyond the title.
        assert_eq!(
            svg.matches("<text").count(),
            1 + 2 + 3 + 2,
            "title + y ticks + x ticks"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(two_series_chart().render(), two_series_chart().render());
    }

    #[test]
    fn bar_chart_stacks_segments_with_legend() {
        let chart = BarChart::new("cycles", &["non-tx", "committed", "aborted"])
            .y_label("normalized cycles")
            .group(
                BarGroup::new("kmeans")
                    .bar(Bar::new("baseline@8", vec![0.2, 0.5, 0.3], 0.05))
                    .bar(Bar::new("commtm@8", vec![0.2, 0.5, 0.0], 0.0)),
            );
        let svg = chart.render();
        // 3 + 2 segments drawn (zero-height segment skipped) + 3 legend swatches.
        assert_eq!(svg.matches("class=\"seg\"").count(), 5);
        assert!(svg.contains("non-tx") && svg.contains("aborted"));
        assert!(svg.contains("class=\"errbar\""));
        assert!(svg.contains("kmeans"));
        assert!(!svg.contains("NaN"));
        assert_eq!(chart.render(), chart.render());
    }

    #[test]
    fn empty_charts_still_render_valid_documents() {
        let svg = LineChart::new("empty").render();
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
        let svg = BarChart::new("empty", &["a"]).render();
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
    }
}
