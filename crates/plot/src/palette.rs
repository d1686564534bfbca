//! Chart colors: a validated categorical palette plus chrome inks, the
//! one color scheme every chart, table and report index uses (a light
//! surface).
//!
//! The categorical order is a CVD-safety mechanism, not cosmetics: the
//! sequence was validated so that every *adjacent* pair (the pairs that
//! end up next to each other in stacks, bars and legends) stays
//! distinguishable under common color-vision deficiencies on the light
//! chart surface. Series must therefore be assigned slots **in order**,
//! never cycled or shuffled; a chart needing more than
//! [`SERIES.len()`](SERIES) series should fold or facet instead.

/// Categorical series colors, in fixed assignment order.
pub const SERIES: [&str; 8] = [
    "#2a78d6", // blue
    "#eb6834", // orange
    "#1baf7a", // aqua
    "#eda100", // yellow
    "#e87ba4", // magenta
    "#008300", // green
    "#4a3aa7", // violet
    "#e34948", // red
];

/// Chart surface (background) color.
pub const SURFACE: &str = "#fcfcfb";
/// Primary ink: titles.
pub const INK: &str = "#0b0b0b";
/// Secondary ink: subtitles, legend text, error bars on stacks.
pub const INK_SECONDARY: &str = "#52514e";
/// Muted ink: axis tick labels and axis titles.
pub const INK_MUTED: &str = "#898781";
/// Hairline gridlines.
pub const GRID: &str = "#e1e0d9";
/// Axis baseline.
pub const AXIS: &str = "#c3c2b7";
/// The font stack used by every text element.
pub const FONT: &str = "system-ui, -apple-system, sans-serif";

/// The categorical color for series slot `index`.
///
/// Indices beyond the palette clamp to the last slot rather than cycling
/// — a repeated hue would silently make two series indistinguishable,
/// while a clamped one is at least visibly wrong in the legend.
pub fn series_color(index: usize) -> &'static str {
    SERIES[index.min(SERIES.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_stable_and_clamped() {
        assert_eq!(series_color(0), "#2a78d6");
        assert_eq!(series_color(1), "#eb6834");
        assert_eq!(series_color(100), *SERIES.last().unwrap());
    }
}
