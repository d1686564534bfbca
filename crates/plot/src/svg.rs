//! Low-level SVG document assembly: escaping, coordinate formatting, and
//! a small element writer shared by both chart types.

use std::fmt::Write as _;

/// Escapes text for SVG/XML content and attribute values.
pub fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a pixel coordinate with fixed (deterministic) precision.
pub fn px(v: f64) -> String {
    let v = if v == 0.0 { 0.0 } else { v }; // normalize -0.0
    format!("{v:.2}")
}

/// An SVG document under construction.
///
/// Wraps a string buffer with helpers for the handful of elements charts
/// need; [`Doc::finish`] closes the root element and returns the text.
pub struct Doc {
    out: String,
}

impl Doc {
    /// Opens an SVG document of the given pixel size with a filled
    /// background surface.
    pub fn new(width: f64, height: f64, background: &str) -> Self {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {w} {h}\" \
             width=\"{w}\" height=\"{h}\" role=\"img\">",
            w = px(width),
            h = px(height),
        );
        let _ = writeln!(
            out,
            "<rect x=\"0\" y=\"0\" width=\"{}\" height=\"{}\" fill=\"{}\"/>",
            px(width),
            px(height),
            background
        );
        Doc { out }
    }

    /// Emits a line segment.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        let _ = writeln!(
            self.out,
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"{}\" stroke-width=\"{}\"/>",
            px(x1),
            px(y1),
            px(x2),
            px(y2),
            stroke,
            px(width)
        );
    }

    /// Emits a filled rectangle; a non-empty `title` becomes the native
    /// hover tooltip.
    #[allow(clippy::too_many_arguments)] // thin wrapper over SVG's own attribute list
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, class: &str, title: &str) {
        let _ = write!(
            self.out,
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"",
            px(x),
            px(y),
            px(w),
            px(h),
            fill
        );
        if !class.is_empty() {
            let _ = write!(self.out, " class=\"{class}\"");
        }
        if title.is_empty() {
            self.out.push_str("/>\n");
        } else {
            let _ = writeln!(self.out, "><title>{}</title></rect>", esc(title));
        }
    }

    /// Emits a circle marker with a surface-colored ring so overlapping
    /// markers stay separable.
    pub fn marker(&mut self, x: f64, y: f64, r: f64, fill: &str, ring: &str, title: &str) {
        let _ = write!(
            self.out,
            "<circle cx=\"{}\" cy=\"{}\" r=\"{}\" fill=\"{}\" stroke=\"{}\" stroke-width=\"1\"",
            px(x),
            px(y),
            px(r),
            fill,
            ring
        );
        if title.is_empty() {
            self.out.push_str("/>\n");
        } else {
            let _ = writeln!(self.out, "><title>{}</title></circle>", esc(title));
        }
    }

    /// Emits an open polyline through `points`, optionally dashed.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64, dash: &str) {
        let coords: Vec<String> = points
            .iter()
            .map(|&(x, y)| format!("{},{}", px(x), px(y)))
            .collect();
        let _ = write!(
            self.out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{}\" stroke-width=\"{}\" \
             stroke-linejoin=\"round\"",
            coords.join(" "),
            stroke,
            px(width)
        );
        if !dash.is_empty() {
            let _ = write!(self.out, " stroke-dasharray=\"{dash}\"");
        }
        self.out.push_str("/>\n");
    }

    /// Emits a text element. `anchor` is the SVG `text-anchor` value and
    /// `weight` the font weight (empty for normal).
    #[allow(clippy::too_many_arguments)] // thin wrapper over SVG's own attribute list
    pub fn text(
        &mut self,
        x: f64,
        y: f64,
        content: &str,
        fill: &str,
        size: f64,
        anchor: &str,
        weight: &str,
        rotate: f64,
    ) {
        let _ = write!(
            self.out,
            "<text x=\"{}\" y=\"{}\" fill=\"{}\" font-size=\"{}\" font-family=\"{}\"",
            px(x),
            px(y),
            fill,
            px(size),
            crate::palette::FONT
        );
        if !anchor.is_empty() {
            let _ = write!(self.out, " text-anchor=\"{anchor}\"");
        }
        if !weight.is_empty() {
            let _ = write!(self.out, " font-weight=\"{weight}\"");
        }
        if rotate != 0.0 {
            let _ = write!(
                self.out,
                " transform=\"rotate({} {} {})\"",
                px(rotate),
                px(x),
                px(y)
            );
        }
        let _ = writeln!(self.out, ">{}</text>", esc(content));
    }

    /// Emits an error bar (vertical whisker with end caps) spanning
    /// `y_lo..y_hi` at `x`, tagged `class="errbar"` so tests and CI can
    /// assert its presence.
    pub fn error_bar(&mut self, x: f64, y_lo: f64, y_hi: f64, stroke: &str) {
        let cap = 3.0;
        let _ = writeln!(
            self.out,
            "<g class=\"errbar\" stroke=\"{stroke}\" stroke-width=\"1.20\">\
             <line x1=\"{x0}\" y1=\"{lo}\" x2=\"{x0}\" y2=\"{hi}\"/>\
             <line x1=\"{xl}\" y1=\"{lo}\" x2=\"{xr}\" y2=\"{lo}\"/>\
             <line x1=\"{xl}\" y1=\"{hi}\" x2=\"{xr}\" y2=\"{hi}\"/></g>",
            x0 = px(x),
            lo = px(y_lo),
            hi = px(y_hi),
            xl = px(x - cap),
            xr = px(x + cap),
        );
    }

    /// Closes the document and returns the SVG text.
    pub fn finish(mut self) -> String {
        self.out.push_str("</svg>\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_markup() {
        assert_eq!(esc("a<b & \"c\"'"), "a&lt;b &amp; &quot;c&quot;&apos;");
    }

    #[test]
    fn coordinates_are_fixed_precision() {
        assert_eq!(px(1.0), "1.00");
        assert_eq!(px(1.0 / 3.0), "0.33");
        assert_eq!(px(-0.0), "0.00");
    }

    #[test]
    fn document_opens_and_closes() {
        let mut d = Doc::new(100.0, 50.0, "#fff");
        d.line(0.0, 0.0, 10.0, 10.0, "#000", 1.0);
        d.rect(0.0, 0.0, 5.0, 5.0, "#123", "seg", "five & five");
        let out = d.finish();
        assert!(out.starts_with("<svg"));
        assert!(out.ends_with("</svg>\n"));
        assert!(out.contains("five &amp; five"));
        assert!(out.contains("class=\"seg\""));
    }
}
