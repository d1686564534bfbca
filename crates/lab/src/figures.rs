//! Figure rendering: turning a [`ResultSet`] into the paper's charts.
//!
//! Where [`crate::report`] renders text tables with shape checks, this
//! module renders the actual figures as SVG (via [`commtm_plot`]) and
//! Table II as an HTML table:
//!
//! - [`ReportKind::Speedup`] → a line chart of speedup vs threads, one
//!   series per workload label × scheme (color follows the label, dash
//!   pattern follows the scheme, as Figs. 9–16),
//! - [`ReportKind::CycleBreakdown`] / [`ReportKind::WastedBreakdown`] /
//!   [`ReportKind::GetsBreakdown`] → grouped stacked bars (Figs. 17–19),
//! - [`ReportKind::Table2`] → an HTML characteristics table.
//!
//! Whenever the scenario sweeps ≥ 2 seeds, every point/stack carries a
//! mean ± sample-stddev error bar computed by
//! [`ResultSet::summary_stat`]; single-seed sweeps draw none (spread 0).
//! Failed cells simply leave gaps — a missing point is honest, a
//! fabricated one is not.

use std::fmt::Write as _;

use commtm::{ProtoConfig, Scheme, WORDS_PER_LINE};
use commtm_plot::{palette, Bar, BarChart, BarGroup, LineChart, Series};

use crate::report::{norm_scheme, serial_reference};
use crate::results::{summarize, waste_bucket_name, CellStats, ResultSet, Summary};
use crate::spec::{scheme_name, ReportKind, Scenario};

/// Looks a figure color theme up by CLI name (`"light"` / `"dark"`).
pub fn theme_by_name(name: &str) -> Option<palette::Theme> {
    palette::Theme::by_name(name)
}

/// The artifact file name for a scenario's figure (`<name>.svg`, or
/// `<name>.html` for the Table II style).
pub fn figure_file_name(scenario: &Scenario) -> String {
    match scenario.report {
        ReportKind::Table2 => format!("{}.html", scenario.name),
        _ => format!("{}.svg", scenario.name),
    }
}

/// Renders the scenario's figure from its results under the default
/// light theme. The text is SVG for every chart kind and a standalone
/// HTML document for [`ReportKind::Table2`] (see [`figure_file_name`]).
pub fn render_figure(scenario: &Scenario, set: &ResultSet) -> String {
    render_figure_themed(scenario, set, palette::Theme::light())
}

/// [`render_figure`] under an explicit color [`palette::Theme`] (the
/// `commtm-lab run --theme dark` path).
pub fn render_figure_themed(scenario: &Scenario, set: &ResultSet, theme: palette::Theme) -> String {
    match scenario.report {
        ReportKind::Speedup => speedup_chart(scenario, set, theme),
        ReportKind::CycleBreakdown => breakdown_chart(
            scenario,
            set,
            theme,
            &["non-tx", "committed", "aborted"],
            "cycles",
            |s, i| [s.nontx_cycles, s.committed_cycles, s.aborted_cycles][i] as f64,
        ),
        ReportKind::WastedBreakdown => breakdown_chart(
            scenario,
            set,
            theme,
            &[
                waste_bucket_name(0),
                waste_bucket_name(1),
                waste_bucket_name(2),
                waste_bucket_name(3),
            ],
            "wasted cycles",
            |s, i| s.wasted[i] as f64,
        ),
        ReportKind::GetsBreakdown => gets_chart(scenario, set, theme),
        ReportKind::Table2 => table2_html(scenario, set, theme),
    }
}

/// The shared subtitle: scenario identity plus what the error bars mean.
fn subtitle(scenario: &Scenario, set: &ResultSet) -> String {
    let seeds = scenario.seeds.len();
    let spread = if seeds >= 2 {
        format!(" · mean ± stddev over {seeds} seeds")
    } else {
        String::new()
    };
    format!("scenario {} · scale {}{spread}", set.scenario, set.scale)
}

/// Speedup vs threads (Figs. 9–16): per-seed speedups are each seed's
/// cycles against the label's (mean) serial reference, so the error bar
/// reflects the spread of the measured runs themselves.
fn speedup_chart(scenario: &Scenario, set: &ResultSet, theme: palette::Theme) -> String {
    let mut chart = LineChart::new(&format!("{}: {}", set.scenario, set.title))
        .theme(theme)
        .subtitle(&subtitle(scenario, set))
        .x_label("threads")
        .y_label("speedup over serial")
        .log2_x(true);
    let schemes = set.schemes();
    for (li, label) in set.labels().into_iter().enumerate() {
        let Some(serial) = serial_reference(set, label) else {
            continue;
        };
        for &scheme in &schemes {
            // Color follows the workload label (the entity, one palette
            // slot per label); the scheme rides on the dash pattern, so a
            // label's baseline and CommTM curves read as one family.
            let mut series = Series::new(&series_name(label, scheme, &schemes)).slot(li);
            if scheme == Scheme::Baseline && schemes.len() > 1 {
                series = series.dashed("5 4");
            }
            let mut any = false;
            for &t in &set.thread_counts() {
                let Some(cycles) = set.seed_values(label, t, scheme, |s| s.total_cycles as f64)
                else {
                    continue;
                };
                let speedups: Vec<f64> = cycles
                    .iter()
                    .filter(|&&c| c > 0.0)
                    .map(|&c| serial / c)
                    .collect();
                if let Some(s) = summarize(&speedups) {
                    series = series.point_err(t as f64, s.mean, s.stddev);
                    any = true;
                }
            }
            if any {
                chart = chart.series(series);
            }
        }
    }
    chart.render()
}

/// The legend name for one (label, scheme) series.
fn series_name(label: &str, scheme: Scheme, schemes: &[Scheme]) -> String {
    if schemes.len() > 1 {
        format!("{label} ({})", scheme_name(scheme))
    } else {
        label.to_string()
    }
}

/// Fig. 17/18 style: one group per workload, one stacked bar per
/// (scheme, threads) point, normalized to the label's total at the
/// normalization point — the same convention as the text report.
fn breakdown_chart(
    scenario: &Scenario,
    set: &ResultSet,
    theme: palette::Theme,
    segments: &[&str],
    what: &str,
    component: impl Fn(&CellStats, usize) -> f64,
) -> String {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let norm_threads = threads.first().copied().unwrap_or(8);
    let norm = norm_scheme(&schemes);
    let total = |s: &CellStats| (0..segments.len()).map(|i| component(s, i)).sum::<f64>();
    let mut chart = BarChart::new(&format!("{}: {}", set.scenario, set.title), segments)
        .theme(theme)
        .subtitle(&subtitle(scenario, set))
        .y_label(&format!(
            "{what} (normalized to {}@{})",
            scheme_name(norm),
            norm_threads
        ));
    for label in set.labels() {
        // No normalization reference (its cells failed) means no honest
        // way to scale this label's bars — leave the gap rather than
        // plotting raw counts on a normalized axis.
        let Some(norm_total) = set.mean_stat(label, norm_threads, norm, total) else {
            continue;
        };
        let norm_total = norm_total.max(1.0);
        let mut group = BarGroup::new(label);
        for &t in &threads {
            for &scheme in &schemes {
                let values: Option<Vec<f64>> = (0..segments.len())
                    .map(|i| set.mean_stat(label, t, scheme, |s| component(s, i)))
                    .collect();
                let Some(values) = values else { continue };
                let spread = set
                    .summary_stat(label, t, scheme, total)
                    .map_or(0.0, |s: Summary| s.stddev);
                group = group.bar(Bar::new(
                    &format!("{}@{t}", scheme_name(scheme)),
                    values.iter().map(|v| v / norm_total).collect(),
                    spread / norm_total,
                ));
            }
        }
        if !group.bars.is_empty() {
            chart = chart.group(group);
        }
    }
    chart.render()
}

/// Fig. 19 style: GETS/GETX/GETU stacks normalized per thread point (the
/// paper compares schemes at equal thread counts).
fn gets_chart(scenario: &Scenario, set: &ResultSet, theme: palette::Theme) -> String {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let norm = norm_scheme(&schemes);
    let mut chart = BarChart::new(
        &format!("{}: {}", set.scenario, set.title),
        &["GETS", "GETX", "GETU"],
    )
    .theme(theme)
    .subtitle(&subtitle(scenario, set))
    .y_label(&format!(
        "directory GETs (normalized to {} per point)",
        scheme_name(norm)
    ));
    for label in set.labels() {
        let mut group = BarGroup::new(label);
        for &t in &threads {
            // As in breakdown_chart: a missing per-point reference leaves
            // a gap instead of plotting raw counts on a normalized axis.
            let Some(norm_total) = set.mean_stat(label, t, norm, |s| s.total_gets() as f64) else {
                continue;
            };
            let norm_total = norm_total.max(1.0);
            for &scheme in &schemes {
                let parts = [
                    set.mean_stat(label, t, scheme, |s| s.gets as f64),
                    set.mean_stat(label, t, scheme, |s| s.getx as f64),
                    set.mean_stat(label, t, scheme, |s| s.getu as f64),
                ];
                let [Some(gets), Some(getx), Some(getu)] = parts else {
                    continue;
                };
                let spread = set
                    .summary_stat(label, t, scheme, |s| s.total_gets() as f64)
                    .map_or(0.0, |s| s.stddev);
                group = group.bar(Bar::new(
                    &format!("{}@{t}", scheme_name(scheme)),
                    vec![gets / norm_total, getx / norm_total, getu / norm_total],
                    spread / norm_total,
                ));
            }
        }
        if !group.bars.is_empty() {
            chart = chart.group(group);
        }
    }
    chart.render()
}

/// Table II as a standalone HTML document: per-workload characteristics,
/// with a ± column whenever more than one seed was swept.
fn table2_html(scenario: &Scenario, set: &ResultSet, theme: palette::Theme) -> String {
    let multi_seed = scenario.seeds.len() >= 2;
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let mut rows = String::new();
    for label in set.labels() {
        let (Some(&t), Some(&scheme)) = (threads.first(), schemes.first()) else {
            continue;
        };
        let stat = |f: &dyn Fn(&CellStats) -> f64| set.summary_stat(label, t, scheme, f);
        let Some(commits) = stat(&|s| s.commits as f64) else {
            let _ = writeln!(
                rows,
                "<tr><td>{}</td><td colspan=\"5\" class=\"err\">failed</td></tr>",
                commtm_plot::svg::esc(label)
            );
            continue;
        };
        let cell = |s: Option<Summary>| -> String {
            let Some(s) = s else { return "—".into() };
            if multi_seed && s.stddev > 0.0 {
                format!("{:.1} ± {:.1}", s.mean, s.stddev)
            } else {
                format!("{:.1}", s.mean)
            }
        };
        let frac = stat(&|s| 100.0 * s.labeled_fraction);
        let _ = writeln!(
            rows,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}%</td></tr>",
            commtm_plot::svg::esc(label),
            cell(Some(commits)),
            cell(stat(&|s| s.aborts as f64)),
            cell(stat(&|s| s.gathers as f64)),
            cell(stat(&|s| s.reductions as f64)),
            cell(frac),
        );
    }
    html_table(
        &format!("{}: {}", set.scenario, set.title),
        &subtitle(scenario, set),
        "<th>workload</th><th>commits</th><th>aborts</th>\
         <th>gathers</th><th>reductions</th><th>labeled ops</th>",
        &rows,
        "",
        theme,
    )
}

/// Table I's heading, in its own document and in the report index.
const TABLE1_TITLE: &str = "Table I: configuration of the simulated system";

/// Table I as a standalone HTML document: the simulated system's
/// configuration, read from [`ProtoConfig::paper`] and its mesh.
/// Every grid cell builds this machine, with as many active cores as the
/// cell has threads.
pub fn table1_html(theme: palette::Theme) -> String {
    let c = ProtoConfig::paper();
    let rows = format!(
        "<tr><td>Cores</td><td>{cores} cores, IPC-1 except on L1 misses (simulated)</td></tr>\n\
         <tr><td>L1 caches</td><td>{l1_kb}KB, private per-core, {l1_ways}-way \
         set-associative</td></tr>\n\
         <tr><td>L2 caches</td><td>{l2_kb}KB, private per-core, {l2_ways}-way, inclusive, \
         {l2_lat}-cycle latency</td></tr>\n\
         <tr><td>L3 cache</td><td>{l3_mb}MB, shared, {banks} x {bank_mb}MB banks, \
         {l3_ways}-way, inclusive, {l3_lat}-cycle bank latency, in-cache directory</td></tr>\n\
         <tr><td>Coherence</td><td>MESI/CommTM, {line}B lines, no silent drops</td></tr>\n\
         <tr><td>NoC</td><td>{tiles}-tile mesh, 2-cycle routers, 1-cycle links</td></tr>\n\
         <tr><td>Main mem</td><td>{mem_lat}-cycle latency</td></tr>\n",
        cores = c.cores,
        l1_kb = c.l1.size_bytes() >> 10,
        l1_ways = c.l1.ways(),
        l2_kb = c.l2.size_bytes() >> 10,
        l2_ways = c.l2.ways(),
        l2_lat = c.l2_latency,
        l3_mb = (c.l3_bank.size_bytes() * c.l3_banks) >> 20,
        banks = c.l3_banks,
        bank_mb = c.l3_bank.size_bytes() >> 20,
        l3_ways = c.l3_bank.ways(),
        l3_lat = c.l3_latency,
        line = WORDS_PER_LINE * 8,
        tiles = c.mesh.tiles(),
        mem_lat = c.mem_latency,
    );
    html_table(
        TABLE1_TITLE,
        "the machine every grid cell simulates, with one active core per thread",
        "<th>component</th><th>configuration</th>",
        &rows,
        "th, td { text-align: left; }\n",
        theme,
    )
}

/// A standalone HTML document holding one table: `head` is the header
/// row's `<th>` cells, `rows` the rendered `<tr>` lines and `css` is
/// appended to the shared style sheet.
fn html_table(
    title: &str,
    sub_line: &str,
    head: &str,
    rows: &str,
    css: &str,
    theme: palette::Theme,
) -> String {
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>{title}</title>\n<style>\n\
         body {{ font-family: {font}; background: {surface}; color: {ink}; margin: 2rem; }}\n\
         h1 {{ font-size: 1.1rem; }}\n\
         p.sub {{ color: {sub}; font-size: 0.85rem; }}\n\
         table {{ border-collapse: collapse; font-variant-numeric: tabular-nums; }}\n\
         th, td {{ text-align: right; padding: 0.35rem 0.9rem; \
         border-bottom: 1px solid {grid}; font-size: 0.9rem; }}\n\
         th {{ color: {sub}; font-weight: 600; }}\n\
         td:first-child, th:first-child {{ text-align: left; }}\n\
         td.err {{ color: #d03b3b; text-align: left; }}\n\
         {css}</style></head><body>\n<h1>{title}</h1>\n<p class=\"sub\">{sub_line}</p>\n\
         <table>\n<thead><tr>{head}</tr></thead>\n\
         <tbody>\n{rows}</tbody>\n</table>\n</body></html>\n",
        title = commtm_plot::svg::esc(title),
        sub_line = commtm_plot::svg::esc(sub_line),
        font = palette::FONT,
        surface = theme.surface,
        ink = theme.ink,
        sub = theme.ink_secondary,
        grid = theme.grid,
    )
}

/// Renders the abort-cause breakdown for a traced sweep: one group per
/// workload label, one stacked bar per (scheme, threads) point, one
/// segment per abort cause observed anywhere in the sweep (causes use the
/// stable `AbortKind::name` spellings). Counts are summed over seed
/// replicas — this is an attribution census, not a normalized comparison.
/// Returns `None` when no cell carries a trace (the sweep ran with
/// tracing off).
pub fn abort_causes_figure(
    scenario: &Scenario,
    set: &ResultSet,
    theme: palette::Theme,
) -> Option<String> {
    let summaries: Vec<(usize, crate::trace::TraceSummary)> = set
        .cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            c.trace
                .as_ref()
                .map(|t| (i, crate::trace::summarize_trace(t)))
        })
        .collect();
    if summaries.is_empty() {
        return None;
    }
    // The segment list is the union of observed causes, in first-seen
    // order over the deterministic cell order.
    let mut causes: Vec<String> = Vec::new();
    for (_, s) in &summaries {
        for k in s.abort_causes.keys() {
            if !causes.contains(k) {
                causes.push(k.clone());
            }
        }
    }
    if causes.is_empty() {
        // A run with zero aborts still renders (empty bars beat a missing
        // artifact in a pipeline that expects one).
        causes.push("none".to_string());
    }
    let segments: Vec<&str> = causes.iter().map(String::as_str).collect();
    let mut chart = BarChart::new(&format!("{}: abort causes", set.scenario), &segments)
        .theme(theme)
        .subtitle(&subtitle(scenario, set))
        .y_label("aborts by attributed cause (sum over seeds)");
    for label in set.labels() {
        let mut group = BarGroup::new(label);
        for &t in &set.thread_counts() {
            for &scheme in &set.schemes() {
                let mut values = vec![0.0; causes.len()];
                let mut any = false;
                for (i, s) in &summaries {
                    let c = &set.cells[*i].cell;
                    if c.label == label && c.threads == t && c.scheme == scheme {
                        any = true;
                        for (ci, name) in causes.iter().enumerate() {
                            values[ci] += s.abort_causes.get(name).copied().unwrap_or(0) as f64;
                        }
                    }
                }
                if any {
                    group = group.bar(Bar::new(
                        &format!("{}@{t}", scheme_name(scheme)),
                        values,
                        0.0,
                    ));
                }
            }
        }
        if !group.bars.is_empty() {
            chart = chart.group(group);
        }
    }
    Some(chart.render())
}

/// Renders the `run --all` report index: one HTML page linking every
/// figure and results file listed in the manifest (the `manifest.json`
/// document `commtm-lab run --all` writes). SVG figures embed inline via
/// `<img>`; the Table I and Table II HTML reports link through.
/// Deterministic — the page is a pure function of the manifest.
pub fn render_index(manifest: &crate::json::Json) -> String {
    use crate::json::Json;
    let esc = commtm_plot::svg::esc;
    let mut sections = String::new();
    if let Some(table) = manifest.get("config_table").and_then(Json::as_str) {
        let _ = writeln!(
            sections,
            "<section>\n<h2>{TABLE1_TITLE}</h2>\n\
             <p><a href=\"{0}\">open {0}</a></p>\n</section>",
            esc(table)
        );
    }
    let figures = manifest
        .get("figures")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for entry in figures {
        let s = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("?");
        let u = |k: &str| entry.get(k).and_then(Json::as_u64).unwrap_or(0);
        let ok = entry.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let figure = s("figure");
        let media = if figure.ends_with(".svg") {
            format!(
                "<a href=\"{0}\"><img src=\"{0}\" alt=\"{1}\"></a>",
                esc(figure),
                esc(s("title"))
            )
        } else {
            format!("<p><a href=\"{0}\">open {0}</a></p>", esc(figure))
        };
        // Trace artifacts only exist for traced runs (`--all --trace`).
        let mut trace_links = String::new();
        if let Some(aborts) = entry.get("aborts_figure").and_then(Json::as_str) {
            let _ = write!(
                trace_links,
                " · <a href=\"{0}\">abort causes</a>",
                esc(aborts)
            );
        }
        if let Some(trace) = entry.get("trace").and_then(Json::as_str) {
            let _ = write!(trace_links, " · <a href=\"{0}\">trace</a>", esc(trace));
        }
        // Failed cells render as gaps in the figure; name them here so
        // the report says *which* points are missing, not just that some
        // are (batch runs record the list in the manifest).
        let mut failed_list = String::new();
        if let Some(failed) = entry.get("failed").and_then(Json::as_arr) {
            if !failed.is_empty() {
                failed_list.push_str("<ul class=\"failed-cells\">\n");
                for cell in failed {
                    let _ = writeln!(
                        failed_list,
                        "<li>{}</li>",
                        esc(cell.as_str().unwrap_or("?"))
                    );
                }
                failed_list.push_str("</ul>\n");
            }
        }
        let _ = writeln!(
            sections,
            "<section{warn}>\n<h2>{name}: {title}</h2>\n{media}\n\
             <p class=\"sub\">{report} report · {cells} cells · scale {scale} · \
             {seeds} seed(s){flag} · <a href=\"{results}\">results JSON</a>\
             {trace_links}</p>\n{failed_list}</section>",
            warn = if ok { "" } else { " class=\"failed\"" },
            name = esc(s("name")),
            title = esc(s("title")),
            media = media,
            report = esc(s("report")),
            cells = u("cells"),
            scale = u("scale"),
            seeds = u("seeds"),
            flag = if ok { "" } else { " · SOME CELLS FAILED" },
            results = esc(s("results")),
        );
    }
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>commtm-lab report</title>\n<style>\n\
         body {{ font-family: {font}; background: {surface}; color: {ink}; \
         margin: 2rem auto; max-width: 72rem; padding: 0 1rem; }}\n\
         h1 {{ font-size: 1.2rem; }}\n\
         h2 {{ font-size: 1rem; margin-bottom: 0.4rem; }}\n\
         p.sub {{ color: {sub}; font-size: 0.85rem; }}\n\
         section {{ margin: 2rem 0; border-bottom: 1px solid {grid}; \
         padding-bottom: 1rem; }}\n\
         section.failed h2::after {{ content: \" ⚠\"; color: #d03b3b; }}\n\
         ul.failed-cells {{ color: #d03b3b; font-size: 0.85rem; }}\n\
         img {{ max-width: 100%; height: auto; }}\n\
         a {{ color: inherit; }}\n\
         </style></head><body>\n<h1>commtm-lab report</h1>\n\
         <p class=\"sub\">generated by {generator} · {count} figure(s) · \
         see <a href=\"manifest.json\">manifest.json</a></p>\n\
         {sections}</body></html>\n",
        font = palette::FONT,
        surface = palette::SURFACE,
        ink = palette::INK,
        sub = palette::INK_SECONDARY,
        grid = palette::GRID,
        generator = esc(manifest
            .get("generator")
            .and_then(Json::as_str)
            .unwrap_or("commtm-lab")),
        count = figures.len(),
        sections = sections,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_scenario_serial;
    use crate::spec::WorkloadSpec;

    fn tiny(seeds: &[u64], report: ReportKind) -> (Scenario, ResultSet) {
        let scn = Scenario::new("tiny", "tiny figure scenario")
            .workload(WorkloadSpec::named("counter").param("total_incs", 120))
            .threads(&[1, 2])
            .seeds(seeds)
            .report(report);
        let set = run_scenario_serial(&scn).expect("tiny scenario runs");
        (scn, set)
    }

    #[test]
    fn speedup_svg_has_error_bars_iff_multi_seed() {
        let (scn, set) = tiny(&[11, 12], ReportKind::Speedup);
        let svg = render_figure(&scn, &set);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("counter (commtm)"));
        assert!(svg.contains("counter (baseline)"));
        assert!(
            svg.contains("class=\"errbar\""),
            "two seeds must draw error bars:\n{svg}"
        );
        let (scn1, set1) = tiny(&[11], ReportKind::Speedup);
        let svg1 = render_figure(&scn1, &set1);
        assert!(
            !svg1.contains("errbar"),
            "a single seed has zero spread and no error bars"
        );
        assert_eq!(figure_file_name(&scn), "tiny.svg");
    }

    #[test]
    fn breakdown_svg_stacks_components() {
        let (scn, set) = tiny(&[11, 12], ReportKind::CycleBreakdown);
        let svg = render_figure(&scn, &set);
        assert!(svg.contains("class=\"seg\""));
        assert!(svg.contains("committed"));
        assert!(!svg.contains("NaN"));
        let (scn, set) = tiny(&[11], ReportKind::WastedBreakdown);
        let svg = render_figure(&scn, &set);
        assert!(svg.contains("RaW"), "fig18 buckets label the legend");
    }

    #[test]
    fn missing_normalization_reference_leaves_a_gap_not_raw_counts() {
        let (scn, mut set) = tiny(&[11], ReportKind::CycleBreakdown);
        // Fail the normalization reference cells (baseline @ 1 thread).
        for c in &mut set.cells {
            if c.cell.threads == 1 && c.cell.scheme == Scheme::Baseline {
                c.stats = None;
                c.error = Some("induced failure".into());
            }
        }
        let svg = render_figure(&scn, &set);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
        assert!(
            !svg.contains("class=\"seg\""),
            "without a normalization reference the label's bars are \
             skipped, never drawn as raw counts:\n{svg}"
        );
    }

    #[test]
    fn table2_renders_html() {
        let (scn, set) = tiny(&[11, 12], ReportKind::Table2);
        let html = render_figure(&scn, &set);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<td>counter</td>"));
        assert!(html.contains("labeled ops"));
        assert_eq!(figure_file_name(&scn), "tiny.html");
    }
}
