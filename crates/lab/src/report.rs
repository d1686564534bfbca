//! The numbers behind each figure, and the text report that prints them.
//!
//! [`figure_data`] turns a [`ResultSet`] into the plain [`FigureData`]
//! of its scenario's [`ReportKind`]: speedup series, normalized stacked
//! bars, or Table II rows. [`render`] prints that data as text with the
//! original per-figure harness's qualitative shape checks
//! (`commtm-lab run fig09` prints it), and
//! [`crate::figures::render_figure`] draws the same data, so the text
//! report and the figure cannot disagree.
//!
//! The policies live here once:
//!
//! - a speedup point is the mean ± sample stddev over seeds of each
//!   seed's speedup against the label's (mean) serial reference;
//! - a breakdown stack is divided by the label's reference total (its
//!   normalization point), and a label or point whose reference failed
//!   is left out — a gap, never raw counts on a normalized axis;
//! - Table II has one row per workload label, read at the first swept
//!   (threads, scheme) point.

use std::fmt::Write as _;

use commtm::Scheme;

use crate::results::{summarize, waste_bucket_name, CellStats, ResultSet, Summary};
use crate::spec::{scheme_name, ReportKind, Scenario, SpeedupCheck};

/// The plain numbers behind one figure.
#[derive(Clone, Debug, PartialEq)]
pub enum FigureData {
    /// Speedup vs threads (Figs. 9–16).
    Speedup(Speedup),
    /// Normalized stacked bars (Figs. 17–19).
    Breakdown(Breakdown),
    /// Table II: one row per workload label, in cell order.
    Table2(Vec<Table2Row>),
}

/// Speedup series over the serial reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Speedup {
    /// Swept thread counts, in cell order.
    pub threads: Vec<usize>,
    /// Swept schemes, in cell order.
    pub schemes: Vec<Scheme>,
    /// One entry per workload label, in cell order.
    pub labels: Vec<SpeedupLabel>,
}

/// One workload label's speedup series.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedupLabel {
    /// The workload label.
    pub label: String,
    /// One series per scheme of [`Speedup::schemes`], in that order: the
    /// `(threads, speedup)` points whose every seed completed. `None` when
    /// the label has no serial reference point.
    pub series: Option<Vec<Vec<(usize, Summary)>>>,
}

/// Stacked bars normalized to a reference total.
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    /// Segment names, bottom-up (also the legend order).
    pub segments: Vec<&'static str>,
    /// The normalization point, e.g. `normalized to baseline@1`.
    pub caption: String,
    /// One group per workload label that has at least one stack.
    pub groups: Vec<StackGroup>,
}

/// The stacks of one workload label.
#[derive(Clone, Debug, PartialEq)]
pub struct StackGroup {
    /// The workload label.
    pub label: String,
    /// One stack per (threads, scheme) point, threads-major.
    pub stacks: Vec<Stack>,
}

/// One normalized stack.
#[derive(Clone, Debug, PartialEq)]
pub struct Stack {
    /// Thread count of the point.
    pub threads: usize,
    /// Scheme of the point.
    pub scheme: Scheme,
    /// Per-segment means over seeds, as raw counts (the shape checks
    /// compare these).
    pub means: Vec<f64>,
    /// [`Stack::means`] divided by the reference total (at least 1).
    pub segments: Vec<f64>,
    /// Sample stddev over seeds of the stack total, divided by the
    /// reference total.
    pub err: f64,
}

/// One Table II row.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// The workload label.
    pub label: String,
    /// Commits, aborts, gathers, reductions and the labeled-operation
    /// percentage over seeds; `None` when a cell of the point failed.
    pub stats: Option<[Summary; 5]>,
}

/// The figure data of `set` under the report kind `report`.
pub fn figure_data(report: ReportKind, set: &ResultSet) -> FigureData {
    match report {
        ReportKind::Speedup => FigureData::Speedup(speedup_data(set)),
        ReportKind::CycleBreakdown => FigureData::Breakdown(breakdown_data(
            set,
            &["non-tx", "committed", "aborted"],
            false,
            |s, i| [s.nontx_cycles, s.committed_cycles, s.aborted_cycles][i] as f64,
        )),
        ReportKind::WastedBreakdown => FigureData::Breakdown(breakdown_data(
            set,
            &[
                waste_bucket_name(0),
                waste_bucket_name(1),
                waste_bucket_name(2),
                waste_bucket_name(3),
            ],
            false,
            |s, i| s.wasted[i] as f64,
        )),
        // The paper compares GETs of schemes at equal thread counts.
        ReportKind::GetsBreakdown => FigureData::Breakdown(breakdown_data(
            set,
            &["GETS", "GETX", "GETU"],
            true,
            |s, i| [s.gets, s.getx, s.getu][i] as f64,
        )),
        ReportKind::Table2 => FigureData::Table2(table2_data(set)),
    }
}

/// The scheme breakdowns normalize against: the baseline when it was
/// swept, otherwise the first scheme present.
fn norm_scheme(schemes: &[Scheme]) -> Scheme {
    if schemes.contains(&Scheme::Baseline) {
        Scheme::Baseline
    } else {
        schemes[0]
    }
}

/// The serial baseline reference for `label`: its own cycles at the
/// smallest thread count under the reference scheme, or — for a
/// scheme-restricted variant that never runs the baseline (e.g.
/// "w/o gather") — the reference of a sibling spec of the same workload,
/// as the original per-figure harness shared one serial run per figure.
fn serial_reference(set: &ResultSet, label: &str) -> Option<f64> {
    let schemes = set.schemes();
    let serial_threads = set.thread_counts().into_iter().min()?;
    let ref_scheme = norm_scheme(&schemes);
    if let Some(c) = set.mean_cycles(label, serial_threads, ref_scheme) {
        return Some(c);
    }
    let workload = &set
        .cells
        .iter()
        .find(|c| c.cell.label == label)?
        .cell
        .workload;
    for sibling in set.labels() {
        let same_workload = set
            .cells
            .iter()
            .any(|c| c.cell.label == sibling && &c.cell.workload == workload);
        if sibling != label && same_workload {
            if let Some(c) = set.mean_cycles(sibling, serial_threads, ref_scheme) {
                return Some(c);
            }
        }
    }
    // Last resort: the label's own first scheme with data.
    schemes
        .iter()
        .find_map(|&s| set.mean_cycles(label, serial_threads, s))
}

/// Mean ± stddev of `f` over one point's seed replicas
/// ([`ResultSet::seed_stats`], never empty).
fn over_seeds(stats: &[&CellStats], f: impl Fn(&CellStats) -> f64) -> Summary {
    summarize(&stats.iter().map(|&s| f(s)).collect::<Vec<f64>>()).expect("a seed replica")
}

/// Figs. 9–16: each seed's cycles against the label's serial reference,
/// so a point's spread is the spread of the measured runs themselves.
fn speedup_data(set: &ResultSet) -> Speedup {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let series = |label: &str, scheme, serial: f64| -> Vec<(usize, Summary)> {
        threads
            .iter()
            .filter_map(|&t| {
                let speedups: Vec<f64> = set
                    .seed_values(label, t, scheme, |s| s.total_cycles as f64)?
                    .into_iter()
                    .filter(|&c| c > 0.0)
                    .map(|c| serial / c)
                    .collect();
                Some((t, summarize(&speedups)?))
            })
            .collect()
    };
    let labels = set
        .labels()
        .into_iter()
        .map(|label| SpeedupLabel {
            label: label.to_string(),
            series: serial_reference(set, label)
                .map(|serial| schemes.iter().map(|&s| series(label, s, serial)).collect()),
        })
        .collect();
    Speedup {
        threads,
        schemes,
        labels,
    }
}

/// Figs. 17–19: one stack per (threads, scheme) point, divided by the
/// reference scheme's total — at the smallest thread count, or at the
/// stack's own thread count when `per_point`.
fn breakdown_data(
    set: &ResultSet,
    segments: &[&'static str],
    per_point: bool,
    component: impl Fn(&CellStats, usize) -> f64,
) -> Breakdown {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let norm_threads = threads.first().copied().unwrap_or(8);
    let norm_scheme = norm_scheme(&schemes);
    let total = |s: &CellStats| (0..segments.len()).map(|i| component(s, i)).sum::<f64>();
    let mut groups = Vec::new();
    for label in set.labels() {
        let mut stacks = Vec::new();
        for &t in &threads {
            let reference = if per_point { t } else { norm_threads };
            let Some(norm) = set.seed_stats(label, reference, norm_scheme) else {
                continue;
            };
            let norm = over_seeds(&norm, total).mean.max(1.0);
            for &scheme in &schemes {
                let Some(stats) = set.seed_stats(label, t, scheme) else {
                    continue;
                };
                let means: Vec<f64> = (0..segments.len())
                    .map(|i| over_seeds(&stats, |s| component(s, i)).mean)
                    .collect();
                stacks.push(Stack {
                    threads: t,
                    scheme,
                    segments: means.iter().map(|v| v / norm).collect(),
                    means,
                    err: over_seeds(&stats, total).stddev / norm,
                });
            }
        }
        if !stacks.is_empty() {
            groups.push(StackGroup {
                label: label.to_string(),
                stacks,
            });
        }
    }
    let caption = if per_point {
        format!("normalized to {} per point", scheme_name(norm_scheme))
    } else {
        format!("normalized to {}@{norm_threads}", scheme_name(norm_scheme))
    };
    Breakdown {
        segments: segments.to_vec(),
        caption,
        groups,
    }
}

/// Table II: each label's characteristics at the first swept (threads,
/// scheme) point.
fn table2_data(set: &ResultSet) -> Vec<Table2Row> {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    set.labels()
        .into_iter()
        .map(|label| {
            let stats = threads
                .first()
                .zip(schemes.first())
                .and_then(|(&t, &scheme)| set.seed_stats(label, t, scheme))
                .map(|stats| {
                    [
                        over_seeds(&stats, |s| s.commits as f64),
                        over_seeds(&stats, |s| s.aborts as f64),
                        over_seeds(&stats, |s| s.gathers as f64),
                        over_seeds(&stats, |s| s.reductions as f64),
                        over_seeds(&stats, |s| 100.0 * s.labeled_fraction),
                    ]
                });
            Table2Row {
                label: label.to_string(),
                stats,
            }
        })
        .collect()
}

/// Renders `set` as the text report of the scenario's report kind.
pub fn render(scenario: &Scenario, set: &ResultSet) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {}: {}", set.scenario, set.title);
    if !scenario.claim.is_empty() {
        let _ = writeln!(out, "    paper: {}", scenario.claim);
    }
    let _ = writeln!(
        out,
        "    (threads {:?}, scale {}, seeds {}, jobs {}, wall {} ms)",
        set.thread_counts(),
        set.scale,
        scenario.seeds.len(),
        set.jobs,
        set.wall_ms
    );
    match figure_data(scenario.report, set) {
        FigureData::Speedup(d) => render_speedup(scenario, &d, &mut out),
        FigureData::Breakdown(d) => render_breakdown(scenario.report, set, &d, &mut out),
        FigureData::Table2(rows) => render_table2(set, &rows, &mut out),
    }
    let failures: Vec<String> = set
        .cells
        .iter()
        .filter(|c| c.stats.is_none())
        .map(|c| {
            format!(
                "    FAILED {}: {}",
                c.key(),
                c.error
                    .as_deref()
                    .unwrap_or("unknown")
                    .lines()
                    .next()
                    .unwrap_or("?")
            )
        })
        .collect();
    if !failures.is_empty() {
        let _ = writeln!(out, "    {} cell(s) failed:", failures.len());
        for f in failures {
            let _ = writeln!(out, "{f}");
        }
    }
    out
}

/// Emits a PASS/NOTE line for a qualitative shape check (the original
/// harness's convention: a miss at reduced scale is a note, not an error).
fn shape_check(out: &mut String, name: &str, ok: bool, detail: String) {
    if ok {
        let _ = writeln!(out, "    shape-check PASS: {name} ({detail})");
    } else {
        let _ = writeln!(
            out,
            "    shape-check NOTE: {name} NOT met at this scale ({detail})"
        );
    }
}

/// The best mean speedup of `label` under `scheme` over the swept thread
/// counts.
fn peak_speedup(d: &Speedup, label: &str, scheme: Scheme) -> Option<f64> {
    let series = d
        .labels
        .iter()
        .find(|l| l.label == label)?
        .series
        .as_ref()?;
    let points = &series[d.schemes.iter().position(|&s| s == scheme)?];
    points
        .iter()
        .map(|(_, s)| s.mean)
        .fold(None, |best: Option<f64>, s| {
            Some(best.map_or(s, |b| b.max(s)))
        })
}

fn render_speedup(scenario: &Scenario, d: &Speedup, out: &mut String) {
    for l in &d.labels {
        let label = &l.label;
        let Some(series) = &l.series else {
            let _ = writeln!(out, "--- {label}: missing serial reference point");
            continue;
        };
        let _ = writeln!(out, "--- {label}");
        let _ = write!(out, "{:>8}", "threads");
        for &s in &d.schemes {
            let _ = write!(out, "{:>18}", scheme_name(s));
        }
        let _ = writeln!(out);
        for &t in &d.threads {
            let _ = write!(out, "{t:>8}");
            for points in series {
                match points.iter().find(|(pt, _)| *pt == t) {
                    Some((_, s)) => {
                        let _ = write!(out, "{:>18.2}", s.mean);
                    }
                    None => {
                        let _ = write!(out, "{:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        if scenario.speedup_checks.is_empty() {
            // Both peaks must exist; a scheme-restricted variant has no
            // baseline series to compare against.
            if let (Some(c), Some(b)) = (
                peak_speedup(d, label, Scheme::CommTm),
                peak_speedup(d, label, Scheme::Baseline),
            ) {
                shape_check(
                    out,
                    &format!("{label}: CommTM peak >= baseline peak"),
                    c >= 0.95 * b,
                    format!("{c:.1}x vs {b:.1}x"),
                );
            }
        }
    }
    for check in &scenario.speedup_checks {
        render_speedup_check(check, d, out);
    }
}

/// Evaluates one figure-specific quantitative check against the peaks.
fn render_speedup_check(check: &SpeedupCheck, d: &Speedup, out: &mut String) {
    let max_t = d.threads.iter().copied().max().unwrap_or(1) as f64;
    let peak = |label: &str, scheme| peak_speedup(d, label, scheme);
    match check {
        SpeedupCheck::NearLinear { label, frac } => {
            let Some(c) = peak(label, Scheme::CommTm) else {
                return;
            };
            shape_check(
                out,
                &format!("{label}: CommTM scales near-linearly"),
                c > frac * max_t,
                format!(
                    "{c:.1}x of {max_t:.0} threads (need > {:.1}x)",
                    frac * max_t
                ),
            );
        }
        SpeedupCheck::BaselineBelow { label, bound } => {
            let Some(b) = peak(label, Scheme::Baseline) else {
                return;
            };
            shape_check(
                out,
                &format!("{label}: baseline serializes"),
                b < *bound,
                format!("{b:.1}x (need < {bound:.1}x)"),
            );
        }
        SpeedupCheck::BaselineAbove { label, bound } => {
            let Some(b) = peak(label, Scheme::Baseline) else {
                return;
            };
            shape_check(
                out,
                &format!("{label}: baseline also scales"),
                b > *bound,
                format!("{b:.1}x (need > {bound:.1}x)"),
            );
        }
        SpeedupCheck::BeatsBaseline { label, factor } => {
            let (Some(c), Some(b)) = (peak(label, Scheme::CommTm), peak(label, Scheme::Baseline))
            else {
                return;
            };
            shape_check(
                out,
                &format!("{label}: CommTM beats baseline by {factor:.1}x"),
                c > factor * b,
                format!("{c:.1}x vs {b:.1}x"),
            );
        }
        SpeedupCheck::FasterThan { faster, slower } => {
            let (Some(f), Some(s)) = (peak(faster, Scheme::CommTm), peak(slower, Scheme::CommTm))
            else {
                return;
            };
            shape_check(
                out,
                &format!("{faster} >= {slower} under CommTM"),
                f >= s,
                format!("{f:.1}x vs {s:.1}x"),
            );
        }
    }
}

/// Prints one row per stack under a header naming the columns and the
/// normalization point, each group followed by its shape check.
fn render_breakdown(report: ReportKind, set: &ResultSet, d: &Breakdown, out: &mut String) {
    let (names, width, total): (&[&str], usize, bool) = match report {
        ReportKind::CycleBreakdown => (&["nontx", "committed", "aborted"], 12, true),
        ReportKind::GetsBreakdown => (&d.segments, 10, true),
        _ => (&d.segments, 10, false),
    };
    let _ = write!(out, "{:>22} {:>8} {:>9} |", "workload", "threads", "scheme");
    for name in names {
        let _ = write!(out, " {name:>width$}");
    }
    if total {
        let _ = writeln!(out, " | total ({})", d.caption);
    } else {
        let _ = writeln!(out, " ({} total)", d.caption);
    }
    let max_t = set.thread_counts().into_iter().max().unwrap_or(0);
    for g in &d.groups {
        for s in &g.stacks {
            let _ = write!(
                out,
                "{:>22} {:>8} {:>9} |",
                g.label,
                s.threads,
                scheme_name(s.scheme)
            );
            for v in &s.segments {
                let _ = write!(out, " {v:>width$.3}");
            }
            if total {
                let _ = write!(out, " | {:.3}", s.segments.iter().sum::<f64>());
            }
            let _ = writeln!(out);
        }
        match report {
            ReportKind::CycleBreakdown => fewer_at_max(
                out,
                g,
                max_t,
                "CommTM wastes fewer cycles",
                " aborted cycles",
                |s| s.means[2],
            ),
            ReportKind::GetsBreakdown => {
                fewer_at_max(out, g, max_t, "CommTM issues fewer GETs", "", |s| {
                    s.means.iter().sum()
                })
            }
            _ => {}
        }
    }
}

/// Shape check: CommTM's `metric` of a stack's raw means at the largest
/// swept thread count is no larger than the baseline's.
fn fewer_at_max(
    out: &mut String,
    g: &StackGroup,
    max_t: usize,
    claim: &str,
    unit: &str,
    metric: impl Fn(&Stack) -> f64,
) {
    let at = |scheme| {
        g.stacks
            .iter()
            .find(|s| s.threads == max_t && s.scheme == scheme)
            .map(&metric)
    };
    if let (Some(b), Some(c)) = (at(Scheme::Baseline), at(Scheme::CommTm)) {
        shape_check(
            out,
            &format!("{}: {claim}", g.label),
            c <= b,
            format!("{c:.0} vs {b:.0}{unit} at {max_t} threads"),
        );
    }
}

fn render_table2(set: &ResultSet, rows: &[Table2Row], out: &mut String) {
    let _ = writeln!(
        out,
        "{:>22} | {:>10} {:>10} {:>10} {:>10} {:>12}",
        "workload", "commits", "aborts", "gathers", "reductions", "labeled-frac"
    );
    for row in rows {
        match &row.stats {
            Some([commits, aborts, gathers, reductions, labeled]) => {
                let _ = writeln!(
                    out,
                    "{:>22} | {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>11.2}%",
                    row.label,
                    commits.mean,
                    aborts.mean,
                    gathers.mean,
                    reductions.mean,
                    labeled.mean,
                );
            }
            None => {
                let _ = writeln!(out, "{:>22} | failed", row.label);
            }
        }
    }
    // The paper's Sec. VII point: labels annotate a small minority of
    // operations. Micros label their whole hot loop, so the bound only
    // applies to the full applications.
    for row in rows {
        let app = set
            .cells
            .iter()
            .find(|c| c.cell.label == row.label)
            .is_some_and(|c| {
                crate::registry::resolve(&c.cell.workload)
                    .is_some_and(|d| d.kind() == commtm_workloads::WorkloadKind::App)
            });
        let Some([.., labeled]) = &row.stats else {
            continue;
        };
        if app {
            shape_check(
                out,
                &format!("{}: labeled ops are a minority", row.label),
                labeled.mean < 50.0,
                format!("{:.1}% labeled", labeled.mean),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_scenario, ExecOptions};
    use crate::spec::WorkloadSpec;

    #[test]
    fn speedup_report_renders_series_and_checks() {
        let scn = Scenario::new("r", "render test")
            .claim("test claim")
            .workload(WorkloadSpec::named("counter").param("total_incs", 200))
            .threads(&[1, 4]);
        let set = run_scenario(&scn, &ExecOptions::default()).unwrap();
        let text = render(&scn, &set);
        assert!(text.contains("=== r: render test"));
        assert!(text.contains("paper: test claim"));
        assert!(text.contains("baseline"));
        assert!(text.contains("commtm"));
        assert!(
            text.contains("shape-check"),
            "speedup report emits a shape check:\n{text}"
        );
    }

    /// The counter grid whose serial cells hit the cycle limit: the text
    /// report and the figure must leave out the same points.
    fn assert_text_and_figure_share_gaps(report: ReportKind, schemes: &[Scheme], gap: &str) {
        let mut scn = Scenario::new("gap", "cycle limit")
            .workload(WorkloadSpec::named("counter").param("total_incs", 4000))
            .threads(&[1, 8])
            .schemes(schemes)
            .report(report);
        scn.tuning.max_cycles = Some(50_000);
        let set = run_scenario(&scn, &ExecOptions::default()).unwrap();
        assert!(!set.all_ok(), "the serial cells hit the cycle limit");
        let text = render(&scn, &set);
        let svg = crate::figures::render_figure(&scn, &set);
        let in_text = |point: &str| {
            let (scheme, threads) = point.split_once('@').unwrap();
            text.lines().any(|l| {
                let fields: Vec<&str> = l.split_whitespace().collect();
                fields.get(1..4) == Some(&[threads, scheme, "|"][..])
            })
        };
        let in_svg = |point: &str| svg.contains(&format!(">{point}</text>"));
        assert!(!in_text(gap), "{gap} has no reference:\n{text}");
        for &scheme in schemes {
            for t in [1, 8] {
                let point = format!("{}@{t}", scheme_name(scheme));
                assert_eq!(in_text(&point), in_svg(&point), "{point}:\n{text}\n{svg}");
            }
        }
    }

    #[test]
    fn cycle_breakdown_without_its_reference_leaves_the_same_gap_as_the_figure() {
        // commtm@1, the normalization point, fails; commtm@8 completes.
        assert_text_and_figure_share_gaps(
            ReportKind::CycleBreakdown,
            &[Scheme::CommTm],
            "commtm@8",
        );
    }

    #[test]
    fn gets_breakdown_without_its_reference_leaves_the_same_gap_as_the_figure() {
        // baseline@8, commtm@8's per-point reference, fails.
        assert_text_and_figure_share_gaps(
            ReportKind::GetsBreakdown,
            &[Scheme::Baseline, Scheme::CommTm],
            "commtm@8",
        );
    }

    #[test]
    fn table2_report_lists_labeled_fractions() {
        let scn = Scenario::new("t2", "chars")
            .workload(WorkloadSpec::named("counter").param("total_incs", 200))
            .threads(&[2])
            .schemes(&[Scheme::CommTm])
            .report(ReportKind::Table2);
        let set = run_scenario(&scn, &ExecOptions::default()).unwrap();
        let text = render(&scn, &set);
        assert!(text.contains("labeled-frac"));
        assert!(text.contains('%'));
    }
}
