//! Rendering result sets in the style of the paper's figures.
//!
//! Each [`ReportKind`] maps a [`ResultSet`] to the same tables and
//! qualitative shape checks the original per-figure benchmarks printed;
//! `commtm-lab run fig09` prints them.

use std::fmt::Write as _;

use commtm::Scheme;

use crate::results::{waste_bucket_name, ResultSet};
use crate::spec::{scheme_name, ReportKind, Scenario, SpeedupCheck};

/// Renders `set` according to the scenario's report kind.
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
    match scenario.report {
        ReportKind::Speedup => render_speedup(scenario, set, &mut out),
        ReportKind::CycleBreakdown => render_cycles(set, &mut out),
        ReportKind::WastedBreakdown => render_wasted(set, &mut out),
        ReportKind::GetsBreakdown => render_gets(set, &mut out),
        ReportKind::Table2 => render_table2(set, &mut out),
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

/// The scheme breakdowns normalize against: the baseline when it was
/// swept, otherwise the first scheme present.
pub fn norm_scheme(schemes: &[Scheme]) -> Scheme {
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
pub fn serial_reference(set: &ResultSet, label: &str) -> Option<f64> {
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

/// The best speedup of `label` under `scheme` over the swept thread
/// counts, relative to that label's serial baseline reference.
fn peak_speedup(set: &ResultSet, label: &str, scheme: Scheme) -> Option<f64> {
    let serial = serial_reference(set, label)?;
    set.thread_counts()
        .iter()
        .filter_map(|&t| set.mean_cycles(label, t, scheme))
        .filter(|&c| c > 0.0)
        .map(|c| serial / c)
        .fold(None, |best: Option<f64>, s| {
            Some(best.map_or(s, |b| b.max(s)))
        })
}

fn render_speedup(scenario: &Scenario, set: &ResultSet, out: &mut String) {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    for label in set.labels() {
        let Some(serial) = serial_reference(set, label) else {
            let _ = writeln!(out, "--- {label}: missing serial reference point");
            continue;
        };
        let _ = writeln!(out, "--- {label}");
        let _ = write!(out, "{:>8}", "threads");
        for &s in &schemes {
            let _ = write!(out, "{:>18}", scheme_name(s));
        }
        let _ = writeln!(out);
        for &t in &threads {
            let _ = write!(out, "{t:>8}");
            for &s in &schemes {
                match set.mean_cycles(label, t, s) {
                    Some(c) if c > 0.0 => {
                        let _ = write!(out, "{:>18.2}", serial / c);
                    }
                    _ => {
                        let _ = write!(out, "{:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        if scenario.speedup_checks.is_empty()
            && schemes.contains(&Scheme::Baseline)
            && schemes.contains(&Scheme::CommTm)
        {
            // Both peaks must exist; a scheme-restricted variant has no
            // baseline series to compare against.
            if let (Some(c), Some(b)) = (
                peak_speedup(set, label, Scheme::CommTm),
                peak_speedup(set, label, Scheme::Baseline),
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
        render_speedup_check(check, set, out);
    }
}

/// Evaluates one figure-specific quantitative check against the peaks.
fn render_speedup_check(check: &SpeedupCheck, set: &ResultSet, out: &mut String) {
    let max_t = set.thread_counts().into_iter().max().unwrap_or(1) as f64;
    let peak = |label: &str, scheme| peak_speedup(set, label, scheme);
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

fn render_cycles(set: &ResultSet, out: &mut String) {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let norm_threads = threads.first().copied().unwrap_or(8);
    let norm_scheme = norm_scheme(&schemes);
    let _ = writeln!(
        out,
        "{:>22} {:>8} {:>9} | {:>12} {:>12} {:>12} | total (normalized to {}@{})",
        "workload",
        "threads",
        "scheme",
        "nontx",
        "committed",
        "aborted",
        scheme_name(norm_scheme),
        norm_threads
    );
    for label in set.labels() {
        let norm = set
            .mean_stat(label, norm_threads, norm_scheme, |s| {
                (s.nontx_cycles + s.committed_cycles + s.aborted_cycles) as f64
            })
            .unwrap_or(1.0)
            .max(1.0);
        for &t in &threads {
            for &scheme in &schemes {
                let cls = [
                    set.mean_stat(label, t, scheme, |s| s.nontx_cycles as f64),
                    set.mean_stat(label, t, scheme, |s| s.committed_cycles as f64),
                    set.mean_stat(label, t, scheme, |s| s.aborted_cycles as f64),
                ];
                let (Some(nontx), Some(committed), Some(aborted)) = (cls[0], cls[1], cls[2]) else {
                    continue;
                };
                let _ = writeln!(
                    out,
                    "{:>22} {:>8} {:>9} | {:>12.3} {:>12.3} {:>12.3} | {:.3}",
                    label,
                    t,
                    scheme_name(scheme),
                    nontx / norm,
                    committed / norm,
                    aborted / norm,
                    (nontx + committed + aborted) / norm,
                );
            }
        }
        if schemes.contains(&Scheme::Baseline) && schemes.contains(&Scheme::CommTm) {
            let max_t = threads.iter().copied().max().unwrap_or(norm_threads);
            let b = set.mean_stat(label, max_t, Scheme::Baseline, |s| s.aborted_cycles as f64);
            let c = set.mean_stat(label, max_t, Scheme::CommTm, |s| s.aborted_cycles as f64);
            if let (Some(b), Some(c)) = (b, c) {
                shape_check(
                    out,
                    &format!("{label}: CommTM wastes fewer cycles"),
                    c <= b,
                    format!("{c:.0} vs {b:.0} aborted cycles at {max_t} threads"),
                );
            }
        }
    }
}

fn render_wasted(set: &ResultSet, out: &mut String) {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let norm_threads = threads.first().copied().unwrap_or(8);
    let norm_scheme = norm_scheme(&schemes);
    let _ = writeln!(
        out,
        "{:>22} {:>8} {:>9} | {:>10} {:>10} {:>10} {:>10} (normalized to {}@{} total)",
        "workload",
        "threads",
        "scheme",
        waste_bucket_name(0),
        waste_bucket_name(1),
        waste_bucket_name(2),
        waste_bucket_name(3),
        scheme_name(norm_scheme),
        norm_threads
    );
    for label in set.labels() {
        let norm = set
            .mean_stat(label, norm_threads, norm_scheme, |s| {
                s.wasted.iter().sum::<u64>() as f64
            })
            .unwrap_or(1.0)
            .max(1.0);
        for &t in &threads {
            for &scheme in &schemes {
                let buckets: Vec<Option<f64>> = (0..4)
                    .map(|i| set.mean_stat(label, t, scheme, |s| s.wasted[i] as f64))
                    .collect();
                if buckets.iter().any(Option::is_none) {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:>22} {:>8} {:>9} | {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    label,
                    t,
                    scheme_name(scheme),
                    buckets[0].unwrap_or(0.0) / norm,
                    buckets[1].unwrap_or(0.0) / norm,
                    buckets[2].unwrap_or(0.0) / norm,
                    buckets[3].unwrap_or(0.0) / norm,
                );
            }
        }
    }
}

fn render_gets(set: &ResultSet, out: &mut String) {
    let threads = set.thread_counts();
    let schemes = set.schemes();
    let norm_scheme = norm_scheme(&schemes);
    let _ = writeln!(
        out,
        "{:>22} {:>8} {:>9} | {:>10} {:>10} {:>10} | total (normalized to {} per point)",
        "workload",
        "threads",
        "scheme",
        "GETS",
        "GETX",
        "GETU",
        scheme_name(norm_scheme)
    );
    for label in set.labels() {
        for &t in &threads {
            let norm = set
                .mean_stat(label, t, norm_scheme, |s| s.total_gets() as f64)
                .unwrap_or(1.0)
                .max(1.0);
            for &scheme in &schemes {
                let parts = [
                    set.mean_stat(label, t, scheme, |s| s.gets as f64),
                    set.mean_stat(label, t, scheme, |s| s.getx as f64),
                    set.mean_stat(label, t, scheme, |s| s.getu as f64),
                ];
                let (Some(gets), Some(getx), Some(getu)) = (parts[0], parts[1], parts[2]) else {
                    continue;
                };
                let _ = writeln!(
                    out,
                    "{:>22} {:>8} {:>9} | {:>10.3} {:>10.3} {:>10.3} | {:.3}",
                    label,
                    t,
                    scheme_name(scheme),
                    gets / norm,
                    getx / norm,
                    getu / norm,
                    (gets + getx + getu) / norm,
                );
            }
        }
        if schemes.contains(&Scheme::Baseline) && schemes.contains(&Scheme::CommTm) {
            let max_t = threads.iter().copied().max().unwrap_or(8);
            let b = set.mean_stat(label, max_t, Scheme::Baseline, |s| s.total_gets() as f64);
            let c = set.mean_stat(label, max_t, Scheme::CommTm, |s| s.total_gets() as f64);
            if let (Some(b), Some(c)) = (b, c) {
                shape_check(
                    out,
                    &format!("{label}: CommTM issues fewer GETs"),
                    c <= b,
                    format!("{c:.0} vs {b:.0} at {max_t} threads"),
                );
            }
        }
    }
}

fn render_table2(set: &ResultSet, out: &mut String) {
    let _ = writeln!(
        out,
        "{:>22} | {:>10} {:>10} {:>10} {:>10} {:>12}",
        "workload", "commits", "aborts", "gathers", "reductions", "labeled-frac"
    );
    for c in &set.cells {
        let Some(s) = &c.stats else { continue };
        let _ = writeln!(
            out,
            "{:>22} | {:>10} {:>10} {:>10} {:>10} {:>11.2}%",
            c.cell.label,
            s.commits,
            s.aborts,
            s.gathers,
            s.reductions,
            100.0 * s.labeled_fraction,
        );
    }
    // The paper's Sec. VII point: labels annotate a small minority of
    // operations. Micros label their whole hot loop, so the bound only
    // applies to the full applications.
    for label in set.labels() {
        let app = set
            .cells
            .iter()
            .find(|c| c.cell.label == label)
            .is_some_and(|c| {
                crate::registry::resolve(&c.cell.workload)
                    .is_some_and(|d| d.kind() == commtm_workloads::WorkloadKind::App)
            });
        if !app {
            continue;
        }
        let threads = set.thread_counts();
        let schemes = set.schemes();
        let Some(frac) = threads
            .first()
            .and_then(|&t| set.mean_stat(label, t, schemes[0], |s| s.labeled_fraction))
        else {
            continue;
        };
        shape_check(
            out,
            &format!("{label}: labeled ops are a minority"),
            frac < 0.5,
            format!("{:.1}% labeled", 100.0 * frac),
        );
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
