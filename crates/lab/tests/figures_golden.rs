//! Golden-file tests over rendered figures: the simulator is
//! deterministic and the SVG renderer formats every coordinate with
//! fixed precision, so a small scenario's chart must be byte-identical
//! run to run — any drift is either a simulator regression or a
//! deliberate chart change.
//!
//! To bless a deliberate change, regenerate the files with
//! `COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test figures_golden`
//! and review the diff like any other code change.

use std::path::PathBuf;

use commtm_lab::exec::run_scenario_serial;
use commtm_lab::figures::{figure_file_name, render_figure};
use commtm_lab::results::ResultSet;
use commtm_lab::spec::{ReportKind, Scenario, WorkloadSpec};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("COMMTM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading golden file {}: {e}\n(regenerate with \
             COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test figures_golden)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "rendered {name} drifted from its golden file; if intentional, regenerate \
         with COMMTM_UPDATE_GOLDEN=1 and review the diff"
    );
}

/// The golden scenario: small enough to run in milliseconds, rich enough
/// to exercise both schemes, two thread counts and a two-seed spread.
fn golden_scenario(report: ReportKind) -> (Scenario, ResultSet) {
    let scn = Scenario::new("golden", "golden figure scenario")
        .workload(WorkloadSpec::named("counter").param("total_incs", 120))
        .workload(WorkloadSpec::named("refcount").param("total_ops", 100))
        .threads(&[1, 2])
        .seeds(&[11, 12])
        .report(report);
    let set = run_scenario_serial(&scn).expect("golden scenario runs");
    assert!(set.all_ok(), "golden cells must all complete");
    (scn, set)
}

#[test]
fn speedup_chart_matches_golden() {
    let (scn, set) = golden_scenario(ReportKind::Speedup);
    let svg = render_figure(&scn, &set);
    assert_eq!(figure_file_name(&scn), "golden.svg");
    assert!(
        svg.contains("class=\"errbar\""),
        "a two-seed sweep must draw error bars"
    );
    assert_golden("speedup.svg", &svg);
}

#[test]
fn cycle_breakdown_chart_matches_golden() {
    let (scn, set) = golden_scenario(ReportKind::CycleBreakdown);
    let svg = render_figure(&scn, &set);
    assert!(svg.contains("class=\"seg\""), "stacked segments present");
    assert_golden("cycles.svg", &svg);
}

#[test]
fn wasted_breakdown_chart_matches_golden() {
    let (scn, set) = golden_scenario(ReportKind::WastedBreakdown);
    assert_golden("wasted.svg", &render_figure(&scn, &set));
}

#[test]
fn table2_matches_golden() {
    let (scn, set) = golden_scenario(ReportKind::Table2);
    let html = render_figure(&scn, &set);
    assert_eq!(figure_file_name(&scn), "golden.html");
    assert_golden("table2.html", &html);
}

/// Table I is a pure function of the paper configuration: no scenario,
/// no simulation.
#[test]
fn table1_matches_golden() {
    use commtm_lab::figures::{table1_html, theme_by_name};
    let html = table1_html(theme_by_name("light").expect("light theme"));
    assert!(html.contains("<td>128 cores, IPC-1 except on L1 misses (simulated)</td>"));
    assert_golden("table1.html", &html);
}

/// The dark theme re-skins every surface and ink while leaving the data
/// geometry untouched: same polylines and markers, different colors. The
/// light golden files above stay the compatibility anchor; this pins the
/// dark variant's essentials without a second golden set.
#[test]
fn dark_theme_reskins_without_moving_data() {
    use commtm_lab::figures::{render_figure_themed, theme_by_name};
    let (scn, set) = golden_scenario(ReportKind::Speedup);
    let light = render_figure(&scn, &set);
    let dark = render_figure_themed(&scn, &set, theme_by_name("dark").expect("dark theme"));
    assert_ne!(light, dark, "the theme must change the rendering");
    assert!(dark.contains("fill=\"#15161a\""), "dark surface present");
    assert!(
        !dark.contains("#fcfcfb"),
        "no light-surface color leaks into the dark rendering"
    );
    // Geometry (every polyline path) is identical between themes.
    let points = |svg: &str| -> Vec<String> {
        svg.lines()
            .filter(|l| l.contains("<polyline"))
            .map(|l| {
                l.split("points=\"")
                    .nth(1)
                    .and_then(|r| r.split('"').next())
                    .unwrap_or_default()
                    .to_string()
            })
            .collect()
    };
    assert_eq!(points(&light), points(&dark), "themes must not move data");
    assert!(theme_by_name("nope").is_none());
}

/// Rendering is a pure function of the result set: rendering twice from
/// one run and from two independent runs is byte-identical.
#[test]
fn rendering_is_reproducible_across_runs() {
    let (scn_a, set_a) = golden_scenario(ReportKind::Speedup);
    let (_, set_b) = golden_scenario(ReportKind::Speedup);
    assert_eq!(
        render_figure(&scn_a, &set_a),
        render_figure(&scn_a, &set_b),
        "independent runs of a seeded scenario must render identical charts"
    );
}
