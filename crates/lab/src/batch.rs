//! The report directory: `commtm-lab run <target> --out-dir DIR` and
//! `run --all`, the only way `run` writes files.
//!
//! A run resolves a target into scenarios ([`resolve_target`]),
//! applies the CLI's grid flags ([`Overrides::apply`]), runs every cell of
//! every scenario on the executor's one pool
//! ([`exec::run_scenarios_in`](crate::exec::run_scenarios_in)), and
//! writes the report once ([`emit_report`]): `index.html`, one figure and
//! one canonical (timing-free) results JSON per scenario, Table I and
//! `manifest.json`. Only `manifest.json` carries wall-clock times, so two
//! runs of the same grid write byte-identical figures, results and index.

use std::path::Path;

use crate::json::Json;
use crate::registry::{self, Registry};
use crate::results::ResultSet;
use crate::spec::{scheme_name, Scenario};
use crate::{figures, scenarios, trace};

/// The pseudo-target naming every built-in figure scenario (all
/// built-ins except the `smoke` harness check).
pub const ALL_TARGET: &str = "--all";

/// Grid overrides applied on top of a target's scenarios: the CLI's grid
/// flags.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Overrides {
    /// Replace the thread counts.
    pub threads: Option<Vec<usize>>,
    /// Drop sweep points above this thread count.
    pub threads_max: Option<usize>,
    /// Replace the scheme dimension.
    pub schemes: Option<Vec<commtm::Scheme>>,
    /// Run this many seed replicas per point.
    pub seeds: Option<usize>,
    /// Workload scale factor.
    pub scale: Option<u64>,
    /// Raw `KEY=VALUE` workload parameter overrides, applied via
    /// [`registry::apply_param_override`].
    pub params: Vec<String>,
    /// Capture per-transaction traces.
    pub trace: bool,
}

impl Overrides {
    /// Applies the overrides to one scenario (same semantics and order as
    /// the CLI's grid flags; dropped scheme-restricted workloads are
    /// noted on stderr).
    ///
    /// # Errors
    ///
    /// Fails if a `KEY=VALUE` parameter override does not fit the
    /// workload schemas.
    pub fn apply(&self, reg: &Registry, scenario: &mut Scenario) -> Result<(), String> {
        if self.trace {
            scenario.tuning.trace = Some(true);
        }
        if let Some(t) = &self.threads {
            scenario.threads = t.clone();
        }
        if let Some(max) = self.threads_max {
            scenario.cap_threads(max);
        }
        if let Some(s) = &self.schemes {
            for label in scenario.set_schemes(s) {
                eprintln!("note: dropping workload {label:?} (restricted to schemes not swept)");
            }
        }
        if let Some(n) = self.seeds {
            scenario.seeds = crate::spec::default_seeds(n.max(1));
        }
        if let Some(s) = self.scale {
            scenario.scale = s;
        }
        for kv in &self.params {
            registry::apply_param_override(reg, scenario, kv)?;
        }
        Ok(())
    }
}

/// Resolves a batch target string into its scenarios: [`ALL_TARGET`] →
/// every built-in figure scenario; otherwise a built-in name, a `.toml`
/// file path, or a bare registry workload name (run as an ad-hoc sweep,
/// as `commtm-lab run <workload>` does).
///
/// # Errors
///
/// Fails on an unknown target or an unreadable/invalid `.toml` file.
pub fn resolve_target(reg: &Registry, target: &str) -> Result<Vec<Scenario>, String> {
    if target == ALL_TARGET {
        return Ok(scenarios::builtin_names()
            .iter()
            .filter(|&&n| n != "smoke")
            .map(|&n| scenarios::builtin(n).expect("listed scenario exists"))
            .collect());
    }
    if target.ends_with(".toml") {
        let text = std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?;
        return Ok(vec![crate::toml::scenario_from_toml(&text)?]);
    }
    if let Some(s) = scenarios::builtin(target) {
        return Ok(vec![s]);
    }
    if reg.resolve(target).is_some() {
        return Ok(vec![Scenario::new(target, target)
            .workload(crate::spec::WorkloadSpec::named(target))
            .threads(&[1, 8, 32])]);
    }
    Err(format!(
        "unknown scenario {target:?}; built-ins: {} (or a registry workload \
         name, or pass a .toml file)",
        scenarios::builtin_names().join(", ")
    ))
}

/// The `generator` field of every `manifest.json`.
pub const GENERATOR: &str = "commtm-lab batch";

/// Writes the full report into `dir`: one figure + one canonical results
/// JSON per scenario (`sets` is index-aligned with `scenarios`), Table I
/// (`table1.html`), `manifest.json`, and `index.html`. A failed cell is
/// listed under its figure's `failed` entry and shows as a gap in the
/// figure. Returns whether every cell of every scenario succeeded.
///
/// # Errors
///
/// Fails on duplicate scenario names, whose files would collide, and on
/// filesystem errors.
pub fn emit_report(dir: &Path, scenarios: &[Scenario], sets: &[ResultSet]) -> Result<bool, String> {
    for (i, s) in scenarios.iter().enumerate() {
        if scenarios[..i].iter().any(|p| p.name == s.name) {
            return Err(format!(
                "duplicate scenario name {:?}: its report files would collide",
                s.name
            ));
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut entries: Vec<Json> = Vec::new();
    let mut all_ok = true;
    for (scenario, set) in scenarios.iter().zip(sets) {
        let figure = figures::figure_file_name(scenario);
        let results = format!("{}.json", scenario.name);
        let rendered = figures::render_figure(scenario, set);
        // Report what the figure actually shows, not what the grid asked
        // for: identical seed replicas have zero spread and no bars.
        let error_bars = rendered.contains("class=\"errbar\"");
        write_artifact(dir, &figure, &rendered)?;
        write_artifact(dir, &results, &set.canonical_json().pretty())?;

        let ok = set.all_ok();
        all_ok &= ok;
        let failed: Vec<Json> = set
            .cells
            .iter()
            .filter(|c| c.stats.is_none())
            .map(|c| c.key())
            .map(Json::Str)
            .collect();
        if !ok {
            eprintln!(
                "warning: {}: {} cell(s) failed; the figure has gaps",
                scenario.name,
                failed.len()
            );
        }
        let mut entry = vec![
            ("name", Json::Str(scenario.name.clone())),
            ("title", Json::Str(scenario.title.clone())),
            ("report", Json::Str(scenario.report.name().to_string())),
            ("figure", Json::Str(figure)),
            ("results", Json::Str(results)),
            ("cells", Json::U64(set.cells.len() as u64)),
            ("scale", Json::U64(scenario.scale)),
            ("seeds", Json::U64(scenario.seeds.len() as u64)),
            ("error_bars", Json::Bool(error_bars)),
            ("ok", Json::Bool(ok)),
            // Host-side visibility: how long the cells took, so reports
            // make perf regressions visible without affecting
            // deterministic results.
            ("engine", Json::Str(set.engine.clone())),
            ("wall_ms", Json::U64(set.wall_ms)),
        ];
        if !failed.is_empty() {
            entry.push(("failed", Json::Arr(failed)));
        }
        if scenario.tuning.trace == Some(true) && set.cells.iter().any(|c| c.trace.is_some()) {
            // Each traced cell's events are walked once, for the trace
            // file, the abort-cause figure and the attribution alike.
            let summaries: Vec<Option<trace::TraceSummary>> = set
                .cells
                .iter()
                .map(|c| c.trace.as_ref().map(trace::summarize_trace))
                .collect();
            let trace_file = format!("{}.trace.json", scenario.name);
            write_artifact(
                dir,
                &trace_file,
                &trace::trace_file_json(set, &summaries).compact(),
            )?;
            entry.push(("trace", Json::Str(trace_file)));
            if let Some(svg) = figures::abort_causes_figure(scenario, set, &summaries) {
                let aborts = format!("{}.aborts.svg", scenario.name);
                write_artifact(dir, &aborts, &svg)?;
                entry.push(("aborts_figure", Json::Str(aborts)));
            }
            // Per-cell conflict attribution: the top hot lines by conflict
            // count, so the manifest answers "what was contended" without
            // opening the full trace artifact.
            let attribution: Vec<Json> = set
                .cells
                .iter()
                .zip(&summaries)
                .filter_map(|(c, summary)| {
                    let summary = summary.as_ref()?;
                    let hot: Vec<Json> = summary
                        .hot_lines
                        .iter()
                        .take(3)
                        .map(|(line, n)| {
                            Json::obj(vec![
                                ("line", Json::U64(*line)),
                                ("conflicts", Json::U64(*n)),
                            ])
                        })
                        .collect();
                    Some(Json::obj(vec![
                        ("label", Json::Str(c.cell.label.clone())),
                        ("threads", Json::U64(c.cell.threads as u64)),
                        ("scheme", Json::Str(scheme_name(c.cell.scheme).to_string())),
                        ("seed", Json::U64(c.cell.seed)),
                        ("aborts", Json::U64(summary.aborts)),
                        ("hot_lines", Json::Arr(hot)),
                    ]))
                })
                .collect();
            entry.push(("attribution", Json::Arr(attribution)));
        }
        entries.push(Json::obj(entry));
    }
    // Table I describes the machine every cell simulates, so every report
    // carries it.
    let config_table = "table1.html";
    write_artifact(dir, config_table, &figures::table1_html())?;
    // Scale and seeds are per-figure fields: built-ins may declare their
    // own grids, so run-wide values would misdescribe the report.
    let manifest = Json::obj(vec![
        ("generator", Json::Str(GENERATOR.to_string())),
        ("config_table", Json::Str(config_table.to_string())),
        ("figures", Json::Arr(entries)),
    ]);
    write_artifact(dir, "manifest.json", &manifest.pretty())?;
    write_artifact(dir, "index.html", &figures::render_index(&manifest))?;
    Ok(all_ok)
}

/// Writes one report artifact crash-safely (temp file + atomic rename),
/// reporting it on stderr.
fn write_artifact(dir: &Path, file: &str, content: &str) -> Result<(), String> {
    let path = dir.join(file);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_target_covers_all_forms() {
        let reg = registry::global();
        let all = resolve_target(reg, ALL_TARGET).unwrap();
        assert!(all.len() > 5);
        assert!(all.iter().all(|s| s.name != "smoke"));
        assert_eq!(resolve_target(reg, "fig09").unwrap().len(), 1);
        // A bare registry workload becomes an ad-hoc sweep.
        let adhoc = resolve_target(reg, "bank").unwrap();
        assert_eq!(adhoc[0].workloads[0].workload, "bank");
        assert!(resolve_target(reg, "no-such-thing").is_err());
    }
}
