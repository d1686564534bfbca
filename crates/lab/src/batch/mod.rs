//! The batch grid service: crash-safe, resumable sweeps.
//!
//! The paper's headline grids (figs. 9–19 at scale 500, 128 threads) are
//! hours of simulation, but every grid cell is an independent job. This
//! module turns `commtm-lab run` from a one-shot CLI into a restartable
//! batch run:
//!
//! - [`BatchPlan`] deterministically enumerates the cells of any target
//!   (a built-in, a `.toml` file, a registry workload, or `--all`) under
//!   a set of [`Overrides`] and fingerprints the enumeration,
//! - [`ledger`] journals each finished cell, result inline, to an
//!   append-only `ledger.jsonl`, so a killed run loses at most its
//!   in-flight cells,
//! - [`run_batch`] executes the pending cells (optionally resuming a
//!   prior journal: completed cells are kept after verifying their
//!   recorded fingerprints, failed cells are retried), and
//! - [`emit_report`] writes the report (`index.html`, figures,
//!   per-scenario results JSON) — byte-identical whether the run was
//!   interrupted and resumed or not, which the batch tests and the CI
//!   kill/resume smoke enforce.
//!
//! Results files written here are *canonical* (timing-free) JSON: that
//! is what makes an interrupted-resumed grid byte-identical to an
//! uninterrupted one. Wall-clock visibility lives in the ledger
//! (`completed` events record per-cell wall time) and the report
//! manifest instead.

pub mod ledger;

use std::path::Path;

use crate::exec::{self, ExecOptions, SKIPPED_FAIL_FAST};
use crate::json::{fnv1a, Json};
use crate::registry::{self, Registry};
use crate::results::{CellResult, ResultSet};
use crate::spec::{parse_scheme, scheme_name, Cell, Scenario};
use crate::{figures, report, scenarios, trace};

pub use ledger::{CellState, Event, Journal, ManifestRecord, Replay};

/// The pseudo-target naming every built-in figure scenario (all
/// built-ins except the `smoke` harness check), as recorded in batch
/// manifests.
pub const ALL_TARGET: &str = "--all";

/// Grid overrides applied on top of a target's scenarios — the
/// serializable form of the CLI's grid flags, recorded in the ledger
/// manifest so `--resume` re-derives the identical grid.
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
    /// Capture per-transaction traces (fresh runs only — traces are not
    /// persisted in the ledger, so a traced grid cannot resume).
    pub trace: bool,
}

impl Overrides {
    /// The JSON form recorded in ledger manifests (only set fields are
    /// emitted, so default overrides serialize as `{}`).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        if let Some(t) = &self.threads {
            pairs.push((
                "threads".into(),
                Json::Arr(t.iter().map(|&x| Json::U64(x as u64)).collect()),
            ));
        }
        if let Some(m) = self.threads_max {
            pairs.push(("threads_max".into(), Json::U64(m as u64)));
        }
        if let Some(s) = &self.schemes {
            pairs.push((
                "schemes".into(),
                Json::Arr(
                    s.iter()
                        .map(|&s| Json::Str(scheme_name(s).to_string()))
                        .collect(),
                ),
            ));
        }
        if let Some(n) = self.seeds {
            pairs.push(("seeds".into(), Json::U64(n as u64)));
        }
        if let Some(s) = self.scale {
            pairs.push(("scale".into(), Json::U64(s)));
        }
        if !self.params.is_empty() {
            pairs.push((
                "params".into(),
                Json::Arr(self.params.iter().map(|p| Json::Str(p.clone())).collect()),
            ));
        }
        if self.trace {
            pairs.push(("trace".into(), Json::Bool(true)));
        }
        Json::Obj(pairs)
    }

    /// Parses the manifest form back ([`Overrides::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut ov = Overrides::default();
        if let Some(arr) = v.get("threads").and_then(Json::as_arr) {
            ov.threads = Some(
                arr.iter()
                    .map(|t| t.as_u64().map(|t| t as usize).ok_or("bad threads override"))
                    .collect::<Result<_, _>>()?,
            );
        }
        ov.threads_max = v
            .get("threads_max")
            .and_then(Json::as_u64)
            .map(|m| m as usize);
        if let Some(arr) = v.get("schemes").and_then(Json::as_arr) {
            ov.schemes = Some(
                arr.iter()
                    .map(|s| parse_scheme(s.as_str().unwrap_or("?")))
                    .collect::<Result<_, _>>()?,
            );
        }
        ov.seeds = v.get("seeds").and_then(Json::as_u64).map(|n| n as usize);
        ov.scale = v.get("scale").and_then(Json::as_u64);
        if let Some(arr) = v.get("params").and_then(Json::as_arr) {
            ov.params = arr
                .iter()
                .map(|p| p.as_str().map(str::to_string).ok_or("bad params override"))
                .collect::<Result<_, _>>()?;
        }
        ov.trace = v.get("trace").and_then(Json::as_bool).unwrap_or(false);
        Ok(ov)
    }

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

/// One enumerated grid cell in a batch plan.
#[derive(Clone, Debug)]
pub struct PlanJob {
    /// Index into [`BatchPlan::scenarios`].
    pub scenario: usize,
    /// Cell index within that scenario.
    pub cell: usize,
    /// Stable job id: `"<scenario-name>#<cell-index>"` — the key the
    /// ledger journals under.
    pub id: String,
}

/// A deterministic enumeration of every cell a batch run covers, with
/// stable ids and a grid fingerprint. A resume derives the identical
/// plan from (target, overrides) alone.
pub struct BatchPlan {
    /// The target string the plan was derived from.
    pub target: String,
    /// The overrides baked into the scenarios.
    pub overrides: Overrides,
    /// Resolved scenarios, overrides applied, validated.
    pub scenarios: Vec<Scenario>,
    /// Enumerated cells per scenario (index-aligned with `scenarios`).
    pub cells: Vec<Vec<Cell>>,
    /// All jobs, scenario-major, cell order within each scenario.
    pub jobs: Vec<PlanJob>,
    /// FNV-1a fingerprint of the full enumeration (names, grids, tuning,
    /// per-cell identities).
    pub grid_fingerprint: String,
}

impl BatchPlan {
    /// Builds the plan for `target` under `overrides`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown target, a scenario that does not validate, an
    /// override that does not apply, or duplicate scenario names (their
    /// job ids would collide).
    pub fn new(reg: &Registry, target: &str, overrides: &Overrides) -> Result<BatchPlan, String> {
        let mut resolved = resolve_target(reg, target)?;
        for scenario in &mut resolved {
            overrides.apply(reg, scenario)?;
        }
        Self::from_scenarios(reg, target, overrides, resolved)
    }

    /// Builds a plan over already-prepared scenarios (overrides are
    /// recorded but *not* re-applied) — the entry point for callers with
    /// pinned grids, like the determinism tests.
    ///
    /// # Errors
    ///
    /// See [`BatchPlan::new`].
    pub fn from_scenarios(
        reg: &Registry,
        target: &str,
        overrides: &Overrides,
        scenarios: Vec<Scenario>,
    ) -> Result<BatchPlan, String> {
        for (i, s) in scenarios.iter().enumerate() {
            s.validate_in(reg)?;
            if scenarios[..i].iter().any(|p| p.name == s.name) {
                return Err(format!(
                    "duplicate scenario name {:?}: job ids would collide",
                    s.name
                ));
            }
        }
        let cells: Vec<Vec<Cell>> = scenarios.iter().map(Scenario::cells).collect();
        let mut jobs = Vec::new();
        let mut description = String::new();
        for (si, scenario) in scenarios.iter().enumerate() {
            use std::fmt::Write as _;
            let _ = writeln!(
                description,
                "scenario {} scale={} tuning={:?}",
                scenario.name, scenario.scale, scenario.tuning
            );
            for cell in &cells[si] {
                let _ = writeln!(
                    description,
                    "  {}#{} {}[{}] t={} {} seed={:#x} params={:?}",
                    scenario.name,
                    cell.index,
                    cell.label,
                    cell.workload,
                    cell.threads,
                    scheme_name(cell.scheme),
                    cell.seed,
                    cell.params,
                );
                jobs.push(PlanJob {
                    scenario: si,
                    cell: cell.index,
                    id: format!("{}#{}", scenario.name, cell.index),
                });
            }
        }
        Ok(BatchPlan {
            target: target.to_string(),
            overrides: overrides.clone(),
            scenarios,
            cells,
            jobs,
            grid_fingerprint: fnv1a(&description),
        })
    }

    /// Rebuilds the plan a ledger manifest records (`--resume`).
    ///
    /// # Errors
    ///
    /// Fails as [`BatchPlan::new`] does, and when this build enumerates a
    /// different grid than the ledger recorded.
    pub fn from_manifest(reg: &Registry, m: &ManifestRecord) -> Result<BatchPlan, String> {
        let plan = BatchPlan::new(reg, &m.target, &m.overrides)?;
        if plan.grid_fingerprint != m.grid_fingerprint || plan.jobs.len() != m.total_cells {
            return Err(format!(
                "grid mismatch: the ledger was written for grid {} ({} cells) but this \
                 build enumerates {} ({} cells) — the scenarios changed; re-run instead",
                m.grid_fingerprint,
                m.total_cells,
                plan.grid_fingerprint,
                plan.jobs.len()
            ));
        }
        Ok(plan)
    }

    /// The manifest record this plan writes into its ledger.
    pub fn manifest(&self, theme_name: &str) -> ManifestRecord {
        ManifestRecord {
            target: self.target.clone(),
            overrides: self.overrides.clone(),
            theme: theme_name.to_string(),
            grid_fingerprint: self.grid_fingerprint.clone(),
            total_cells: self.jobs.len(),
        }
    }

    /// The cell a job refers to.
    pub fn cell_of(&self, job: &PlanJob) -> &Cell {
        &self.cells[job.scenario][job.cell]
    }
}

/// What a batch run did with each category of cell — rendered after
/// `--resume` so the operator sees what was skipped vs. re-run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResumeSummary {
    /// Completed cells kept from the prior ledger (fingerprints verified).
    pub completed_kept: usize,
    /// Previously-failed cells retried.
    pub retried_failed: usize,
    /// Completed cells whose record failed verification and were re-run.
    pub verify_failed: usize,
    /// Cells with no prior state.
    pub fresh: usize,
    /// Cells executed this run.
    pub ran: usize,
    /// Distinct simulations behind those cells: cells that share every
    /// simulation input are simulated once (see [`crate::exec`]).
    pub simulated: usize,
    /// Cells that failed this run.
    pub failed_now: usize,
    /// Cells a `--fail-fast` stop never ran (still fresh in the ledger;
    /// a later resume runs them).
    pub skipped_fail_fast: usize,
}

impl ResumeSummary {
    /// A one-line human rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "batch: {} cell(s) ran ({} fresh) from {} distinct simulation(s), {} kept from ledger",
            self.ran, self.fresh, self.simulated, self.completed_kept
        );
        if self.retried_failed > 0 {
            out.push_str(&format!(", {} failed retried", self.retried_failed));
        }
        if self.verify_failed > 0 {
            out.push_str(&format!(
                ", {} record(s) failed verification and re-ran",
                self.verify_failed
            ));
        }
        if self.failed_now > 0 {
            out.push_str(&format!(", {} failed", self.failed_now));
        }
        if self.skipped_fail_fast > 0 {
            out.push_str(&format!(
                ", {} skipped by --fail-fast",
                self.skipped_fail_fast
            ));
        }
        out
    }
}

/// The outcome of one batch execution.
pub struct BatchOutcome {
    /// Per-job results, indexed like [`BatchPlan::jobs`].
    pub results: Vec<CellResult>,
    /// What was kept, retried and run.
    pub summary: ResumeSummary,
    /// Whether every cell completed successfully.
    pub all_ok: bool,
}

/// Executes `plan`, journaling each finished cell into `dir`. With
/// `prior`, resumes: completed cells are kept after verifying their
/// recorded results, failed cells are retried, fresh cells run. Without
/// `prior`, a new ledger (recording `theme_name`) is created, truncating
/// any existing one.
///
/// Pending cells run on the executor's worker pool, which simulates each
/// distinct cell once and hands its twins copies; every cell is still
/// journaled under its own job id. Per-cell panics are caught
/// ([`exec::run_cell`]) and journaled as `failed`; the run continues
/// unless `opts.fail_fast` is set, in which case cells never run are left
/// un-journaled (fresh) for a later resume.
///
/// # Errors
///
/// Fails on ledger filesystem errors — never on a cell failure.
pub fn run_batch(
    reg: &Registry,
    plan: &BatchPlan,
    dir: &Path,
    prior: Option<&Replay>,
    theme_name: &str,
    opts: &ExecOptions,
) -> Result<BatchOutcome, String> {
    let mut results: Vec<Option<CellResult>> = vec![None; plan.jobs.len()];
    let mut summary = ResumeSummary::default();
    let mut pending: Vec<usize> = Vec::new();

    for (ji, job) in plan.jobs.iter().enumerate() {
        let state = prior.and_then(|r| r.states.get(&job.id));
        match state.map(|state| ledger::replayed_result(state, plan.cell_of(job))) {
            Some(Ok(kept)) if kept.stats.is_some() => {
                results[ji] = Some(kept);
                summary.completed_kept += 1;
                continue;
            }
            Some(Ok(_)) => summary.retried_failed += 1,
            Some(Err(e)) => {
                eprintln!("warning: {} — re-running {}", e, job.id);
                summary.verify_failed += 1;
            }
            None => summary.fresh += 1,
        }
        pending.push(ji);
    }

    let journal = match prior {
        Some(_) => Journal::open_append(dir)?,
        None => Journal::create(dir, &plan.manifest(theme_name))?,
    };

    let jobs: Vec<exec::Job> = pending
        .iter()
        .map(|&ji| {
            let job = &plan.jobs[ji];
            (&plan.scenarios[job.scenario], plan.cell_of(job))
        })
        .collect();
    let ran = exec::run_jobs(reg, &jobs, opts, |k, result| {
        let job = plan.jobs[pending[k]].id.clone();
        journal.append(&match (&result.stats, &result.error) {
            (Some(_), _) => Event::Completed {
                job,
                fingerprint: ledger::cell_fingerprint(result),
                wall_ms: result.wall_ms,
                result: result.to_json(true),
            },
            (None, err) => Event::Failed {
                job,
                error: err.clone().unwrap_or_else(|| "unknown".into()),
            },
        })
    })?;
    summary.simulated = ran.simulated;
    for (result, &ji) in ran.results.into_iter().zip(&pending) {
        // A --fail-fast skip was deliberately not journaled (the cell
        // stays fresh for resume).
        if result.error.as_deref() == Some(SKIPPED_FAIL_FAST) {
            summary.skipped_fail_fast += 1;
        } else {
            summary.ran += 1;
            if result.stats.is_none() {
                summary.failed_now += 1;
            }
        }
        results[ji] = Some(result);
    }

    let results: Vec<CellResult> = results
        .into_iter()
        .map(|r| r.expect("every job is kept or ran"))
        .collect();
    let all_ok = results.iter().all(|r| r.stats.is_some());
    Ok(BatchOutcome {
        results,
        summary,
        all_ok,
    })
}

/// Assembles per-scenario [`ResultSet`]s from a per-job result vector
/// (indexed like [`BatchPlan::jobs`]).
pub fn assemble_sets(plan: &BatchPlan, results: &[CellResult]) -> Vec<ResultSet> {
    let mut per_scenario: Vec<Vec<CellResult>> = plan
        .cells
        .iter()
        .map(|c| Vec::with_capacity(c.len()))
        .collect();
    for (job, result) in plan.jobs.iter().zip(results) {
        per_scenario[job.scenario].push(result.clone());
    }
    plan.scenarios
        .iter()
        .zip(per_scenario)
        .map(|(scenario, mut cells)| {
            cells.sort_by_key(|c| c.cell.index);
            let wall_ms = cells.iter().map(|c| c.wall_ms).sum();
            ResultSet {
                scenario: scenario.name.clone(),
                title: scenario.title.clone(),
                scale: scenario.scale,
                cells,
                wall_ms,
                jobs: 0,
                engine: exec::engine_name(1),
            }
        })
        .collect()
}

/// Writes the full report into `dir`: one figure + one canonical results
/// JSON per scenario, `manifest.json`, and `index.html`. This is the
/// single emission path shared by fresh batch runs and `--resume`, which
/// is what makes their outputs byte-identical. Returns
/// whether every cell of every scenario succeeded.
///
/// # Errors
///
/// Fails on filesystem errors.
pub fn emit_report(
    dir: &Path,
    plan: &BatchPlan,
    sets: &[ResultSet],
    theme: commtm_plot::palette::Theme,
    quiet_report: bool,
) -> Result<bool, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut entries: Vec<Json> = Vec::new();
    let mut all_ok = true;
    for (scenario, set) in plan.scenarios.iter().zip(sets) {
        if !quiet_report {
            print!("{}", report::render(scenario, set));
        }
        let figure = figures::figure_file_name(scenario);
        let results = format!("{}.json", scenario.name);
        let rendered = figures::render_figure_themed(scenario, set, theme);
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
            let trace_file = format!("{}.trace.json", scenario.name);
            write_artifact(dir, &trace_file, &trace::trace_file_json(set).compact())?;
            entry.push(("trace", Json::Str(trace_file)));
            if let Some(svg) = figures::abort_causes_figure(scenario, set, theme) {
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
                .filter_map(|c| {
                    let trace = c.trace.as_ref()?;
                    let summary = trace::summarize_trace(trace);
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
    // Scale and seeds are per-figure fields: built-ins may declare their
    // own grids, so run-wide values would misdescribe the report.
    let manifest = Json::obj(vec![
        ("generator", Json::Str(ledger::GENERATOR.to_string())),
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
    fn overrides_roundtrip_through_json() {
        let ov = Overrides {
            threads: Some(vec![1, 4]),
            threads_max: Some(8),
            schemes: Some(vec![commtm::Scheme::CommTm]),
            seeds: Some(2),
            scale: Some(3),
            params: vec!["total_incs=50".into()],
            trace: false,
        };
        let back = Overrides::from_json(&ov.to_json()).unwrap();
        assert_eq!(back, ov);
        // Defaults serialize empty and round-trip.
        assert_eq!(Overrides::default().to_json().compact(), "{}\n");
        assert_eq!(
            Overrides::from_json(&Json::Obj(vec![])).unwrap(),
            Overrides::default()
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let reg = registry::global();
        let ov = Overrides {
            threads: Some(vec![1, 2]),
            scale: Some(1),
            ..Overrides::default()
        };
        let a = BatchPlan::new(reg, "smoke", &ov).unwrap();
        let b = BatchPlan::new(reg, "smoke", &ov).unwrap();
        assert_eq!(a.grid_fingerprint, b.grid_fingerprint);
        assert_eq!(
            a.jobs.iter().map(|j| &j.id).collect::<Vec<_>>(),
            b.jobs.iter().map(|j| &j.id).collect::<Vec<_>>()
        );
        assert!(!a.jobs.is_empty());
        // The grid itself changes the fingerprint.
        let d = BatchPlan::new(
            reg,
            "smoke",
            &Overrides {
                threads: Some(vec![1, 4]),
                scale: Some(1),
                ..Overrides::default()
            },
        )
        .unwrap();
        assert_ne!(d.grid_fingerprint, a.grid_fingerprint);
    }

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
