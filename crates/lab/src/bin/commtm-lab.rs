//! The `commtm-lab` command-line interface.
//!
//! ```text
//! commtm-lab list                      # built-in scenarios
//! commtm-lab workloads                 # registered workloads and defaults
//! commtm-lab run fig09 --threads-max 16 --out fig09.json
//! commtm-lab run --all --out-dir report   # every figure + manifest.json
//! commtm-lab run --resume report       # finish a killed run
//! commtm-lab run sweep.toml --jobs 8 --csv sweep.csv
//! commtm-lab diff old.json new.json    # regression gate
//! ```

use std::path::Path;
use std::process::ExitCode;

use commtm_lab::batch::{self, Replay};
use commtm_lab::exec::{run_scenario, ExecOptions};
use commtm_lab::json::{self, Json};
use commtm_lab::results::{diff, ResultSet};
use commtm_lab::spec::{parse_scheme, scheme_name, Scenario};
use commtm_lab::{figures, registry, report, scenarios, trace};

const USAGE: &str = "\
commtm-lab — declarative, parallel experiment sweeps for the CommTM simulator

USAGE:
    commtm-lab list                         list built-in scenarios
    commtm-lab workloads [--json]           registered workloads and their
                                            typed parameter schemas
    commtm-lab run <scenario|file.toml> [options]
    commtm-lab run --all [--out-dir DIR] [options]
    commtm-lab run --resume DIR [--jobs N] [--fail-fast] [--progress]
    commtm-lab verify [--all] [options]     commutativity verification:
                                            algebraic label laws + the
                                            interleaving oracle over every
                                            workload's claims
    commtm-lab diff <baseline.json> <current.json> [--tol FRAC]
    commtm-lab trace-validate <trace.json>
                                            check a --trace artifact against
                                            the committed docs/trace.schema.json

RUN OPTIONS:
    --all               run every built-in figure scenario and write one
                        SVG/HTML figure each, per-scenario results JSON,
                        a manifest.json, and an index.html linking every
                        figure (see --out-dir)
    --param KEY=VALUE   override one workload parameter (typed via the
                        workload's schema; repeatable; errors list each
                        workload's valid parameters)
    --out-dir DIR       batch-mode artifact directory (default for --all:
                        lab-report). Batch runs journal every finished
                        cell, result included, to DIR/ledger.jsonl
                        (crash-safe: a killed run loses at most its
                        in-flight cells). Naming --out-dir for a single
                        scenario batches it too. See docs/BATCH.md
    --resume DIR        replay DIR's ledger: keep completed cells after
                        verifying their recorded fingerprints, retry
                        failed cells, run the rest of the grid, and
                        report a resume summary. Takes the grid
                        definition from the ledger — grid flags don't
                        combine with --resume
    --fail-fast         stop claiming new cells after the first failure.
                        Default off in batch mode: a poisoned cell is
                        recorded as failed (figures render a gap) and the
                        sweep continues; cells skipped by a --fail-fast
                        stop stay fresh in the ledger for --resume
    --threads LIST      comma-separated thread counts (e.g. 1,8,32)
    --threads-max N     drop sweep points above N threads (N >= 1)
    --schemes LIST      comma-separated schemes (baseline,commtm)
    --seeds N           run N seed replicas per point (N >= 1)
    --scale N           workload scale factor (paper scale ~ 500)
    --jobs N            worker threads (default: one per core)
    --serial            run cells serially (same numbers, one core)
    --trace             capture per-transaction traces (attributed abort
                        causes, conflict hot lines, speculation audit):
                        writes <name>.trace.json and <name>.aborts.svg,
                        and adds per-cell trace summaries to --out JSON.
                        Observation-only: deterministic results are
                        byte-identical with tracing on or off
    --trace-out FILE    trace artifact path (default: <name>.trace.json)
    --out FILE.json     write full results as JSON
    --csv FILE.csv      write per-cell rows as CSV
    --svg FILE.svg      render the scenario's figure (SVG/HTML) to a file
    --theme NAME        figure color theme: light (default) or dark
    --baseline F.json   diff against a previous JSON (exit 1 on change)
    --tol FRAC          relative tolerance for --baseline/diff (default 0;
                        finite and non-negative; run needs --baseline)
    --progress          print per-cell progress to stderr
    --quiet             suppress the figure-style report

VERIFY OPTIONS:
    --all               both tiers for every label and workload (default
                        when no filter is given)
    --label NAME        check only one label's algebraic laws
    --workload NAME     check only one workload's commutativity claims
    --cases N           randomized cases per check (default 32)
    --seed N            base seed for every generator (default pinned)
    --json FILE         write the machine-readable report
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("built-in scenarios:");
            for name in scenarios::builtin_names() {
                let scn = scenarios::builtin(name).expect("listed scenario exists");
                println!("  {name:<8} {} ({} cells)", scn.title, scn.cells().len());
            }
            ExitCode::SUCCESS
        }
        Some("workloads") => match cmd_workloads(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("run") => match cmd_run(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("verify") => match cmd_verify(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("diff") => match cmd_diff(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("trace-validate") => match cmd_trace_validate(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `workloads`: the registered workloads with their declared parameter
/// schemas — a per-workload table, or the machine-readable `--json` dump
/// that CI diffs against the committed `docs/workloads.json` golden.
fn cmd_workloads(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let reg = registry::global();
    if json {
        print!("{}", reg.schema_json().pretty());
        return Ok(ExitCode::SUCCESS);
    }
    println!("registered workloads:");
    for def in reg.workloads() {
        println!(
            "  {:<10} {}: {}",
            def.name(),
            def.kind().name(),
            def.summary()
        );
        println!(
            "    {:<16} {:<7} {:<14} description",
            "param", "type", "default"
        );
        for spec in def.schema().specs() {
            let mut doc = spec.doc.to_string();
            if let Some(choices) = spec.choices {
                doc.push_str(&format!(" [one of: {}]", choices.join(", ")));
            }
            println!(
                "    {:<16} {:<7} {:<14} {}",
                spec.name,
                spec.ty.name(),
                spec.default.render(),
                doc
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut target: Option<&str> = None;
    let mut all = false;
    let mut out_dir: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut opts = ExecOptions::default();
    let mut ov = batch::Overrides::default();
    let mut out_json: Option<String> = None;
    let mut out_csv: Option<String> = None;
    let mut out_svg: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tol: Option<f64> = None;
    let mut quiet_report = false;
    let mut theme_name = "light".to_string();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--all" => all = true,
            "--param" => ov.params.push(value("--param")?.clone()),
            "--out-dir" => out_dir = Some(value("--out-dir")?.clone()),
            "--resume" => resume = Some(value("--resume")?.clone()),
            "--fail-fast" => opts.fail_fast = true,
            "--threads" => {
                ov.threads = Some(parse_usize_list(value("--threads")?)?);
            }
            "--threads-max" => {
                let max = value("--threads-max")?
                    .parse()
                    .map_err(|_| "bad --threads-max")?;
                if max == 0 {
                    return Err("--threads-max must be at least 1".into());
                }
                ov.threads_max = Some(max);
            }
            "--schemes" => {
                ov.schemes = Some(
                    value("--schemes")?
                        .split(',')
                        .map(|s| parse_scheme(s.trim()))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--seeds" => {
                let n = value("--seeds")?.parse().map_err(|_| "bad --seeds")?;
                if n == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                ov.seeds = Some(n);
            }
            "--scale" => {
                ov.scale = Some(value("--scale")?.parse().map_err(|_| "bad --scale")?);
            }
            "--machine-threads" => return Err(removed_flag(arg)),
            "--jobs" => {
                opts.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs")?;
            }
            "--serial" => opts.jobs = 1,
            "--trace" => ov.trace = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?.clone()),
            "--out" => out_json = Some(value("--out")?.clone()),
            "--csv" => out_csv = Some(value("--csv")?.clone()),
            "--svg" => out_svg = Some(value("--svg")?.clone()),
            "--baseline" => baseline = Some(value("--baseline")?.clone()),
            "--theme" => {
                let name = value("--theme")?;
                if commtm_lab::figures::theme_by_name(name).is_none() {
                    return Err(format!("unknown theme {name:?} (light or dark)"));
                }
                theme_name = name.clone();
            }
            "--tol" => tol = Some(parse_tol(value("--tol")?)?),
            "--progress" => opts.quiet = false,
            "--quiet" => quiet_report = true,
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(other);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }

    if tol.is_some() && baseline.is_none() {
        return Err("--tol is the --baseline tolerance; it needs --baseline".into());
    }

    let single_scenario_outputs = out_json.is_some()
        || out_csv.is_some()
        || out_svg.is_some()
        || trace_out.is_some()
        || baseline.is_some()
        || tol.is_some();

    if let Some(dir) = resume {
        // The ledger manifest is the grid definition: re-specifying any
        // part of it alongside --resume is ambiguous, so reject it all.
        if target.is_some() || all || out_dir.is_some() {
            return Err("--resume replays a ledger's own grid; don't also pass a \
                 scenario, --all or --out-dir"
                .into());
        }
        if ov != batch::Overrides::default() || single_scenario_outputs {
            return Err("--resume takes the grid and output definitions from the \
                 ledger; grid and output flags don't combine with it"
                .into());
        }
        return cmd_run_resume(&dir, &opts, quiet_report);
    }

    if all || out_dir.is_some() {
        let target = if all {
            if target.is_some() {
                return Err("--all runs every built-in scenario; don't also name one".into());
            }
            if !ov.params.is_empty() {
                return Err(
                    "--param overrides a single scenario's workload parameters; \
                     it does not combine with --all"
                        .into(),
                );
            }
            batch::ALL_TARGET
        } else {
            target.ok_or("run needs a scenario name, a .toml file, or --all")?
        };
        if single_scenario_outputs {
            return Err(
                "--out/--csv/--svg/--trace-out/--baseline/--tol are single-scenario \
                 options; batch runs write per-scenario files under --out-dir"
                    .into(),
            );
        }
        return cmd_run_batch(
            target,
            &out_dir.unwrap_or_else(|| "lab-report".to_string()),
            &ov,
            &opts,
            quiet_report,
            &theme_name,
        );
    }

    let theme = figures::theme_by_name(&theme_name).expect("validated when parsed");
    let target = target.ok_or("run needs a scenario name, a .toml file, or --all")?;
    let mut scenario = load_scenario(target)?;
    ov.apply(registry::global(), &mut scenario)?;
    if trace_out.is_some() && scenario.tuning.trace != Some(true) {
        return Err("--trace-out requires --trace (or tuning.trace = true in the scenario)".into());
    }

    let set = run_scenario(&scenario, &opts)?;

    if !quiet_report {
        print!("{}", report::render(&scenario, &set));
    }
    if let Some(path) = out_json {
        std::fs::write(&path, set.to_json().pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = out_csv {
        std::fs::write(&path, set.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = out_svg {
        // Table II renders as an HTML document, not SVG; honor the
        // user's filename but flag the mismatched extension.
        if figures::figure_file_name(&scenario).ends_with(".html") && !path.ends_with(".html") {
            eprintln!(
                "note: {} renders as HTML, not SVG; consider an .html extension for {path}",
                scenario.name
            );
        }
        std::fs::write(&path, figures::render_figure_themed(&scenario, &set, theme))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if scenario.tuning.trace == Some(true) {
        let path = trace_out.unwrap_or_else(|| format!("{}.trace.json", scenario.name));
        std::fs::write(&path, trace::trace_file_json(&set).compact())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
        if let Some(svg) = figures::abort_causes_figure(&scenario, &set, theme) {
            let fig = format!("{}.aborts.svg", scenario.name);
            std::fs::write(&fig, &svg).map_err(|e| format!("writing {fig}: {e}"))?;
            eprintln!("wrote {fig}");
        }
    }

    let mut code = if set.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let base = ResultSet::from_json_str(&text)?;
        let d = diff(&base, &set, tol.unwrap_or(0.0));
        print!("{}", d.render());
        if !d.is_clean() {
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

/// A batch (ledger-backed) run: `run --all` or `run <target> --out-dir`.
/// Plans the grid, journals every finished cell into
/// `dir/ledger.jsonl`, and emits the full report (figures, per-scenario
/// results JSON, manifest, index).
fn cmd_run_batch(
    target: &str,
    dir: &str,
    ov: &batch::Overrides,
    opts: &ExecOptions,
    quiet_report: bool,
    theme_name: &str,
) -> Result<ExitCode, String> {
    let reg = registry::global();
    let plan = batch::BatchPlan::new(reg, target, ov)?;
    let dir_path = Path::new(dir);

    // Starting fresh truncates any ledger already in the directory. If
    // that ledger describes this very grid, the user probably wanted to
    // finish it, not redo it — say so before discarding the work.
    if dir_path.join(batch::ledger::LEDGER_FILE).exists() {
        if let Ok(prior) = Replay::load(dir_path) {
            if prior.manifest.grid_fingerprint == plan.grid_fingerprint {
                let done = prior
                    .states
                    .values()
                    .filter(|s| matches!(s, batch::CellState::Completed { .. }))
                    .count();
                eprintln!(
                    "warning: {dir} holds a compatible ledger with {done} completed \
                     cell(s); starting fresh discards them — \
                     `commtm-lab run --resume {dir}` would keep them"
                );
            }
        }
    }

    let outcome = batch::run_batch(reg, &plan, dir_path, None, theme_name, opts)?;
    finish_batch(&plan, &outcome, dir, theme_name, quiet_report)
}

/// Prints a batch run's summary and emits its report. Fails the exit
/// code when a cell failed.
fn finish_batch(
    plan: &batch::BatchPlan,
    outcome: &batch::BatchOutcome,
    dir: &str,
    theme_name: &str,
    quiet_report: bool,
) -> Result<ExitCode, String> {
    eprintln!("{}", outcome.summary.render());
    let sets = batch::assemble_sets(plan, &outcome.results);
    let theme = figures::theme_by_name(theme_name)
        .ok_or_else(|| format!("unknown theme {theme_name:?}"))?;
    let ok = batch::emit_report(Path::new(dir), plan, &sets, theme, quiet_report)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `run --resume DIR`: replay DIR's ledger, keep verified completed
/// cells, retry failed ones, and finish the grid the ledger describes.
fn cmd_run_resume(dir: &str, opts: &ExecOptions, quiet_report: bool) -> Result<ExitCode, String> {
    let reg = registry::global();
    let dir_path = Path::new(dir);
    let prior = Replay::load(dir_path)?;
    let m = prior.manifest.clone();
    if m.overrides.trace {
        return Err(format!(
            "{dir}: this ledger captured traces, which the ledger does not \
             persist; traced grids must re-run whole (commtm-lab run ... --trace)"
        ));
    }
    if prior.truncated_tail {
        eprintln!(
            "note: {dir}: ledger ends mid-record (the previous run died while \
             appending); the partial record was ignored"
        );
    }
    let plan = batch::BatchPlan::from_manifest(reg, &m).map_err(|e| format!("{dir}: {e}"))?;
    let outcome = batch::run_batch(reg, &plan, dir_path, Some(&prior), &m.theme, opts)?;
    finish_batch(&plan, &outcome, dir, &m.theme, quiet_report)
}

/// The error for a flag of the retired parallel machine engine.
fn removed_flag(flag: &str) -> String {
    format!("{flag} was removed: every machine runs on the serial scheduler")
}

/// `verify`: the commutativity verification harness (see `commtm-verify`):
/// tier A property-checks every label's algebraic laws, tier B runs both
/// interleavings of every workload's claimed-commuting operation pairs.
fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let mut all = false;
    let mut label: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut out_json: Option<String> = None;
    let mut opts = commtm_verify::VerifyOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--all" => all = true,
            "--label" => label = Some(value("--label")?.clone()),
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--cases" => {
                opts.cases = value("--cases")?.parse().map_err(|_| "bad --cases")?;
            }
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
            }
            "--json" => out_json = Some(value("--json")?.clone()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if all && (label.is_some() || workload.is_some()) {
        return Err("--all runs everything; don't also pass --label/--workload".into());
    }
    if let Some(name) = &label {
        if !commtm_verify::label_specs()
            .iter()
            .any(|s| s.name() == *name)
        {
            let known: Vec<&str> = commtm_verify::label_specs()
                .iter()
                .map(|s| s.name())
                .collect();
            return Err(format!(
                "unknown label {name:?}; built-ins: {}",
                known.join(", ")
            ));
        }
    }
    if let Some(name) = &workload {
        if !commtm_workloads::builtins()
            .iter()
            .any(|w| w.name() == *name)
        {
            let known: Vec<&str> = commtm_workloads::builtins()
                .iter()
                .map(|w| w.name())
                .collect();
            return Err(format!(
                "unknown workload {name:?}; built-ins: {}",
                known.join(", ")
            ));
        }
    }

    let report = commtm_verify::run_all(label.as_deref(), workload.as_deref(), &opts);
    print!("{}", report.render_text());
    if let Some(path) = out_json {
        std::fs::write(&path, commtm_lab::verify::report_json(&report).pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut tol = 0.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tol" => tol = parse_tol(it.next().ok_or("--tol needs a value")?)?,
            p if !p.starts_with('-') => paths.push(p.to_string()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let [a, b] = paths.as_slice() else {
        return Err("diff needs exactly two JSON files".to_string());
    };
    let base = ResultSet::from_json_str(
        &std::fs::read_to_string(a).map_err(|e| format!("reading {a}: {e}"))?,
    )?;
    let cur = ResultSet::from_json_str(
        &std::fs::read_to_string(b).map_err(|e| format!("reading {b}: {e}"))?,
    )?;
    let d = diff(&base, &cur, tol);
    print!("{}", d.render());
    println!(
        "compared {} baseline cell(s) across schemes {:?}",
        base.cells.len(),
        base.cells
            .iter()
            .map(|c| scheme_name(c.cell.scheme))
            .collect::<std::collections::BTreeSet<_>>()
    );
    Ok(if d.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_scenario(target: &str) -> Result<Scenario, String> {
    if target == batch::ALL_TARGET {
        return Err("pass --all as a flag, not a target".into());
    }
    let mut scenarios = batch::resolve_target(registry::global(), target)?;
    debug_assert_eq!(
        scenarios.len(),
        1,
        "non---all targets resolve to one scenario"
    );
    Ok(scenarios.remove(0))
}

/// `trace-validate`: check a `--trace` artifact against the committed
/// schema (docs/trace.schema.json, embedded at build time so the check
/// works from any directory).
fn cmd_trace_validate(args: &[String]) -> Result<ExitCode, String> {
    let path = match args {
        [p] if !p.starts_with('-') => p,
        _ => return Err("usage: commtm-lab trace-validate <trace.json>".into()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = json::parse(trace::TRACE_SCHEMA).expect("embedded schema parses");
    match trace::validate_schema(&schema, &value) {
        Ok(()) => {
            let cells = value
                .get("cells")
                .and_then(Json::as_arr)
                .map_or(0, |a| a.len());
            println!("{path}: ok ({cells} traced cell(s), schema commtm-trace-v1)");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{path}: schema violation: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// A `--tol` relative tolerance: finite and non-negative, so `inf` or
/// `NaN` cannot make every comparison pass.
fn parse_tol(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err(format!(
            "bad --tol {text:?}: want a finite, non-negative fraction"
        )),
    }
}

fn parse_usize_list(text: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|x| {
            x.trim()
                .parse()
                .map_err(|_| format!("bad thread count {x:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn machine_threads_flag_is_rejected_as_removed() {
        let err =
            cmd_run(&args(&["fig09", "--machine-threads", "2"])).expect_err("the flag is rejected");
        assert!(err.contains("--machine-threads was removed"), "{err}");
    }

    #[test]
    fn tol_must_be_finite_and_non_negative() {
        for tol in ["-0.1", "NaN", "inf", "-inf"] {
            for result in [
                cmd_run(&args(&["fig09", "--baseline", "b.json", "--tol", tol])),
                cmd_diff(&args(&["a.json", "b.json", "--tol", tol])),
            ] {
                let err = result.expect_err("the tolerance is rejected");
                assert!(err.contains("bad --tol"), "{tol}: {err}");
            }
        }
    }

    #[test]
    fn tol_without_baseline_is_rejected() {
        let err = cmd_run(&args(&["fig09", "--tol", "0.1"])).expect_err("--tol alone is rejected");
        assert!(err.contains("--tol") && err.contains("--baseline"), "{err}");
    }

    #[test]
    fn zero_seeds_is_rejected() {
        let err = cmd_run(&args(&["fig09", "--seeds", "0"])).expect_err("--seeds 0 is rejected");
        assert!(err.contains("--seeds must be at least 1"), "{err}");
    }

    #[test]
    fn zero_threads_max_is_rejected() {
        let err = cmd_run(&args(&["fig09", "--threads-max", "0"]))
            .expect_err("--threads-max 0 is rejected");
        assert!(err.contains("--threads-max must be at least 1"), "{err}");
    }
}
