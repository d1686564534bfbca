//! The `commtm-lab` command-line interface.
//!
//! ```text
//! commtm-lab list                      # built-in scenarios
//! commtm-lab workloads                 # registered workloads and defaults
//! commtm-lab run fig09 --threads-max 16   # text report only, no files
//! commtm-lab run fig09 --out-dir fig09    # + figure, fig09.json, manifest
//! commtm-lab run --all                 # every figure into lab-report/
//! commtm-lab diff old/fig09.json lab-report/fig09.json   # regression gate
//! ```

use std::path::Path;
use std::process::ExitCode;

use commtm_lab::batch;
use commtm_lab::exec::{run_scenarios_in, ExecOptions};
use commtm_lab::json::{self, Json};
use commtm_lab::results::{diff, ResultSet};
use commtm_lab::spec::{parse_scheme, scheme_name};
use commtm_lab::{figures, registry, report, scenarios, trace};

const USAGE: &str = "\
commtm-lab — declarative, parallel experiment sweeps for the CommTM simulator

USAGE:
    commtm-lab list                         list built-in scenarios
    commtm-lab workloads [--json]           registered workloads and their
                                            typed parameter schemas
    commtm-lab run <scenario|file.toml> [options]
    commtm-lab run --all [options]
    commtm-lab verify [--all] [options]     commutativity verification:
                                            algebraic label laws + the
                                            interleaving oracle over every
                                            workload's claims
    commtm-lab diff <baseline.json> <current.json> [--tol FRAC]
                                            regression gate over two results
                                            files (a report's <name>.json):
                                            exit 1 on any changed cell.
                                            --tol is a relative tolerance
                                            (default 0; finite, non-negative)
    commtm-lab trace-validate <trace.json>
                                            check a --trace artifact against
                                            the committed docs/trace.schema.json

RUN OPTIONS:
    --all               run every built-in figure scenario into one report
                        directory (default lab-report; see --out-dir)
    --param KEY=VALUE   override one workload parameter (typed via the
                        workload's schema; repeatable; errors list each
                        workload's valid parameters)
    --out-dir DIR       write the report directory: one SVG/HTML figure and
                        one results JSON (<name>.json) per scenario,
                        table1.html, manifest.json and an index.html linking
                        every figure. Without it (and without --all) run
                        prints the text report and writes no file. A failed
                        cell is listed in manifest.json and leaves a gap in
                        its figure; the run continues and exits 1. See
                        docs/SCENARIOS.md
    --threads LIST      comma-separated thread counts (e.g. 1,8,32)
    --threads-max N     drop sweep points above N threads (N >= 1)
    --schemes LIST      comma-separated schemes (baseline,commtm)
    --seeds N           run N seed replicas per point (N >= 1)
    --scale N           workload scale factor (paper scale ~ 500)
    --jobs N            worker threads (N >= 1; default: one per core;
                        1 runs cells serially, with the same numbers)
    --trace             capture per-transaction traces (attributed abort
                        causes, conflict hot lines, speculation audit):
                        writes <name>.trace.json and <name>.aborts.svg into
                        the report directory, so it needs --out-dir or
                        --all. Observation-only: deterministic results are
                        byte-identical with tracing on or off
    --theme NAME        figure color theme: light (default) or dark
    --progress          print per-cell progress to stderr
    --quiet             suppress the figure-style report

VERIFY OPTIONS:
    --all               both tiers for every label and workload (default
                        when no filter is given)
    --label NAME        check only one label's algebraic laws
    --workload NAME     check only one workload's commutativity claims
    --cases N           randomized cases per check (N >= 1, default 32)
    --seed N            base seed for every generator (default pinned)
    --json FILE         write the machine-readable report
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(rest),
        Some("workloads") => cmd_workloads(rest),
        Some("run") => cmd_run(rest),
        Some("verify") => cmd_verify(rest),
        Some("diff") => cmd_diff(rest),
        Some("trace-validate") => cmd_trace_validate(rest),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// `list`: the built-in scenarios with their titles and cell counts.
fn cmd_list(args: &[String]) -> Result<ExitCode, String> {
    if let Some(other) = args.first() {
        return Err(format!("unknown option {other:?}"));
    }
    println!("built-in scenarios:");
    for name in scenarios::builtin_names() {
        let scn = scenarios::builtin(name).expect("listed scenario exists");
        println!("  {name:<8} {} ({} cells)", scn.title, scn.cells().len());
    }
    Ok(ExitCode::SUCCESS)
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
            if let Some(min) = spec.min {
                doc.push_str(&format!(" [min {min}]"));
            }
            if let Some(max) = spec.max {
                doc.push_str(&format!(" [max {max}]"));
            }
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
    let mut opts = ExecOptions::default();
    let mut ov = batch::Overrides::default();
    let mut quiet_report = false;
    let mut theme = figures::theme_by_name("light").expect("the light theme exists");

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--all" => all = true,
            "--param" => ov.params.push(value("--param")?.clone()),
            "--out-dir" => out_dir = Some(value("--out-dir")?.clone()),
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
                let n = value("--jobs")?.parse().map_err(|_| "bad --jobs")?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = n;
            }
            "--trace" => ov.trace = true,
            "--theme" => {
                let name = value("--theme")?;
                theme = figures::theme_by_name(name)
                    .ok_or_else(|| format!("unknown theme {name:?} (light or dark)"))?;
            }
            "--progress" => opts.quiet = false,
            "--quiet" => quiet_report = true,
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(other);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }

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
    let dir = out_dir.or_else(|| all.then(|| "lab-report".to_string()));

    let reg = registry::global();
    let mut scenarios = batch::resolve_target(reg, target)?;
    for scenario in &mut scenarios {
        ov.apply(reg, scenario)?;
    }
    if dir.is_none() && scenarios.iter().any(|s| s.tuning.trace == Some(true)) {
        return Err(
            "tracing (--trace or tuning.trace) writes <name>.trace.json \
             into the report directory; name one with --out-dir DIR"
                .into(),
        );
    }
    let sets = run_scenarios_in(reg, &scenarios, &opts)?;
    if !quiet_report {
        for (scenario, set) in scenarios.iter().zip(&sets) {
            print!("{}", report::render(scenario, set));
        }
    }
    let ok = match dir {
        Some(dir) => batch::emit_report(Path::new(&dir), &scenarios, &sets, theme)?,
        None => sets.iter().all(ResultSet::all_ok),
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
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
                if opts.cases == 0 {
                    return Err("--cases must be at least 1".into());
                }
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
    let base = read_results(a)?;
    let cur = read_results(b)?;
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

/// Reads a results JSON (a `diff` input), naming the file
/// in every error.
fn read_results(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    ResultSet::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
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
    fn resume_and_fail_fast_are_unknown_options() {
        for (argv, flag) in [
            (&["--resume", "lab-report"][..], "--resume"),
            (
                &["fig09", "--out-dir", "lab-report", "--fail-fast"][..],
                "--fail-fast",
            ),
            // Every file goes through the report directory (--out-dir).
            (&["fig09", "--out", "fig09.json"][..], "--out"),
            (&["fig09", "--csv", "fig09.csv"][..], "--csv"),
            (&["fig09", "--svg", "fig09.svg"][..], "--svg"),
            (
                &["fig09", "--trace", "--trace-out", "t.json"][..],
                "--trace-out",
            ),
            (&["fig09", "--baseline", "fig09.json"][..], "--baseline"),
            (&["fig09", "--tol", "0.1"][..], "--tol"),
        ] {
            let err = cmd_run(&args(argv)).expect_err("the flag is rejected");
            assert_eq!(err, format!("unknown option {flag:?}"));
        }
    }

    #[test]
    fn trace_without_out_dir_is_rejected() {
        let err = cmd_run(&args(&["fig09", "--trace"])).expect_err("--trace alone is rejected");
        assert!(err.contains("--out-dir"), "{err}");
    }

    #[test]
    fn out_of_range_params_fail_at_load() {
        let bank = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/bank.toml");
        for (argv, msg) in [
            (
                [bank, "--param", "accounts=1"],
                "--param accounts: parameter \"accounts\" must be at least 2 (got 1)",
            ),
            (
                ["fig16", "--param", "d=40"],
                "--param d: parameter \"d\" must be at most 16 (got 40)",
            ),
        ] {
            let err = cmd_run(&args(&argv)).expect_err("the value is rejected");
            assert_eq!(err, msg);
        }
    }

    #[test]
    fn tol_must_be_finite_and_non_negative() {
        for tol in ["-0.1", "NaN", "inf", "-inf"] {
            let err = cmd_diff(&args(&["a.json", "b.json", "--tol", tol]))
                .expect_err("the tolerance is rejected");
            assert!(err.contains("bad --tol"), "{tol}: {err}");
        }
    }

    #[test]
    fn zero_seeds_is_rejected() {
        let err = cmd_run(&args(&["fig09", "--seeds", "0"])).expect_err("--seeds 0 is rejected");
        assert!(err.contains("--seeds must be at least 1"), "{err}");
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let err = cmd_run(&args(&["fig09", "--jobs", "0"])).expect_err("--jobs 0 is rejected");
        assert!(err.contains("--jobs must be at least 1"), "{err}");
    }

    #[test]
    fn list_rejects_extra_arguments() {
        let err = cmd_list(&args(&["extra"])).expect_err("extra arguments are rejected");
        assert!(err.contains("unknown option \"extra\""), "{err}");
    }

    #[test]
    fn zero_cases_is_rejected() {
        let err = cmd_verify(&args(&["--cases", "0"])).expect_err("--cases 0 is rejected");
        assert!(err.contains("--cases must be at least 1"), "{err}");
    }

    #[test]
    fn malformed_results_name_the_file() {
        let path =
            std::env::temp_dir().join(format!("commtm-lab-empty-{}.json", std::process::id()));
        std::fs::write(&path, "").expect("temp file writes");
        let p = path.to_str().expect("utf-8 temp path");
        // `diff` reads both of its files through `read_results`.
        let errs = [
            cmd_diff(&args(&[p, p])).expect_err("an empty file is rejected"),
            read_results(p).expect_err("an empty file is rejected"),
        ];
        std::fs::remove_file(&path).ok();
        for err in errs {
            assert!(err.starts_with(&format!("{p}: ")), "{err}");
        }
    }

    #[test]
    fn zero_threads_max_is_rejected() {
        let err = cmd_run(&args(&["fig09", "--threads-max", "0"]))
            .expect_err("--threads-max 0 is rejected");
        assert!(err.contains("--threads-max must be at least 1"), "{err}");
    }
}
