//! The `commtm-lab` command-line interface.
//!
//! ```text
//! commtm-lab list                      # built-in scenarios
//! commtm-lab workloads                 # registered workloads and defaults
//! commtm-lab run fig09 --threads-max 16 --out fig09.json
//! commtm-lab run --all --out-dir report   # every figure + manifest.json
//! commtm-lab run --all --out-dir s0 --shard 0/2   # half the grid
//! commtm-lab run --resume s0           # finish a killed run
//! commtm-lab merge s0 s1 --out-dir report  # combine shard ledgers
//! commtm-lab run sweep.toml --jobs 8 --csv sweep.csv
//! commtm-lab diff old.json new.json    # regression gate
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use commtm_lab::batch::{self, Replay, Shard};
use commtm_lab::bench::BenchReport;
use commtm_lab::exec::{run_scenario, ExecOptions};
use commtm_lab::json::{self, Json};
use commtm_lab::results::{diff, ResultSet};
use commtm_lab::spec::{parse_scheme, scheme_name, Scenario};
use commtm_lab::{bench, figures, registry, report, scenarios, trace};

const USAGE: &str = "\
commtm-lab — declarative, parallel experiment sweeps for the CommTM simulator

USAGE:
    commtm-lab list                         list built-in scenarios
    commtm-lab workloads [--json]           registered workloads and their
                                            typed parameter schemas
    commtm-lab run <scenario|file.toml> [options]
    commtm-lab run --all [--out-dir DIR] [options]
    commtm-lab run --resume DIR [--jobs N] [--fail-fast] [--progress]
    commtm-lab merge <dir>... [--out-dir DIR] [--quiet]
                                            validate shard ledgers and combine
                                            them into the single report that an
                                            unsharded run produces
    commtm-lab bench [--quick] [--out BENCH.json] [--check BASE.json]
                     [--compare OLD.json NEW.json]
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
                        lab-report). Batch runs journal per-cell progress
                        to DIR/ledger.jsonl (crash-safe: a killed run
                        loses at most its in-flight cells) and snapshot
                        every cell under DIR/cells/. Naming --out-dir for
                        a single scenario batches it too. See docs/BATCH.md
    --resume DIR        replay DIR's ledger: keep completed cells after
                        verifying their recorded fingerprints, retry
                        failed and orphaned in-flight cells, finish the
                        grid, and report a resume summary. Takes the grid
                        definition from the ledger — grid flags don't
                        combine with --resume
    --shard I/N         own only slice I of an N-way deterministic,
                        cost-balanced cell split (0-based). Each shard is
                        an independent process writing its own --out-dir;
                        combine them with `commtm-lab merge`
    --fail-fast         stop claiming new cells after the first failure.
                        Default off in batch mode: a poisoned cell is
                        recorded as failed (figures render a gap) and the
                        sweep continues; cells skipped by a --fail-fast
                        stop stay fresh in the ledger for --resume
    --threads LIST      comma-separated thread counts (e.g. 1,8,32)
    --threads-max N     drop sweep points above N threads
    --schemes LIST      comma-separated schemes (baseline,commtm)
    --seeds N           run N seed replicas per point
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
    --tol FRAC          relative tolerance for --baseline/diff (default 0)
    --progress          print per-cell progress to stderr
    --quiet             suppress the figure-style report

MERGE OPTIONS:
    --out-dir DIR       combined report directory (default: lab-report)
    --quiet             suppress the figure-style reports

BENCH OPTIONS:
    --quick             run only the CI perf-smoke grid subset
    --out FILE.json     write the BENCH.json perf baseline
    --check BASE.json   compare determinism fingerprints against a previous
                        BENCH.json; exit 1 on a mismatch or on a grid the
                        baseline lacks (timing never gates)
    --jobs N / --serial as for run

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
        Some("merge") => match cmd_merge(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Some("bench") => match cmd_bench(&args[1..]) {
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
    let mut shard: Option<Shard> = None;
    let mut opts = ExecOptions::default();
    let mut ov = batch::Overrides::default();
    let mut out_json: Option<String> = None;
    let mut out_csv: Option<String> = None;
    let mut out_svg: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tol = 0.0f64;
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
            "--shard" => shard = Some(Shard::parse(value("--shard")?)?),
            "--fail-fast" => opts.fail_fast = true,
            "--threads" => {
                ov.threads = Some(parse_usize_list(value("--threads")?)?);
            }
            "--threads-max" => {
                ov.threads_max = Some(
                    value("--threads-max")?
                        .parse()
                        .map_err(|_| "bad --threads-max")?,
                );
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
                ov.seeds = Some(value("--seeds")?.parse().map_err(|_| "bad --seeds")?);
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
            "--tol" => tol = value("--tol")?.parse().map_err(|_| "bad --tol")?,
            "--progress" => opts.quiet = false,
            "--quiet" => quiet_report = true,
            other if !other.starts_with('-') && target.is_none() => {
                target = Some(other);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }

    let single_scenario_outputs = out_json.is_some()
        || out_csv.is_some()
        || out_svg.is_some()
        || trace_out.is_some()
        || baseline.is_some()
        || tol != 0.0;

    if let Some(dir) = resume {
        // The ledger manifest is the grid definition: re-specifying any
        // part of it alongside --resume is ambiguous, so reject it all.
        if target.is_some() || all || out_dir.is_some() || shard.is_some() {
            return Err("--resume replays a ledger's own grid; don't also pass a \
                 scenario, --all, --out-dir or --shard"
                .into());
        }
        if ov != batch::Overrides::default() || single_scenario_outputs {
            return Err("--resume takes the grid and output definitions from the \
                 ledger; grid and output flags don't combine with it"
                .into());
        }
        return cmd_run_resume(&dir, &opts, quiet_report);
    }

    if all || out_dir.is_some() || shard.is_some() {
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
        let shard = shard.unwrap_or(Shard::WHOLE);
        if ov.trace && !shard.is_whole() {
            return Err(
                "--trace doesn't combine with --shard: traces are not persisted \
                 in cell snapshots, so a merge could not reproduce them"
                    .into(),
            );
        }
        return cmd_run_batch(
            target,
            &out_dir.unwrap_or_else(|| "lab-report".to_string()),
            &ov,
            shard,
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
        let d = diff(&base, &set, tol);
        print!("{}", d.render());
        if !d.is_clean() {
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

/// A batch (ledger-backed) run: `run --all`, `run <target> --out-dir`, or
/// any `--shard` slice. Plans the grid, journals per-cell progress into
/// `dir/ledger.jsonl`, and — for whole-grid runs — emits the full report
/// (figures, per-scenario results JSON, manifest, index). Shard slices
/// leave report emission to `commtm-lab merge`.
fn cmd_run_batch(
    target: &str,
    dir: &str,
    ov: &batch::Overrides,
    shard: Shard,
    opts: &ExecOptions,
    quiet_report: bool,
    theme_name: &str,
) -> Result<ExitCode, String> {
    let reg = registry::global();
    let plan = batch::BatchPlan::new(reg, target, ov, shard.total)?;
    let dir_path = Path::new(dir);

    // Starting fresh truncates any ledger already in the directory. If
    // that ledger describes this very grid, the user probably wanted to
    // finish it, not redo it — say so before discarding the work.
    if dir_path.join(batch::ledger::LEDGER_FILE).exists() {
        if let Ok(prior) = Replay::load(dir_path) {
            if prior.manifest.grid_fingerprint == plan.grid_fingerprint
                && prior.manifest.shard == shard
            {
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

    let outcome = batch::run_batch(reg, &plan, shard, dir_path, None, theme_name, opts)?;
    eprintln!("{}", outcome.summary.render());

    if shard.is_whole() {
        let sets = batch::assemble_sets(&plan, &outcome.results)?;
        let theme = figures::theme_by_name(theme_name).expect("validated when parsed");
        let ok = batch::emit_report(dir_path, &plan, &sets, theme, quiet_report)?;
        Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    } else {
        eprintln!(
            "shard {shard} of the grid is journaled in {dir}; when every shard is done, \
             combine them: commtm-lab merge <dir>... --out-dir <report>"
        );
        Ok(if outcome.all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    }
}

/// `run --resume DIR`: replay DIR's ledger, keep verified completed
/// cells, retry failed and orphaned in-flight cells, and finish the grid
/// the ledger describes.
fn cmd_run_resume(dir: &str, opts: &ExecOptions, quiet_report: bool) -> Result<ExitCode, String> {
    let reg = registry::global();
    let dir_path = Path::new(dir);
    let prior = Replay::load(dir_path)?;
    let m = prior.manifest.clone();
    if m.overrides.trace {
        return Err(format!(
            "{dir}: this ledger captured traces, which are not persisted in cell \
             snapshots; traced grids must re-run whole (commtm-lab run ... --trace)"
        ));
    }
    if prior.truncated_tail {
        eprintln!(
            "note: {dir}: ledger ends mid-record (the previous run died while \
             appending); the partial record was ignored"
        );
    }
    let plan = batch::BatchPlan::new(reg, &m.target, &m.overrides, m.shard.total)?;
    if plan.grid_fingerprint != m.grid_fingerprint {
        return Err(format!(
            "{dir}: grid fingerprint mismatch: the ledger was written for {} but this \
             build enumerates {} — the scenarios changed; re-run instead of resuming",
            m.grid_fingerprint, plan.grid_fingerprint
        ));
    }
    if plan.jobs.len() != m.total_cells {
        return Err(format!(
            "{dir}: cell count mismatch: ledger recorded {} cells, this build \
             enumerates {}",
            m.total_cells,
            plan.jobs.len()
        ));
    }

    let outcome = batch::run_batch(reg, &plan, m.shard, dir_path, Some(&prior), &m.theme, opts)?;
    eprintln!("{}", outcome.summary.render());

    if m.shard.is_whole() {
        let sets = batch::assemble_sets(&plan, &outcome.results)?;
        let theme = figures::theme_by_name(&m.theme)
            .ok_or_else(|| format!("ledger records unknown theme {:?}", m.theme))?;
        let ok = batch::emit_report(dir_path, &plan, &sets, theme, quiet_report)?;
        Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    } else {
        eprintln!(
            "shard {} of the grid is journaled in {dir}; when every shard is done, \
             combine them: commtm-lab merge <dir>... --out-dir <report>",
            m.shard
        );
        Ok(if outcome.all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    }
}

/// `merge <dir>...`: validate shard ledgers (same grid, every shard
/// present exactly once, every cell finished and verifying) and combine
/// them into the single report an unsharded run writes.
fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut out_dir = "lab-report".to_string();
    let mut quiet_report = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out-dir" => {
                out_dir = it.next().ok_or("--out-dir needs a value")?.clone();
            }
            "--quiet" => quiet_report = true,
            p if !p.starts_with('-') => dirs.push(PathBuf::from(p)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if dirs.is_empty() {
        return Err("merge needs the shard output directories (one per shard)".into());
    }
    let ok =
        batch::merge::merge_dirs(registry::global(), &dirs, Path::new(&out_dir), quiet_report)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `bench`: the pinned perf baseline (see `commtm_lab::bench` and
/// docs/PERFORMANCE.md). Timing is informational; only determinism
/// fingerprints gate (via `--check`).
fn cmd_bench(args: &[String]) -> Result<ExitCode, String> {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut compare: Option<(String, String)> = None;
    let mut opts = ExecOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--compare" => {
                let old = value("--compare")?.clone();
                let new = value("--compare")?.clone();
                compare = Some((old, new));
            }
            "--machine-threads" => return Err(removed_flag(arg)),
            "--out" => out = Some(value("--out")?.clone()),
            "--check" => check = Some(value("--check")?.clone()),
            "--jobs" => {
                opts.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs")?;
            }
            "--serial" => opts.jobs = 1,
            "--progress" => opts.quiet = false,
            other => return Err(format!("unknown option {other:?}")),
        }
    }

    // `--compare old.json new.json`: render the delta table between two
    // saved reports and exit — no grids run. Informational (the delta is
    // for PR writeups); fingerprint divergence is called out in the table
    // but does not gate here, `--check` does.
    if let Some((old_path, new_path)) = compare {
        let read = |path: &str| -> Result<BenchReport, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            BenchReport::from_json_str(&text)
        };
        let (old, new) = (read(&old_path)?, read(&new_path)?);
        print!("{}", new.compare_render(&old));
        return Ok(ExitCode::SUCCESS);
    }

    let report = bench::run(quick, &opts)?;
    print!("{}", report.render());
    if let Some(path) = &out {
        std::fs::write(path, report.to_json().pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    // Batch rows must reproduce their grid exactly — no baseline needed.
    // Gated *after* --out so the report holding the diverging
    // fingerprints always exists for diagnosis.
    let batch = report.batch_mismatches();
    if !batch.is_empty() {
        eprintln!(
            "batch-path fingerprint mismatch: {} — storing and reloading \
             results through the ledger changed them",
            batch.join(", ")
        );
        return Ok(ExitCode::FAILURE);
    }
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let base = BenchReport::from_json_str(&text)?;
        match report.check(&base) {
            Ok(compared) => {
                println!(
                    "determinism fingerprints match {path} ({})",
                    compared.join(", ")
                );
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
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
            "--tol" => {
                tol = it
                    .next()
                    .ok_or("--tol needs a value")?
                    .parse()
                    .map_err(|_| "bad --tol")?;
            }
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

    #[test]
    fn machine_threads_flag_is_rejected_as_removed() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        for result in [
            cmd_run(&args(&["fig09", "--machine-threads", "2"])),
            cmd_bench(&args(&["--quick", "--machine-threads", "2"])),
        ] {
            let err = result.expect_err("the flag is rejected");
            assert!(err.contains("--machine-threads was removed"), "{err}");
        }
    }
}
