//! End-to-end tests for the report directory (`run --all`, `run <target>
//! --out-dir`): one pool run over every scenario, written once. A
//! multi-scenario run must match each scenario run alone, twin cells
//! must each carry their own cell, a traced report must carry a valid
//! trace side-car and the same results as an untraced one, and a failed
//! cell must show in the report, on stderr and in the exit code. See
//! docs/SCENARIOS.md.

use std::path::{Path, PathBuf};
use std::process::Command;

use commtm_lab::batch::{self, Overrides};
use commtm_lab::exec::{run_scenario, run_scenarios_in, ExecOptions};
use commtm_lab::spec::{Scenario, WorkloadSpec};
use commtm_lab::{figures, json, registry, trace, ResultSet};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commtm-batch-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("reading {}/{file}: {e}", dir.display()))
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Runs the `commtm-lab` binary and returns its exit code and stderr.
fn lab(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_commtm-lab"))
        .args(args)
        .output()
        .expect("commtm-lab runs");
    let code = out.status.code().expect("commtm-lab exits with a code");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A scenario over a small counter grid whose one workload is labelled
/// with the scenario's name: two such scenarios are twins, every cell of
/// the one sharing its simulation with a cell of the other.
fn twin(name: &str) -> Scenario {
    Scenario::new(name, "twin grids")
        .workload(
            WorkloadSpec::named("counter")
                .label(name)
                .param("total_incs", 300),
        )
        .threads(&[1, 2])
        .seeds(&[5])
}

fn smoke() -> Scenario {
    let reg = registry::global();
    let mut scenario = batch::resolve_target(reg, "smoke").unwrap().remove(0);
    let ov = Overrides {
        scale: Some(1),
        ..Overrides::default()
    };
    ov.apply(reg, &mut scenario).unwrap();
    scenario
}

#[test]
fn multi_scenario_run_matches_each_scenario_alone() {
    let reg = registry::global();
    let scenarios = [smoke(), twin("twin-a"), twin("twin-b")];
    let opts = ExecOptions::default();
    let sets = run_scenarios_in(reg, &scenarios, &opts).unwrap();
    assert_eq!(sets.len(), scenarios.len());

    let dir = tmp("multi");
    assert!(batch::emit_report(&dir, &scenarios, &sets).unwrap());
    for (scenario, set) in scenarios.iter().zip(&sets) {
        let alone = run_scenario(scenario, &opts).unwrap();
        assert!(alone.all_ok(), "{}", scenario.name);
        let canonical = alone.canonical_json().pretty();
        assert_eq!(
            set.canonical_json().pretty(),
            canonical,
            "{}",
            scenario.name
        );
        // The results file the report writes is that same canonical JSON.
        assert_eq!(read(&dir, &format!("{}.json", scenario.name)), canonical);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn twin_cells_carry_their_own_cell() {
    let reg = registry::global();
    let scenarios = [twin("twin-a"), twin("twin-b")];
    let sets = run_scenarios_in(reg, &scenarios, &ExecOptions::default()).unwrap();
    for (scenario, set) in scenarios.iter().zip(&sets) {
        assert_eq!(set.cells.len(), 4, "2 threads x 2 schemes");
        for (i, cell) in set.cells.iter().enumerate() {
            assert_eq!(cell.cell.label, scenario.name);
            assert_eq!(cell.cell.index, i);
        }
    }
    // The twins' statistics agree cell for cell; only the labels differ.
    let stats = |set: &ResultSet| {
        set.cells
            .iter()
            .map(|c| c.stats.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(stats(&sets[0]), stats(&sets[1]));

    // Each twin's results file carries its own labels.
    let dir = tmp("twins");
    assert!(batch::emit_report(&dir, &scenarios, &sets).unwrap());
    assert!(read(&dir, "twin-a.json").contains("\"label\": \"twin-a\""));
    assert!(!read(&dir, "twin-a.json").contains("twin-b"));
    assert!(read(&dir, "twin-b.json").contains("\"label\": \"twin-b\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_scenario_names_are_rejected_before_writing() {
    let scenarios = [twin("twin-a"), twin("twin-a")];
    let sets = run_scenarios_in(registry::global(), &scenarios, &ExecOptions::default()).unwrap();
    let dir = tmp("duplicates");
    let err = batch::emit_report(&dir, &scenarios, &sets).unwrap_err();
    assert!(err.contains("duplicate scenario name \"twin-a\""), "{err}");
    assert!(!dir.exists(), "nothing is written");
}

#[test]
fn out_dir_writes_the_report_once_and_no_ledger() {
    let serial = tmp("serial");
    let pooled = tmp("pooled");
    for (dir, jobs) in [(&serial, Some("1")), (&pooled, None)] {
        let mut args = vec!["run", "smoke", "--scale", "1", "--quiet"];
        args.extend(["--out-dir", dir.to_str().unwrap()]);
        if let Some(jobs) = jobs {
            args.extend(["--jobs", jobs]);
        }
        assert_eq!(lab(&args).0, 0);
    }
    let mut want = vec![
        figures::figure_file_name(&smoke()),
        "index.html".to_string(),
        "manifest.json".to_string(),
        "smoke.json".to_string(),
        "table1.html".to_string(),
    ];
    want.sort();
    assert_eq!(files_in(&serial), want, "no ledger, no side files");
    assert_eq!(files_in(&pooled), want);
    // manifest.json carries wall times; every other file is
    // byte-identical whatever the worker count.
    for file in want.iter().filter(|f| *f != "manifest.json") {
        assert_eq!(read(&serial, file), read(&pooled, file), "{file}");
    }
    // Every report carries Table I: the manifest names it, the index
    // links it.
    assert!(read(&pooled, "manifest.json").contains("\"config_table\": \"table1.html\""));
    assert!(read(&pooled, "index.html").contains("<a href=\"table1.html\">"));
    for dir in [serial, pooled] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn traced_report_carries_a_valid_side_car_and_the_same_results() {
    let plain = tmp("untraced");
    let traced = tmp("traced");
    for (dir, trace) in [(&plain, false), (&traced, true)] {
        let mut args = vec![
            "run",
            "fig09",
            "--threads",
            "1,4",
            "--scale",
            "1",
            "--quiet",
        ];
        args.extend(["--out-dir", dir.to_str().unwrap()]);
        if trace {
            args.push("--trace");
        }
        assert_eq!(lab(&args).0, 0);
    }
    // Tracing is observation-only: the results file is byte-identical.
    assert_eq!(read(&traced, "fig09.json"), read(&plain, "fig09.json"));
    assert!(!plain.join("fig09.trace.json").exists());

    let side_car = read(&traced, "fig09.trace.json");
    let schema = json::parse(trace::TRACE_SCHEMA).unwrap();
    trace::validate_schema(&schema, &json::parse(&side_car).unwrap()).unwrap();
    assert!(side_car.contains("\"abort_causes\""));
    assert!(side_car.contains("\"speculation_audit\""));
    assert!(read(&traced, "fig09.aborts.svg").contains("</svg>"));
    assert!(read(&traced, "manifest.json").contains("\"trace\": \"fig09.trace.json\""));
    for dir in [plain, traced] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn failed_cells_are_reported_and_render_as_gaps() {
    // Every cell trips the cycle limit before the counter can finish.
    let dir = tmp("failing");
    std::fs::create_dir_all(&dir).unwrap();
    let toml = dir.join("failgrid.toml");
    std::fs::write(
        &toml,
        "name = \"failgrid\"\n\
         title = \"cells that trip the cycle limit\"\n\
         threads = [2, 4]\n\
         schemes = [\"baseline\"]\n\
         seeds = [1]\n\
         [tuning]\n\
         max_cycles = 10\n\
         [[workload]]\n\
         name = \"counter\"\n\
         total_incs = 5000\n",
    )
    .unwrap();
    let report = dir.join("report");
    let (code, stderr) = lab(&[
        "run",
        toml.to_str().unwrap(),
        "--quiet",
        "--out-dir",
        report.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "a failed cell fails the run");
    // The caught panic is not silenced: its message reaches stderr, and
    // a line of its own names each failed cell and how to rerun it.
    assert!(stderr.contains("panicked"), "{stderr}");
    for threads in [2, 4] {
        let line = format!(
            "cell failed: scenario failgrid, counter[counter] t={threads} baseline seed=0x1; \
             rerun with: commtm-lab run failgrid.toml --threads {threads} --schemes baseline \
             --scale 1"
        );
        assert!(stderr.contains(&line), "{line:?} missing from {stderr}");
    }

    // Each cell is recorded with its cause.
    let set = ResultSet::from_json_str(&read(&report, "failgrid.json")).unwrap();
    assert_eq!(set.cells.len(), 2);
    for cell in &set.cells {
        let error = cell.error.as_deref().unwrap_or_default();
        assert!(
            cell.stats.is_none() && error.contains("CycleLimit"),
            "{error}"
        );
    }
    // The manifest flags the figure and names the failed cells; the
    // index shows them.
    let manifest = read(&report, "manifest.json");
    assert!(manifest.contains("\"ok\": false"));
    assert!(manifest.contains("\"failed\""));
    let index = read(&report, "index.html");
    assert!(index.contains("SOME CELLS FAILED"));
    assert!(index.contains("failed-cells"));
    assert!(index.contains("counter[counter] t=2"), "failed cell named");
    assert!(!report.join("ledger.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
