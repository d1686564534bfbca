//! End-to-end tests for the batch grid service: a killed-and-resumed
//! grid must be byte-identical to an uninterrupted run, failures must
//! journal and render as gaps, and `--fail-fast` skips must stay fresh in
//! the ledger. See docs/BATCH.md.

use std::path::PathBuf;

use commtm_lab::batch::{self, BatchPlan, CellState, Overrides, Replay};
use commtm_lab::exec::{run_scenario, ExecOptions};
use commtm_lab::registry;
use commtm_lab::spec::{Scenario, WorkloadSpec};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commtm-batch-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke_overrides() -> Overrides {
    Overrides {
        scale: Some(1),
        ..Overrides::default()
    }
}

fn read(dir: &std::path::Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("reading {}/{file}: {e}", dir.display()))
}

/// Chops the ledger so its final line is a partial record — byte-for-byte
/// what a `kill -9` during an append leaves behind.
fn simulate_kill_mid_append(dir: &std::path::Path) {
    let path = dir.join("ledger.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let keep = text.trim_end().rfind('\n').expect("ledger has events");
    // Keep the last line's first bytes so it is present but unparseable.
    std::fs::write(&path, &text[..keep + 12]).unwrap();
}

#[test]
fn fresh_batch_matches_direct_run_byte_for_byte() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let plan = BatchPlan::new(reg, "smoke", &ov).unwrap();
    let dir = tmp("fresh");
    let opts = ExecOptions::default();
    let outcome = batch::run_batch(reg, &plan, &dir, None, "light", &opts).unwrap();
    assert!(outcome.all_ok);
    assert_eq!(outcome.summary.fresh, plan.jobs.len());
    let sets = batch::assemble_sets(&plan, &outcome.results);

    let mut scenario = batch::resolve_target(reg, "smoke").unwrap().remove(0);
    ov.apply(reg, &mut scenario).unwrap();
    let direct = run_scenario(&scenario, &opts).unwrap();
    assert_eq!(
        sets[0].canonical_json().pretty(),
        direct.canonical_json().pretty(),
        "the batch path must not change deterministic results"
    );

    // The ledger is the only store: one manifest line plus one
    // `completed` line per cell, each carrying a record that verifies.
    let ledger = read(&dir, "ledger.jsonl");
    assert_eq!(ledger.lines().count(), 1 + plan.jobs.len());
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, ["ledger.jsonl"], "no side files");
    let replay = Replay::load(&dir).unwrap();
    assert_eq!(replay.states.len(), plan.jobs.len());
    for (job, direct) in plan.jobs.iter().zip(&direct.cells) {
        let state = replay.states.get(&job.id).unwrap();
        assert!(matches!(state, CellState::Completed { .. }), "{}", job.id);
        let kept = batch::ledger::replayed_result(state, plan.cell_of(job)).unwrap();
        assert_eq!(kept.to_json(false), direct.to_json(false), "{}", job.id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_resumed_grid_is_byte_identical() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let theme = commtm_lab::figures::theme_by_name("light").unwrap();
    let plan = BatchPlan::new(reg, "smoke", &ov).unwrap();

    // Reference: one uninterrupted run.
    let ref_dir = tmp("ref");
    let outcome = batch::run_batch(reg, &plan, &ref_dir, None, "light", &opts).unwrap();
    let sets = batch::assemble_sets(&plan, &outcome.results);
    assert!(batch::emit_report(&ref_dir, &plan, &sets, theme, true).unwrap());

    // The same grid, killed mid-append of its last record.
    let dir = tmp("killed");
    batch::run_batch(reg, &plan, &dir, None, "light", &opts).unwrap();
    simulate_kill_mid_append(&dir);

    // Resume: the partial record is flagged, its cell re-runs as fresh,
    // everything else is kept.
    let prior = Replay::load(&dir).unwrap();
    assert!(prior.truncated_tail, "partial final line must be flagged");
    let resumed = batch::run_batch(reg, &plan, &dir, Some(&prior), "light", &opts).unwrap();
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.completed_kept, plan.jobs.len() - 1);
    assert_eq!(resumed.summary.ran, 1);

    // The resumed report matches the reference byte-for-byte
    // (manifest.json carries wall times and is exempt).
    let sets = batch::assemble_sets(&plan, &resumed.results);
    assert!(batch::emit_report(&dir, &plan, &sets, theme, true).unwrap());
    for file in ["smoke.json", "smoke.svg", "index.html"] {
        assert_eq!(
            read(&ref_dir, file),
            read(&dir, file),
            "{file} differs between direct and kill/resume runs"
        );
    }

    for d in [ref_dir, dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A cell's snapshot is the result record its `completed` ledger line
/// carries inline.
#[test]
fn resume_reruns_cells_whose_snapshots_fail_verification() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let plan = BatchPlan::new(reg, "smoke", &ov).unwrap();
    let dir = tmp("damaged");
    let first = batch::run_batch(reg, &plan, &dir, None, "light", &opts).unwrap();

    // Edit one cell's inline record in the ledger; its recorded
    // fingerprint no longer matches, so resume must re-run exactly that
    // cell.
    let job = format!("\"job\":\"{}\"", plan.jobs[0].id);
    let edited: String = read(&dir, "ledger.jsonl")
        .lines()
        .map(|line| {
            if line.contains(&job) {
                format!(
                    "{}\n",
                    line.replace("\"total_cycles\":", "\"total_cycles\":1")
                )
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(edited, read(&dir, "ledger.jsonl"), "the record was edited");
    std::fs::write(dir.join("ledger.jsonl"), edited).unwrap();

    let prior = Replay::load(&dir).unwrap();
    let resumed = batch::run_batch(reg, &plan, &dir, Some(&prior), "light", &opts).unwrap();
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.verify_failed, 1);
    assert_eq!(resumed.summary.ran, 1);
    assert_eq!(resumed.summary.completed_kept, plan.jobs.len() - 1);

    // The re-run reproduces the original deterministic results.
    let a = batch::assemble_sets(&plan, &first.results);
    let b = batch::assemble_sets(&plan, &resumed.results);
    assert_eq!(
        a[0].canonical_json().pretty(),
        b[0].canonical_json().pretty()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A two-cell grid whose cells always fail: the cycle limit trips before
/// the counter workload can finish.
fn failing_scenario() -> Scenario {
    let mut scn = Scenario::new("failgrid", "cells that trip the cycle limit")
        .workload(WorkloadSpec::named("counter").param("total_incs", 5_000))
        .threads(&[2, 4])
        .schemes(&[commtm::Scheme::Baseline])
        .seeds(&[1]);
    scn.tuning.max_cycles = Some(10);
    scn
}

#[test]
fn failed_cells_journal_as_failed_and_render_as_gaps() {
    let reg = registry::global();
    let plan = BatchPlan::from_scenarios(
        reg,
        "failgrid",
        &Overrides::default(),
        vec![failing_scenario()],
    )
    .unwrap();
    let dir = tmp("failing");
    let opts = ExecOptions::default();
    let outcome = batch::run_batch(reg, &plan, &dir, None, "light", &opts).unwrap();
    assert!(!outcome.all_ok, "every cell trips the cycle limit");
    assert_eq!(outcome.summary.failed_now, 2);

    // The ledger records the failures (with the cause), not a crash.
    let replay = Replay::load(&dir).unwrap();
    for job in &plan.jobs {
        match replay.states.get(&job.id) {
            Some(CellState::Failed { error }) => {
                assert!(error.contains("CycleLimit"), "cause recorded: {error}");
            }
            other => panic!("{}: expected failed, got {other:?}", job.id),
        }
    }

    // The report renders, flags the scenario, and names the failed cells.
    let theme = commtm_lab::figures::theme_by_name("light").unwrap();
    let sets = batch::assemble_sets(&plan, &outcome.results);
    assert!(!batch::emit_report(&dir, &plan, &sets, theme, true).unwrap());
    let manifest = read(&dir, "manifest.json");
    assert!(manifest.contains("\"failed\""));
    let index = read(&dir, "index.html");
    assert!(index.contains("SOME CELLS FAILED"));
    assert!(index.contains("failed-cells"));
    assert!(index.contains("counter[counter] t=2"), "failed cell named");

    // Resume retries failed cells (and fails again, deterministically).
    let prior = Replay::load(&dir).unwrap();
    let resumed = batch::run_batch(reg, &plan, &dir, Some(&prior), "light", &opts).unwrap();
    assert_eq!(resumed.summary.retried_failed, 2);
    assert_eq!(resumed.summary.failed_now, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fail_fast_skips_are_not_journaled_and_stay_fresh() {
    let reg = registry::global();
    let plan = BatchPlan::from_scenarios(
        reg,
        "failgrid",
        &Overrides::default(),
        vec![failing_scenario()],
    )
    .unwrap();
    let dir = tmp("failfast");
    let opts = ExecOptions {
        jobs: 1,
        fail_fast: true,
        ..ExecOptions::default()
    };
    let outcome = batch::run_batch(reg, &plan, &dir, None, "light", &opts).unwrap();
    assert!(!outcome.all_ok);
    assert_eq!(outcome.summary.failed_now, 1, "first cell fails");
    assert_eq!(outcome.summary.skipped_fail_fast, 1, "second never claimed");

    // The skipped cell has no ledger state: it is fresh for resume.
    let replay = Replay::load(&dir).unwrap();
    assert_eq!(replay.states.len(), 1);
    let resumed = batch::run_batch(
        reg,
        &plan,
        &dir,
        Some(&replay),
        "light",
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(resumed.summary.retried_failed, 1);
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.skipped_fail_fast, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two scenarios over the same grid under different labels: every cell
/// of the one has a twin in the other.
fn twin_plan() -> BatchPlan {
    let twin = |name: &str| {
        Scenario::new(name, "twin grids")
            .workload(
                WorkloadSpec::named("counter")
                    .label(name)
                    .param("total_incs", 300),
            )
            .threads(&[1, 2])
            .seeds(&[5])
    };
    BatchPlan::from_scenarios(
        registry::global(),
        "twins",
        &Overrides::default(),
        vec![twin("twin-a"), twin("twin-b")],
    )
    .unwrap()
}

#[test]
fn shared_cells_simulate_once_journal_per_job_and_resume_per_job() {
    let reg = registry::global();
    let plan = twin_plan();
    let opts = ExecOptions::default();
    let dir = tmp("twins");
    let outcome = batch::run_batch(reg, &plan, &dir, None, "light", &opts).unwrap();
    assert!(outcome.all_ok);
    assert_eq!(outcome.summary.ran, 8);
    assert_eq!(
        outcome.summary.simulated, 4,
        "each twin pair simulates once"
    );

    // Every job id is journaled with a record of its own, which carries
    // its own label and verifies against its own fingerprint.
    let replay = Replay::load(&dir).unwrap();
    assert_eq!(replay.states.len(), plan.jobs.len());
    for job in &plan.jobs {
        let state = replay.states.get(&job.id).unwrap();
        assert!(matches!(state, CellState::Completed { .. }), "{}", job.id);
        let cell = batch::ledger::replayed_result(state, plan.cell_of(job)).unwrap();
        assert_eq!(cell.cell.label, plan.scenarios[job.scenario].name);
    }
    let theme = commtm_lab::figures::theme_by_name("light").unwrap();
    let ref_dir = tmp("twins-ref");
    let sets = batch::assemble_sets(&plan, &outcome.results);
    assert!(batch::emit_report(&ref_dir, &plan, &sets, theme, true).unwrap());

    // Drop one twin's events from the ledger: that cell is fresh, while
    // the cell it shared a simulation with stays completed. Resume runs
    // the fresh twin alone.
    let twin = &plan.jobs[plan.cells[0].len()];
    assert_eq!(twin.id, "twin-b#0");
    let kept: String = read(&dir, "ledger.jsonl")
        .lines()
        .filter(|line| !line.contains(&format!("\"job\":\"{}\"", twin.id)))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(dir.join("ledger.jsonl"), kept).unwrap();
    let prior = Replay::load(&dir).unwrap();
    let resumed = batch::run_batch(reg, &plan, &dir, Some(&prior), "light", &opts).unwrap();
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.completed_kept, plan.jobs.len() - 1);
    assert_eq!((resumed.summary.ran, resumed.summary.simulated), (1, 1));

    // The resumed report is byte-identical to the uninterrupted one.
    let sets = batch::assemble_sets(&plan, &resumed.results);
    assert!(batch::emit_report(&dir, &plan, &sets, theme, true).unwrap());
    for file in [
        "twin-a.json",
        "twin-b.json",
        "twin-a.svg",
        "twin-b.svg",
        "index.html",
    ] {
        assert_eq!(read(&ref_dir, file), read(&dir, file), "{file} differs");
    }
    for d in [ref_dir, dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
