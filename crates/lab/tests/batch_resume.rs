//! End-to-end tests for the batch grid service: a killed-and-resumed,
//! sharded-and-merged grid must be byte-identical to an uninterrupted
//! single-process run (the PR's acceptance bar), failures must journal
//! and render as gaps, and `--fail-fast` skips must stay fresh in the
//! ledger. See docs/BATCH.md.

use std::path::PathBuf;

use commtm_lab::batch::{self, BatchPlan, CellState, Overrides, Replay, Shard};
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
    let plan = BatchPlan::new(reg, "smoke", &ov, 1).unwrap();
    let dir = tmp("fresh");
    let opts = ExecOptions::default();
    let outcome = batch::run_batch(reg, &plan, Shard::WHOLE, &dir, None, "light", &opts).unwrap();
    assert!(outcome.all_ok);
    assert_eq!(outcome.summary.fresh, plan.jobs.len());
    let sets = batch::assemble_sets(&plan, &outcome.results).unwrap();

    let mut scenario = batch::resolve_target(reg, "smoke").unwrap().remove(0);
    ov.apply(reg, &mut scenario).unwrap();
    let direct = run_scenario(&scenario, &opts).unwrap();
    assert_eq!(
        sets[0].canonical_json().pretty(),
        direct.canonical_json().pretty(),
        "the batch path must not change deterministic results"
    );

    // Every cell left a verifiable snapshot behind.
    let replay = Replay::load(&dir).unwrap();
    assert_eq!(replay.states.len(), plan.jobs.len());
    for job in &plan.jobs {
        match replay.states.get(&job.id) {
            Some(CellState::Completed {
                fingerprint,
                results,
                ..
            }) => {
                batch::ledger::load_cell_file(&dir, results, plan.cell_of(job), fingerprint)
                    .unwrap();
            }
            other => panic!("{}: expected completed, got {other:?}", job.id),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_resumed_sharded_merged_grid_is_byte_identical() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let theme = commtm_lab::figures::theme_by_name("light").unwrap();

    // Reference: one uninterrupted whole-grid run.
    let ref_dir = tmp("ref");
    let plan = BatchPlan::new(reg, "smoke", &ov, 1).unwrap();
    let outcome =
        batch::run_batch(reg, &plan, Shard::WHOLE, &ref_dir, None, "light", &opts).unwrap();
    let sets = batch::assemble_sets(&plan, &outcome.results).unwrap();
    assert!(batch::emit_report(&ref_dir, &plan, &sets, theme, true).unwrap());

    // The same grid as two shards; shard 1 is killed mid-append.
    let plan2 = BatchPlan::new(reg, "smoke", &ov, 2).unwrap();
    assert_eq!(
        plan2.grid_fingerprint, plan.grid_fingerprint,
        "sharding must not change the grid"
    );
    let s0 = tmp("s0");
    let s1 = tmp("s1");
    let sh0 = Shard { index: 0, total: 2 };
    let sh1 = Shard { index: 1, total: 2 };
    batch::run_batch(reg, &plan2, sh0, &s0, None, "light", &opts).unwrap();
    batch::run_batch(reg, &plan2, sh1, &s1, None, "light", &opts).unwrap();
    simulate_kill_mid_append(&s1);

    // Resume shard 1: the partial record is flagged, its cell re-runs as
    // an orphaned claim, everything else is kept.
    let prior = Replay::load(&s1).unwrap();
    assert!(prior.truncated_tail, "partial final line must be flagged");
    let own = plan2.own_jobs(sh1).len();
    let resumed = batch::run_batch(reg, &plan2, sh1, &s1, Some(&prior), "light", &opts).unwrap();
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.retried_claimed, 1);
    assert_eq!(resumed.summary.completed_kept, own - 1);
    assert_eq!(resumed.summary.ran, 1);

    // Merge both shards; the combined report must match the reference
    // byte-for-byte (manifest.json carries wall times and is exempt).
    let merged = tmp("merged");
    assert!(batch::merge::merge_dirs(reg, &[s0.clone(), s1.clone()], &merged, true).unwrap());
    for file in ["smoke.json", "smoke.svg", "index.html"] {
        assert_eq!(
            read(&ref_dir, file),
            read(&merged, file),
            "{file} differs between direct and kill/resume/merge runs"
        );
    }

    for d in [ref_dir, s0, s1, merged] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn resume_reruns_cells_whose_snapshots_fail_verification() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let plan = BatchPlan::new(reg, "smoke", &ov, 1).unwrap();
    let dir = tmp("damaged");
    let first = batch::run_batch(reg, &plan, Shard::WHOLE, &dir, None, "light", &opts).unwrap();

    // Damage one snapshot on disk; its recorded fingerprint no longer
    // matches, so resume must re-run exactly that cell.
    let job = &plan.jobs[0];
    let path = dir.join(&job.file);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("\"stats\"", "\"statz\"")).unwrap();

    let prior = Replay::load(&dir).unwrap();
    let resumed =
        batch::run_batch(reg, &plan, Shard::WHOLE, &dir, Some(&prior), "light", &opts).unwrap();
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.verify_failed, 1);
    assert_eq!(resumed.summary.ran, 1);
    assert_eq!(resumed.summary.completed_kept, plan.jobs.len() - 1);

    // The re-run reproduces the original deterministic results.
    let a = batch::assemble_sets(&plan, &first.results).unwrap();
    let b = batch::assemble_sets(&plan, &resumed.results).unwrap();
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
        1,
    )
    .unwrap();
    let dir = tmp("failing");
    let opts = ExecOptions::default();
    let outcome = batch::run_batch(reg, &plan, Shard::WHOLE, &dir, None, "light", &opts).unwrap();
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
    let sets = batch::assemble_sets(&plan, &outcome.results).unwrap();
    assert!(!batch::emit_report(&dir, &plan, &sets, theme, true).unwrap());
    let manifest = read(&dir, "manifest.json");
    assert!(manifest.contains("\"failed\""));
    let index = read(&dir, "index.html");
    assert!(index.contains("SOME CELLS FAILED"));
    assert!(index.contains("failed-cells"));
    assert!(index.contains("counter[counter] t=2"), "failed cell named");

    // Resume retries failed cells (and fails again, deterministically).
    let prior = Replay::load(&dir).unwrap();
    let resumed =
        batch::run_batch(reg, &plan, Shard::WHOLE, &dir, Some(&prior), "light", &opts).unwrap();
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
        1,
    )
    .unwrap();
    let dir = tmp("failfast");
    let opts = ExecOptions {
        jobs: 1,
        fail_fast: true,
        ..ExecOptions::default()
    };
    let outcome = batch::run_batch(reg, &plan, Shard::WHOLE, &dir, None, "light", &opts).unwrap();
    assert!(!outcome.all_ok);
    assert_eq!(outcome.summary.failed_now, 1, "first cell fails");
    assert_eq!(outcome.summary.skipped_fail_fast, 1, "second never claimed");

    // The skipped cell has no ledger state: it is fresh for resume.
    let replay = Replay::load(&dir).unwrap();
    assert_eq!(replay.states.len(), 1);
    let resumed = batch::run_batch(
        reg,
        &plan,
        Shard::WHOLE,
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

#[test]
fn merge_rejects_incomplete_or_mismatched_shards() {
    let reg = registry::global();
    let ov = smoke_overrides();
    let opts = ExecOptions::default();
    let plan = BatchPlan::new(reg, "smoke", &ov, 2).unwrap();
    let s0 = tmp("v0");
    let s1 = tmp("v1");
    let sh0 = Shard { index: 0, total: 2 };
    let sh1 = Shard { index: 1, total: 2 };
    batch::run_batch(reg, &plan, sh0, &s0, None, "light", &opts).unwrap();

    // Missing shard: the cover is incomplete.
    let out = tmp("vout");
    let err = batch::merge::merge_dirs(reg, std::slice::from_ref(&s0), &out, true).unwrap_err();
    assert!(err.contains("sharded 2 way(s)"), "{err}");

    // A shard of a *different* grid: fingerprints disagree.
    let other = BatchPlan::new(
        reg,
        "smoke",
        &Overrides {
            threads: Some(vec![1]),
            ..smoke_overrides()
        },
        2,
    )
    .unwrap();
    batch::run_batch(reg, &other, sh1, &s1, None, "light", &opts).unwrap();
    let err = batch::merge::merge_dirs(reg, &[s0.clone(), s1.clone()], &out, true).unwrap_err();
    assert!(err.contains("different grid"), "{err}");

    // An unfinished shard: merge points at the resume command.
    batch::run_batch(reg, &plan, sh1, &s1, None, "light", &opts).unwrap();
    simulate_kill_mid_append(&s1);
    let err = batch::merge::merge_dirs(reg, &[s0.clone(), s1.clone()], &out, true).unwrap_err();
    assert!(err.contains("--resume"), "{err}");

    for d in [s0, s1, out] {
        let _ = std::fs::remove_dir_all(&d);
    }
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
        1,
    )
    .unwrap()
}

#[test]
fn shared_cells_simulate_once_journal_per_job_and_resume_per_job() {
    let reg = registry::global();
    let plan = twin_plan();
    let opts = ExecOptions::default();
    let dir = tmp("twins");
    let outcome = batch::run_batch(reg, &plan, Shard::WHOLE, &dir, None, "light", &opts).unwrap();
    assert!(outcome.all_ok);
    assert_eq!(outcome.summary.ran, 8);
    assert_eq!(
        outcome.summary.simulated, 4,
        "each twin pair simulates once"
    );

    // Every job id is journaled and has a snapshot of its own, which
    // carries its own label and verifies against its own fingerprint.
    let replay = Replay::load(&dir).unwrap();
    assert_eq!(replay.states.len(), plan.jobs.len());
    for job in &plan.jobs {
        let Some(CellState::Completed {
            fingerprint,
            results,
            ..
        }) = replay.states.get(&job.id)
        else {
            panic!("{}: not completed", job.id);
        };
        assert_eq!(results, &job.file);
        let cell =
            batch::ledger::load_cell_file(&dir, results, plan.cell_of(job), fingerprint).unwrap();
        assert_eq!(cell.cell.label, plan.scenarios[job.scenario].name);
    }
    let theme = commtm_lab::figures::theme_by_name("light").unwrap();
    let ref_dir = tmp("twins-ref");
    let sets = batch::assemble_sets(&plan, &outcome.results).unwrap();
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
    let resumed =
        batch::run_batch(reg, &plan, Shard::WHOLE, &dir, Some(&prior), "light", &opts).unwrap();
    assert!(resumed.all_ok);
    assert_eq!(resumed.summary.fresh, 1);
    assert_eq!(resumed.summary.completed_kept, plan.jobs.len() - 1);
    assert_eq!((resumed.summary.ran, resumed.summary.simulated), (1, 1));

    // The resumed report is byte-identical to the uninterrupted one.
    let sets = batch::assemble_sets(&plan, &resumed.results).unwrap();
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
