//! End-to-end behavior-preservation gates.
//!
//! A pinned scenario's full canonical results JSON (every cycle count,
//! abort, and per-cell protocol counter — everything except host
//! wall-clock) is compared byte-for-byte against a committed golden file,
//! and three pinned grids must reproduce their committed fingerprints.
//!
//! These are the tests that let hot-path refactors claim "same seeds in,
//! byte-identical results out": any change to protocol behavior, LRU
//! ordering, conflict arbitration, scheduling order, or RNG consumption
//! shows up as a golden diff or a fingerprint mismatch. The two larger
//! grids are release-only; CI's perf-smoke job runs them with
//! `cargo test --release -p commtm-lab --test determinism_golden --
//! --include-ignored`.
//!
//! To bless a *deliberate* behavior change, regenerate the golden with
//! `COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test
//! determinism_golden`, update the fingerprint constants from the
//! failure messages, and review the numeric diff like any other code
//! change — the diff IS the behavior change.

use std::path::PathBuf;

use commtm_lab::batch::{self, BatchPlan, Overrides, Replay};
use commtm_lab::exec::{run_scenario_serial, ExecOptions};
use commtm_lab::spec::{Scenario, WorkloadSpec};
use commtm_lab::{json, registry, scenarios, CellResult};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The pinned scenario. Deliberately covers the protocol paths the PR-3
/// hot-path overhaul touched: both schemes (labeled U-state traffic and
/// plain GETX ping-pong), multiple thread counts (conflicts, NACKs,
/// reductions), two seeds, and enough operations for evictions in the
/// small default footprints.
fn pinned_scenario() -> Scenario {
    Scenario::new("determinism", "pinned determinism scenario")
        .workload(WorkloadSpec::named("counter").param("total_incs", 400))
        .workload(WorkloadSpec::named("refcount").param("total_ops", 240))
        .workload(WorkloadSpec::named("list").param("total_ops", 120))
        .threads(&[1, 4, 8])
        .seeds(&[11, 12])
}

#[test]
fn pinned_scenario_results_match_golden() {
    let set = run_scenario_serial(&pinned_scenario()).expect("pinned scenario runs");
    assert!(set.all_ok(), "pinned cells must all complete");
    let actual = set.canonical_json().pretty();

    let path = golden_path("determinism_results.json");
    if std::env::var_os("COMMTM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading golden file {}: {e}\n(regenerate with \
             COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test determinism_golden)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "simulated results drifted from the determinism golden: same seeds \
         must produce byte-identical results. If this change is deliberate, \
         regenerate with COMMTM_UPDATE_GOLDEN=1 and review the numeric diff"
    );
}

/// The executor must produce identical results serial and parallel — cell
/// scheduling is a host-side concern only. Guards the grid fingerprints
/// below (which run with default parallelism) against ever depending on
/// job count.
#[test]
fn parallel_and_serial_results_agree() {
    use commtm_lab::exec::run_scenario;
    let scn = pinned_scenario();
    let serial = run_scenario_serial(&scn).expect("serial runs");
    let parallel = run_scenario(
        &scn,
        &ExecOptions {
            jobs: 4,
            ..ExecOptions::default()
        },
    )
    .expect("parallel runs");
    assert_eq!(
        serial.canonical_json().pretty(),
        parallel.canonical_json().pretty(),
        "job count changed simulated results"
    );
}

/// A built-in figure scenario with its grid pinned: `threads` and `seeds`
/// replace the figure's own when given.
fn pinned_figure(
    fig: &str,
    threads: Option<&[usize]>,
    seeds: Option<&[u64]>,
    scale: u64,
) -> Scenario {
    let mut s = scenarios::builtin(fig).unwrap_or_else(|| panic!("{fig} scenario exists"));
    if let Some(t) = threads {
        s.threads = t.to_vec();
    }
    if let Some(seeds) = seeds {
        s.seeds = seeds.to_vec();
    }
    s.scale = scale;
    s
}

/// FNV-1a of the single scenario's canonical (timing-free) results JSON.
fn fingerprint(plan: &BatchPlan, results: &[CellResult]) -> String {
    let sets = batch::assemble_sets(plan, results);
    json::fnv1a(&sets[0].canonical_json().pretty())
}

/// Runs `scenario` once through the ledger-backed batch path and checks
/// the FNV-1a fingerprint of its canonical results JSON twice: for the
/// sets assembled in memory, and for the sets a `--resume` of the
/// completed ledger rebuilds from its records alone. Storing and
/// reloading results may not change them.
fn assert_grid_fingerprint(grid: &str, scenario: Scenario, expected: &str) {
    let reg = registry::global();
    let dir =
        std::env::temp_dir().join(format!("commtm-determinism-{}-{grid}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = BatchPlan::from_scenarios(reg, grid, &Overrides::default(), vec![scenario])
        .expect("pinned grid plans");
    let opts = ExecOptions::default();
    let outcome =
        batch::run_batch(reg, &plan, &dir, None, "light", &opts).expect("pinned grid runs");
    assert!(outcome.all_ok, "{grid}: every cell must complete");
    let in_memory = fingerprint(&plan, &outcome.results);

    let prior = Replay::load(&dir).expect("ledger replays");
    let resumed =
        batch::run_batch(reg, &plan, &dir, Some(&prior), "light", &opts).expect("ledger resumes");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (resumed.summary.completed_kept, resumed.summary.simulated),
        (plan.jobs.len(), 0),
        "{grid}: resuming a completed ledger must keep every cell and simulate none"
    );
    let reloaded = fingerprint(&plan, &resumed.results);

    assert_eq!(
        in_memory, expected,
        "{grid}: fingerprint {in_memory} != pinned {expected} — simulated \
         behavior changed; see docs/PERFORMANCE.md"
    );
    assert_eq!(
        reloaded, expected,
        "{grid}: ledger-reloaded fingerprint {reloaded} != pinned {expected} — \
         storing and reloading results through the ledger changed them"
    );
}

/// Counter micro, threads 1/8/32, scale 1: the protocol fast path and
/// reductions under both schemes.
#[test]
fn counter_quick_fingerprint_is_pinned() {
    let scn = pinned_figure("fig09", Some(&[1, 8, 32]), Some(&[0xC0FFEE]), 1);
    assert_grid_fingerprint("counter-quick", scn, "f47b0f8cb2965f4d");
}

/// Counter micro, the full fig09 thread grid at scale 4.
#[test]
#[ignore = "release-only; CI runs them with --include-ignored"]
fn counter_scale4_fingerprint_is_pinned() {
    let scn = pinned_figure("fig09", None, None, 4);
    assert_grid_fingerprint("counter-scale4", scn, "e4f500f98a0b2cbd");
}

/// List micro, threads 1/8/32, scale 2: long transactions with more
/// L1/L2 traffic per op, gathers and evictions.
#[test]
#[ignore = "release-only; CI runs them with --include-ignored"]
fn list_quick_fingerprint_is_pinned() {
    let scn = pinned_figure("fig12", Some(&[1, 8, 32]), Some(&[0xC0FFEE]), 2);
    assert_grid_fingerprint("list-quick", scn, "f6dc1424eea45c0a");
}
