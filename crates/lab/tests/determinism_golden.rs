//! End-to-end behavior-preservation gate: a pinned scenario's full
//! canonical results JSON (every cycle count, abort, and per-cell protocol
//! counter — everything except host wall-clock) is compared byte-for-byte
//! against a committed golden file.
//!
//! This is the test that lets hot-path refactors claim "same seeds in,
//! byte-identical results out": any change to protocol behavior, LRU
//! ordering, conflict arbitration, scheduling order, or RNG consumption
//! shows up as a golden diff. The perf-smoke CI job runs it (via the
//! normal test suite) next to `commtm-lab bench --check`.
//!
//! To bless a *deliberate* behavior change, regenerate with
//! `COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test
//! determinism_golden` and review the numeric diff like any other code
//! change — the diff IS the behavior change.

use std::path::PathBuf;

use commtm_lab::exec::run_scenario_serial;
use commtm_lab::spec::{Scenario, WorkloadSpec};

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
/// scheduling is a host-side concern only. Guards the bench subcommand's
/// fingerprints (which run with default parallelism in CI) against ever
/// depending on job count.
#[test]
fn parallel_and_serial_results_agree() {
    use commtm_lab::exec::{run_scenario, ExecOptions};
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
