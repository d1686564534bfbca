//! End-to-end behavior-preservation gates.
//!
//! A pinned scenario's full canonical results JSON (every cycle count,
//! abort, and per-cell protocol counter — everything except host
//! wall-clock) is compared byte-for-byte against a committed golden file,
//! and three pinned grids must reproduce their committed fingerprints and
//! work counters.
//!
//! These are the tests that let hot-path refactors claim "same seeds in,
//! byte-identical results out": any change to protocol behavior, LRU
//! ordering, conflict arbitration, scheduling order, or RNG consumption
//! shows up as a golden diff or a fingerprint mismatch. The work counters
//! add what the fingerprint leaves out, including the host work no
//! simulated cycle shows (scheduler steps, closure passes, replayed log
//! entries), so extra work fails here with no timing. The two larger
//! grids are release-only; CI's perf-smoke job runs them with `cargo test
//! --release -p commtm-lab --test determinism_golden -- --include-ignored`.
//!
//! To bless a *deliberate* behavior change, regenerate the golden with
//! `COMMTM_UPDATE_GOLDEN=1 cargo test -p commtm-lab --test
//! determinism_golden`, update the fingerprint and counter constants
//! from the failure messages, and review the numeric diff like any other code
//! change — the diff IS the behavior change.

use std::path::PathBuf;

use commtm_lab::exec::{run_scenario_serial, run_scenarios_in, ExecOptions};
use commtm_lab::spec::{Scenario, WorkloadSpec};
use commtm_lab::{batch, figures, json, registry, scenarios, ResultSet};

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

/// FNV-1a of a result set's canonical (timing-free) JSON.
fn fingerprint(set: &ResultSet) -> String {
    json::fnv1a(&set.canonical_json().pretty())
}

/// Runs `scenario` once through the batch path and checks the FNV-1a
/// fingerprint of its canonical results JSON twice: for the set in
/// memory, and for the set reloaded from the `<name>.json` the report
/// writes. Writing and reloading results may not change them.
fn assert_grid_fingerprint(grid: &str, scenario: Scenario, expected: &str) {
    let reg = registry::global();
    let dir =
        std::env::temp_dir().join(format!("commtm-determinism-{}-{grid}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenarios = [scenario];
    let sets =
        run_scenarios_in(reg, &scenarios, &ExecOptions::default()).expect("pinned grid runs");
    assert!(sets[0].all_ok(), "{grid}: every cell must complete");
    let in_memory = fingerprint(&sets[0]);

    let theme = figures::theme_by_name("light").expect("the light theme exists");
    batch::emit_report(&dir, &scenarios, &sets, theme).expect("report writes");
    let written = std::fs::read_to_string(dir.join(format!("{}.json", scenarios[0].name)))
        .expect("results file reads");
    let _ = std::fs::remove_dir_all(&dir);
    let reloaded = fingerprint(&ResultSet::from_json_str(&written).expect("results file parses"));

    assert_eq!(
        in_memory, expected,
        "{grid}: fingerprint {in_memory} != pinned {expected} — simulated \
         behavior changed; see docs/PERFORMANCE.md"
    );
    assert_eq!(
        reloaded, expected,
        "{grid}: reloaded fingerprint {reloaded} != pinned {expected} — \
         writing and reloading the results file changed them"
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

/// The deterministic counters the fingerprint leaves out, index-aligned
/// with [`work_counters`]: host scheduling and replay work (scheduler
/// steps, closure passes and the log entries they replay), the cache
/// probes per level, then backoff and the cache traffic.
const WORK_COUNTERS: [&str; 13] = [
    "steps",
    "passes",
    "replayed_entries",
    "l1_probes",
    "l2_probes",
    "l3_probes",
    "backoff_cycles",
    "invalidations",
    "writebacks",
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
];

/// [`WORK_COUNTERS`] summed over every cell of `scenario`.
fn work_counters(scenario: &Scenario) -> [u64; WORK_COUNTERS.len()] {
    let reg = registry::global();
    let mut sums = [0; WORK_COUNTERS.len()];
    for cell in scenario.cells() {
        let (report, _) = reg
            .run_cell(&cell, scenario.scale, scenario.tuning)
            .expect("pinned cell runs");
        let core = report.core_totals();
        let proto = report.proto_totals();
        let counts = [
            core.steps,
            core.passes,
            core.replayed_entries,
            report.probes.l1,
            report.probes.l2,
            report.probes.l3,
            core.backoff_cycles,
            proto.invalidations,
            proto.writebacks,
            proto.l1_hits,
            proto.l1_misses,
            proto.l2_hits,
            proto.l2_misses,
        ];
        for (sum, n) in sums.iter_mut().zip(counts) {
            *sum += n;
        }
    }
    sums
}

/// Runs `scenario` cell by cell and checks each of its work counters
/// against the pinned value, naming every counter that moved.
fn assert_work_counters(grid: &str, scenario: Scenario, expected: [u64; WORK_COUNTERS.len()]) {
    let moved: Vec<String> = WORK_COUNTERS
        .iter()
        .zip(work_counters(&scenario))
        .zip(expected)
        .filter(|((_, actual), pinned)| actual != pinned)
        .map(|((name, actual), pinned)| format!("{grid}: {name} {actual} != pinned {pinned}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} — the simulator does different work; see docs/PERFORMANCE.md",
        moved.join("; ")
    );
}

#[test]
fn counter_quick_work_counters_are_pinned() {
    let scn = pinned_figure("fig09", Some(&[1, 8, 32]), Some(&[0xC0FFEE]), 1);
    assert_work_counters(
        "counter-quick",
        scn,
        [
            495_702,    // steps
            495_702,    // passes
            141_935,    // replayed_entries
            1_265_273,  // l1_probes
            818_219,    // l2_probes
            344_496,    // l3_probes
            71_235_721, // backoff_cycles
            237_333,    // invalidations
            39_937,     // writebacks
            196_451,    // l1_hits
            344_496,    // l1_misses
            0,          // l2_hits
            344_496,    // l2_misses
        ],
    );
}

#[test]
#[ignore = "release-only; CI runs them with --include-ignored"]
fn counter_scale4_work_counters_are_pinned() {
    let scn = pinned_figure("fig09", None, None, 4);
    assert_work_counters(
        "counter-scale4",
        scn,
        [
            4_647_884,     // steps
            4_647_884,     // passes
            1_224_833,     // replayed_entries
            12_377_874,    // l1_probes
            7_828_157,     // l2_probes
            3_605_344,     // l3_probes
            1_787_116_544, // backoff_cycles
            2_675_960,     // invalidations
            319_714,       // writebacks
            1_227_135,     // l1_hits
            3_605_344,     // l1_misses
            0,             // l2_hits
            3_605_344,     // l2_misses
        ],
    );
}

#[test]
#[ignore = "release-only; CI runs them with --include-ignored"]
fn list_quick_work_counters_are_pinned() {
    let scn = pinned_figure("fig12", Some(&[1, 8, 32]), Some(&[0xC0FFEE]), 2);
    assert_work_counters(
        "list-quick",
        scn,
        [
            1_297_271,   // steps
            1_297_107,   // passes
            2_251_864,   // replayed_entries
            3_646_653,   // l1_probes
            2_774_320,   // l2_probes
            944_828,     // l3_probes
            141_235_124, // backoff_cycles
            433_213,     // invalidations
            123_191,     // writebacks
            1_031_364,   // l1_hits
            876_765,     // l1_misses
            2_819,       // l2_hits
            873_946,     // l2_misses
        ],
    );
}

/// FNV-1a over every event of each traced cell of `scenario`: its
/// scheduling key (clock, core) and its kind with all fields. One
/// `(label, scheme, events, hash)` row per cell.
fn trace_stream_hashes(mut scenario: Scenario) -> Vec<(String, String, usize, String)> {
    scenario.tuning.trace = Some(true);
    let reg = registry::global();
    scenario
        .cells()
        .iter()
        .map(|cell| {
            let (_, trace) = reg
                .run_cell(cell, scenario.scale, scenario.tuning)
                .expect("pinned cell runs");
            let trace = trace.expect("tracing was requested");
            assert_eq!(trace.dropped, 0, "the pinned cells fit in the trace ring");
            let mut text = String::new();
            for ev in &trace.events {
                text.push_str(&format!("{} {} {:?}\n", ev.clock, ev.core, ev.kind));
            }
            (
                cell.label.clone(),
                commtm_lab::spec::scheme_name(cell.scheme).to_string(),
                trace.events.len(),
                json::fnv1a(&text),
            )
        })
        .collect()
}

/// Every trace event keeps its (clock, core) key: nothing else checks
/// the clocks the engine stamps on a step's events. Fig. 9's counter at
/// 8 threads and Fig. 12's 50/50 list mix at 8 threads, both schemes.
#[test]
fn trace_streams_are_pinned() {
    // Sized so that every event fits in the trace ring.
    let mut counter = pinned_figure("fig09", Some(&[8]), Some(&[0xC0FFEE]), 1);
    counter.workloads[0].params.set("total_incs", 2_000);
    let mut list = pinned_figure("fig12", Some(&[8]), Some(&[0xC0FFEE]), 1);
    list.workloads.retain(|w| w.display() == "list 50/50 mix");
    list.workloads[0].params.set("total_ops", 1_000);
    let mut actual = trace_stream_hashes(counter);
    actual.extend(trace_stream_hashes(list));
    let actual: Vec<String> = actual
        .iter()
        .map(|(label, scheme, n, hash)| format!("{label}/{scheme}: {n} events {hash}"))
        .collect();
    let expected = [
        "counter/baseline: 49876 events 5efebb81f1c04bef",
        "counter/commtm: 8000 events 721b6f46aa7218bb",
        "list 50/50 mix/baseline: 21324 events fd9d48ee9b4555ae",
        "list 50/50 mix/commtm: 7018 events 5ff54b005d1727d9",
    ];
    assert_eq!(
        actual, expected,
        "trace event streams drifted: an event's (clock, core) key or its \
         contents changed; see docs/PERFORMANCE.md"
    );
}
