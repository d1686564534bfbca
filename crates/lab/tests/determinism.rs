//! Determinism guarantees of the simulator and the experiment harness:
//! the same seeded configuration must produce byte-identical results no
//! matter how often, in what order, or on how many executor threads it
//! runs.

use commtm::{Ctl, MachineBuilder, Program, RunReport, Scheme};
use commtm_lab::exec::{run_scenario, run_scenario_serial, ExecOptions};
use commtm_lab::spec::{Scenario, WorkloadSpec};

/// Builds and runs one machine directly (no harness): a counter-style
/// transactional loop plus plain traffic to exercise protocol randomness.
fn run_machine_once(seed: u64, scheme: Scheme) -> (RunReport, u64) {
    let mut b = MachineBuilder::new(4, scheme).seed(seed);
    let add = b
        .register_label(commtm::labels::add())
        .expect("label budget");
    let mut m = b.build();
    let counter = m.heap_mut().alloc_lines(1);
    for t in 0..4 {
        let mut p = Program::builder();
        let top = p.here();
        p.tx(move |c| {
            let v = c.load_l(add, counter);
            c.store_l(add, counter, v + 1);
        });
        p.ctl(move |c| {
            c.regs[0] += 1;
            if c.regs[0] < 50 {
                Ctl::Jump(top)
            } else {
                Ctl::Done
            }
        });
        m.set_program(t, p.build(), ());
    }
    let report = m.run().expect("simulation");
    let value = m.read_word(counter);
    (report, value)
}

/// The same `MachineConfig` seed run twice produces byte-identical
/// `RunReport`s (field-for-field via `Eq`, and textually via `Debug`).
#[test]
fn same_seed_same_report_twice() {
    for scheme in [Scheme::Baseline, Scheme::CommTm] {
        let (a, va) = run_machine_once(0xDECAF, scheme);
        let (b, vb) = run_machine_once(0xDECAF, scheme);
        assert_eq!(va, vb);
        assert_eq!(
            a, b,
            "identical seeds must give identical reports ({scheme:?})"
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// Different seeds actually change the schedule under contention (guards
/// against the seed being ignored).
#[test]
fn different_seeds_differ_under_contention() {
    let (a, _) = run_machine_once(1, Scheme::Baseline);
    let (b, _) = run_machine_once(2, Scheme::Baseline);
    // Commits are equal by the oracle; timing must differ somewhere.
    assert_eq!(a.commits(), b.commits());
    assert_ne!(
        (a.total_cycles, a.aborts()),
        (b.total_cycles, b.aborts()),
        "seed must influence backoff/arbitration timing"
    );
}

fn sweep() -> Scenario {
    Scenario::new("determinism", "determinism sweep")
        .workload(WorkloadSpec::named("counter").param("total_incs", 160))
        .workload(WorkloadSpec::named("refcount").param("total_ops", 160))
        .workload(
            WorkloadSpec::named("topk")
                .param("total_inserts", 120)
                .param("k", 16),
        )
        .threads(&[1, 4])
        .seeds(&[0xC0FFEE, 0x5EED])
}

/// The parallel executor produces byte-identical canonical JSON across
/// repeat runs, worker counts, and against the serial reference.
#[test]
fn parallel_executor_is_byte_deterministic() {
    let scn = sweep();
    let serial = run_scenario_serial(&scn).expect("serial run");
    assert!(serial.all_ok(), "every cell must verify its oracle");
    let reference = serial.canonical_json().pretty();
    for jobs in [4, 16] {
        let parallel = run_scenario(
            &scn,
            &ExecOptions {
                jobs,
                ..ExecOptions::default()
            },
        )
        .expect("parallel run");
        assert_eq!(
            parallel.canonical_json().pretty(),
            reference,
            "{jobs}-worker run must match the serial reference byte-for-byte"
        );
    }
    // And a repeat parallel run matches a previous parallel run.
    let again = run_scenario(
        &scn,
        &ExecOptions {
            jobs: 4,
            ..ExecOptions::default()
        },
    )
    .expect("repeat");
    assert_eq!(again.canonical_json().pretty(), reference);
}

/// Tracing is observation-only: enabling it must not perturb a single
/// simulated statistic. Canonical results are byte-identical with
/// tracing on or off, and the traced run actually carries per-cell
/// traces while the plain run carries none.
#[test]
fn tracing_is_observation_only() {
    let scn = sweep();
    let opts = ExecOptions {
        jobs: 4,
        ..ExecOptions::default()
    };
    let plain = run_scenario(&scn, &opts).expect("untraced run");
    let mut traced_scn = sweep();
    traced_scn.tuning.trace = Some(true);
    let traced = run_scenario(&traced_scn, &opts).expect("traced run");
    assert_eq!(
        traced.canonical_json().pretty(),
        plain.canonical_json().pretty(),
        "tracing must not change any simulated result"
    );
    assert!(traced.cells.iter().all(|c| c.trace.is_some()));
    assert!(plain.cells.iter().all(|c| c.trace.is_none()));
}
