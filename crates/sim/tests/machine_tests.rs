//! End-to-end machine tests: correctness of transactional execution,
//! baseline-vs-CommTM behavior on the counter pattern (the paper's Fig. 1
//! example), determinism, and scheduler robustness.

use commtm_mem::{Addr, LineData, WORDS_PER_LINE};
use commtm_protocol::{LabelDef, LabelTable};
use commtm_sim::{Machine, MachineConfig, Scheme, SimError, Tuning};
use commtm_tx::{Ctl, Program};

fn add_labels() -> LabelTable {
    let mut t = LabelTable::new();
    t.register(LabelDef::new("ADD", LineData::zeroed(), |_, dst, src| {
        for i in 0..WORDS_PER_LINE {
            dst[i] = dst[i].wrapping_add(src[i]);
        }
    }))
    .unwrap();
    t
}

const ADD: commtm_mem::LabelId = commtm_mem::LabelId::new(0);

/// Each thread increments a shared counter `iters` times inside
/// transactions, using labeled accesses (demoted under the baseline).
fn counter_program(counter: Addr, iters: u64) -> Program {
    const I: usize = 0;
    let mut b = Program::builder();
    let top = b.here();
    b.tx(move |t| {
        let v = t.load_l(ADD, counter);
        t.store_l(ADD, counter, v + 1);
    });
    b.ctl(move |c| {
        c.regs[I] += 1;
        if c.regs[I] < iters {
            Ctl::Jump(top)
        } else {
            Ctl::Done
        }
    });
    b.build()
}

fn run_counter(threads: usize, iters: u64, scheme: Scheme) -> (Machine, commtm_sim::RunReport) {
    let mut m = Machine::new(MachineConfig::new(threads, scheme), add_labels());
    let counter = m.heap_mut().alloc_lines(1);
    for t in 0..threads {
        m.set_program(t, counter_program(counter, iters), ());
    }
    let report = m.run().unwrap();
    let v = m.read_word(counter);
    assert_eq!(
        v,
        threads as u64 * iters,
        "all increments must be applied exactly once"
    );
    m.check_invariants().unwrap();
    (m, report)
}

#[test]
fn counter_correct_under_both_schemes() {
    run_counter(4, 50, Scheme::Baseline);
    run_counter(4, 50, Scheme::CommTm);
}

#[test]
fn commtm_eliminates_counter_aborts_baseline_does_not() {
    let (_, base) = run_counter(8, 40, Scheme::Baseline);
    let (_, comm) = run_counter(8, 40, Scheme::CommTm);
    assert!(base.aborts() > 0, "contended baseline counter must abort");
    assert_eq!(
        comm.aborts(),
        0,
        "CommTM commutative increments never conflict"
    );
    assert!(
        comm.total_cycles < base.total_cycles,
        "CommTM must beat the baseline on a contended counter \
         (commtm={}, baseline={})",
        comm.total_cycles,
        base.total_cycles
    );
}

#[test]
fn commtm_counter_scales_with_threads() {
    // Fixed *total* work, split across threads: more threads must not be
    // slower under CommTM (Fig. 9's linear scalability).
    let total = 256u64;
    let (_, one) = run_counter(1, total, Scheme::CommTm);
    let (_, eight) = run_counter(8, total / 8, Scheme::CommTm);
    assert!(
        (eight.total_cycles as f64) < 0.5 * one.total_cycles as f64,
        "8 threads should be much faster than 1 (got {} vs {})",
        eight.total_cycles,
        one.total_cycles
    );
}

#[test]
fn runs_are_deterministic_given_seed() {
    let (_, a) = run_counter(4, 30, Scheme::Baseline);
    let (_, b) = run_counter(4, 30, Scheme::Baseline);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.commits(), b.commits());
    assert_eq!(a.aborts(), b.aborts());
}

#[test]
fn different_seeds_change_interleaving_but_not_results() {
    let mk = |seed| {
        let mut m = Machine::new(
            MachineConfig::new(4, Scheme::Baseline).with_seed(seed),
            add_labels(),
        );
        let counter = m.heap_mut().alloc_lines(1);
        for t in 0..4 {
            m.set_program(t, counter_program(counter, 25), ());
        }
        let r = m.run().unwrap();
        (m.read_word(counter), r.total_cycles)
    };
    let (v1, _c1) = mk(1);
    let (v2, _c2) = mk(2);
    assert_eq!(v1, 100);
    assert_eq!(v2, 100);
}

#[test]
fn cycle_classes_partition_time() {
    let (_, r) = run_counter(4, 30, Scheme::Baseline);
    let b = r.cycle_breakdown();
    assert!(b.committed > 0);
    assert!(b.total() > 0);
    let t = r.core_totals();
    assert_eq!(t.total_cycles(), b.total());
    // Wasted buckets sum to the aborted class.
    let wasted: u64 = r.wasted_breakdown().iter().map(|(_, v)| v).sum();
    assert_eq!(wasted, b.aborted);
}

#[test]
fn labeled_fraction_reflects_program() {
    let (_, r) = run_counter(2, 10, Scheme::CommTm);
    // The counter program issues only labeled operations.
    assert!(r.labeled_fraction() > 0.99);
}

#[test]
fn plain_blocks_count_as_nontx() {
    let mut m = Machine::new(MachineConfig::new(1, Scheme::CommTm), add_labels());
    let a = m.heap_mut().alloc_lines(1);
    let mut b = Program::builder();
    b.plain(move |t| {
        t.store(a, 5);
        t.work(100);
    });
    m.set_program(0, b.build(), ());
    let r = m.run().unwrap();
    let t = r.core_totals();
    assert_eq!(t.commits, 0);
    assert!(t.nontx_cycles >= 100);
    assert_eq!(t.committed_cycles, 0);
    assert_eq!(m.read_word(a), 5);
}

#[test]
fn ctl_jumps_and_user_state() {
    let mut m = Machine::new(MachineConfig::new(1, Scheme::CommTm), add_labels());
    let a = m.heap_mut().alloc_lines(1);
    let mut b = Program::builder();
    let top = b.here();
    b.tx(move |t| {
        let v = t.load(a);
        t.store(a, v + 2);
        t.defer(|sum: &mut u64| *sum += 2);
    });
    b.ctl(move |c| {
        c.regs[0] += 1;
        if c.regs[0] < 5 {
            Ctl::Jump(top)
        } else {
            Ctl::Next
        }
    });
    m.set_program(0, b.build(), 0u64);
    m.run().unwrap();
    assert_eq!(m.read_word(a), 10);
    assert_eq!(*m.env(0).user::<u64>(), 10);
}

#[test]
fn missing_program_is_an_error() {
    let mut m = Machine::new(MachineConfig::new(2, Scheme::CommTm), add_labels());
    m.set_program(0, Program::builder().build(), ());
    assert!(matches!(m.run(), Err(SimError::MissingProgram { core: 1 })));
}

#[test]
fn cycle_limit_catches_runaways() {
    let mut cfg = MachineConfig::new(1, Scheme::CommTm);
    cfg.max_cycles = 500;
    let mut m = Machine::new(cfg, add_labels());
    let a = m.heap_mut().alloc_lines(1);
    let mut b = Program::builder();
    let top = b.here();
    b.tx(move |t| {
        let v = t.load(a);
        t.store(a, v + 1);
    });
    b.ctl(move |_| Ctl::Jump(top)); // infinite loop
    m.set_program(0, b.build(), ());
    assert!(matches!(m.run(), Err(SimError::CycleLimit { .. })));
}

#[test]
fn mixed_readers_and_writers_serialize_correctly() {
    // One thread sums the counter occasionally (plain reads) while others
    // increment with labeled ops: the reader must only ever observe
    // committed totals, and the final value must be exact.
    let threads = 4;
    let iters = 24u64;
    let mut m = Machine::new(MachineConfig::new(threads, Scheme::CommTm), add_labels());
    let counter = m.heap_mut().alloc_lines(1);
    for t in 0..threads - 1 {
        m.set_program(t, counter_program(counter, iters), ());
    }
    // The reader snapshots the counter several times.
    let mut b = Program::builder();
    let top = b.here();
    b.tx(move |t| {
        let v = t.load(counter);
        t.defer(move |last: &mut Vec<u64>| last.push(v));
    });
    b.ctl(move |c| {
        c.regs[0] += 1;
        if c.regs[0] < 10 {
            Ctl::Jump(top)
        } else {
            Ctl::Done
        }
    });
    m.set_program(threads - 1, b.build(), Vec::<u64>::new());
    m.run().unwrap();
    assert_eq!(m.read_word(counter), (threads as u64 - 1) * iters);
    let snaps = m.env(threads - 1).user::<Vec<u64>>();
    assert_eq!(snaps.len(), 10);
    let mut prev = 0;
    for &s in snaps {
        assert!(s >= prev, "snapshots must be monotonically non-decreasing");
        assert!(s <= (threads as u64 - 1) * iters);
        prev = s;
    }
}

#[test]
fn machine_threads_tuning_is_ignored() {
    // `Tuning::machine_threads` is kept only so an external benchmark that
    // still sets it compiles: every machine runs on the serial scheduler,
    // so a run with it set must equal a run without it, report and memory.
    let run = |machine_threads: Option<usize>| {
        let mut cfg = MachineConfig::new(8, Scheme::Baseline);
        cfg.apply_tuning(&Tuning {
            machine_threads,
            ..Tuning::default()
        });
        let mut m = Machine::new(cfg, add_labels());
        let counters = m.heap_mut().alloc_lines(2);
        let other = counters.offset(64);
        for t in 0..8 {
            let target = if t % 2 == 0 { counters } else { other };
            m.set_program(t, counter_program(target, 20), ());
        }
        let report = m.run().unwrap();
        let memory = (m.read_word(counters), m.read_word(other));
        (report, memory)
    };
    let (serial, serial_mem) = run(None);
    let (tuned, tuned_mem) = run(Some(2));
    assert_eq!(serial_mem, (80, 80));
    assert_eq!(tuned_mem, serial_mem);
    assert_eq!(tuned, serial);
}
