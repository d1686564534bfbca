//! Tests of the replay execution model: one new operation per step for
//! ports that do not schedule, passes that go on while the port grants
//! `advance`, register rollback, deferred user-state writes, determinism
//! checking, work accounting, and abort handling.

use std::collections::HashMap;
use std::sync::Arc;

use commtm_mem::{Addr, LabelId};
use commtm_tx::{BlockFn, BlockRunner, Env, MemPort, OpResult, StepOutcome, TxCtx, TxOp};
use proptest::prelude::*;

/// A mock memory: flat word map, fixed 3-cycle latency, scriptable aborts.
#[derive(Default)]
struct MockPort {
    mem: HashMap<u64, u64>,
    ops: Vec<TxOp>,
    abort_on_op: Option<usize>,
    rng_next: u64,
}

impl MemPort for MockPort {
    fn op(&mut self, op: TxOp) -> OpResult {
        let n = self.ops.len();
        self.ops.push(op);
        if self.abort_on_op == Some(n) {
            return OpResult {
                value: 0,
                latency: 3,
                aborted: true,
            };
        }
        let value = match op {
            TxOp::Load(a) | TxOp::LoadL(_, a) | TxOp::Gather(_, a) => {
                *self.mem.get(&a.raw()).unwrap_or(&0)
            }
            TxOp::Store(a, v) | TxOp::StoreL(_, a, v) => {
                self.mem.insert(a.raw(), v);
                v
            }
        };
        OpResult {
            value,
            latency: 3,
            aborted: false,
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng_next += 1;
        self.rng_next
    }
}

fn body(f: impl Fn(&mut commtm_tx::TxCtx<'_, '_>) + Send + Sync + 'static) -> BlockFn {
    Arc::new(f)
}

const A: Addr = Addr::new(0x100);
const B: Addr = Addr::new(0x200);

#[test]
fn one_new_op_per_step() {
    let mut port = MockPort::default();
    port.mem.insert(A.raw(), 7);
    let mut env = Env::new(4, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let v = t.load(A);
        t.store(B, v + 1);
        t.store(A, v + 2);
    });
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    // Third pass performs the last op and completes.
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    // Exactly three real operations hit the port, in program order.
    assert_eq!(
        port.ops,
        vec![TxOp::Load(A), TxOp::Store(B, 8), TxOp::Store(A, 9)]
    );
    assert_eq!(port.mem[&B.raw()], 8);
}

#[test]
fn loads_replay_logged_values_not_memory() {
    let mut port = MockPort::default();
    port.mem.insert(A.raw(), 7);
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let v = t.load(A);
        t.store(B, v);
    });
    runner.step(&blk, &mut env, &mut port);
    // Memory changes under us; the logged read must stay 7 (the HTM layer
    // guarantees this is only possible for values conflict detection
    // protects).
    port.mem.insert(A.raw(), 99);
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    assert_eq!(port.mem[&B.raw()], 7);
}

#[test]
fn registers_roll_back_on_incomplete_pass_and_commit_on_done() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let r = t.reg(0);
        t.set_reg(0, r + 1);
        t.load(A);
        t.load(B);
    });
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    assert_eq!(
        env.regs[0], 0,
        "register effects of incomplete passes are discarded"
    );
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    assert_eq!(
        env.regs[0], 1,
        "completed block commits register effects exactly once"
    );
}

#[test]
fn deferred_user_writes_apply_exactly_once() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, 0u64);
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        t.load(A);
        t.load(B);
        t.defer(|count: &mut u64| *count += 1);
    });
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    assert_eq!(*env.user::<u64>(), 1);
}

#[test]
fn abort_discards_pass_and_resets_cleanly() {
    let mut port = MockPort {
        abort_on_op: Some(1), // the second real op aborts
        ..MockPort::default()
    };
    let mut env = Env::new(1, 0u64);
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        t.set_reg(0, 42);
        t.load(A);
        t.store(B, 1);
        t.defer(|c: &mut u64| *c += 1);
    });
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    let out = runner.step(&blk, &mut env, &mut port);
    assert!(matches!(out, StepOutcome::Abort { .. }));
    assert_eq!(
        env.regs[0], 0,
        "aborted attempt must not leak register writes"
    );
    assert_eq!(*env.user::<u64>(), 0, "aborted attempt must not run defers");
    // Restart: the runner re-executes from scratch.
    runner.reset();
    port.abort_on_op = None;
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    assert_eq!(env.regs[0], 42);
    assert_eq!(*env.user::<u64>(), 1);
}

#[test]
fn rand_is_memoized_within_an_attempt() {
    let mut port = MockPort::default();
    let mut env = Env::new(2, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let r1 = t.rand();
        t.store(A, r1);
        let r2 = t.rand();
        t.store(B, r2);
        t.set_reg(0, r1);
        t.set_reg(1, r2);
    });
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    // r1 drawn once (=1), r2 once (=2), despite multiple replays.
    assert_eq!(env.regs[0], 1);
    assert_eq!(env.regs[1], 2);
    assert_eq!(port.mem[&A.raw()], 1);
    assert_eq!(port.mem[&B.raw()], 2);
}

#[test]
fn work_cycles_charged_exactly_once() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        t.work(10);
        t.load(A);
        t.work(5);
        t.load(B);
    });
    let mut total = 0;
    loop {
        let out = runner.step(&blk, &mut env, &mut port);
        total += out.cycles();
        if matches!(out, StepOutcome::Done { .. }) {
            break;
        }
    }
    // Two passes: pass 1 performs load A (charging work 10+5 seen up to
    // the blocking point), pass 2 performs load B and completes. Work is
    // charged exactly once (15), ops once each (2 x 3), issue once per
    // pass (2 x 1).
    let issue_and_latency = 2 + 2 * 3;
    assert_eq!(total, issue_and_latency + 15);
}

#[test]
fn pointer_chase_terminates_under_zero_reads() {
    // A loop that follows a pointer chain; in satiated mode reads return 0,
    // which must end the loop (rule 2 of the replay model).
    let mut port = MockPort::default();
    port.mem.insert(0x100, 0x200);
    port.mem.insert(0x200, 0x300);
    port.mem.insert(0x300, 0);
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let mut p = 0x100u64;
        let mut hops = 0u64;
        while p != 0 {
            p = t.load(Addr::new(p));
            hops += 1;
        }
        t.set_reg(0, hops);
    });
    let mut steps = 0;
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {
        steps += 1;
        assert!(steps < 100, "replay must converge");
    }
    assert_eq!(env.regs[0], 3);
}

#[test]
#[should_panic(expected = "nondeterministic block")]
fn divergent_replay_panics() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, std::cell::Cell::new(0u64));
    let mut runner = BlockRunner::new();
    // Illegal: op sequence depends on ambient state mutated across passes.
    let blk = body(|t| {
        let c = t.user::<std::cell::Cell<u64>>();
        c.set(c.get() + 1);
        if c.get() % 2 == 1 {
            t.load(A);
        } else {
            t.load(B);
        }
        t.load(Addr::new(0x900));
    });
    runner.step(&blk, &mut env, &mut port);
    runner.step(&blk, &mut env, &mut port);
}

#[test]
fn empty_block_completes_immediately() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|_| {});
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    assert!(port.ops.is_empty());
}

#[test]
fn labeled_ops_flow_through_port() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let l = commtm_mem::LabelId::new(2);
    let blk = body(move |t| {
        let v = t.load_l(l, A);
        t.store_l(l, A, v + 1);
        t.load_gather(l, A);
    });
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    assert_eq!(
        port.ops,
        vec![TxOp::LoadL(l, A), TxOp::StoreL(l, A, 1), TxOp::Gather(l, A)]
    );
}

/// One action of a generated block (see [`shaped_block`]).
#[derive(Clone, Copy, Debug)]
enum Act {
    Load(u64),
    Store(u64),
    LoadL(u64),
    StoreL(u64),
    Gather(u64),
    /// Stores only when the running value is odd: the operation sequence
    /// depends on loaded values.
    StoreIfOdd(u64),
    Work(u64),
    Rand,
    Defer(u64),
    /// Folds a register into the running value and writes the result
    /// back: later operations depend on a register written mid-block.
    SetReg(usize),
}

impl Act {
    fn from_raw((kind, arg): (u8, u64)) -> Act {
        match kind {
            0 => Act::Load(arg),
            1 => Act::Store(arg),
            2 => Act::LoadL(arg),
            3 => Act::StoreL(arg),
            4 => Act::Gather(arg),
            5 => Act::StoreIfOdd(arg),
            6 => Act::Work(arg * 5),
            7 => Act::Rand,
            8 => Act::SetReg(2 + arg as usize % 2),
            _ => Act::Defer(arg),
        }
    }
}

fn word(i: u64) -> Addr {
    Addr::new(0x1000 + 8 * i)
}

/// A block running `acts` in order. It folds every loaded value and draw
/// into register 0, counts its operations in register 1 and rewrites
/// registers 2 and 3 along the way.
fn shaped_block(acts: Vec<Act>) -> BlockFn {
    let l = LabelId::new(1);
    body(move |t: &mut TxCtx<'_, '_>| {
        let mut acc = t.reg(0);
        let mut ops = t.reg(1);
        for &a in &acts {
            match a {
                Act::Load(i) => acc = acc.wrapping_mul(31).wrapping_add(t.load(word(i))),
                Act::Store(i) => t.store(word(i), acc),
                Act::LoadL(i) => acc = acc.wrapping_add(t.load_l(l, word(i))),
                Act::StoreL(i) => t.store_l(l, word(i), acc | 1),
                Act::Gather(i) => acc ^= t.load_gather(l, word(i)),
                Act::StoreIfOdd(i) => {
                    if acc % 2 == 1 {
                        t.store(word(i), acc);
                        ops += 1;
                    }
                }
                Act::Work(n) => t.work(n),
                Act::Rand => acc = acc.wrapping_add(t.rand() % 1000),
                Act::Defer(k) => t.defer(move |log: &mut Vec<u64>| log.push(k)),
                Act::SetReg(r) => {
                    let v = t.reg(r).wrapping_mul(3).wrapping_add(acc);
                    t.set_reg(r, v);
                    acc ^= v;
                }
            }
            if matches!(
                a,
                Act::Load(_) | Act::Store(_) | Act::LoadL(_) | Act::StoreL(_) | Act::Gather(_)
            ) {
                ops += 1;
            }
        }
        t.set_reg(0, acc);
        t.set_reg(1, ops);
    })
}

/// A port that keeps a clock and grants `advance` calls by a bit pattern
/// (bit `i % 64` of `grants` answers the `i`-th call). Latencies vary by
/// operation index, and one operation may be scripted to abort.
struct SchedPort {
    mem: HashMap<u64, u64>,
    clock: u64,
    grants: u64,
    advances: u32,
    abort_on_op: Option<usize>,
    draws: u64,
    /// Each operation performed, with the clock at which it issued.
    issued: Vec<(TxOp, u64)>,
}

impl SchedPort {
    fn new(grants: u64, abort_on_op: Option<usize>) -> Self {
        let mem = (0..8).map(|i| (word(i).raw(), i * 3 + 1)).collect();
        SchedPort {
            mem,
            clock: 0,
            grants,
            advances: 0,
            abort_on_op,
            draws: 0,
            issued: Vec::new(),
        }
    }
}

impl MemPort for SchedPort {
    fn op(&mut self, op: TxOp) -> OpResult {
        let n = self.issued.len();
        self.issued.push((op, self.clock));
        let latency = 2 + (n as u64 * 7) % 11;
        if self.abort_on_op == Some(n) {
            return OpResult {
                value: 0,
                latency,
                aborted: true,
            };
        }
        let value = match op {
            TxOp::Load(a) | TxOp::LoadL(_, a) | TxOp::Gather(_, a) => {
                *self.mem.get(&a.raw()).unwrap_or(&0)
            }
            TxOp::Store(a, v) | TxOp::StoreL(_, a, v) => {
                self.mem.insert(a.raw(), v);
                v
            }
        };
        OpResult {
            value,
            latency,
            aborted: false,
        }
    }

    fn advance(&mut self, cycles: u64) -> bool {
        let grant = (self.grants >> (self.advances % 64)) & 1 == 1;
        self.advances += 1;
        if grant {
            self.clock += cycles;
        }
        grant
    }

    fn rand(&mut self) -> u64 {
        self.draws += 1;
        self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// The registers every generated block starts with.
const START_REGS: [u64; 4] = [5, 0, 7, 11];

/// Everything a run of one block attempt leaves behind.
#[derive(Debug, PartialEq)]
struct Attempt {
    issued: Vec<(TxOp, u64)>,
    cycles: u64,
    regs: Vec<u64>,
    defers: Vec<u64>,
    draws: u64,
    aborted: bool,
    steps: usize,
}

/// Steps `blk` until it completes or aborts, charging each step's cycles
/// to the port's clock as the engine does. Every step that does not
/// complete the block must leave the registers it started with.
fn attempt(blk: &BlockFn, grants: u64, abort_on_op: Option<usize>) -> Attempt {
    let mut port = SchedPort::new(grants, abort_on_op);
    let mut env = Env::new(4, Vec::<u64>::new());
    env.regs.copy_from_slice(&START_REGS);
    let mut runner = BlockRunner::new();
    let mut steps = 0;
    let aborted = loop {
        let out = runner.step(blk, &mut env, &mut port);
        port.clock += out.cycles();
        steps += 1;
        assert!(steps < 1_000, "block must finish");
        if !matches!(out, StepOutcome::Done { .. }) {
            assert_eq!(env.regs, START_REGS, "{out:?} after step {steps}");
        }
        match out {
            StepOutcome::Yield { .. } => {}
            StepOutcome::Done { .. } => break false,
            StepOutcome::Abort { .. } => break true,
        }
    };
    Attempt {
        issued: port.issued,
        cycles: port.clock,
        regs: env.regs.clone(),
        defers: env.user::<Vec<u64>>().clone(),
        draws: port.draws,
        aborted,
        steps,
    }
}

#[test]
fn granting_port_runs_a_block_in_one_pass() {
    let blk = shaped_block(vec![
        Act::Work(10),
        Act::Load(0),
        Act::Rand,
        Act::Work(5),
        Act::Store(1),
        Act::Defer(7),
        Act::Gather(2),
    ]);
    let one_op = attempt(&blk, 0, None);
    let granted = attempt(&blk, u64::MAX, None);
    assert_eq!(one_op.steps, 3);
    assert_eq!(granted.steps, 1);
    assert_eq!(
        Attempt {
            steps: one_op.steps,
            ..granted
        },
        one_op
    );
    assert_eq!(one_op.defers, vec![7]);
}

#[test]
fn abort_in_a_continued_operation_wastes_the_same_cycles() {
    let blk = shaped_block(vec![
        Act::Load(0),
        Act::Work(4),
        Act::Store(1),
        Act::Load(2),
        Act::Defer(1),
    ]);
    // The third operation aborts: one op per pass takes three steps, a
    // granting port one.
    let one_op = attempt(&blk, 0, Some(2));
    let granted = attempt(&blk, u64::MAX, Some(2));
    assert!(one_op.aborted && granted.aborted);
    assert_eq!((one_op.steps, granted.steps), (3, 1));
    assert_eq!(granted.cycles, one_op.cycles);
    assert_eq!(granted.issued, one_op.issued);
    assert_eq!(
        granted.regs, START_REGS,
        "aborted attempt rolls registers back"
    );
    assert!(granted.defers.is_empty(), "aborted attempt runs no defers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// However a port grants `advance`, a block performs the same
    /// operations in the same order at the same clocks, takes the same
    /// cycles, leaves the same registers, draws the same randomness and
    /// applies its defers exactly once, as with one new operation per
    /// pass. This holds for an aborted attempt too. Every pass that yields
    /// or aborts leaves the block-start registers (checked in
    /// [`attempt`]), and a completed block leaves those of a one-pass run.
    #[test]
    fn continuation_matches_one_op_per_pass(
        raw in proptest::collection::vec((0u8..10, 0u64..8), 0..24),
        grants in 0u64..u64::MAX,
        abort_at in 0usize..32,
    ) {
        let acts: Vec<Act> = raw.into_iter().map(Act::from_raw).collect();
        let blk = shaped_block(acts.clone());
        let abort_on_op = (abort_at < 16).then_some(abort_at);
        let one_op = attempt(&blk, 0, abort_on_op);
        for g in [grants, u64::MAX] {
            let run = attempt(&blk, g, abort_on_op);
            prop_assert!(run.steps <= one_op.steps);
            prop_assert_eq!(
                Attempt { steps: one_op.steps, ..run },
                one_op,
                "grants {:#x}",
                g
            );
        }
        if !one_op.aborted {
            let deferred: Vec<u64> = acts
                .iter()
                .filter_map(|a| match a {
                    Act::Defer(k) => Some(*k),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(&one_op.defers, &deferred);
            prop_assert_eq!(one_op.regs[1], one_op.issued.len() as u64);
            let one_pass = attempt(&blk, u64::MAX, None);
            prop_assert_eq!(one_pass.steps, 1);
            prop_assert_eq!(&one_pass.regs, &one_op.regs);
        }
    }
}
