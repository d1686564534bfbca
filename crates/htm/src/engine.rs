//! Per-core transactional execution.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use commtm_mem::CoreId;
use commtm_protocol::{AbortKind, AccessOp, MemOp, MemSystem};
use commtm_tx::{
    Block, BlockRunner, Ctl, CtlCtx, Env, MemPort, OpResult, Program, StepOutcome, TxOp, UserState,
};

use crate::stats::CoreStats;

/// Which conflict-detection scheme the machine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's conventional eager-lazy HTM: labeled operations are
    /// demoted to conventional loads/stores (gathers become loads), so
    /// commutative updates serialize.
    Baseline,
    /// CommTM: labeled operations use the U state, reductions and gathers.
    CommTm,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct HtmConfig {
    /// Conflict-detection scheme.
    pub scheme: Scheme,
    /// Base window (cycles) for randomized exponential backoff.
    pub backoff_base: u64,
    /// Cap on the backoff exponent.
    pub backoff_cap: u32,
    /// Number of general-purpose registers per core.
    pub regs: usize,
    /// Fixed cycles charged per transaction attempt for `tx_begin` +
    /// `tx_end` (TSX-like overhead; keeps single-thread transactions from
    /// being unrealistically free).
    pub tx_overhead: u64,
}

impl HtmConfig {
    /// Defaults used throughout the evaluation.
    pub fn new(scheme: Scheme) -> Self {
        HtmConfig {
            scheme,
            backoff_base: 16,
            backoff_cap: 8,
            regs: 32,
            tx_overhead: 20,
        }
    }
}

/// The result of stepping a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepResult {
    /// The core made progress and should be rescheduled at its new clock.
    Ran,
    /// The core's program is finished.
    Finished,
}

/// One simulated core executing a [`Program`] transactionally.
///
/// The scheduler steps cores in minimum-clock order; each step runs one
/// replay pass of the current block. A pass performs new memory
/// operations for as long as the core stays the scheduler's minimum (see
/// [`CoreExec::step`]). Asynchronous aborts (this core lost a conflict to
/// another core's request) are handled when the driver delivers them, via
/// [`CoreExec::notify_aborted`].
pub struct CoreExec {
    core: CoreId,
    program: Program,
    env: Env,
    runner: BlockRunner,
    block_idx: usize,
    block_started: bool,
    in_tx: bool,
    ts: Option<u64>,
    demote_labels: bool,
    attempts: u32,
    clock: u64,
    attempt_cycles: u64,
    rng: StdRng,
    stats: CoreStats,
    done: bool,
}

impl CoreExec {
    /// Creates a core executing `program` with the given per-thread user
    /// state and RNG seed.
    pub fn new(
        core: CoreId,
        program: Program,
        user: impl UserState,
        seed: u64,
        cfg: &HtmConfig,
    ) -> Self {
        let done = program.is_empty();
        CoreExec {
            core,
            program,
            env: Env::new(cfg.regs, user),
            runner: BlockRunner::new(),
            block_idx: 0,
            block_started: false,
            in_tx: false,
            ts: None,
            demote_labels: false,
            attempts: 0,
            clock: 0,
            attempt_cycles: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: CoreStats::default(),
            done,
        }
    }

    /// The core's id.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The core's local clock (cycles).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Whether the program has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The core's execution environment (post-run inspection).
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Handles another core's request aborting this core's running
    /// transaction (the protocol already rolled it back and ended it):
    /// backoff and a restart of the block, with the abort's trace event
    /// stamped with this core's own `(clock, core)` key. The driver then
    /// re-keys the core at its new clock.
    ///
    /// Handling the abort at delivery equals handling it in the core's
    /// next step: everything it touches is private to this core, apart
    /// from the trace event, whose stamp is the same either way.
    pub fn notify_aborted(&mut self, cause: AbortKind, cfg: &HtmConfig, sys: &mut MemSystem) {
        debug_assert!(self.in_tx, "abort notification outside a transaction");
        sys.tracer_mut().step(self.core, self.clock);
        self.handle_abort(cause, cfg, sys);
    }

    /// Runs one scheduler step, advancing the core's clock. Victim aborts
    /// the step causes queue in `sys` for the driver to drain and deliver.
    ///
    /// `horizon` is the `(clock, core index)` key below which this core
    /// stays the scheduler's next choice. A block pass goes on to its next
    /// operation only while the finished operation leaves the core's key
    /// below it, so one step performs exactly the operations successive
    /// steps would have, in the same order and at the same clocks.
    ///
    /// A step that completes a Tx or Plain block also runs the Ctl chain
    /// that follows it. The chain touches only this core's registers,
    /// user state and RNG, outside any transaction, so no other core can
    /// observe when it runs. Only where the chain could carry the clock
    /// past `max_cycles` does it keep a step of its own, so that the
    /// cycle limit is reported at the key and in the order it always was.
    pub fn step(
        &mut self,
        sys: &mut MemSystem,
        cfg: &HtmConfig,
        next_ts: &mut u64,
        horizon: (u64, usize),
        max_cycles: u64,
    ) -> StepResult {
        if self.done {
            return StepResult::Finished;
        }
        self.stats.steps += 1;
        // Stamp the step's scheduling key: every trace event this step
        // emits carries (clock-at-entry, core), the commit-order key, until
        // `EnginePort::advance` re-stamps it for a further operation.
        sys.tracer_mut().step(self.core, self.clock);

        // Borrow the program through a temporary move instead of cloning
        // the block (an `Arc` bump/release pair on every scheduler step).
        let program = std::mem::take(&mut self.program);
        let completed = match program.block(self.block_idx) {
            Block::Ctl(_) => {
                self.run_ctl_chain(&program);
                false
            }
            Block::Tx(body) => self.run_body(body, true, sys, cfg, next_ts, horizon),
            Block::Plain(body) => self.run_body(body, false, sys, cfg, next_ts, horizon),
        };
        if completed {
            self.advance_to(self.block_idx + 1, program.len());
            let chain_fits = self
                .clock
                .checked_add(MAX_CHAIN)
                .is_some_and(|end| end <= max_cycles);
            if !self.done && chain_fits && matches!(program.block(self.block_idx), Block::Ctl(_)) {
                self.run_ctl_chain(&program);
            }
        }
        self.program = program;

        if self.done {
            StepResult::Finished
        } else {
            StepResult::Ran
        }
    }

    /// Runs consecutive Ctl blocks (1 cycle each, charged as
    /// non-transactional), at most [`MAX_CHAIN`] per step so that
    /// control-only spin loops cannot stall the scheduler.
    fn run_ctl_chain(&mut self, program: &Program) {
        let mut n = 0;
        while n < MAX_CHAIN && !self.done {
            let Block::Ctl(f) = program.block(self.block_idx) else {
                break;
            };
            n += 1;
            let rng = &mut self.rng;
            let mut draw = move || rng.next_u64();
            let ctl = {
                let (regs, user) = self.env.split_mut();
                let mut ctx = CtlCtx::new(regs, user, &mut draw);
                f(&mut ctx)
            };
            match ctl {
                Ctl::Next => self.advance_to(self.block_idx + 1, program.len()),
                Ctl::Jump(i) => {
                    assert!(i < program.len(), "jump target {i} out of program bounds");
                    self.advance_to(i, program.len());
                }
                Ctl::Done => self.finish(),
            }
        }
        let n = n.max(1);
        self.clock += n;
        self.stats.nontx_cycles += n;
    }

    /// Runs one pass of a Tx or Plain block; returns whether the block
    /// completed.
    fn run_body(
        &mut self,
        body: &commtm_tx::BlockFn,
        is_tx: bool,
        sys: &mut MemSystem,
        cfg: &HtmConfig,
        next_ts: &mut u64,
        horizon: (u64, usize),
    ) -> bool {
        if !self.block_started {
            self.block_started = true;
            if is_tx {
                // Assign (or retain, across retries) the timestamp.
                let ts = match self.ts {
                    Some(t) => t,
                    None => {
                        let t = *next_ts;
                        *next_ts += 1;
                        self.ts = Some(t);
                        t
                    }
                };
                sys.tx_begin(self.core, ts);
                self.in_tx = true;
                // tx_begin/tx_end overhead, charged once per attempt.
                self.clock += cfg.tx_overhead;
                self.attempt_cycles += cfg.tx_overhead;
            }
        }

        // A deterministic pass replays the whole log before its first new
        // operation.
        self.stats.passes += 1;
        self.stats.replayed_entries += self.runner.log_len() as u64;
        let demote = cfg.scheme == Scheme::Baseline || self.demote_labels;
        let mut abort_cause = None;
        let out = {
            let mut port = EnginePort {
                sys,
                core: self.core,
                demote,
                is_tx,
                clock: &mut self.clock,
                attempt_cycles: &mut self.attempt_cycles,
                horizon,
                stats: &mut self.stats,
                rng: &mut self.rng,
                abort_cause: &mut abort_cause,
            };
            self.runner.step(body, &mut self.env, &mut port)
        };

        let cycles = out.cycles();
        self.clock += cycles;
        if is_tx {
            self.attempt_cycles += cycles;
        } else {
            self.stats.nontx_cycles += cycles;
        }

        match out {
            StepOutcome::Yield { .. } => false,
            StepOutcome::Done { .. } => {
                if is_tx {
                    sys.tx_commit(self.core);
                    self.in_tx = false;
                    self.ts = None;
                    self.demote_labels = false;
                    self.attempts = 0;
                    self.stats.commits += 1;
                    self.stats.committed_cycles += self.attempt_cycles;
                    self.attempt_cycles = 0;
                }
                true
            }
            StepOutcome::Abort { .. } => {
                assert!(is_tx, "a non-transactional block cannot abort");
                let cause = abort_cause.unwrap_or(AbortKind::Eviction);
                self.handle_abort(cause, cfg, sys);
                false
            }
        }
    }

    /// Backoff-and-restart after an abort (the protocol already rolled the
    /// transaction back). The registers already hold their block-start
    /// values: every pass that did not complete the block undid its
    /// writes.
    fn handle_abort(&mut self, cause: AbortKind, cfg: &HtmConfig, sys: &mut MemSystem) {
        // Emits the abort event and consumes the protocol's pending
        // attribution note (conflicting core + line) for this victim.
        sys.tracer_mut().abort(self.core, cause);
        self.runner.reset();
        self.in_tx = false;
        // The retry must re-enter the transaction (`tx_begin` again); the
        // timestamp in `self.ts` is retained so the transaction ages and
        // eventually wins arbitration.
        self.block_started = false;
        self.attempts += 1;
        if cause == AbortKind::SelfDemote {
            // Sec. III-B4: retry with labeled operations demoted.
            self.demote_labels = true;
        }
        let window = backoff_window(cfg, self.attempts);
        let backoff = self.rng.random_range(1..window);
        let wasted = self.attempt_cycles + backoff;
        let bucket = CoreStats::bucket_index(cause.bucket());
        self.stats.aborts += 1;
        self.stats.aborts_by_bucket[bucket] += 1;
        self.stats.aborted_cycles += wasted;
        self.stats.wasted_by_bucket[bucket] += wasted;
        self.stats.backoff_cycles += backoff;
        self.attempt_cycles = 0;
        self.clock += backoff;
    }

    // `program_len` is passed in because the program is temporarily moved
    // out of `self` while a block borrows it (see `step`).
    fn advance_to(&mut self, idx: usize, program_len: usize) {
        self.block_idx = idx;
        self.block_started = false;
        self.runner.reset();
        if self.block_idx >= program_len {
            self.finish();
        }
    }

    fn finish(&mut self) {
        if !self.done {
            self.done = true;
            self.stats.finish_cycle = self.clock;
        }
    }
}

impl std::fmt::Debug for CoreExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreExec")
            .field("core", &self.core)
            .field("clock", &self.clock)
            .field("block", &self.block_idx)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

/// The most Ctl blocks one step runs (see [`CoreExec::step`]).
const MAX_CHAIN: u64 = 1024;

/// The randomized backoff window after `attempts` aborts:
/// `backoff_base << min(attempts, backoff_cap)`, saturating at `u64::MAX`
/// once bits would shift out, and at least 2 so the draw `1..window` is
/// never empty.
fn backoff_window(cfg: &HtmConfig, attempts: u32) -> u64 {
    let exp = attempts.min(cfg.backoff_cap);
    let window = match cfg.backoff_base.checked_shl(exp) {
        Some(w) if w >> exp == cfg.backoff_base => w,
        _ => u64::MAX,
    };
    window.max(2)
}

/// Adapter mapping [`TxOp`]s to protocol accesses, applying label demotion
/// and recording the self-abort cause. It charges the cycles of each
/// operation a pass goes on from (see [`MemPort::advance`]) to the core.
struct EnginePort<'a> {
    sys: &'a mut MemSystem,
    core: CoreId,
    demote: bool,
    is_tx: bool,
    clock: &'a mut u64,
    attempt_cycles: &'a mut u64,
    horizon: (u64, usize),
    stats: &'a mut CoreStats,
    rng: &'a mut StdRng,
    abort_cause: &'a mut Option<AbortKind>,
}

impl MemPort for EnginePort<'_> {
    fn op(&mut self, op: TxOp) -> OpResult {
        let (mem_op, addr) = match op {
            TxOp::Load(a) => {
                self.stats.plain_ops += 1;
                (MemOp::Load, a)
            }
            TxOp::Store(a, v) => {
                self.stats.plain_ops += 1;
                (MemOp::Store(v), a)
            }
            TxOp::LoadL(l, a) => {
                self.stats.labeled_ops += 1;
                (
                    if self.demote {
                        MemOp::Load
                    } else {
                        MemOp::LoadL(l)
                    },
                    a,
                )
            }
            TxOp::StoreL(l, a, v) => {
                self.stats.labeled_ops += 1;
                (
                    if self.demote {
                        MemOp::Store(v)
                    } else {
                        MemOp::StoreL(l, v)
                    },
                    a,
                )
            }
            TxOp::Gather(l, a) => {
                self.stats.labeled_ops += 1;
                self.stats.gather_ops += 1;
                (
                    if self.demote {
                        MemOp::Load
                    } else {
                        MemOp::Gather(l)
                    },
                    a,
                )
            }
        };
        if self.sys.tracer().is_enabled() {
            // Record the *issued* operation (pre-demotion), so traces under
            // the baseline scheme still show which accesses were labeled.
            let (trace_op, labeled) = match op {
                TxOp::Load(_) => (AccessOp::Load, false),
                TxOp::Store(..) => (AccessOp::Store, false),
                TxOp::LoadL(..) => (AccessOp::LoadL, true),
                TxOp::StoreL(..) => (AccessOp::StoreL, true),
                TxOp::Gather(..) => (AccessOp::Gather, true),
            };
            self.sys.tracer_mut().access(
                addr.raw(),
                addr.line(),
                trace_op,
                labeled,
                labeled && self.demote,
            );
        }
        let acc = self.sys.access(self.core, mem_op, addr);
        if let Some(k) = acc.self_abort {
            *self.abort_cause = Some(k);
        }
        OpResult {
            value: acc.value,
            latency: acc.latency,
            aborted: acc.self_abort.is_some(),
        }
    }

    fn advance(&mut self, cycles: u64) -> bool {
        let clock = *self.clock + cycles;
        if (clock, self.core.index()) >= self.horizon {
            return false;
        }
        *self.clock = clock;
        if self.is_tx {
            *self.attempt_cycles += cycles;
        } else {
            self.stats.nontx_cycles += cycles;
        }
        // The next operation starts a new scheduling step: its trace
        // events carry that step's (clock, core) key.
        self.sys.tracer_mut().step(self.core, clock);
        true
    }

    fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_window_saturates_instead_of_wrapping() {
        let cfg = HtmConfig {
            backoff_cap: 62,
            ..HtmConfig::new(Scheme::CommTm)
        };
        assert_eq!(backoff_window(&cfg, 0), 16);
        assert_eq!(backoff_window(&cfg, 8), 16 << 8);
        assert_eq!(backoff_window(&cfg, 59), 1 << 63);
        // 16 << 60 shifts the only set bit out: the window must saturate,
        // not wrap to 0 (which `.max(2)` turned into a 1-cycle backoff).
        for attempts in 60..=70 {
            assert_eq!(backoff_window(&cfg, attempts), u64::MAX, "{attempts}");
        }
        let windows: Vec<u64> = (0..=70).map(|a| backoff_window(&cfg, a)).collect();
        assert!(windows.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn backoff_window_respects_the_cap() {
        let cfg = HtmConfig::new(Scheme::CommTm);
        assert_eq!(backoff_window(&cfg, 100), 16 << 8);
        let zero = HtmConfig {
            backoff_base: 0,
            ..cfg
        };
        assert_eq!(backoff_window(&zero, 3), 2);
    }
}
