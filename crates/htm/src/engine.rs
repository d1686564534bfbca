//! Per-core transactional execution.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use commtm_mem::CoreId;
use commtm_protocol::{AbortKind, AccessOp, MemOp, MemSystem, ProtoEvent, TxTable};
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
/// replay pass of the current block (at most one new memory operation) or
/// handles a pending abort. Asynchronous aborts (this core lost a conflict
/// to another core's request) arrive via [`CoreExec::notify_aborted`].
pub struct CoreExec {
    core: CoreId,
    program: Program,
    env: Env,
    runner: BlockRunner,
    block_idx: usize,
    block_started: bool,
    block_start_regs: Vec<u64>,
    in_tx: bool,
    ts: Option<u64>,
    demote_labels: bool,
    attempts: u32,
    pending_abort: Option<AbortKind>,
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
            block_start_regs: Vec::new(),
            in_tx: false,
            ts: None,
            demote_labels: false,
            attempts: 0,
            pending_abort: None,
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

    /// Records that another core's request aborted this core's running
    /// transaction (its cache and [`TxTable`] state were already handled by
    /// the protocol). The next step performs backoff and restarts the
    /// block.
    pub fn notify_aborted(&mut self, cause: AbortKind) {
        debug_assert!(self.in_tx, "abort notification outside a transaction");
        self.pending_abort.get_or_insert(cause);
    }

    /// Runs one scheduler step, advancing the core's clock.
    pub fn step(
        &mut self,
        sys: &mut MemSystem,
        txs: &mut TxTable,
        cfg: &HtmConfig,
        next_ts: &mut u64,
        events_out: &mut Vec<ProtoEvent>,
    ) -> StepResult {
        if self.done {
            return StepResult::Finished;
        }
        // Stamp the step's scheduling key: every trace event this step
        // emits carries (clock-at-entry, core), the commit-order key.
        sys.tracer_mut().step(self.core, self.clock);
        if let Some(cause) = self.pending_abort.take() {
            self.handle_abort(cause, cfg, sys);
            return StepResult::Ran;
        }

        // Borrow the program through a temporary move instead of cloning
        // the block (an `Arc` bump/release pair on every scheduler step).
        let program = std::mem::take(&mut self.program);
        match program.block(self.block_idx) {
            Block::Ctl(_) => {
                let n = self.run_ctl_chain(&program);
                self.clock += n;
                self.stats.nontx_cycles += n;
            }
            Block::Tx(body) => {
                self.run_body(&program, body, true, sys, txs, cfg, next_ts, events_out)
            }
            Block::Plain(body) => {
                self.run_body(&program, body, false, sys, txs, cfg, next_ts, events_out)
            }
        }
        self.program = program;

        if self.done {
            StepResult::Finished
        } else {
            StepResult::Ran
        }
    }

    /// Runs consecutive Ctl blocks (1 cycle each), bounded per step so that
    /// control-only spin loops cannot stall the scheduler.
    fn run_ctl_chain(&mut self, program: &Program) -> u64 {
        const MAX_CHAIN: u64 = 1024;
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
        n.max(1)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_body(
        &mut self,
        program: &Program,
        body: &commtm_tx::BlockFn,
        is_tx: bool,
        sys: &mut MemSystem,
        txs: &mut TxTable,
        cfg: &HtmConfig,
        next_ts: &mut u64,
        events_out: &mut Vec<ProtoEvent>,
    ) {
        if !self.block_started {
            self.block_start_regs.clear();
            self.block_start_regs.extend_from_slice(&self.env.regs);
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
                txs.begin(self.core, ts);
                sys.tracer_mut().begin(ts);
                self.in_tx = true;
                // tx_begin/tx_end overhead, charged once per attempt.
                self.clock += cfg.tx_overhead;
                self.attempt_cycles += cfg.tx_overhead;
            }
        }

        let demote = cfg.scheme == Scheme::Baseline || self.demote_labels;
        let mut abort_cause = None;
        let out = {
            let mut port = EnginePort {
                sys,
                txs,
                core: self.core,
                demote,
                stats: &mut self.stats,
                rng: &mut self.rng,
                events: events_out,
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
            StepOutcome::Yield { .. } => {}
            StepOutcome::Done { .. } => {
                if is_tx {
                    if sys.tracer().is_debug() {
                        eprintln!("[{:?}] COMMIT clock={}", self.core, self.clock);
                    }
                    sys.tracer_mut().commit();
                    sys.commit_core(self.core);
                    txs.end(self.core);
                    self.in_tx = false;
                    self.ts = None;
                    self.demote_labels = false;
                    self.attempts = 0;
                    self.stats.commits += 1;
                    self.stats.committed_cycles += self.attempt_cycles;
                    self.attempt_cycles = 0;
                }
                self.advance_to(self.block_idx + 1, program.len());
            }
            StepOutcome::Abort { .. } => {
                assert!(is_tx, "a non-transactional block cannot abort");
                let cause = abort_cause.unwrap_or(AbortKind::Eviction);
                self.handle_abort(cause, cfg, sys);
            }
        }
    }

    /// Backoff-and-restart after an abort (the protocol already rolled the
    /// transaction back).
    fn handle_abort(&mut self, cause: AbortKind, cfg: &HtmConfig, sys: &mut MemSystem) {
        if sys.tracer().is_debug() {
            eprintln!(
                "[{:?}] ABORT cause={:?} clock={}",
                self.core, cause, self.clock
            );
        }
        // Emits the abort event and consumes the protocol's pending
        // attribution note (conflicting core + line) for this victim.
        sys.tracer_mut().abort(self.core, cause);
        self.runner.reset();
        self.env.regs.copy_from_slice(&self.block_start_regs);
        self.in_tx = false;
        // The retry must re-enter the transaction (tx_begin again, setting
        // the TxTable entry); the timestamp in `self.ts` is retained so the
        // transaction ages and eventually wins arbitration.
        self.block_started = false;
        self.attempts += 1;
        if cause == AbortKind::SelfDemote {
            // Sec. III-B4: retry with labeled operations demoted.
            self.demote_labels = true;
        }
        let exp = self.attempts.min(cfg.backoff_cap);
        let window = cfg.backoff_base.checked_shl(exp).unwrap_or(u64::MAX).max(2);
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

/// Adapter mapping [`TxOp`]s to protocol accesses, applying label demotion
/// and collecting events.
struct EnginePort<'a> {
    sys: &'a mut MemSystem,
    txs: &'a mut TxTable,
    core: CoreId,
    demote: bool,
    stats: &'a mut CoreStats,
    rng: &'a mut StdRng,
    events: &'a mut Vec<ProtoEvent>,
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
        if self.sys.tracer().is_debug() {
            eprintln!(
                "    [pre ] [{:?}] {:?} @{:x} st={:?}",
                self.core,
                mem_op,
                addr.raw(),
                self.sys.debug_priv(self.core, addr.line())
            );
        }
        // Events append straight into the engine's reusable buffer
        // (threaded down from `Machine::run`): no per-access allocation.
        let before = self.events.len();
        let acc = self
            .sys
            .access_into(self.core, mem_op, addr, self.txs, self.events);
        if self.sys.tracer().is_debug() {
            eprintln!(
                "[{:?}] op={:?} @{:x} -> v={} abort={:?} ev={:?} ts={:?} st={:?}",
                self.core,
                mem_op,
                addr.raw(),
                acc.value,
                acc.self_abort,
                &self.events[before..],
                self.txs.active_ts(self.core),
                self.sys.debug_priv(self.core, addr.line())
            );
        }
        if let Some(k) = acc.self_abort {
            *self.abort_cause = Some(k);
        }
        OpResult {
            value: acc.value,
            latency: acc.latency,
            aborted: acc.self_abort.is_some(),
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }
}
