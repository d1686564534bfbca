//! Replay-based block execution.

use std::any::Any;
use std::fmt;

use commtm_mem::{Addr, LabelId};

use crate::ctx::TxCtx;
use crate::program::BlockFn;

/// What a simulated memory operation does. The address it acts on and
/// the value a store writes travel beside it, so that an operation
/// crosses [`MemPort::op`] in registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Conventional load.
    Load,
    /// Conventional store.
    Store,
    /// Labeled load.
    LoadL(LabelId),
    /// Labeled store.
    StoreL(LabelId),
    /// Gather request.
    Gather(LabelId),
}

/// The memory interface a block runner drives. Implemented by the HTM
/// engine on top of the protocol crate; tests use in-memory mocks.
pub trait MemPort {
    /// Performs one operation of `kind` at `addr`; `value` is the word a
    /// store writes (0 for the other kinds). Sets `latency` to the cycles
    /// the operation took beyond the 1-cycle issue cost, and returns the
    /// loaded (or echoed) value, or `None` if the enclosing transaction
    /// must abort and restart.
    ///
    /// The value and the abort come back in two registers; the latency,
    /// which the runner reads only at its next operation, is written
    /// where the runner keeps it.
    fn op(&mut self, kind: OpKind, addr: Addr, value: u64, latency: &mut u64) -> Option<u64>;
    /// Called when a pass reaches a new operation after already having
    /// performed one: the step that performed it took `cycles` (issue,
    /// latency and `work` since the last charge). Returning `true` charges
    /// those cycles and lets the pass perform the next operation too;
    /// `false` (the default, for ports that do not schedule) ends the pass,
    /// and [`BlockRunner::step`] returns the cycles instead.
    fn advance(&mut self, _cycles: u64) -> bool {
        false
    }
    /// Draws one word of randomness (memoized in the replay log, so blocks
    /// may call it freely).
    fn rand(&mut self) -> u64;
}

/// Per-thread user state: any `Send + 'static` value qualifies through
/// the blanket implementation. [`crate::TxCtx::user`] and
/// [`crate::CtlCtx::user_mut`] downcast it back to the concrete type.
pub trait UserState: Any + Send {}

impl<T: Any + Send> UserState for T {}

/// Per-core execution state: registers plus opaque per-thread user state.
pub struct Env {
    /// General-purpose registers. Writes from a Tx or Plain block take
    /// effect when the block completes; a pass that yields or aborts
    /// undoes them.
    pub regs: Vec<u64>,
    user: Box<dyn Any + Send>,
}

impl Env {
    /// Creates an environment with `nregs` zeroed registers and the given
    /// user state.
    pub fn new(nregs: usize, user: impl UserState) -> Self {
        Env {
            regs: vec![0; nregs],
            user: Box::new(user),
        }
    }

    /// Borrows the user state.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the stored type.
    pub fn user<T: Any>(&self) -> &T {
        self.user
            .downcast_ref::<T>()
            .expect("user state type mismatch")
    }

    /// Mutably borrows the user state (Ctl blocks and deferred actions
    /// only; Tx/Plain closures must use [`TxCtx::defer`]).
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the stored type.
    pub fn user_mut<T: Any>(&mut self) -> &mut T {
        self.user
            .downcast_mut::<T>()
            .expect("user state type mismatch")
    }

    /// Splits the environment into registers and user state for contexts
    /// that need both mutably (Ctl blocks).
    pub fn split_mut(&mut self) -> (&mut [u64], &mut (dyn Any + Send)) {
        (&mut self.regs, &mut *self.user)
    }

    pub(crate) fn user_any_mut(&mut self) -> &mut (dyn Any + Send) {
        &mut *self.user
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Env")
            .field("regs", &self.regs)
            .finish_non_exhaustive()
    }
}

/// An entry in the replay log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum LogEntry {
    /// A performed memory operation (as passed to [`MemPort::op`]) and
    /// the value it returned.
    Op {
        kind: OpKind,
        addr: Addr,
        value: u64,
        result: u64,
    },
    /// A memoized randomness draw.
    Rand(u64),
}

/// The outcome of one [`BlockRunner::step`]. Its `cycles` are those the
/// port has not already been charged through [`MemPort::advance`]: the
/// issue, latency and newly-executed `work` of the last operation the
/// pass performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The pass stopped before its next new operation; the block has more
    /// to do.
    Yield {
        /// Cycles consumed by this step.
        cycles: u64,
    },
    /// The block ran to completion during this pass (deferred user-state
    /// actions have been applied).
    Done {
        /// Cycles consumed by this step.
        cycles: u64,
    },
    /// An operation reported that the enclosing transaction aborted; the
    /// caller must restart the block after backoff.
    Abort {
        /// Cycles consumed by this step (they are wasted work).
        cycles: u64,
    },
}

impl StepOutcome {
    /// Cycles consumed by the step, regardless of outcome.
    pub fn cycles(self) -> u64 {
        match self {
            StepOutcome::Yield { cycles }
            | StepOutcome::Done { cycles }
            | StepOutcome::Abort { cycles } => cycles,
        }
    }
}

/// Executes one block by replay passes, one per [`BlockRunner::step`].
///
/// Each step re-runs the closure from the top, replaying logged results,
/// and performs one new operation. It goes on to perform the next ones as
/// long as the port's [`MemPort::advance`] grants them (see the crate
/// docs for the model and its rules).
#[derive(Default)]
pub struct BlockRunner {
    pub(crate) log: Vec<LogEntry>,
    work_charged: u64,
    // The current pass's register writes, reused across passes: a pass
    // that does not complete its block undoes them, so a pass costs what
    // its own writes cost, not a copy of the register file.
    reg_undo: Vec<RegUndo>,
    // The current pass's deferred user-state actions, in a buffer reused
    // across passes: only a completing pass applies them.
    defers: Vec<Defer>,
}

impl std::fmt::Debug for BlockRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockRunner")
            .field("log", &self.log)
            .field("work_charged", &self.work_charged)
            .field("reg_undo", &self.reg_undo)
            .field("defers", &self.defers.len())
            .finish()
    }
}

impl BlockRunner {
    /// Creates a fresh runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all replay state (block restart).
    pub fn reset(&mut self) {
        self.log.clear();
        self.work_charged = 0;
    }

    /// Entries in the replay log: the operations and random draws the
    /// next [`BlockRunner::step`] replays before its first new operation.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Runs one pass of the block: one new memory operation (plus any
    /// random draws up to the next operation), then one more for each
    /// [`MemPort::advance`] the port grants.
    ///
    /// A pass that yields or aborts rolls its register writes back, so
    /// between passes `env.regs` holds the registers the block started
    /// with; a pass that completes the block keeps them.
    pub fn step(&mut self, body: &BlockFn, env: &mut Env, port: &mut dyn MemPort) -> StepOutcome {
        self.reg_undo.clear();
        self.defers.clear();
        let mut ctx = TxCtx::new(
            &mut self.log,
            &mut self.reg_undo,
            &mut self.defers,
            env,
            port,
            self.work_charged,
        );
        body(&mut ctx);
        let pass = ctx.finish();

        let new_work = pass.work_seen.saturating_sub(pass.work_charged);
        let cycles = 1 + pass.op_latency + new_work;
        if pass.aborted {
            // The enclosing transaction is gone; the caller resets us.
            self.undo_regs(env);
            return StepOutcome::Abort { cycles };
        }
        self.work_charged = pass.work_charged + new_work;
        if pass.blocked {
            // The pass stopped at a new operation it may not perform:
            // discard its side effects (they re-run deterministically
            // next pass).
            self.undo_regs(env);
            return StepOutcome::Yield { cycles };
        }
        // The pass completed the block. Apply deferred user-state actions
        // exactly once.
        for d in self.defers.drain(..) {
            d(env.user_any_mut());
        }
        StepOutcome::Done { cycles }
    }

    /// Restores the registers the pass wrote, newest write first.
    fn undo_regs(&mut self, env: &mut Env) {
        for u in self.reg_undo.drain(..).rev() {
            env.regs[u.index] = u.old;
        }
    }
}

/// One register write of the current pass: the register and the value it
/// held before.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegUndo {
    pub index: usize,
    pub old: u64,
}

/// A deferred user-state action, applied once when its block completes.
pub(crate) type Defer = Box<dyn FnOnce(&mut (dyn Any + Send))>;

/// What one pass of a block closure observed (built by [`TxCtx::finish`]).
pub(crate) struct PassResult {
    /// The pass reached a new operation the port did not let it perform.
    pub blocked: bool,
    /// An operation reported a transaction abort.
    pub aborted: bool,
    /// Latency of the last newly-performed operation (0 if none).
    pub op_latency: u64,
    /// Cumulative `work()` cycles seen up to the blocking point.
    pub work_seen: u64,
    /// Cumulative `work()` cycles charged, by earlier passes or through
    /// [`MemPort::advance`] in this one.
    pub work_charged: u64,
}
