//! Replay-based block execution.

use std::any::Any;
use std::fmt;

use commtm_mem::{Addr, LabelId};

use crate::ctx::TxCtx;
use crate::program::BlockFn;

/// One simulated memory operation, as issued by block closures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxOp {
    /// Conventional load.
    Load(Addr),
    /// Conventional store.
    Store(Addr, u64),
    /// Labeled load.
    LoadL(LabelId, Addr),
    /// Labeled store.
    StoreL(LabelId, Addr, u64),
    /// Gather request.
    Gather(LabelId, Addr),
}

/// What the memory system reported for one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpResult {
    /// Loaded (or echoed) value.
    pub value: u64,
    /// Cycles beyond the 1-cycle issue cost.
    pub latency: u64,
    /// The enclosing transaction must abort and restart.
    pub aborted: bool,
}

/// The memory interface a block runner drives. Implemented by the HTM
/// engine on top of the protocol crate; tests use in-memory mocks.
pub trait MemPort {
    /// Performs one operation.
    fn op(&mut self, op: TxOp) -> OpResult;
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
    /// General-purpose registers. Committed on block completion; restored
    /// on abort/restart.
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
    /// A performed memory operation and its result value.
    Op(TxOp, u64),
    /// A memoized randomness draw.
    Rand(u64),
}

/// The outcome of one [`BlockRunner::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// One new memory operation was performed; the block has more to do.
    /// `cycles` covers the operation's issue + latency and newly-executed
    /// `work`.
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

/// Executes one block one memory operation per [`BlockRunner::step`].
///
/// Blocks run by *replay*: each step re-runs the closure, replaying logged
/// results and performing exactly one new operation (see the crate docs
/// for the model and its rules).
#[derive(Debug, Default)]
pub struct BlockRunner {
    pub(crate) log: Vec<LogEntry>,
    work_charged: u64,
    // Register snapshot reused across passes: a block runs one pass per
    // memory operation, so cloning `env.regs` here would put one heap
    // allocation on every simulated access.
    saved_regs: Vec<u64>,
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

    /// Runs one step of the block: exactly one new memory operation (plus
    /// any random draws up to the next operation).
    pub fn step(&mut self, body: &BlockFn, env: &mut Env, port: &mut dyn MemPort) -> StepOutcome {
        self.saved_regs.clear();
        self.saved_regs.extend_from_slice(&env.regs);
        let mut ctx = TxCtx::new(&mut self.log, env, port);
        body(&mut ctx);
        let pass = ctx.finish();

        let new_work = pass.work_seen.saturating_sub(self.work_charged);
        let cycles = 1 + pass.op_latency + new_work;
        if pass.aborted {
            // The enclosing transaction is gone; the caller resets us.
            env.regs.copy_from_slice(&self.saved_regs);
            return StepOutcome::Abort { cycles };
        }
        self.work_charged += new_work;
        if pass.blocked {
            // The pass went past its one new operation: discard its
            // side effects (they re-run deterministically next pass).
            env.regs.copy_from_slice(&self.saved_regs);
            return StepOutcome::Yield { cycles };
        }
        // The pass completed the block. Apply deferred user-state actions
        // exactly once.
        for d in pass.defers {
            d(env.user_any_mut());
        }
        StepOutcome::Done { cycles }
    }
}

/// What one pass of a block closure observed (built by [`TxCtx::finish`]).
pub(crate) struct PassResult {
    /// The pass tried to go beyond its one new operation.
    pub blocked: bool,
    /// An operation reported a transaction abort.
    pub aborted: bool,
    /// Latency of the newly-performed operation (0 if none).
    pub op_latency: u64,
    /// Cumulative `work()` cycles seen up to the blocking point.
    pub work_seen: u64,
    /// Deferred user-state actions registered by the pass.
    pub defers: Vec<Box<dyn FnOnce(&mut (dyn Any + Send))>>,
}
