//! Execution contexts handed to block closures.

use std::any::Any;

use commtm_mem::{Addr, LabelId};

use crate::runner::{Defer, Env, LogEntry, MemPort, PassResult, RegUndo, TxOp};

/// The context a [`crate::Block::Tx`] or [`crate::Block::Plain`] closure
/// runs against: simulated memory operations, registers, read-only user
/// state, memoized randomness, and deferred user-state writes.
///
/// See the crate docs for the replay rules closures must follow.
pub struct TxCtx<'a, 'p> {
    log: &'a mut Vec<LogEntry>,
    reg_undo: &'a mut Vec<RegUndo>,
    env: &'a mut Env,
    port: &'a mut (dyn MemPort + 'p),
    pos: usize,
    blocked: bool,
    aborted: bool,
    performed_new: bool,
    op_latency: u64,
    work_seen: u64,
    work_charged: u64,
    defers: &'a mut Vec<Defer>,
}

impl<'a, 'p> TxCtx<'a, 'p> {
    pub(crate) fn new(
        log: &'a mut Vec<LogEntry>,
        reg_undo: &'a mut Vec<RegUndo>,
        defers: &'a mut Vec<Defer>,
        env: &'a mut Env,
        port: &'a mut (dyn MemPort + 'p),
        work_charged: u64,
    ) -> Self {
        TxCtx {
            log,
            reg_undo,
            env,
            port,
            pos: 0,
            blocked: false,
            aborted: false,
            performed_new: false,
            op_latency: 0,
            work_seen: 0,
            work_charged,
            defers,
        }
    }

    pub(crate) fn finish(self) -> PassResult {
        PassResult {
            blocked: self.blocked,
            aborted: self.aborted,
            op_latency: self.op_latency,
            work_seen: self.work_seen,
            work_charged: self.work_charged,
        }
    }

    /// Conventional load.
    pub fn load(&mut self, addr: Addr) -> u64 {
        self.issue(TxOp::Load(addr))
    }

    /// Conventional store.
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.issue(TxOp::Store(addr, value));
    }

    /// Labeled load (`load[L]`, paper Sec. III-A).
    pub fn load_l(&mut self, label: LabelId, addr: Addr) -> u64 {
        self.issue(TxOp::LoadL(label, addr))
    }

    /// Labeled store (`store[L]`).
    pub fn store_l(&mut self, label: LabelId, addr: Addr, value: u64) {
        self.issue(TxOp::StoreL(label, addr, value));
    }

    /// Gather request (`load_gather[L]`, paper Sec. IV). Returns the local
    /// value after donations are merged in.
    pub fn load_gather(&mut self, label: LabelId, addr: Addr) -> u64 {
        self.issue(TxOp::Gather(label, addr))
    }

    /// Models `cycles` of non-memory computation at this point in the
    /// block.
    pub fn work(&mut self, cycles: u64) {
        if !self.blocked && !self.aborted {
            self.work_seen += cycles;
        }
    }

    /// A memoized random draw: logged like an operation, so replays see the
    /// same value. Restarted blocks draw fresh values.
    pub fn rand(&mut self) -> u64 {
        if self.aborted || self.blocked {
            return 0;
        }
        if self.pos < self.log.len() {
            let LogEntry::Rand(v) = self.log[self.pos] else {
                panic!(
                    "nondeterministic block: expected rand at replay position {}",
                    self.pos
                )
            };
            self.pos += 1;
            return v;
        }
        let v = self.port.rand();
        self.log.push(LogEntry::Rand(v));
        self.pos += 1;
        v
    }

    /// A memoized random draw in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below(0)");
        self.rand() % bound
    }

    /// Reads a register.
    pub fn reg(&self, index: usize) -> u64 {
        self.env.regs[index]
    }

    /// Writes a register. Register changes commit only when the block
    /// completes; aborts and replays roll them back.
    pub fn set_reg(&mut self, index: usize, value: u64) {
        let old = std::mem::replace(&mut self.env.regs[index], value);
        self.reg_undo.push(RegUndo { index, old });
    }

    /// Borrows the per-thread user state (read-only inside blocks; mutate
    /// via [`TxCtx::defer`]).
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the stored user-state type.
    pub fn user<T: Any>(&self) -> &T {
        self.env.user()
    }

    /// Registers a user-state mutation to run exactly once when the block
    /// completes (replayed passes and aborted attempts never apply it).
    pub fn defer<T: Any>(&mut self, f: impl FnOnce(&mut T) + 'static) {
        if self.blocked || self.aborted {
            return;
        }
        self.defers.push(Box::new(move |u: &mut (dyn Any + Send)| {
            f(u.downcast_mut::<T>()
                .expect("user state type mismatch in defer"))
        }));
    }

    /// Whether the enclosing transaction has aborted mid-pass (operations
    /// are no-ops returning 0 from then on). Closures may use this to
    /// short-circuit expensive tails.
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }

    fn issue(&mut self, op: TxOp) -> u64 {
        if self.aborted || self.blocked {
            return 0;
        }
        if self.pos < self.log.len() {
            let LogEntry::Op(logged, value) = self.log[self.pos] else {
                panic!(
                    "nondeterministic block: expected an operation at position {}",
                    self.pos
                )
            };
            assert_eq!(
                logged, op,
                "nondeterministic block: operation diverged at replay position {}",
                self.pos
            );
            self.pos += 1;
            return value;
        }
        if self.performed_new {
            // The step that performed the previous new operation ends
            // here. Charge it and go on if the port allows; otherwise
            // block, and the next pass performs this operation.
            let cycles = 1 + self.op_latency + self.work_seen.saturating_sub(self.work_charged);
            if !self.port.advance(cycles) {
                self.blocked = true;
                return 0;
            }
            self.work_charged = self.work_seen;
        }
        let res = self.port.op(op);
        self.performed_new = true;
        self.op_latency = res.latency;
        if res.aborted {
            self.aborted = true;
            return 0;
        }
        self.log.push(LogEntry::Op(op, res.value));
        self.pos += 1;
        res.value
    }
}

impl std::fmt::Debug for TxCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxCtx")
            .field("pos", &self.pos)
            .field("blocked", &self.blocked)
            .field("aborted", &self.aborted)
            .finish_non_exhaustive()
    }
}

/// The context a [`crate::Block::Ctl`] closure runs against: registers and
/// user state with no memory traffic. Ctl blocks run exactly once, so they
/// may mutate freely.
pub struct CtlCtx<'a> {
    /// General-purpose registers.
    pub regs: &'a mut [u64],
    user: &'a mut (dyn Any + Send),
    rand: &'a mut dyn FnMut() -> u64,
}

impl<'a> CtlCtx<'a> {
    /// Creates a control context (used by the execution engine).
    pub fn new(
        regs: &'a mut [u64],
        user: &'a mut (dyn Any + Send),
        rand: &'a mut dyn FnMut() -> u64,
    ) -> Self {
        CtlCtx { regs, user, rand }
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

    /// Mutably borrows the user state.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the stored type.
    pub fn user_mut<T: Any>(&mut self) -> &mut T {
        self.user
            .downcast_mut::<T>()
            .expect("user state type mismatch")
    }

    /// Draws a random word from the core's seeded generator.
    pub fn rand(&mut self) -> u64 {
        (self.rand)()
    }

    /// Draws a random value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below(0)");
        self.rand() % bound
    }
}

impl std::fmt::Debug for CtlCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtlCtx")
            .field("regs", &self.regs)
            .finish_non_exhaustive()
    }
}
