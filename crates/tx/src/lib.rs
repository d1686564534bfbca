//! Transaction programs: how workloads describe per-thread code to the
//! CommTM simulator.
//!
//! A per-thread [`Program`] is a sequence of [`Block`]s:
//!
//! - [`Block::Tx`] — one atomic transaction (`tx_begin` ... `tx_end`),
//! - [`Block::Plain`] — non-transactional code that still performs coherent
//!   memory operations,
//! - [`Block::Ctl`] — pure control flow (loops, branches, RNG draws, user
//!   state updates) with no memory traffic.
//!
//! Tx and Plain blocks are closures over a [`TxCtx`], whose `load`/`store`/
//! `load_l`/`store_l`/`load_gather` methods issue simulated memory
//! operations. To interleave different cores at *single-operation*
//! granularity — which is what makes baseline-HTM conflicts exist at all —
//! each block executes by **replay** ([`BlockRunner`]): a scheduler step
//! re-runs the closure from the top, feeding logged results to
//! already-performed operations, and performs one new operation. Before
//! each further new operation the pass asks the port
//! ([`MemPort::advance`]) whether it may go on. The HTM engine grants this
//! while the core stays the scheduler's minimum, so the pass performs
//! exactly the operations the following steps would have; otherwise the
//! pass yields.
//!
//! Register writes ([`TxCtx::set_reg`]) are undo-logged: a pass that
//! yields or aborts restores the values they overwrote, newest first. So
//! between passes the registers hold the values the block started with,
//! and an aborted attempt restarts from them without copying the register
//! file. A pass that completes the block keeps its writes.
//!
//! # Rules for block closures
//!
//! 1. **Determinism**: given the same operation results, a closure must
//!    issue the same operation sequence. Replay verifies this and panics on
//!    divergence. Draw randomness with [`TxCtx::rand`] (memoized) or in Ctl
//!    blocks, never from ambient state.
//! 2. **Termination under zeros**: once a pass yields, subsequent
//!    operations return 0 without executing ("satiated" mode);
//!    closures must terminate when any suffix of their reads returns 0.
//! 3. **User-state writes are deferred**: closures read per-thread scratch
//!    via [`TxCtx::user`] but mutate it only through [`TxCtx::defer`],
//!    which runs exactly once when the block completes.
//!
//! # Example
//!
//! ```
//! use commtm_tx::{Program, Ctl};
//! use commtm_mem::Addr;
//!
//! const N: usize = 0; // loop counter register
//! let counter = Addr::new(0x1000);
//! let mut b = Program::builder();
//! let top = b.here();
//! b.tx(move |t| {
//!     let v = t.load(counter);
//!     t.store(counter, v + 1);
//! });
//! b.ctl(move |c| {
//!     c.regs[N] += 1;
//!     if c.regs[N] < 10 { Ctl::Jump(top) } else { Ctl::Done }
//! });
//! let program = b.build();
//! assert_eq!(program.len(), 2);
//! ```

mod ctx;
mod program;
mod runner;

pub use ctx::{CtlCtx, TxCtx};
pub use program::{Block, BlockFn, Ctl, CtlFn, Program, ProgramBuilder};
pub use runner::{BlockRunner, Env, MemPort, OpKind, StepOutcome, UserState};
