//! The CommTM coherence protocol: MESI extended with the user-defined
//! reducible state **U**, user-defined reductions, and gather requests.
//!
//! This crate implements the paper's Sections III-B and IV as a functional
//! protocol engine, [`MemSystem`]: a three-level inclusive cache hierarchy
//! (per-core L1 + L2, shared banked L3 with an in-cache directory) in which
//! every access computes its complete protocol effect — directory lookups,
//! invalidations, downgrades, conflict arbitration, reductions, splits —
//! synchronously, and returns a latency assembled from NoC hops and
//! cache/memory latencies.
//!
//! `MemSystem` also owns the transaction lifecycle: which cores are inside
//! transactions, and with which timestamps. The transactional layer above
//! (crate `commtm-htm`) opens and closes transactions through it;
//! `MemSystem` performs eager conflict detection against the speculative
//! footprints recorded in L1 metadata, arbitrates by timestamp (the earlier
//! transaction wins, per the paper's Sec. III-B3), rolls back aborted
//! victims, and queues a [`ProtoEvent`] for each until the driver takes
//! it.
//!
//! Key entry points:
//!
//! - [`MemSystem::access`] — perform one memory operation ([`MemOp`]),
//! - [`MemSystem::tx_begin`] / [`MemSystem::tx_commit`] /
//!   [`MemSystem::tx_abort`] — the only ways a core's transaction state
//!   changes, so the table, the speculative cache state and the tracer
//!   cannot drift apart,
//! - [`MemSystem::next_event`] — take the oldest queued victim abort,
//! - [`LabelTable`] — register user-defined labels with identity values,
//!   reduction handlers and splitters,
//! - [`MemSystem::check_invariants`] — whole-hierarchy coherence audit used
//!   by the test suite.

mod config;
mod dir;
mod label;
mod stats;
mod system;
pub mod testing;
pub mod trace;
mod types;

pub use config::ProtoConfig;
pub use dir::{DirState, L3Meta};
pub use label::{LabelDef, LabelTable, ReduceFn, ReduceOps, SplitFn};
pub use stats::{CoreProtoStats, ProbeCounts, ProtoStats};
pub use system::MemSystem;
pub use trace::{AccessOp, Trace, TraceEvent, TraceEventKind, Tracer};
pub use types::{AbortKind, AccessOutcome, MemOp, ProtoEvent, ReqClass, WasteBucket};
