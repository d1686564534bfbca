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
//! The transactional layer above (crate `commtm-htm`) drives it by passing a
//! [`TxTable`] describing which cores are inside transactions with which
//! timestamps; `MemSystem` performs eager conflict detection against the
//! speculative footprints recorded in L1 metadata, arbitrates by timestamp
//! (the earlier transaction wins, per the paper's Sec. III-B3), rolls back
//! aborted victims, and reports everything through [`ProtoEvent`]s.
//!
//! Key entry points:
//!
//! - [`MemSystem::access`] — perform one memory operation ([`MemOp`]),
//! - [`MemSystem::commit_core`] / [`MemSystem::rollback_core`] — end a
//!   transaction,
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
pub use stats::{CoreProtoStats, ProtoStats};
pub use system::MemSystem;
pub use trace::{AccessOp, Trace, TraceEvent, TraceEventKind, Tracer};
pub use types::{
    AbortKind, Access, AccessOutcome, MemOp, ProtoEvent, ReqClass, TxEntry, TxTable, WasteBucket,
};
