//! Set-associative cache models for the CommTM simulator.
//!
//! Provides the building blocks the protocol layer assembles into the
//! paper's three-level hierarchy (Table I):
//!
//! - [`CacheGeometry`]: sets × ways × 64-byte lines, built from a size,
//! - [`CacheArray`]: a generic set-associative array with LRU replacement
//!   and the paper's *reserved-way* policy (one way per set is reserved for
//!   non-reducible data so reduction-handler misses can always fill without
//!   evicting U-state lines — Sec. III-B4, deadlock avoidance),
//! - [`CohState`]: MESI plus the user-defined reducible state **U**
//!   (Fig. 3),
//! - [`L1Meta`] / [`PrivMeta`]: per-line metadata, including the speculative
//!   read/write/labeled bits that track transaction footprints (Fig. 5).

mod array;
mod geometry;
mod meta;
mod state;

pub use array::{CacheArray, Entry, EvictionClass, FillOutcome, Held, Slot};
pub use geometry::CacheGeometry;
pub use meta::{L1Meta, PrivMeta, SpecBits};
pub use state::CohState;
