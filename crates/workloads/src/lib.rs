//! The CommTM paper's workloads, implemented on the `commtm` public API.
//!
//! # Microbenchmarks (paper Sec. VI)
//!
//! - [`micro::counter::Counter`] — concurrent increments to one shared
//!   counter (Fig. 9),
//! - [`micro::refcount::Refcount`] — bounded non-negative reference
//!   counters, with and without gather requests (Fig. 10),
//! - [`micro::list::List`] — concurrent linked-list enqueues/dequeues
//!   (Fig. 12),
//! - [`micro::oput::Oput`] — ordered puts / priority updates (Fig. 13),
//! - [`micro::topk::TopK`] — top-K set insertions (Fig. 14).
//!
//! # Full applications (paper Sec. VII, Table II)
//!
//! - [`apps::boruvka::Boruvka`] — minimum spanning tree with
//!   OPUT/MIN/MAX/ADD,
//! - [`apps::kmeans::Kmeans`] — clustering with commutative centroid
//!   updates,
//! - [`apps::ssca2::Ssca2`] — graph kernel with rare global metadata
//!   updates,
//! - [`apps::genome::Genome`] — sequence dedup over a hash set with a
//!   bounded remaining-space counter (uses gathers),
//! - [`apps::vacation::Vacation`] — travel reservations over relations
//!   with bounded remaining-space counters (uses gathers).
//!
//! Every workload runs on both [`commtm::Scheme`]s from the *same* program
//! (labels demote under the baseline), exposes a sequential **oracle**
//! over its results, and returns the [`commtm::RunReport`] the benchmark
//! harness turns into the paper's figures.
//!
//! # The workload API
//!
//! Each module's only public item is a unit struct implementing the
//! [`Workload`] trait — name, kind, summary, a typed declarative
//! [`ParamSchema`] (the one place its parameter defaults live), a `run`
//! over [`BaseCfg`] + resolved [`Params`], and the explicit `oracle`
//! hook. Callers, tests included, resolve overrides against the schema
//! with [`ParamSchema::resolve`] and go through the trait. [`builtins`]
//! enumerates the workloads for registries; beyond the paper's ten,
//! [`micro::bank::Bank`] demonstrates a string-valued `mix` parameter.

pub mod apps;
pub mod claims;
pub mod ds;
pub mod micro;
mod params;
mod spec;
mod workload;

pub use claims::{Claim, ClaimCtx, Inputs, OpOrder, ProbeEquality};
pub use params::{nearest, ParamDefault, ParamSchema, ParamSpec, ParamType, ParamValue, Params};
pub use spec::BaseCfg;
pub use workload::{builtins, RunOutcome, Workload, WorkloadKind};
