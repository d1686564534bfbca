//! The `Workload` trait — the project's workload-authoring surface.
//!
//! A workload is a named, self-describing benchmark: it declares a typed
//! parameter [`ParamSchema`] (so scenario layers can validate overrides
//! before anything runs), executes on a [`BaseCfg`] plus fully-resolved
//! [`Params`], and exposes its sequential **oracle** as a first-class
//! hook — the correctness check that makes a commutativity claim
//! mechanical rather than an ad-hoc assert buried in a run function
//! (Koskinen & Bansal argue commutativity should be checked per
//! operation; here every registered workload's oracle is visible to, and
//! runnable by, the registry and its conformance suite).
//!
//! The trait is each workload's only entry point: the benchmark logic
//! lives in its `run` and `oracle` (e.g.
//! [`crate::micro::counter::Counter`]), and its `schema` holds the only
//! parameter defaults. [`builtins`] enumerates the shipped set.
//! Registries (see `commtm-lab`'s `registry` module) hold
//! `Box<dyn Workload>` and can be extended with custom implementations.

use std::any::Any;

use commtm::{Machine, RunReport, Trace};

use crate::claims::Claim;
use crate::BaseCfg;
use crate::{ParamSchema, Params};

/// Micro vs. full application (the paper's Sec. VI vs. Sec. VII split).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Sec. VI microbenchmark.
    Micro,
    /// Sec. VII application.
    App,
}

impl WorkloadKind {
    /// The spelling used in schema dumps.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Micro => "micro",
            WorkloadKind::App => "app",
        }
    }
}

/// A finished simulation: the machine (for oracle inspection) plus its
/// run report (for statistics).
pub struct RunOutcome {
    /// The simulated machine, post-run. Oracles read (and may mutate —
    /// e.g. draining a heap) its memory.
    pub machine: Machine,
    /// The statistics report the harness turns into figures.
    pub report: RunReport,
    /// Workload-private state the oracle needs from the setup phase
    /// (allocated addresses, warm-start checksums). `()` when unused.
    pub aux: Box<dyn Any + Send>,
}

/// A registered benchmark: identity, declarative parameter schema,
/// execution, and an explicit sequential oracle.
pub trait Workload: Send + Sync {
    /// Registry name (`counter`, `bank`, ...).
    fn name(&self) -> &'static str;

    /// Micro or app.
    fn kind(&self) -> WorkloadKind;

    /// One-line description (shown by `commtm-lab workloads`).
    fn summary(&self) -> &'static str;

    /// The declared parameter surface: every parameter `run` reads, with
    /// type, default, and doc. Scenario validation checks overrides
    /// against this before any cell runs.
    fn schema(&self) -> ParamSchema;

    /// Runs the simulation with fully-resolved typed parameters (see
    /// [`ParamSchema::resolve`]) and returns the machine + report
    /// *without* checking the oracle.
    ///
    /// # Panics
    ///
    /// Panics on simulation failure (e.g. a cycle-limit overrun); the
    /// sweep executor catches panics per cell.
    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome;

    /// Checks the workload's sequential oracle against the finished
    /// machine — the semantic-commutativity contract (conservation,
    /// ordering, set equality) plus coherence invariants.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated property.
    fn oracle(&self, base: &BaseCfg, params: &Params, run: &mut RunOutcome);

    /// Runs and oracle-checks in one step, returning the report and the
    /// machine's event trace — the path sweeps take. The trace is `None`
    /// unless the run's tuning enabled tracing.
    ///
    /// # Panics
    ///
    /// Panics on simulation failure or an oracle violation.
    fn run_checked(&self, base: BaseCfg, params: &Params) -> (RunReport, Option<Trace>) {
        let mut out = self.run(base, params);
        self.oracle(&base, params, &mut out);
        (out.report, out.machine.take_trace())
    }

    /// The commutativity claims this workload stakes: pairs of labeled
    /// operations it believes commute, with randomized inputs and a
    /// logical-state probe (see [`crate::claims`]). `commtm-lab verify`
    /// runs both interleavings of every claim and demands probe equality.
    /// Every shipped workload declares at least one claim; the default is
    /// empty so external implementations opt in incrementally.
    fn commutativity_claims(&self) -> Vec<Claim> {
        Vec::new()
    }
}

/// The shipped workloads: the paper's five microbenchmarks and five
/// applications, plus the `bank` transfer/audit microbenchmark.
pub fn builtins() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::micro::counter::Counter),
        Box::new(crate::micro::refcount::Refcount),
        Box::new(crate::micro::list::List),
        Box::new(crate::micro::oput::Oput),
        Box::new(crate::micro::topk::TopK),
        Box::new(crate::micro::bank::Bank),
        Box::new(crate::apps::boruvka::Boruvka),
        Box::new(crate::apps::kmeans::Kmeans),
        Box::new(crate::apps::ssca2::Ssca2),
        Box::new(crate::apps::genome::Genome),
        Box::new(crate::apps::vacation::Vacation),
    ]
}
