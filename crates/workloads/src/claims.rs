//! Commutativity claims: executable contracts a workload stakes about
//! pairs of labeled operations it believes commute.
//!
//! The paper's correctness story (Sec. III) rests on labeled operations
//! actually commuting; Koskinen & Bansal reduce checking that to
//! reachability over *state differences*. A [`Claim`] is the workload-level
//! instance of that idea: two operations (`op_a`, `op_b`), a randomized
//! input space, and a **probe** — a projection of the machine's final
//! logical state (via `MemSystem::logical_w0` and coherent reads) that
//! serves as the differencing abstraction. The verification harness
//! (`commtm-verify`) runs both interleavings of the pair from identical
//! randomized machine states and demands probe equality, shrinking inputs
//! to a minimal counterexample when they differ.
//!
//! Claims execute against a real [`MemSystem`] (not the full `Machine`),
//! so every protocol path a workload leans on — U-state conversions,
//! gathers, reductions on plain reads, E→M upgrades — is exercised
//! faithfully, while op ordering stays under the harness's control.

use std::ops::RangeInclusive;
use std::sync::Arc;

use commtm::{Addr, CoreId, LabelDef, LabelId};
use commtm_protocol::{LabelTable, MemOp, MemSystem, ProtoConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A live machine a claim's operations run against: a [`MemSystem`] plus
/// the timestamp counter needed to drive its transactions.
pub struct ClaimCtx {
    sys: MemSystem,
    cores: usize,
    next_ts: u64,
}

impl ClaimCtx {
    /// Builds a fresh machine with the paper's cache geometry scaled to
    /// `cores`, registering `labels` in order (so `LabelId::new(0)` names
    /// the first label a claim declared).
    ///
    /// # Panics
    ///
    /// Panics if more than the architectural maximum of labels is given.
    pub fn new(cores: usize, labels: &[LabelDef]) -> Self {
        let mut table = LabelTable::new();
        for def in labels {
            table.register(def.clone()).expect("label budget");
        }
        ClaimCtx {
            sys: MemSystem::new(ProtoConfig::paper_with_cores(cores), table),
            cores,
            next_ts: 1,
        }
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Writes a word directly to memory (pre-traffic setup only).
    ///
    /// # Panics
    ///
    /// Panics if the line is already cached.
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.sys.poke_word(addr, value);
    }

    /// Non-transactional coherent read at `core`; triggers reductions, so
    /// it observes (and collapses) the full logical value.
    pub fn read(&mut self, core: usize, addr: Addr) -> u64 {
        self.sys.access(CoreId::new(core), MemOp::Load, addr).value
    }

    /// The logical word-0 value of `addr`'s line without perturbing any
    /// cache state (see `MemSystem::logical_w0`). Only meaningful for
    /// ADD-reducible lines, whose partials sum.
    pub fn logical_w0(&self, addr: Addr) -> u64 {
        self.sys.logical_w0(addr.line())
    }

    /// Runs the whole-hierarchy coherence audit.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant's description.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.sys.check_invariants()
    }

    /// Runs `body` as one transaction on `core`, committing on success and
    /// retrying (bounded) after self-aborts — the same
    /// backoff-and-restart discipline the HTM engine applies, minus the
    /// timing model.
    ///
    /// # Panics
    ///
    /// Panics if the transaction aborts 16 times in a row; claims are
    /// sequential, so persistent aborts indicate a machine-setup bug.
    pub fn txn(&mut self, core: usize, body: impl Fn(&mut TxOps<'_>)) {
        const MAX_ATTEMPTS: usize = 16;
        let c = CoreId::new(core);
        for _ in 0..MAX_ATTEMPTS {
            let ts = self.next_ts;
            self.next_ts += 1;
            self.sys.tx_begin(c, ts);
            let mut ops = TxOps {
                ctx: self,
                core: c,
                aborted: false,
            };
            body(&mut ops);
            if !ops.aborted {
                self.sys.tx_commit(c);
                return;
            }
            // The self-abort already rolled the transaction back and ended
            // it; retry.
            debug_assert!(!self.sys.in_tx(c));
        }
        panic!("claim transaction on core {core} aborted {MAX_ATTEMPTS} times");
    }

    /// Randomizes incidental machine state — cache occupancy, E/S/M line
    /// states, directory entries — with reads and writes to a scratch
    /// region disjoint from claim data. Both interleavings of a claim run
    /// after an identical scramble, so the randomized state is shared
    /// context, never a hidden input.
    pub fn scramble(&mut self, seed: u64) {
        const SCRATCH: u64 = 0x7F_0000;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C7A_4B1E);
        let rounds = rng.random_range(4..16u32);
        for _ in 0..rounds {
            let core = CoreId::new(rng.random_range(0..self.cores as u64) as usize);
            let addr = Addr::new(SCRATCH + 64 * rng.random_range(0..32u64));
            if rng.random_range(0..2u32) == 0 {
                self.sys.access(core, MemOp::Load, addr);
            } else {
                let v = rng.random_range(0..1000u64);
                self.sys.access(core, MemOp::Store(v), addr);
            }
        }
    }
}

/// The operations available inside a [`ClaimCtx::txn`] body. After a
/// self-abort every further operation is a no-op returning zero; the
/// enclosing `txn` retry loop restarts the body.
pub struct TxOps<'a> {
    ctx: &'a mut ClaimCtx,
    core: CoreId,
    aborted: bool,
}

impl TxOps<'_> {
    fn op(&mut self, op: MemOp, addr: Addr) -> u64 {
        if self.aborted {
            return 0;
        }
        let acc = self.ctx.sys.access(self.core, op, addr);
        if acc.self_abort.is_some() {
            self.aborted = true;
        }
        acc.value
    }

    /// Plain transactional load.
    pub fn load(&mut self, addr: Addr) -> u64 {
        self.op(MemOp::Load, addr)
    }

    /// Plain transactional store.
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.op(MemOp::Store(value), addr);
    }

    /// Labeled load: the local U-state partial value.
    pub fn load_l(&mut self, label: LabelId, addr: Addr) -> u64 {
        self.op(MemOp::LoadL(label), addr)
    }

    /// Labeled store: overwrites the local U-state partial value.
    pub fn store_l(&mut self, label: LabelId, addr: Addr, value: u64) {
        self.op(MemOp::StoreL(label, value), addr);
    }

    /// Gather request: steals value from other sharers via the label's
    /// splitter and returns the refreshed local partial.
    pub fn gather(&mut self, label: LabelId, addr: Addr) -> u64 {
        self.op(MemOp::Gather(label), addr)
    }

    /// Whether this attempt has self-aborted.
    pub fn aborted(&self) -> bool {
        self.aborted
    }
}

/// A named randomized input: the harness draws uniformly from the range
/// and shrinks toward its low end.
#[derive(Clone, Debug)]
pub struct InputSpec {
    /// Name the claim's closures look the drawn value up by.
    pub name: &'static str,
    /// Inclusive low end (the shrinking target).
    pub lo: u64,
    /// Inclusive high end.
    pub hi: u64,
}

/// One concrete assignment of a claim's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    pairs: Vec<(&'static str, u64)>,
}

impl Inputs {
    /// Builds an assignment; order must match the claim's [`InputSpec`]s.
    pub fn new(pairs: Vec<(&'static str, u64)>) -> Self {
        Inputs { pairs }
    }

    /// Looks a value up by name.
    ///
    /// # Panics
    ///
    /// Panics if the claim declared no input of that name.
    pub fn get(&self, name: &str) -> u64 {
        self.pairs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("claim has no input named {name:?}"))
            .1
    }

    /// The value at position `i`.
    pub fn value(&self, i: usize) -> u64 {
        self.pairs[i].1
    }

    /// Overwrites the value at position `i` (used by shrinking).
    pub fn set(&mut self, i: usize, v: u64) {
        self.pairs[i].1 = v;
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the claim has no inputs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Human-readable `name=value` listing.
    pub fn describe(&self) -> String {
        self.pairs
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// How the harness compares the two interleavings' probe vectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbeEquality {
    /// Bit-exact word equality (every integer label).
    Exact,
    /// Words are f64 bit patterns; each pair must agree within
    /// `rel * max(1, |x|, |y|)` — the paper's "semantically but not
    /// bit-exactly" commutative carve-out for FP ADD.
    FpTolerance {
        /// Relative tolerance.
        rel: f64,
    },
}

impl ProbeEquality {
    /// Whether two probe vectors agree under this mode.
    pub fn probes_agree(&self, a: &[u64], b: &[u64]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        match *self {
            ProbeEquality::Exact => a == b,
            ProbeEquality::FpTolerance { rel } => a.iter().zip(b).all(|(&x, &y)| {
                let (fx, fy) = (f64::from_bits(x), f64::from_bits(y));
                if !fx.is_finite() || !fy.is_finite() {
                    return x == y;
                }
                (fx - fy).abs() <= rel * fx.abs().max(fy.abs()).max(1.0)
            }),
        }
    }
}

/// Which operation runs first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOrder {
    /// `op_a` then `op_b`.
    AB,
    /// `op_b` then `op_a`.
    BA,
}

type OpFn = Arc<dyn Fn(&mut ClaimCtx, &Inputs) + Send + Sync>;
type ProbeFn = Arc<dyn Fn(&mut ClaimCtx) -> Vec<u64> + Send + Sync>;

/// A commutativity claim: two operations the workload believes commute,
/// with a randomized input space and a logical-state probe. Built with a
/// fluent API; executed by `commtm-verify`.
#[derive(Clone)]
pub struct Claim {
    name: &'static str,
    about: &'static str,
    cores: usize,
    labels: Vec<LabelDef>,
    inputs: Vec<InputSpec>,
    setup: Option<OpFn>,
    op_a: Option<OpFn>,
    op_b: Option<OpFn>,
    probe: Option<ProbeFn>,
    equality: ProbeEquality,
}

impl Claim {
    /// Starts a claim with a registry-style name (`workload/what-commutes`)
    /// and a one-line rationale. Defaults: 2 cores, exact probe equality.
    pub fn new(name: &'static str, about: &'static str) -> Self {
        Claim {
            name,
            about,
            cores: 2,
            labels: Vec::new(),
            inputs: Vec::new(),
            setup: None,
            op_a: None,
            op_b: None,
            probe: None,
            equality: ProbeEquality::Exact,
        }
    }

    /// Sets the simulated core count (ops may address any core below it).
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Registers a label; the first call gets `LabelId::new(0)`, etc.
    pub fn label(mut self, def: LabelDef) -> Self {
        self.labels.push(def);
        self
    }

    /// Declares a named randomized input drawn from `range`.
    pub fn input(mut self, name: &'static str, range: RangeInclusive<u64>) -> Self {
        self.inputs.push(InputSpec {
            name,
            lo: *range.start(),
            hi: *range.end(),
        });
        self
    }

    /// Initializes memory (pokes) and any warm-up traffic. Runs before the
    /// state scramble and both operations, identically in both orders.
    pub fn setup(mut self, f: impl Fn(&mut ClaimCtx, &Inputs) + Send + Sync + 'static) -> Self {
        self.setup = Some(Arc::new(f));
        self
    }

    /// The first operation of the claimed-commuting pair.
    pub fn op_a(mut self, f: impl Fn(&mut ClaimCtx, &Inputs) + Send + Sync + 'static) -> Self {
        self.op_a = Some(Arc::new(f));
        self
    }

    /// The second operation of the claimed-commuting pair.
    pub fn op_b(mut self, f: impl Fn(&mut ClaimCtx, &Inputs) + Send + Sync + 'static) -> Self {
        self.op_b = Some(Arc::new(f));
        self
    }

    /// The differencing abstraction: a projection of final logical state
    /// that both interleavings must agree on.
    pub fn probe(mut self, f: impl Fn(&mut ClaimCtx) -> Vec<u64> + Send + Sync + 'static) -> Self {
        self.probe = Some(Arc::new(f));
        self
    }

    /// Overrides the probe comparison mode (FP labels).
    pub fn equality(mut self, e: ProbeEquality) -> Self {
        self.equality = e;
        self
    }

    /// The claim's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The claim's one-line rationale.
    pub fn about(&self) -> &'static str {
        self.about
    }

    /// The declared input space.
    pub fn input_specs(&self) -> &[InputSpec] {
        &self.inputs
    }

    /// The probe comparison mode.
    pub fn probe_equality(&self) -> ProbeEquality {
        self.equality
    }

    /// Runs one interleaving from a fresh machine: setup, state scramble,
    /// the two ops in `order`, then the probe.
    ///
    /// # Errors
    ///
    /// Returns the description of a violated coherence invariant (itself a
    /// verification failure).
    ///
    /// # Panics
    ///
    /// Panics if the claim is missing `op_a`, `op_b`, or `probe`.
    pub fn run_order(
        &self,
        inputs: &Inputs,
        order: OpOrder,
        scramble_seed: u64,
    ) -> Result<Vec<u64>, String> {
        let op_a = self.op_a.as_ref().expect("claim is missing op_a");
        let op_b = self.op_b.as_ref().expect("claim is missing op_b");
        let probe = self.probe.as_ref().expect("claim is missing probe");
        let mut ctx = ClaimCtx::new(self.cores, &self.labels);
        if let Some(setup) = &self.setup {
            setup(&mut ctx, inputs);
        }
        ctx.scramble(scramble_seed);
        match order {
            OpOrder::AB => {
                op_a(&mut ctx, inputs);
                op_b(&mut ctx, inputs);
            }
            OpOrder::BA => {
                op_b(&mut ctx, inputs);
                op_a(&mut ctx, inputs);
            }
        }
        let p = probe(&mut ctx);
        ctx.check_invariants()?;
        Ok(p)
    }
}

impl std::fmt::Debug for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Claim")
            .field("name", &self.name)
            .field("cores", &self.cores)
            .field("labels", &self.labels.len())
            .field("inputs", &self.inputs)
            .finish()
    }
}
