//! The simulated machine and its deterministic scheduler.

use std::fmt;

use commtm_htm::{CoreExec, CoreStats, HtmConfig, Scheme, StepResult};
use commtm_mem::{Addr, CoreId, Heap};
use commtm_protocol::{LabelTable, MemOp, MemSystem, ProtoConfig, ProtoEvent, Trace};
use commtm_tx::Program;

use crate::report::RunReport;
use crate::tree::WinnerTree;

/// Top-level machine configuration: how many threads (= cores), which
/// conflict-detection scheme, and the hierarchy parameters (Table I by
/// default).
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Active cores (the paper sweeps 1–128 threads on a 128-core chip).
    pub threads: usize,
    /// Protocol and hierarchy parameters.
    pub proto: ProtoConfig,
    /// HTM engine parameters.
    pub htm: HtmConfig,
    /// Base seed for per-core RNGs (runs are deterministic given the seed).
    pub seed: u64,
    /// Safety valve: abort the run if any core's clock exceeds this bound.
    pub max_cycles: u64,
    /// Structured per-transaction tracing (see [`commtm_protocol::trace`]).
    /// Observation-only: results are byte-identical with tracing on or
    /// off. The finished [`Trace`] is taken with [`Machine::take_trace`].
    pub trace: bool,
}

impl MachineConfig {
    /// The paper's configuration with `threads` active cores under the
    /// given scheme.
    pub fn new(threads: usize, scheme: Scheme) -> Self {
        MachineConfig {
            threads,
            proto: ProtoConfig::paper_with_cores(threads),
            htm: HtmConfig::new(scheme),
            seed: 0x5EED,
            max_cycles: u64::MAX,
            trace: false,
        }
    }

    /// Overrides the base RNG seed (for multi-seed experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.proto.seed = seed ^ 0x9E37_79B9;
        self
    }

    /// Applies any set fields of a [`Tuning`] over this configuration.
    pub fn apply_tuning(&mut self, t: &Tuning) {
        if let Some(v) = t.backoff_base {
            self.htm.backoff_base = v;
        }
        if let Some(v) = t.backoff_cap {
            self.htm.backoff_cap = v;
        }
        if let Some(v) = t.tx_overhead {
            self.htm.tx_overhead = v;
        }
        if let Some(v) = t.l2_latency {
            self.proto.l2_latency = v;
        }
        if let Some(v) = t.l3_latency {
            self.proto.l3_latency = v;
        }
        if let Some(v) = t.mem_latency {
            self.proto.mem_latency = v;
        }
        if let Some(v) = t.reduce_cycles {
            self.proto.reduce_cycles = v;
        }
        if let Some(v) = t.split_cycles {
            self.proto.split_cycles = v;
        }
        if let Some(v) = t.max_cycles {
            self.max_cycles = v;
        }
        if let Some(v) = t.trace {
            self.trace = v;
        }
    }
}

/// Optional overrides of protocol and HTM parameters, applied on top of a
/// [`MachineConfig`]. Unset fields keep the paper's Table I defaults.
///
/// Experiment sweeps (the `commtm-lab` crate) carry one `Tuning` per
/// scenario so that every workload can run on a perturbed machine —
/// e.g. slower memory, cheaper reductions, different backoff — without the
/// workload code knowing about the knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tuning {
    /// Base window (cycles) for randomized exponential backoff.
    pub backoff_base: Option<u64>,
    /// Cap on the backoff exponent.
    pub backoff_cap: Option<u32>,
    /// Fixed cycles charged per transaction attempt.
    pub tx_overhead: Option<u64>,
    /// L2 access latency in cycles.
    pub l2_latency: Option<u64>,
    /// L3 bank access latency in cycles.
    pub l3_latency: Option<u64>,
    /// Main memory access latency in cycles.
    pub mem_latency: Option<u64>,
    /// Cost of merging one forwarded line in a reduction handler.
    pub reduce_cycles: Option<u64>,
    /// Cost of running one user-defined splitter.
    pub split_cycles: Option<u64>,
    /// Safety valve: abort the run past this many cycles.
    pub max_cycles: Option<u64>,
    /// Ignored: every machine runs on the serial scheduler. Kept only so
    /// the `perfbench` harness, which still sets it, compiles.
    pub machine_threads: Option<usize>,
    /// Structured per-transaction tracing (observation-only; see
    /// [`MachineConfig::trace`]).
    pub trace: Option<bool>,
}

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A core exceeded [`MachineConfig::max_cycles`]; the workload probably
    /// livelocked.
    CycleLimit {
        /// The offending core.
        core: usize,
        /// Its clock at detection.
        clock: u64,
    },
    /// No program was installed for an active core.
    MissingProgram {
        /// The core with no program.
        core: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimit { core, clock } => {
                write!(f, "core {core} exceeded the cycle limit at cycle {clock}")
            }
            SimError::MissingProgram { core } => {
                write!(f, "core {core} has no program installed")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A complete simulated machine: memory system, cores, programs.
pub struct Machine {
    cfg: MachineConfig,
    sys: MemSystem,
    cores: Vec<Option<CoreExec>>,
    heap: Heap,
    next_ts: u64,
}

impl Machine {
    /// Builds a machine with the given configuration and registered
    /// labels.
    pub fn new(cfg: MachineConfig, labels: LabelTable) -> Self {
        let sys = MemSystem::new(cfg.proto.clone(), labels);
        let cores = (0..cfg.threads).map(|_| None).collect();
        // Simulated data lives above the first 64KB (avoids the null page).
        let heap = Heap::new(Addr::new(0x1_0000), 1 << 40);
        Machine {
            cfg,
            sys,
            cores,
            heap,
            next_ts: 1,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Allocator over the simulated address space, for laying out shared
    /// data before a run.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Writes a word directly to main memory (pre-run initialization).
    ///
    /// # Panics
    ///
    /// Panics if the line is already cached (initialize before running).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.sys.poke_word(addr, value);
    }

    /// Installs the program and per-thread user state for one core.
    ///
    /// User state is any `Send + 'static` value (see
    /// [`commtm_tx::UserState`]).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn set_program(
        &mut self,
        thread: usize,
        program: Program,
        user: impl commtm_tx::UserState,
    ) {
        let core = CoreId::new(thread);
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(thread as u64);
        self.cores[thread] = Some(CoreExec::new(core, program, user, seed, &self.cfg.htm));
    }

    /// Runs all programs to completion and returns the aggregated report.
    ///
    /// The scheduler is a discrete-event loop that always steps the core
    /// with the minimum `(clock, index)` key, delivering protocol events
    /// (asynchronous aborts) after each step. Everything the simulator
    /// promises about determinism is defined in terms of this order.
    ///
    /// # Errors
    ///
    /// Fails if a core has no program or exceeds the configured cycle
    /// limit.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        for (i, c) in self.cores.iter().enumerate() {
            if c.is_none() {
                return Err(SimError::MissingProgram { core: i });
            }
        }

        if self.cfg.trace {
            let scheme = match self.cfg.htm.scheme {
                Scheme::Baseline => "baseline",
                Scheme::CommTm => "commtm",
            };
            self.sys
                .tracer_mut()
                .start(self.cfg.threads, scheme, self.cfg.seed);
        }

        let run = self.run_min_clock();
        // Stop capture before the oracle phase either way: post-run
        // coherent reads (Machine::read_word) must not pollute the stream.
        self.sys.tracer_mut().stop();
        run?;

        debug_assert!(
            self.sys.check_invariants().is_ok(),
            "post-run invariant violation"
        );
        Ok(self.report())
    }

    /// The min-clock scheduling loop behind [`Machine::run`].
    fn run_min_clock(&mut self) -> Result<(), SimError> {
        // Split borrows once: stepping a core needs `&mut` to the core and
        // the memory system at the same time.
        let Machine {
            cfg,
            sys,
            cores,
            next_ts,
            ..
        } = self;
        let mut cores: Vec<&mut CoreExec> = cores
            .iter_mut()
            .map(|c| c.as_mut().expect("program installed"))
            .collect();

        let mut tree = WinnerTree::new(cores.iter().map(|c| (!c.is_done()).then(|| c.clock())));

        // Every key at or above this one has passed `max_cycles`, so no
        // pass goes on into it: the step ends and the check below fires.
        let limit = (cfg.max_cycles, usize::MAX);
        let mut running = tree.take_min();
        while let Some((_, idx)) = running {
            // A victim whose backoff carried it past `max_cycles` keeps its
            // key from before the abort and reports the limit when that key
            // comes up: the core, clock and order of a backoff handled in a
            // step of its own at that key.
            let clock = cores[idx].clock();
            if clock > cfg.max_cycles {
                return Err(SimError::CycleLimit { core: idx, clock });
            }
            // Run-to-completion batching: keep stepping this core while it
            // remains the minimum-(clock, index) core, that is, while its
            // key stays below the smallest key in the tree. Within a step,
            // a block pass goes on issuing operations below that horizon.
            loop {
                let horizon = tree.min().map_or(limit, |next| next.min(limit));
                let core = &mut *cores[idx];
                let result = core.step(sys, &cfg.htm, next_ts, horizon, cfg.max_cycles);
                let clock = core.clock();

                // Handle asynchronous aborts as they are delivered. A
                // victim is never the stepping core, so it is in the tree;
                // its backoff raises its key there.
                while let Some(ev) = sys.next_event() {
                    match ev {
                        ProtoEvent::Aborted { core, cause } => {
                            let victim = &mut *cores[core.index()];
                            victim.notify_aborted(cause, &cfg.htm, sys);
                            if victim.clock() <= cfg.max_cycles {
                                tree.set(core.index(), victim.clock());
                            }
                        }
                    }
                }

                if clock > cfg.max_cycles {
                    return Err(SimError::CycleLimit { core: idx, clock });
                }
                if result != StepResult::Ran {
                    running = tree.take_min();
                    break;
                }
                if tree.min().is_some_and(|next| (clock, idx) > next) {
                    running = Some(tree.replace_min(idx, clock));
                    break;
                }
            }
        }
        Ok(())
    }

    /// Builds a report from the current statistics (callable after
    /// [`Machine::run`]).
    pub fn report(&self) -> RunReport {
        let per_core: Vec<CoreStats> = self
            .cores
            .iter()
            .map(|c| c.as_ref().map(|c| c.stats().clone()).unwrap_or_default())
            .collect();
        let total_cycles = per_core.iter().map(|s| s.finish_cycle).max().unwrap_or(0);
        RunReport::new(
            total_cycles,
            per_core,
            self.sys.stats().clone(),
            self.sys.probe_counts(),
        )
    }

    /// Takes the structured trace captured by the last traced run (see
    /// [`MachineConfig::trace`] / [`Tuning::trace`]): the commit-ordered
    /// event stream with per-abort attribution. Returns `None` when
    /// tracing was off. Draining — a second call returns `None`.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.sys.tracer_mut().take()
    }

    /// Coherently reads a word after a run (triggers reductions as
    /// needed), from core 0's perspective, outside any transaction.
    pub fn read_word(&mut self, addr: Addr) -> u64 {
        self.sys.access(CoreId::new(0), MemOp::Load, addr).value
    }

    /// Coherently writes a word outside any transaction (rarely needed;
    /// prefer [`Machine::poke`] before the run).
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        self.sys.access(CoreId::new(0), MemOp::Store(value), addr);
    }

    /// Borrows a core's execution environment (post-run user state
    /// inspection).
    ///
    /// # Panics
    ///
    /// Panics if the thread has no program installed.
    pub fn env(&self, thread: usize) -> &commtm_tx::Env {
        self.cores[thread]
            .as_ref()
            .expect("program installed")
            .env()
    }

    /// Audits protocol invariants (see
    /// [`MemSystem::check_invariants`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.sys.check_invariants()
    }

    /// The scheme this machine runs.
    pub fn scheme(&self) -> Scheme {
        self.cfg.htm.scheme
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("threads", &self.cfg.threads)
            .field("scheme", &self.cfg.htm.scheme)
            .finish_non_exhaustive()
    }
}
