//! Structured per-transaction tracing over the protocol choke points.
//!
//! This module records *what happened and why*: a stream of
//! [`TraceEvent`]s — transaction begin/commit, every program-level
//! access, every detected conflict, and every abort with its **attributed
//! cause** (the conflicting core and line, when one exists). The
//! directory-flow choke points feed the tracer directly, so attribution
//! is exact rather than sampled.
//!
//! # Design
//!
//! - **Zero overhead when off.** Every hook starts with one `enabled`
//!   branch; the tracer draws no randomness and adds no latency, so
//!   enabling it can never change simulation results.
//! - **Ring-buffered.** Capture is bounded by a drop-oldest ring
//!   ([`Tracer::DEFAULT_CAPACITY`] events); [`Trace::dropped`] reports
//!   how many events fell out, so consumers can tell a complete trace
//!   from a windowed one.
//! - **Commit-ordered.** Events are stamped with the scheduler step
//!   key (clock, core) that produced them. A stable sort by that key —
//!   done once at [`Tracer::take`] — yields the *commit-order* stream.
//!
//! # Attribution
//!
//! Conflicts are two-sided: the directory flow records a pending
//! *abort note* (attacker core + line) for whichever side loses
//! arbitration, and the HTM layer consumes the note when it processes
//! that core's abort: a requester's at the end of its own access, a
//! victim's when the machine driver delivers the abort right after the
//! step that caused it. Notes keep the first cause, mirroring how
//! `Acc::abort_self` keeps its own, so the attributed cause is always
//! the one that actually aborted the transaction. Self-inflicted aborts
//! (evictions, self-demotions) carry a line but no attacker.

use commtm_mem::{CoreId, FxHashMap, LineAddr};

use crate::types::AbortKind;

impl AbortKind {
    /// Stable machine-readable name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            AbortKind::ReadAfterWrite => "read-after-write",
            AbortKind::WriteAfterRead => "write-after-read",
            AbortKind::WriteAfterWrite => "write-after-write",
            AbortKind::GatherAfterLabeled => "gather-after-labeled",
            AbortKind::CrossLabel => "cross-label",
            AbortKind::SelfDemote => "self-demote",
            AbortKind::Eviction => "eviction",
            AbortKind::LlcEviction => "llc-eviction",
            AbortKind::UEvictionForward => "u-eviction-forward",
        }
    }
}

/// The kind of program-level memory operation an [`TraceEventKind::Access`]
/// records (the *issued* operation, before any demotion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOp {
    /// Conventional load.
    Load,
    /// Conventional store.
    Store,
    /// Labeled load.
    LoadL,
    /// Labeled store.
    StoreL,
    /// Gather request.
    Gather,
}

impl AccessOp {
    /// Stable machine-readable name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            AccessOp::Load => "load",
            AccessOp::Store => "store",
            AccessOp::LoadL => "loadl",
            AccessOp::StoreL => "storel",
            AccessOp::Gather => "gather",
        }
    }

    /// Whether the operation writes data (labeled stores included).
    pub fn is_store(self) -> bool {
        matches!(self, AccessOp::Store | AccessOp::StoreL)
    }
}

/// What one [`TraceEvent`] records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A transaction began with the given arbitration timestamp.
    Begin {
        /// The HTM conflict-arbitration timestamp drawn at begin.
        ts: u64,
    },
    /// A program-level memory access (handler-internal accesses —
    /// reductions, splits — are protocol machinery and are not recorded).
    Access {
        /// Word address accessed.
        addr: u64,
        /// Cache line holding the address.
        line: u64,
        /// The issued operation.
        op: AccessOp,
        /// Whether the issued operation carried a label.
        labeled: bool,
        /// Whether a labeled operation was demoted to its plain
        /// equivalent (baseline scheme, or post-`SelfDemote` retry).
        demoted: bool,
    },
    /// A conflict was detected and arbitrated between two transactions.
    Conflict {
        /// Core whose request hit the victim's speculative state.
        attacker: usize,
        /// Core holding the conflicting speculative state.
        victim: usize,
        /// The contested line.
        line: u64,
        /// The dependency classification charged to the loser.
        cause: AbortKind,
        /// Whether the attacker's request class was labeled (GETU/split).
        attacker_labeled: bool,
        /// `true`: the victim NACKed and the *attacker* self-aborts;
        /// `false`: the victim aborts and the request proceeds.
        nack: bool,
    },
    /// A transaction aborted.
    Abort {
        /// Why the transaction aborted.
        cause: AbortKind,
        /// The conflicting core, when the abort has one (cross-core
        /// conflicts and NACKs; `None` for self-inflicted aborts).
        attacker: Option<usize>,
        /// The line whose conflict or eviction triggered the abort, when
        /// attributable.
        line: Option<u64>,
    },
    /// A transaction committed.
    Commit,
}

/// One recorded event, stamped with the scheduler step that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Scheduler clock of the producing step.
    pub clock: u64,
    /// Core whose step produced the event. For [`TraceEventKind::Conflict`]
    /// this is the *attacker's* step; for aborts it is the victim's own
    /// abort-handling step.
    pub core: usize,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A finished, exported trace: header plus the commit-ordered event
/// stream (stable-sorted by `(clock, core)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Simulated cores.
    pub threads: usize,
    /// Conflict-detection scheme name.
    pub scheme: String,
    /// Machine seed.
    pub seed: u64,
    /// Ring capacity the trace was captured with.
    pub capacity: usize,
    /// Events that fell out of the ring (0 for a complete trace).
    pub dropped: u64,
    /// The commit-ordered event stream.
    pub events: Vec<TraceEvent>,
}

/// A pending abort attribution: who hit us, and where.
#[derive(Clone, Copy, Debug)]
struct AbortNote {
    attacker: Option<usize>,
    line: u64,
}

/// The capture side: owned by the memory system, fed by the protocol
/// choke points and the HTM engine, drained by the machine driver.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Ring start: index of the oldest event once the buffer wrapped.
    head: usize,
    dropped: u64,
    /// Current scheduler step key; every emitted event is stamped with it.
    step_core: usize,
    step_clock: u64,
    /// Pending per-core abort attributions (keep-first).
    notes: FxHashMap<usize, AbortNote>,
    /// Whether [`Tracer::start`] ran since the last [`Tracer::take`].
    started: bool,
    threads: usize,
    scheme: String,
    seed: u64,
}

impl Tracer {
    /// Default ring capacity, in events.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Whether structured capture is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables capture with a fresh buffer and records the run header.
    pub fn start(&mut self, threads: usize, scheme: &str, seed: u64) {
        self.enabled = true;
        if self.capacity == 0 {
            self.capacity = Tracer::DEFAULT_CAPACITY;
        }
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
        self.notes.clear();
        self.started = true;
        self.threads = threads;
        self.scheme = scheme.to_string();
        self.seed = seed;
    }

    /// Disables capture, leaving the buffer readable (e.g. so a post-run
    /// oracle's coherent reads don't pollute the stream).
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Stamps the scheduler step about to execute; subsequent events
    /// carry this `(clock, core)` key.
    #[inline]
    pub fn step(&mut self, core: CoreId, clock: u64) {
        if !self.enabled {
            return;
        }
        self.step_core = core.index();
        self.step_clock = clock;
    }

    #[inline]
    fn push(&mut self, core: usize, kind: TraceEventKind) {
        let ev = TraceEvent {
            clock: self.step_clock,
            core,
            kind,
        };
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            // Ring: overwrite the oldest event.
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records a transaction begin on the current step's core.
    #[inline]
    pub fn begin(&mut self, ts: u64) {
        if !self.enabled {
            return;
        }
        self.push(self.step_core, TraceEventKind::Begin { ts });
    }

    /// Records a program-level access on the current step's core.
    #[inline]
    pub fn access(
        &mut self,
        addr: u64,
        line: LineAddr,
        op: AccessOp,
        labeled: bool,
        demoted: bool,
    ) {
        if !self.enabled {
            return;
        }
        self.push(
            self.step_core,
            TraceEventKind::Access {
                addr,
                line: line.raw(),
                op,
                labeled,
                demoted,
            },
        );
    }

    /// Records an arbitrated conflict (stamped with the attacker's step)
    /// and notes the attribution for the losing side's upcoming abort.
    pub fn conflict(
        &mut self,
        attacker: CoreId,
        victim: CoreId,
        line: LineAddr,
        cause: AbortKind,
        attacker_labeled: bool,
        nack: bool,
    ) {
        if !self.enabled {
            return;
        }
        let (attacker, victim) = (attacker.index(), victim.index());
        self.push(
            self.step_core,
            TraceEventKind::Conflict {
                attacker,
                victim,
                line: line.raw(),
                cause,
                attacker_labeled,
                nack,
            },
        );
        // The loser's abort attribution: on a NACK the attacker aborts
        // (the victim defended); otherwise the victim aborts.
        let (loser, winner) = if nack {
            (attacker, victim)
        } else {
            (victim, attacker)
        };
        self.note(loser, Some(winner), line);
    }

    /// Records a pending abort attribution for `core` without a
    /// two-sided conflict (evictions, forwards, self-demotions).
    /// Keep-first: an earlier note for the same core wins, mirroring the
    /// protocol's first-cause abort bookkeeping (`Acc::abort_self`).
    pub fn note_abort(&mut self, core: CoreId, attacker: Option<CoreId>, line: LineAddr) {
        if !self.enabled {
            return;
        }
        self.note(core.index(), attacker.map(CoreId::index), line);
    }

    fn note(&mut self, core: usize, attacker: Option<usize>, line: LineAddr) {
        self.notes.entry(core).or_insert(AbortNote {
            attacker,
            line: line.raw(),
        });
    }

    /// Records `core`'s abort, consuming its pending attribution note (if
    /// the abort had an attributable conflict or line).
    pub fn abort(&mut self, core: CoreId, cause: AbortKind) {
        if !self.enabled {
            return;
        }
        let note = self.notes.remove(&core.index());
        self.push(
            core.index(),
            TraceEventKind::Abort {
                cause,
                attacker: note.and_then(|n| n.attacker),
                line: note.map(|n| n.line),
            },
        );
    }

    /// Records a transaction commit on the current step's core.
    #[inline]
    pub fn commit(&mut self) {
        if !self.enabled {
            return;
        }
        self.push(self.step_core, TraceEventKind::Commit);
    }

    /// Number of events dropped by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finishes capture and exports the [`Trace`]: the buffered events,
    /// stable-sorted by `(clock, core)` into commit order. Returns `None`
    /// if capture was never started.
    pub fn take(&mut self) -> Option<Trace> {
        if !self.started {
            return None;
        }
        self.enabled = false;
        self.started = false;
        let mut events = std::mem::take(&mut self.events);
        events.rotate_left(self.head);
        self.head = 0;
        self.notes.clear();
        events.sort_by_key(|e| (e.clock, e.core));
        let trace = Trace {
            threads: self.threads,
            scheme: std::mem::take(&mut self.scheme),
            seed: self.seed,
            capacity: self.capacity,
            dropped: self.dropped,
            events,
        };
        self.dropped = 0;
        Some(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        t.step(CoreId::new(1), 5);
        t.begin(7);
        t.access(8, line(1), AccessOp::Store, false, false);
        t.conflict(
            CoreId::new(0),
            CoreId::new(1),
            line(1),
            AbortKind::ReadAfterWrite,
            false,
            false,
        );
        t.abort(CoreId::new(1), AbortKind::ReadAfterWrite);
        t.commit();
        assert!(t.take().is_none());
    }

    #[test]
    fn events_sort_into_commit_order_and_notes_attribute_aborts() {
        let mut t = Tracer::default();
        t.start(2, "commtm", 42);
        // Core 1 steps first at clock 10, then core 0 at clock 3: the
        // export must reorder by (clock, core).
        t.step(CoreId::new(1), 10);
        t.begin(2);
        // Core 1's request conflicts with core 0's state; arbitration
        // NACKs, so core 1 (the attacker) self-aborts.
        t.conflict(
            CoreId::new(1),
            CoreId::new(0),
            line(9),
            AbortKind::WriteAfterRead,
            false,
            true,
        );
        t.abort(CoreId::new(1), AbortKind::WriteAfterRead);
        t.step(CoreId::new(0), 3);
        t.begin(1);
        t.commit();
        let trace = t.take().expect("trace captured");
        assert_eq!(trace.scheme, "commtm");
        assert_eq!(trace.dropped, 0);
        let keys: Vec<(u64, usize)> = trace.events.iter().map(|e| (e.clock, e.core)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "export is (clock, core)-ordered");
        let abort = trace
            .events
            .iter()
            .find_map(|e| match &e.kind {
                TraceEventKind::Abort { attacker, line, .. } => Some((*attacker, *line)),
                _ => None,
            })
            .expect("abort recorded");
        assert_eq!(abort, (Some(0), Some(9)), "NACK attributes the defender");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Tracer {
            capacity: 4,
            ..Tracer::default()
        };
        t.start(1, "baseline", 0);
        assert_eq!(t.capacity, 4, "explicit capacity survives start");
        for i in 0..6 {
            t.step(CoreId::new(0), i);
            t.commit();
        }
        let trace = t.take().unwrap();
        assert_eq!(trace.dropped, 2);
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.events[0].clock, 2, "oldest two events dropped");
        assert_eq!(trace.events[3].clock, 5);
    }

    #[test]
    fn notes_keep_first_cause() {
        let mut t = Tracer::default();
        t.start(2, "commtm", 0);
        t.step(CoreId::new(0), 1);
        t.note_abort(CoreId::new(1), Some(CoreId::new(0)), line(5));
        t.note_abort(CoreId::new(1), None, line(99));
        t.abort(CoreId::new(1), AbortKind::Eviction);
        let trace = t.take().unwrap();
        match &trace.events.last().unwrap().kind {
            TraceEventKind::Abort { attacker, line, .. } => {
                assert_eq!((*attacker, *line), (Some(0), Some(5)));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }
}
