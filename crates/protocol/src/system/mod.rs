//! The functional MESI+U protocol engine.

mod dirflow;
mod evict;
mod handler;
mod invariants;

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use commtm_cache::{CacheArray, CohState, EvictionClass, Held, L1Meta, PrivMeta, Slot, SpecBits};
use commtm_mem::{Addr, CoreId, LabelId, LineAddr, LineData, MainMemory};

use crate::config::ProtoConfig;
use crate::dir::{DirState, L3Meta};
use crate::label::LabelTable;
use crate::stats::{ProbeCounts, ProtoStats};
use crate::trace::Tracer;
use crate::types::{AbortKind, AccessOutcome, MemOp, ProtoEvent};

/// One core's private cache pair.
#[derive(Debug)]
pub(crate) struct PrivCache {
    /// Speculative data and footprint bits live here (Fig. 5).
    pub l1: CacheArray<L1Meta>,
    /// The core's authoritative coherence state and non-speculative data.
    pub l2: CacheArray<PrivMeta>,
    /// Lines touched speculatively by the running transaction.
    pub spec_lines: Vec<LineAddr>,
}

/// Mutable bookkeeping for one in-flight access.
#[derive(Debug)]
pub(crate) struct Acc {
    /// The core that issued the access.
    pub requester: CoreId,
    pub latency: u64,
    pub self_abort: Option<AbortKind>,
    /// First cause of an abort of the requester's own transaction through
    /// the victim path (an eviction or handler collision); it becomes the
    /// self-abort cause if no direct one was recorded.
    pub own_abort: Option<AbortKind>,
}

impl Acc {
    pub fn lat(&mut self, cycles: u64) {
        self.latency += cycles;
    }

    /// Records a requester-side abort, keeping the first cause.
    pub fn abort_self(&mut self, kind: AbortKind) {
        self.self_abort.get_or_insert(kind);
    }
}

/// One core's private copies of one line, as a flow reaches them: each
/// array is probed on first use, and its slot is reused while that array's
/// structure epoch is unchanged. A flow thus probes each array once,
/// unless a nested flow (an eviction, a recall, a reduction handler or a
/// splitter) filled or removed lines in it; then the next use probes again.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Copies {
    pub core: CoreId,
    pub line: LineAddr,
    pub l1: Held,
    pub l2: Held,
}

impl Copies {
    /// `core`'s copies of `line`, not probed yet.
    pub fn new(core: CoreId, line: LineAddr) -> Self {
        Copies {
            core,
            line,
            l1: Held::UNPROBED,
            l2: Held::UNPROBED,
        }
    }
}

/// The three-level coherent memory system with the CommTM protocol.
///
/// See the crate docs for the model; the main entry point is
/// [`MemSystem::access`].
pub struct MemSystem {
    pub(crate) cfg: ProtoConfig,
    pub(crate) labels: LabelTable,
    pub(crate) mem: MainMemory,
    pub(crate) l3: Vec<CacheArray<L3Meta>>,
    pub(crate) privs: Vec<PrivCache>,
    pub(crate) stats: ProtoStats,
    pub(crate) rng: StdRng,
    /// Per-core transaction timestamp, `Some` while the core is inside a
    /// transaction. Changed only by `tx_begin`/`tx_commit`/`tx_abort`.
    txs: Vec<Option<u64>>,
    /// Victim aborts queued until the driver takes them, oldest first; the
    /// buffer is reused, so the steady-state access loop never allocates.
    events: VecDeque<ProtoEvent>,
    /// Structured per-transaction tracing (see [`crate::trace`]); off by
    /// default — every hook is a single-branch no-op then.
    pub(crate) tracer: Tracer,
}

impl std::fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("cores", &self.cfg.cores)
            .field("labels", &self.labels.len())
            .finish_non_exhaustive()
    }
}

impl MemSystem {
    /// Builds a memory system for the given configuration and label table.
    pub fn new(cfg: ProtoConfig, labels: LabelTable) -> Self {
        let privs = (0..cfg.cores)
            .map(|_| PrivCache {
                l1: CacheArray::new(cfg.l1),
                l2: CacheArray::new(cfg.l2),
                spec_lines: Vec::new(),
            })
            .collect();
        let l3 = (0..cfg.l3_banks)
            .map(|_| CacheArray::new(cfg.l3_bank))
            .collect();
        let stats = ProtoStats::new(cfg.cores);
        let rng = StdRng::seed_from_u64(cfg.seed);
        let txs = vec![None; cfg.cores];
        MemSystem {
            cfg,
            labels,
            mem: MainMemory::new(),
            l3,
            privs,
            stats,
            rng,
            txs,
            events: VecDeque::new(),
            tracer: Tracer::default(),
        }
    }

    /// The structured tracer (see [`crate::trace`]): the HTM engine emits
    /// access and abort events through it, the machine driver
    /// starts/stops capture and takes the finished [`crate::trace::Trace`].
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Read-only view of the structured tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &ProtoConfig {
        &self.cfg
    }

    /// The registered labels.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &ProtoStats {
        &self.stats
    }

    /// Cache probes made so far, per level (see [`ProbeCounts`]).
    pub fn probe_counts(&self) -> ProbeCounts {
        ProbeCounts {
            l1: self.privs.iter().map(|p| p.l1.probes()).sum(),
            l2: self.privs.iter().map(|p| p.l2.probes()).sum(),
            l3: self.l3.iter().map(|b| b.probes()).sum(),
        }
    }

    /// Performs one memory operation for `core`, computing its full
    /// protocol effect and latency.
    ///
    /// Conflicts are detected eagerly against the other cores' open
    /// transactions. An aborted victim's transaction is rolled back and
    /// ended, and a [`ProtoEvent::Aborted`] for it is queued for
    /// [`MemSystem::next_event`]. If the *requester* must abort (NACK,
    /// self-demotion, footprint eviction), its transaction is rolled back
    /// and ended and [`AccessOutcome::self_abort`] is set.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned, or on API misuse (gather on a
    /// label with no splitter).
    pub fn access(&mut self, core: CoreId, op: MemOp, addr: Addr) -> AccessOutcome {
        let mut acc = Acc {
            requester: core,
            latency: 0,
            self_abort: None,
            own_abort: None,
        };
        let value = self.do_op(core, op, addr, &mut acc, false);
        let self_abort = acc.self_abort.or(acc.own_abort);
        if self_abort.is_some() {
            self.tx_abort(core);
        }
        AccessOutcome {
            value,
            latency: acc.latency,
            self_abort,
        }
    }

    /// Takes the oldest victim abort queued by accesses, if any. The driver
    /// delivers each to the victim's engine; the protocol side of the abort
    /// is already done.
    pub fn next_event(&mut self) -> Option<ProtoEvent> {
        self.events.pop_front()
    }

    /// Opens a transaction on `core` with arbitration timestamp `ts` (the
    /// earlier timestamp wins a conflict) and traces its begin.
    pub fn tx_begin(&mut self, core: CoreId, ts: u64) {
        self.txs[core.index()] = Some(ts);
        self.tracer.begin(ts);
    }

    /// Commits `core`'s transaction: traces the commit, makes its
    /// speculative L1 data non-speculative (Fig. 5 step 2) and ends it.
    pub fn tx_commit(&mut self, core: CoreId) {
        self.tracer.commit();
        let p = &mut self.privs[core.index()];
        // Drain in place: `spec_lines` keeps its capacity for the next
        // transaction instead of reallocating every commit.
        for line in p.spec_lines.drain(..) {
            if let Some(e) = p.l1.get(line) {
                if e.meta.spec.dirty_data {
                    e.meta.dirty = true;
                }
                e.meta.spec.clear();
            }
        }
        self.txs[core.index()] = None;
    }

    /// Aborts `core`'s transaction: speculatively-written L1 lines are
    /// restored from the non-speculative L2 copies, footprint bits are
    /// cleared, and the transaction ends. Idempotent. The abort's trace
    /// event is the engine's, stamped when the abort is delivered.
    pub fn tx_abort(&mut self, core: CoreId) {
        let PrivCache { l1, l2, spec_lines } = &mut self.privs[core.index()];
        for line in spec_lines.drain(..) {
            if let Some(e) = l1.get(line) {
                if e.meta.spec.dirty_data {
                    e.data = l2
                        .peek(line)
                        .expect("inclusion: spec L1 line must be in L2")
                        .data;
                    e.meta.dirty = false;
                }
                e.meta.spec.clear();
            }
        }
        self.txs[core.index()] = None;
    }

    /// Whether `core` is inside a transaction.
    pub fn in_tx(&self, core: CoreId) -> bool {
        self.txs[core.index()].is_some()
    }

    /// The timestamp of `core`'s open transaction, if any.
    pub(crate) fn tx_ts(&self, core: CoreId) -> Option<u64> {
        self.txs[core.index()]
    }

    /// The logical word-0 value of a line, independent of where its bits
    /// live: the L3/memory copy for uncached and shared lines, the owner's
    /// non-speculative copy for exclusive lines, and the *sum* of the
    /// sharers' non-speculative partials for ADD-reducible lines. A
    /// conservation probe for tests and diagnostics — speculative state
    /// never contributes, so the value only moves on commits.
    pub fn logical_w0(&self, line: LineAddr) -> u64 {
        let bank = self.bank_of(line);
        let Some(e) = self.l3[bank].peek(line) else {
            return self.mem.read_line(line)[0];
        };
        match e.meta.dir {
            DirState::Uncached | DirState::Shared(_) => e.data[0],
            DirState::Exclusive(o) => self.priv_nonspec(&mut Copies::new(o, line))[0],
            DirState::Reducible(_, s) => s
                .iter()
                .map(|t| self.priv_nonspec(&mut Copies::new(t, line))[0])
                .sum(),
        }
    }

    /// Writes a word directly to main memory, bypassing the hierarchy.
    /// Intended for pre-run data layout.
    ///
    /// # Panics
    ///
    /// Panics if the line is cached anywhere (setup must precede traffic).
    pub fn poke_word(&mut self, addr: Addr, value: u64) {
        let line = addr.line();
        let bank = self.bank_of(line);
        assert!(
            !self.l3[bank].contains(line),
            "poke_word on a cached line {line}; initialize data before running"
        );
        self.mem.write_word(addr, value);
    }

    /// Reads a word directly from main memory, bypassing the hierarchy.
    ///
    /// This sees only the memory copy; use a coherent [`MemSystem::access`]
    /// (which triggers reductions) to observe the logical value of lines
    /// that may be cached or reducible.
    pub fn peek_word_raw(&self, addr: Addr) -> u64 {
        self.mem.read_word(addr)
    }

    pub(crate) fn bank_of(&self, line: LineAddr) -> usize {
        self.cfg.mesh.bank_of(line, self.cfg.l3_banks)
    }

    /// The slot of `c`'s L1 copy (see [`Copies`]).
    #[inline]
    pub(crate) fn l1_slot(&self, c: &mut Copies) -> Option<Slot> {
        self.privs[c.core.index()].l1.reach(&mut c.l1, c.line)
    }

    /// The slot of `c`'s L2 copy (see [`Copies`]).
    #[inline]
    pub(crate) fn l2_slot(&self, c: &mut Copies) -> Option<Slot> {
        self.privs[c.core.index()].l2.reach(&mut c.l2, c.line)
    }

    /// The speculative footprint bits of `c`'s L1 copy, if it has one.
    #[inline]
    pub(crate) fn spec_bits(&self, c: &mut Copies) -> Option<SpecBits> {
        let slot = self.l1_slot(c)?;
        Some(self.privs[c.core.index()].l1.entry(slot).meta.spec)
    }

    /// The core's current (possibly speculative) copy of a line.
    pub(crate) fn priv_current(&self, c: &mut Copies) -> LineData {
        let p = &self.privs[c.core.index()];
        match self.l1_slot(c) {
            Some(s) => p.l1.entry(s).data,
            None => {
                let s = self.l2_slot(c).expect("line not present in private cache");
                p.l2.entry(s).data
            }
        }
    }

    /// The core's non-speculative value of a line (L2 if the L1 copy is
    /// speculatively dirty, else the freshest copy).
    pub(crate) fn priv_nonspec(&self, c: &mut Copies) -> LineData {
        let p = &self.privs[c.core.index()];
        if let Some(s) = self.l1_slot(c) {
            let e = p.l1.entry(s);
            if !e.meta.spec.dirty_data {
                return e.data;
            }
        }
        let s = self.l2_slot(c).expect("line not present in private cache");
        p.l2.entry(s).data
    }

    /// The core's authoritative coherence state and label for a line
    /// (`I` if not resident). Public for tests and diagnostics.
    pub fn line_state(&self, core: CoreId, line: LineAddr) -> (CohState, Option<LabelId>) {
        self.priv_state(&mut Copies::new(core, line))
    }

    /// The core's authoritative coherence state for a line.
    #[inline]
    pub(crate) fn priv_state(&self, c: &mut Copies) -> (CohState, Option<LabelId>) {
        match self.l2_slot(c) {
            Some(s) => {
                let m = &self.privs[c.core.index()].l2.entry(s).meta;
                (m.state, m.label)
            }
            None => (CohState::I, None),
        }
    }

    /// Central operation dispatch: fast local path, else directory flow
    /// followed by the local completion.
    pub(crate) fn do_op(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        assert!(addr.is_word_aligned(), "unaligned access at {addr:?}");
        self.op_at(&mut Copies::new(core, addr.line()), op, addr, acc, handler)
    }

    /// [`MemSystem::do_op`] on the requester's copies of `addr`'s line:
    /// the L2 probe yields the authoritative state; on a miss, the held
    /// probes feed the directory flow and the local completion, probed
    /// again only where a nested flow restructured an array.
    fn op_at(
        &mut self,
        c: &mut Copies,
        op: MemOp,
        addr: Addr,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        if let MemOp::Gather(label) = op {
            return self.do_gather(c, label, addr, acc, handler);
        }
        // The fast path probes each private array once and holds nothing:
        // only a directory flow keeps the L2 probe, in `c`, for the install.
        let (core, line) = (c.core, c.line);
        let p = &self.privs[core.index()];
        let l2_slot = p.l2.lookup(line);
        let (state, lbl) = match l2_slot {
            Some(s) => {
                let m = &p.l2.entry(s).meta;
                (m.state, m.label)
            }
            None => (CohState::I, None),
        };
        let sufficient = match op {
            MemOp::Load => state.can_plain_read(),
            MemOp::Store(_) => state.can_plain_write(),
            MemOp::LoadL(l) | MemOp::StoreL(l, _) => {
                state == CohState::M
                    || state == CohState::E
                    || (state == CohState::U && lbl == Some(l))
            }
            MemOp::Gather(_) => unreachable!(),
        };

        if handler && (state == CohState::U) {
            panic!(
                "reduction handler accessed reducible data at {addr:?}: handlers must not \
                 trigger reductions (paper Sec. III-B4)"
            );
        }

        if sufficient {
            let l1_slot = p.l1.lookup(line);
            let cs = self.stats.core_mut(core);
            if l1_slot.is_some() {
                cs.l1_hits += 1;
            } else {
                cs.l1_misses += 1;
                cs.l2_hits += 1;
                acc.lat(self.cfg.l2_latency);
            }
            let l2_slot = l2_slot.expect("sufficient permission implies an L2 entry");
            return self.local_op_at(core, op, addr, l1_slot, l2_slot, acc, handler);
        }
        c.l2 = p.l2.hold(l2_slot);

        let cs = self.stats.core_mut(core);
        cs.l1_misses += 1;
        cs.l2_misses += 1;

        match op {
            MemOp::Load => self.dir_gets(c, acc, handler),
            MemOp::Store(_) => self.dir_getx(c, acc, handler),
            MemOp::LoadL(l) | MemOp::StoreL(l, _) => self.dir_getu(c, l, acc, handler),
            MemOp::Gather(_) => unreachable!(),
        }

        // A pending requester abort (NACK) voids the *transactional* access
        // — but never handler operations: reduction handlers and splitters
        // run non-speculatively on the shadow thread, and their effects are
        // committed state even when the triggering transaction aborts
        // (Fig. 6b keeps partially-reduced data, so the merges that built
        // it must have fully executed).
        if acc.self_abort.is_some() && !handler {
            return 0;
        }
        self.local_op(c, op, addr, acc, handler)
    }

    /// Gather: ensure U permission, then run the gather flow (Sec. IV).
    fn do_gather(
        &mut self,
        c: &mut Copies,
        label: LabelId,
        addr: Addr,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        assert!(
            !handler,
            "reduction handlers must not issue gather requests"
        );
        let core = c.core;
        let (state, lbl) = self.priv_state(c);
        if !(state == CohState::U && lbl == Some(label)) {
            // Acquire reducible permission first; this may resolve to M/E
            // (e.g. we were the exclusive owner), in which case the local
            // value is already the full value and no gather is needed.
            let v = self.op_at(c, MemOp::LoadL(label), addr, acc, handler);
            if acc.self_abort.is_some() {
                return 0;
            }
            let (state, lbl) = self.priv_state(c);
            if !(state == CohState::U && lbl == Some(label)) {
                return v;
            }
        } else {
            self.stats.core_mut(core).l1_misses += 1;
            self.stats.core_mut(core).l2_misses += 1;
        }
        self.gather_flow(c, label, acc);
        if acc.self_abort.is_some() {
            return 0;
        }
        self.local_op(c, MemOp::LoadL(label), addr, acc, handler)
    }

    /// Completes an operation against the (now sufficient) private copy,
    /// arriving from a directory flow: the slots the flow left in `c`
    /// (usually those [`MemSystem::install_private`] filled) are reused
    /// unless a nested flow restructured the arrays since.
    pub(crate) fn local_op(
        &mut self,
        c: &mut Copies,
        op: MemOp,
        addr: Addr,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        let l1_slot = self.l1_slot(c);
        let l2_slot = self.l2_slot(c).expect("local_op without L2 entry");
        self.local_op_at(c.core, op, addr, l1_slot, l2_slot, acc, handler)
    }

    /// Completes an operation against located private copies: fills the L1
    /// if needed, maintains speculative footprint bits and the Fig. 5
    /// value-management discipline, and performs the word access.
    ///
    /// `l1_slot`/`l2_slot` are the probe results for `addr`'s line; no set
    /// is rescanned past this point, the L1 entry is reached once (after
    /// its fill, if it had to be filled) and the L2 entry at most once
    /// more. Slot validity: the only structural change below is the L1
    /// fill itself (whose eviction path never removes or fills
    /// private-array entries, it only rolls back footprint bits), so both
    /// handles stay live for the whole operation.
    #[allow(clippy::too_many_arguments)] // both probe slots, so the fast path never rescans a set
    fn local_op_at(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        l1_slot: Option<Slot>,
        l2_slot: Slot,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        let line = addr.line();
        let widx = addr.word_index();

        // Ensure an L1 copy exists (from the L2's data).
        let l1_slot = match l1_slot {
            Some(s) => s,
            None => {
                let p = &mut self.privs[core.index()];
                let l2e = p.l2.entry(l2_slot);
                let data = l2e.data;
                let is_u = l2e.meta.state == CohState::U;
                let class = if handler {
                    EvictionClass::Handler
                } else if is_u {
                    EvictionClass::Reducible
                } else {
                    EvictionClass::NonReducible
                };
                let out = p.l1.fill(line, data, L1Meta::default(), class);
                let slot = out.slot;
                if let Some(v) = out.victim {
                    self.l1_evict(core, v, acc);
                }
                slot
            }
        };

        let in_tx = self.in_tx(core) && !handler;
        let store = op.is_store();
        // E -> M upgrade on stores happens silently at the core. Labeled
        // stores upgrade too: a StoreL on an E copy (a plain read brought
        // the line in exclusively, then a labeled RMW hit it — e.g. an
        // audit pass followed by a transfer) dirties the full value just
        // like a plain store, and leaving the line "E" would let the
        // read-share downgrade and eviction flows treat it as clean and
        // silently discard the committed update.
        //
        // The `mutate-estate-bug` feature reintroduces the pre-fix
        // condition (plain stores only) so the verification harness can
        // prove its interleaving oracle catches the defect.
        #[cfg(not(feature = "mutate-estate-bug"))]
        let upgrades_e = store;
        #[cfg(feature = "mutate-estate-bug")]
        let upgrades_e = matches!(op, MemOp::Store(_));

        let PrivCache { l1, l2, spec_lines } = &mut self.privs[core.index()];
        let e = l1.touch_mut(l1_slot);
        // Fig. 5 step 3: before the first speculative write to a line,
        // the current non-speculative value goes to the L2.
        let mut preserved = None;
        if in_tx {
            // Footprint tracking. Spec bits are cleared only when
            // `spec_lines` is drained (commit/rollback), so no-bits-set
            // implies not-tracked.
            if !e.meta.spec.any() {
                debug_assert!(
                    !spec_lines.contains(&line),
                    "{line} in spec_lines but its footprint bits are clear"
                );
                spec_lines.push(line);
            }
            if store && !e.meta.spec.dirty_data && e.meta.dirty {
                preserved = Some(e.data);
                e.meta.dirty = false;
            }
            match op {
                MemOp::Load => e.meta.spec.read = true,
                MemOp::Store(_) => e.meta.spec.written = true,
                MemOp::LoadL(l) | MemOp::StoreL(l, _) | MemOp::Gather(l) => {
                    e.meta.spec.labeled = true;
                    e.meta.spec.label.get_or_insert(l);
                }
            }
        }
        let value = match op {
            MemOp::Load | MemOp::LoadL(_) | MemOp::Gather(_) => e.data[widx],
            MemOp::Store(v) | MemOp::StoreL(_, v) => {
                e.data[widx] = v;
                if in_tx {
                    e.meta.spec.dirty_data = true;
                } else {
                    e.meta.dirty = true;
                }
                v
            }
        };

        if upgrades_e || preserved.is_some() {
            let l2e = l2.touch_mut(l2_slot);
            if let Some(data) = preserved {
                l2e.data = data;
                l2e.meta.dirty = true;
            }
            if upgrades_e && l2e.meta.state == CohState::E {
                l2e.meta.state = CohState::M;
            }
        }
        value
    }

    /// The eviction class of a fill into a core's private arrays.
    fn fill_class(meta: &PrivMeta, handler: bool) -> EvictionClass {
        if handler {
            EvictionClass::Handler
        } else if meta.state == CohState::U {
            EvictionClass::Reducible
        } else {
            EvictionClass::NonReducible
        }
    }

    /// Installs (or updates) a line in the core's private caches with the
    /// given data and authoritative state. Evictions this causes are fully
    /// processed. `c` keeps the slots of both copies for the local
    /// completion.
    pub(crate) fn install_private(
        &mut self,
        c: &mut Copies,
        data: LineData,
        meta: PrivMeta,
        acc: &mut Acc,
        handler: bool,
    ) {
        let (core, line) = (c.core, c.line);
        let class = Self::fill_class(&meta, handler);
        let to_u = meta.state == CohState::U;

        // L2 (authoritative) entry. An upgrade into U of a line sitting in
        // the reserved way must relocate it (way 0 never holds U data).
        let l2_slot = self.l2_slot(c);
        let p = &mut self.privs[core.index()];
        match l2_slot {
            Some(s) if !(to_u && self.cfg.l2.ways() > 1 && p.l2.way_of_slot(s) == 0) => {
                let e = p.l2.touch_mut(s);
                e.meta = meta;
                e.data = data;
            }
            held => {
                if let Some(s) = held {
                    p.l2.discard_slot(s);
                }
                let out = p.l2.fill(line, data, meta, class);
                c.l2 = p.l2.hold(Some(out.slot));
                if let Some(v) = out.victim {
                    self.l2_evict(core, v, acc);
                }
            }
        }

        // L1 mirror (same reserved-way relocation, preserving footprint
        // bits). Reached after the L2 step, whose eviction flow may have
        // restructured the L1.
        let l1_slot = self.l1_slot(c);
        let p = &mut self.privs[core.index()];
        match l1_slot {
            Some(s) if !(to_u && self.cfg.l1.ways() > 1 && p.l1.way_of_slot(s) == 0) => {
                let e = p.l1.touch_mut(s);
                e.data = data;
                e.meta.dirty = false;
            }
            held => {
                let meta = match held {
                    Some(s) => {
                        let meta = p.l1.entry(s).meta;
                        p.l1.discard_slot(s);
                        meta
                    }
                    None => L1Meta::default(),
                };
                let out = p.l1.fill(line, data, meta, class);
                c.l1 = p.l1.hold(Some(out.slot));
                if let Some(v) = out.victim {
                    self.l1_evict(core, v, acc);
                }
            }
        }
    }

    /// Rewrites a resident line's authoritative metadata, relocating it out
    /// of the reserved way when it becomes U (data and L1 footprint bits
    /// are preserved). Used for in-place state changes: owner downgrades
    /// (GETU case 5) and post-reduction relabeling (case 3).
    pub(crate) fn set_priv_meta(&mut self, c: &mut Copies, meta: PrivMeta, acc: &mut Acc) {
        let (core, line) = (c.core, c.line);
        let to_u = meta.state == CohState::U;
        let l2_slot = self.l2_slot(c);
        let p = &mut self.privs[core.index()];
        match l2_slot {
            Some(s) if to_u && self.cfg.l2.ways() > 1 && p.l2.way_of_slot(s) == 0 => {
                let data = p.l2.remove_slot(s).data;
                let out = p.l2.fill(line, data, meta, EvictionClass::Reducible);
                c.l2 = p.l2.hold(Some(out.slot));
                if let Some(v) = out.victim {
                    self.l2_evict(core, v, acc);
                }
            }
            Some(s) => p.l2.touch_mut(s).meta = meta,
            None => panic!("set_priv_meta on missing L2 line"),
        }

        // Reached after the L2 relocation, which may have run an eviction
        // flow.
        if to_u && self.cfg.l1.ways() > 1 {
            if let Some(s) = self.l1_slot(c) {
                let p = &mut self.privs[core.index()];
                if p.l1.way_of_slot(s) == 0 {
                    let e = p.l1.remove_slot(s);
                    let out = p.l1.fill(line, e.data, e.meta, EvictionClass::Reducible);
                    c.l1 = p.l1.hold(Some(out.slot));
                    if let Some(v) = out.victim {
                        self.l1_evict(core, v, acc);
                    }
                }
            }
        }
    }

    /// Updates a line's non-speculative value at a core in place (gather
    /// donations, reduction keep-backs): both the L2 copy and, if the L1
    /// copy is not speculatively dirty, the L1 copy.
    pub(crate) fn set_nonspec_value(&mut self, c: &mut Copies, data: LineData) {
        let l2_slot = self.l2_slot(c).expect("set_nonspec_value without L2 entry");
        let l1_slot = self.l1_slot(c);
        let p = &mut self.privs[c.core.index()];
        let l2e = p.l2.touch_mut(l2_slot);
        l2e.data = data;
        l2e.meta.dirty = true;
        if let Some(s) = l1_slot {
            let e = p.l1.touch_mut(s);
            if !e.meta.spec.dirty_data {
                e.data = data;
                e.meta.dirty = false;
            }
        }
    }

    /// Removes a line from a core's private caches (invalidation).
    pub(crate) fn invalidate_private(&mut self, c: &mut Copies) {
        let l1_slot = self.l1_slot(c);
        let l2_slot = self.l2_slot(c);
        let p = &mut self.privs[c.core.index()];
        if let Some(s) = l1_slot {
            p.l1.discard_slot(s);
            c.l1 = p.l1.hold(None);
        }
        if let Some(s) = l2_slot {
            p.l2.discard_slot(s);
            c.l2 = p.l2.hold(None);
        }
        self.stats.core_mut(c.core).invalidations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line slots allocated across every private array and L3 bank.
    fn slots(sys: &MemSystem) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        (
            sys.privs.iter().map(|p| p.l1.allocated_slots()).collect(),
            sys.privs.iter().map(|p| p.l2.allocated_slots()).collect(),
            sys.l3.iter().map(|b| b.allocated_slots()).collect(),
        )
    }

    /// Lines pooled across every private array and L3 bank.
    fn pooled(sys: &MemSystem) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        (
            sys.privs.iter().map(|p| p.l1.pooled_lines()).collect(),
            sys.privs.iter().map(|p| p.l2.pooled_lines()).collect(),
            sys.l3.iter().map(|b| b.pooled_lines()).collect(),
        )
    }

    /// Building the paper's Table I machine allocates no line storage, and
    /// one load allocates exactly one block (one set's slots) and pools
    /// exactly one line in each array it fills.
    #[test]
    fn paper_machine_allocates_line_storage_on_first_fill() {
        let cfg = ProtoConfig::paper();
        let mut sys = MemSystem::new(cfg.clone(), LabelTable::new());
        let (l1, l2, l3) = slots(&sys);
        assert_eq!(l3.len(), 16);
        assert!(l1.iter().chain(&l2).chain(&l3).all(|&n| n == 0));
        let (l1, l2, l3) = pooled(&sys);
        assert!(l1.iter().chain(&l2).chain(&l3).all(|&n| n == 0));

        let core = CoreId::new(3);
        sys.access(core, MemOp::Load, Addr::new(0x4000));
        let (l1, l2, l3) = slots(&sys);
        // One block (one set's ways) in this core's L1 and L2 only.
        let only_core = |ways: usize| -> Vec<usize> {
            (0..cfg.cores)
                .map(|c| if c == core.index() { ways } else { 0 })
                .collect()
        };
        assert_eq!(l1, only_core(cfg.l1.ways()));
        assert_eq!(l2, only_core(cfg.l2.ways()));
        // And one block in the line's home bank.
        let l3_filled: Vec<usize> = l3.iter().copied().filter(|&n| n > 0).collect();
        assert_eq!(l3_filled, [cfg.l3_bank.ways()]);
        // One pooled line in each of the same arrays.
        let home = l3.iter().position(|&n| n > 0).unwrap();
        let (l1, l2, l3) = pooled(&sys);
        assert_eq!(l1, only_core(1));
        assert_eq!(l2, only_core(1));
        let mut home_only = vec![0; l3.len()];
        home_only[home] = 1;
        assert_eq!(l3, home_only);
    }
}
