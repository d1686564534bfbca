//! The functional MESI+U protocol engine.

mod dirflow;
mod evict;
mod handler;
mod invariants;

use rand::rngs::StdRng;
use rand::SeedableRng;

use commtm_cache::{CacheArray, CohState, EvictionClass, L1Meta, PrivMeta, Slot};
use commtm_mem::{Addr, CoreId, LabelId, LineAddr, LineData, MainMemory};

use crate::config::ProtoConfig;
use crate::dir::{DirState, L3Meta};
use crate::label::LabelTable;
use crate::stats::ProtoStats;
use crate::trace::Tracer;
use crate::types::{AbortKind, Access, AccessOutcome, MemOp, ProtoEvent, TxTable};

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
#[derive(Debug, Default)]
pub(crate) struct Acc {
    pub latency: u64,
    pub events: Vec<ProtoEvent>,
    pub self_abort: Option<AbortKind>,
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
    /// Event buffer recycled across accesses ([`MemSystem::access_into`]);
    /// kept here so the steady-state access loop never allocates.
    events_scratch: Vec<ProtoEvent>,
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
        let mut tracer = Tracer::default();
        // Deprecated fallback: `COMMTM_TRACE` maps onto the structured
        // trace config's stderr-debug mode (use `Tuning::trace` / `--trace`
        // for structured capture instead).
        tracer.set_debug(std::env::var_os("COMMTM_TRACE").is_some());
        MemSystem {
            cfg,
            labels,
            mem: MainMemory::new(),
            l3,
            privs,
            stats,
            rng,
            events_scratch: Vec::new(),
            tracer,
        }
    }

    /// The structured tracer (see [`crate::trace`]): the HTM engine emits
    /// begin/access/abort/commit events through it, the machine driver
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

    /// Performs one memory operation for `core`, computing its full
    /// protocol effect and latency.
    ///
    /// `txs` supplies per-core transaction timestamps for eager conflict
    /// detection; the entry for an aborted victim is deactivated in place
    /// and an [`ProtoEvent::Aborted`] is reported. If the *requester* must
    /// abort (NACK, self-demotion, footprint eviction), its speculative
    /// state is rolled back and [`Access::self_abort`] is set.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned, or on API misuse (gather on a
    /// label with no splitter).
    pub fn access(&mut self, core: CoreId, op: MemOp, addr: Addr, txs: &mut TxTable) -> Access {
        let mut events = Vec::new();
        let out = self.access_into(core, op, addr, txs, &mut events);
        Access {
            value: out.value,
            latency: out.latency,
            self_abort: out.self_abort,
            events,
        }
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
            DirState::Exclusive(o) => self.priv_nonspec(o, line)[0],
            DirState::Reducible(_, s) => s.iter().map(|t| self.priv_nonspec(t, line)[0]).sum(),
        }
    }

    /// Like [`MemSystem::access`], but appends the access's events to a
    /// caller-supplied buffer instead of returning a fresh `Vec`. The
    /// simulation loop threads one reusable buffer through every core step
    /// (`Machine::run` → `CoreExec::step` → here), so the steady-state
    /// access path performs no heap allocation.
    pub fn access_into(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        txs: &mut TxTable,
        events_out: &mut Vec<ProtoEvent>,
    ) -> AccessOutcome {
        let mut acc = Acc {
            latency: 0,
            events: std::mem::take(&mut self.events_scratch),
            self_abort: None,
        };
        debug_assert!(acc.events.is_empty(), "events scratch leaked entries");
        let value = self.do_op(core, op, addr, txs, &mut acc, false);
        // An eviction (or handler collision) may have aborted the
        // requester's own transaction through the event path; promote it to
        // a self-abort so the caller restarts the transaction, and drop the
        // redundant event.
        if acc.self_abort.is_none() {
            let own = acc.events.iter().find_map(|e| match e {
                ProtoEvent::Aborted { core: c, cause } if *c == core => Some(*cause),
                _ => None,
            });
            if let Some(cause) = own {
                acc.self_abort = Some(cause);
            }
        }
        events_out.extend(
            acc.events
                .drain(..)
                .filter(|e| !matches!(e, ProtoEvent::Aborted { core: c, .. } if *c == core)),
        );
        self.events_scratch = acc.events;
        if acc.self_abort.is_some() {
            self.rollback_core(core);
            txs.end(core);
        }
        AccessOutcome {
            value,
            latency: acc.latency,
            self_abort: acc.self_abort,
        }
    }

    /// Commits `core`'s transaction: its speculative L1 data becomes
    /// non-speculative (Fig. 5 step 2). The caller clears the [`TxTable`].
    pub fn commit_core(&mut self, core: CoreId) {
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
    }

    /// Rolls back `core`'s transaction: speculatively-written L1 lines are
    /// restored from the non-speculative L2 copies and footprint bits are
    /// cleared. Idempotent.
    pub fn rollback_core(&mut self, core: CoreId) {
        let dbg = self.tracer.is_debug();
        let p = &mut self.privs[core.index()];
        for line in p.spec_lines.drain(..) {
            let l2_data = p.l2.peek(line).map(|e| e.data);
            if let Some(e) = p.l1.get(line) {
                if dbg {
                    eprintln!(
                        "    [proto] rollback {core:?} {line} l1_w0={:x} dirty_data={} l2_w0={:?}",
                        e.data[0],
                        e.meta.spec.dirty_data,
                        l2_data.map(|d| d[0])
                    );
                }
                if e.meta.spec.dirty_data {
                    e.data = l2_data.expect("inclusion: spec L1 line must be in L2");
                    e.meta.dirty = false;
                }
                e.meta.spec.clear();
            } else if dbg {
                eprintln!("    [proto] rollback {core:?} {line} (not in L1)");
            }
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

    /// Performs a non-speculative coherent load at `core` and returns the
    /// value, triggering reductions as needed. Used by verification code
    /// after a run.
    pub fn read_word_coherent(&mut self, core: CoreId, addr: Addr, txs: &mut TxTable) -> u64 {
        self.access(core, MemOp::Load, addr, txs).value
    }

    pub(crate) fn bank_of(&self, line: LineAddr) -> usize {
        self.cfg.mesh.bank_of(line, self.cfg.l3_banks)
    }

    /// The core's current (possibly speculative) copy of a line.
    pub(crate) fn priv_current(&self, core: CoreId, line: LineAddr) -> LineData {
        let p = &self.privs[core.index()];
        if let Some(e) = p.l1.peek(line) {
            e.data
        } else {
            p.l2.peek(line)
                .expect("line not present in private cache")
                .data
        }
    }

    /// The core's non-speculative value of a line (L2 if the L1 copy is
    /// speculatively dirty, else the freshest copy).
    pub(crate) fn priv_nonspec(&self, core: CoreId, line: LineAddr) -> LineData {
        let p = &self.privs[core.index()];
        match p.l1.peek(line) {
            Some(e) if !e.meta.spec.dirty_data => e.data,
            _ => {
                p.l2.peek(line)
                    .expect("line not present in private cache")
                    .data
            }
        }
    }

    /// Debug dump of a core's private copies of a line (state, L1/L2
    /// word 0, footprint bits). For tracing only.
    pub fn debug_priv(&self, core: CoreId, line: LineAddr) -> String {
        let p = &self.privs[core.index()];
        let l1 = p.l1.peek(line).map(|e| {
            format!(
                "L1[w0={:x} w1={:x} dirty={} spec={:?}]",
                e.data[0], e.data[1], e.meta.dirty, e.meta.spec
            )
        });
        let l2 = p.l2.peek(line).map(|e| {
            format!(
                "L2[{:?} w0={:x} w1={:x} dirty={}]",
                e.meta.state, e.data[0], e.data[1], e.meta.dirty
            )
        });
        format!("{:?} {:?}", l1, l2)
    }

    /// The core's authoritative coherence state and label for a line
    /// (`I` if not resident). Public for tests and diagnostics.
    pub fn line_state(&self, core: CoreId, line: LineAddr) -> (CohState, Option<LabelId>) {
        self.priv_state(core, line)
    }

    /// The core's authoritative coherence state for a line.
    pub(crate) fn priv_state(&self, core: CoreId, line: LineAddr) -> (CohState, Option<LabelId>) {
        match self.privs[core.index()].l2.peek(line) {
            Some(e) => (e.meta.state, e.meta.label),
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
        txs: &mut TxTable,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        assert!(addr.is_word_aligned(), "unaligned access at {addr:?}");
        let line = addr.line();

        if let MemOp::Gather(label) = op {
            return self.do_gather(core, label, addr, txs, acc, handler);
        }

        // Probe each private level once: the L2 lookup yields the
        // authoritative state, and both slot handles feed the local
        // completion directly so the fast path never rescans a set.
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
            return self.local_op_at(core, op, addr, l1_slot, l2_slot, txs, acc, handler);
        }

        let cs = self.stats.core_mut(core);
        cs.l1_misses += 1;
        cs.l2_misses += 1;

        match op {
            MemOp::Load => self.dir_gets(core, line, txs, acc, handler),
            MemOp::Store(_) => self.dir_getx(core, line, txs, acc, handler),
            MemOp::LoadL(l) | MemOp::StoreL(l, _) => {
                self.dir_getu(core, l, line, txs, acc, handler)
            }
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
        self.local_op(core, op, addr, txs, acc, handler)
    }

    /// Gather: ensure U permission, then run the gather flow (Sec. IV).
    fn do_gather(
        &mut self,
        core: CoreId,
        label: LabelId,
        addr: Addr,
        txs: &mut TxTable,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        assert!(
            !handler,
            "reduction handlers must not issue gather requests"
        );
        let line = addr.line();
        let (state, lbl) = self.priv_state(core, line);
        if !(state == CohState::U && lbl == Some(label)) {
            // Acquire reducible permission first; this may resolve to M/E
            // (e.g. we were the exclusive owner), in which case the local
            // value is already the full value and no gather is needed.
            let v = self.do_op(core, MemOp::LoadL(label), addr, txs, acc, handler);
            if acc.self_abort.is_some() {
                return 0;
            }
            let (state, lbl) = self.priv_state(core, line);
            if !(state == CohState::U && lbl == Some(label)) {
                return v;
            }
        } else {
            self.stats.core_mut(core).l1_misses += 1;
            self.stats.core_mut(core).l2_misses += 1;
        }
        self.gather_flow(core, label, line, txs, acc);
        if acc.self_abort.is_some() {
            return 0;
        }
        self.local_op(core, MemOp::LoadL(label), addr, txs, acc, handler)
    }

    /// Completes an operation against the (now sufficient) private copy.
    ///
    /// This is the re-probing wrapper for callers arriving from a directory
    /// flow (which may have restructured both private arrays); the fast
    /// path enters [`MemSystem::local_op_at`] directly with the slots it
    /// already holds.
    pub(crate) fn local_op(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        txs: &mut TxTable,
        acc: &mut Acc,
        handler: bool,
    ) -> u64 {
        let line = addr.line();
        let p = &self.privs[core.index()];
        let l1_slot = p.l1.lookup(line);
        let l2_slot = p.l2.lookup(line).expect("local_op without L2 entry");
        self.local_op_at(core, op, addr, l1_slot, l2_slot, txs, acc, handler)
    }

    /// Completes an operation against located private copies: fills the L1
    /// if needed, maintains speculative footprint bits and the Fig. 5
    /// value-management discipline, and performs the word access.
    ///
    /// `l1_slot`/`l2_slot` are the single probe results for `addr`'s line;
    /// no set is rescanned past this point. Slot validity: the only
    /// structural change below is the L1 fill itself (whose eviction path
    /// never removes or fills private-array entries, it only rolls back
    /// footprint bits), so both handles stay live for the whole operation.
    #[allow(clippy::too_many_arguments)]
    fn local_op_at(
        &mut self,
        core: CoreId,
        op: MemOp,
        addr: Addr,
        l1_slot: Option<Slot>,
        l2_slot: Slot,
        txs: &mut TxTable,
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
                    self.l1_evict_tx(core, v, txs, acc);
                }
                slot
            }
        };

        let in_tx = txs.entry(core).active && !handler;

        // Footprint tracking and non-speculative value preservation.
        if in_tx {
            let p = &mut self.privs[core.index()];
            let newly_tracked = !p.l1.entry(l1_slot).meta.spec.any();
            if newly_tracked {
                // Spec bits are cleared only when `spec_lines` is drained
                // (commit/rollback), so no-bits-set implies not-tracked.
                debug_assert!(
                    !p.spec_lines.contains(&line),
                    "{line} in spec_lines but its footprint bits are clear"
                );
                p.spec_lines.push(line);
            }
            if op.is_store() {
                self.preserve_nonspec(core, l1_slot, l2_slot);
            }
            let e = self.privs[core.index()].l1.entry_mut(l1_slot);
            match op {
                MemOp::Load => e.meta.spec.read = true,
                MemOp::Store(_) => e.meta.spec.written = true,
                MemOp::LoadL(l) | MemOp::StoreL(l, _) | MemOp::Gather(l) => {
                    e.meta.spec.labeled = true;
                    e.meta.spec.label.get_or_insert(l);
                }
            }
        }

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
        let upgrades_e = op.is_store();
        #[cfg(feature = "mutate-estate-bug")]
        let upgrades_e = matches!(op, MemOp::Store(_));
        if upgrades_e {
            let p = &mut self.privs[core.index()];
            p.l2.touch(l2_slot);
            let l2e = p.l2.entry_mut(l2_slot);
            if l2e.meta.state == CohState::E {
                l2e.meta.state = CohState::M;
            }
        }

        let p = &mut self.privs[core.index()];
        p.l1.touch(l1_slot);
        let e = p.l1.entry_mut(l1_slot);
        match op {
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
        }
    }

    /// Fig. 5 step 3: before the first speculative write to a line, forward
    /// the current non-speculative value to the L2.
    fn preserve_nonspec(&mut self, core: CoreId, l1_slot: Slot, l2_slot: Slot) {
        let p = &mut self.privs[core.index()];
        let e = p.l1.entry(l1_slot);
        let needs_copy = !e.meta.spec.dirty_data && e.meta.dirty;
        let data = e.data;
        if needs_copy {
            p.l2.touch(l2_slot);
            let l2e = p.l2.entry_mut(l2_slot);
            l2e.data = data;
            l2e.meta.dirty = true;
            p.l1.entry_mut(l1_slot).meta.dirty = false;
        }
    }

    /// Installs (or updates) a line in the core's private caches with the
    /// given data and authoritative state. Evictions this causes are fully
    /// processed.
    pub(crate) fn install_private(
        &mut self,
        core: CoreId,
        line: LineAddr,
        data: LineData,
        meta: PrivMeta,
        txs: &mut TxTable,
        acc: &mut Acc,
        handler: bool,
    ) {
        if self.tracer.is_debug() {
            eprintln!(
                "    [proto] install {core:?} {line} {:?} w0={:x} w1={:x}",
                meta.state, data[0], data[1]
            );
        }
        let class = if handler {
            EvictionClass::Handler
        } else if meta.state == CohState::U {
            EvictionClass::Reducible
        } else {
            EvictionClass::NonReducible
        };
        let to_u = meta.state == CohState::U;

        // L2 (authoritative) entry, located with a single probe. An upgrade
        // into U of a line sitting in the reserved way must relocate it
        // (way 0 never holds U data).
        let p = &mut self.privs[core.index()];
        match p.l2.lookup(line) {
            Some(s) if to_u && self.cfg.l2.ways() > 1 && p.l2.way_of_slot(s) == 0 => {
                p.l2.remove_slot(s);
                let out = p.l2.fill(line, data, meta, class);
                if let Some(v) = out.victim {
                    self.l2_evict(core, v, txs, acc);
                }
            }
            Some(s) => {
                p.l2.touch(s);
                let e = p.l2.entry_mut(s);
                e.meta = meta;
                e.data = data;
            }
            None => {
                let out = p.l2.fill(line, data, meta, class);
                if let Some(v) = out.victim {
                    self.l2_evict(core, v, txs, acc);
                }
            }
        }

        // L1 mirror (same reserved-way relocation, preserving footprint
        // bits). Re-probed: the L2 step above may have run an eviction
        // flow, which can restructure the L1.
        let p = &mut self.privs[core.index()];
        match p.l1.lookup(line) {
            Some(s) if to_u && self.cfg.l1.ways() > 1 && p.l1.way_of_slot(s) == 0 => {
                let preserved = p.l1.remove_slot(s).meta;
                let out = p.l1.fill(line, data, preserved, class);
                if let Some(v) = out.victim {
                    self.l1_evict_tx(core, v, txs, acc);
                }
            }
            Some(s) => {
                p.l1.touch(s);
                let e = p.l1.entry_mut(s);
                e.data = data;
                e.meta.dirty = false;
            }
            None => {
                let out = p.l1.fill(line, data, L1Meta::default(), class);
                if let Some(v) = out.victim {
                    self.l1_evict_tx(core, v, txs, acc);
                }
            }
        }
    }

    /// Rewrites a resident line's authoritative metadata, relocating it out
    /// of the reserved way when it becomes U (data and L1 footprint bits
    /// are preserved). Used for in-place state changes: owner downgrades
    /// (GETU case 5) and post-reduction relabeling (case 3).
    pub(crate) fn set_priv_meta(
        &mut self,
        core: CoreId,
        line: LineAddr,
        meta: PrivMeta,
        txs: &mut TxTable,
        acc: &mut Acc,
    ) {
        let to_u = meta.state == CohState::U;
        let p = &mut self.privs[core.index()];

        match p.l2.lookup(line) {
            Some(s) if to_u && self.cfg.l2.ways() > 1 && p.l2.way_of_slot(s) == 0 => {
                let mut e = p.l2.remove_slot(s);
                e.meta = meta;
                let out = p.l2.fill(line, e.data, e.meta, EvictionClass::Reducible);
                if let Some(v) = out.victim {
                    self.l2_evict(core, v, txs, acc);
                }
            }
            Some(s) => {
                p.l2.touch(s);
                p.l2.entry_mut(s).meta = meta;
            }
            None => panic!("set_priv_meta on missing L2 line"),
        }

        // Re-probed: the L2 relocation may have run an eviction flow.
        let p = &mut self.privs[core.index()];
        if to_u && self.cfg.l1.ways() > 1 {
            if let Some(s) = p.l1.lookup(line) {
                if p.l1.way_of_slot(s) == 0 {
                    let e = p.l1.remove_slot(s);
                    let out = p.l1.fill(line, e.data, e.meta, EvictionClass::Reducible);
                    if let Some(v) = out.victim {
                        self.l1_evict_tx(core, v, txs, acc);
                    }
                }
            }
        }
    }

    /// Updates a line's non-speculative value at a core in place (gather
    /// donations, reduction keep-backs): both the L2 copy and, if the L1
    /// copy is not speculatively dirty, the L1 copy.
    pub(crate) fn set_nonspec_value(&mut self, core: CoreId, line: LineAddr, data: LineData) {
        if self.tracer.is_debug() {
            eprintln!(
                "    [proto] set_nonspec {core:?} {line} w0={:x} w1={:x}",
                data[0], data[1]
            );
        }
        let p = &mut self.privs[core.index()];
        let l2e = p.l2.get(line).expect("set_nonspec_value without L2 entry");
        l2e.data = data;
        l2e.meta.dirty = true;
        if let Some(e) = p.l1.get(line) {
            if !e.meta.spec.dirty_data {
                e.data = data;
                e.meta.dirty = false;
            }
        }
    }
}
