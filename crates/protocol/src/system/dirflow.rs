//! Directory-side request flows: GETS, GETX, GETU (cases 1–5 of
//! Sec. III-B3), reductions (Sec. III-B4) and gathers (Sec. IV).
//!
//! Every flow reaches a line's home L3 entry through a [`Home`] and each
//! core's private copies through a [`Copies`]: one probe per array, reused
//! until a nested flow (an eviction, a recall, a reduction handler or a
//! splitter) restructures that array.

use commtm_cache::{CohState, Entry, Held, PrivMeta, Slot, SpecBits};
use commtm_mem::{CoreId, LabelId, LineAddr, LineData, SharerSet};

use crate::dir::{DirState, L3Meta};
use crate::types::{arbitrate, classify_conflict, AbortKind, Arbitration, ProtoEvent, ReqClass};

use super::{Acc, Copies, MemSystem};

/// A line's home L3 entry, as a directory flow reaches it (the L3 analogue
/// of [`Copies`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Home {
    pub bank: usize,
    pub line: LineAddr,
    pub held: Held,
}

impl MemSystem {
    /// The home entry of `line`, not probed yet.
    pub(crate) fn home(&self, line: LineAddr) -> Home {
        Home {
            bank: self.bank_of(line),
            line,
            held: Held::UNPROBED,
        }
    }

    /// The slot of a home entry.
    #[inline]
    fn home_slot(&self, h: &mut Home) -> Slot {
        self.l3[h.bank]
            .reach(&mut h.held, h.line)
            .unwrap_or_else(|| panic!("directory line {} is not in its L3 bank", h.line))
    }

    /// The home entry itself, read-only. The tag check is a real assert,
    /// not a debug one: a stale slot here would silently corrupt another
    /// line's directory state in release sweeps.
    #[inline]
    fn home_entry(&self, h: &mut Home) -> &Entry<L3Meta> {
        let slot = self.home_slot(h);
        let e = self.l3[h.bank].entry(slot);
        assert_eq!(e.tag, h.line, "stale L3 slot");
        e
    }

    /// The home entry, marked most-recently used, for an update.
    #[inline]
    fn home_entry_mut(&mut self, h: &mut Home) -> &mut Entry<L3Meta> {
        let slot = self.home_slot(h);
        let e = self.l3[h.bank].touch_mut(slot);
        assert_eq!(e.tag, h.line, "stale L3 slot");
        e
    }

    #[inline]
    pub(crate) fn dir(&self, h: &mut Home) -> DirState {
        self.home_entry(h).meta.dir
    }

    #[inline]
    pub(crate) fn set_dir(&mut self, h: &mut Home, dir: DirState) {
        self.home_entry_mut(h).meta.dir = dir;
    }

    #[inline]
    pub(crate) fn home_data(&self, h: &mut Home) -> LineData {
        self.home_entry(h).data
    }

    #[inline]
    pub(crate) fn set_home_data(&mut self, h: &mut Home, data: LineData, dirty: bool) {
        let e = self.home_entry_mut(h);
        e.data = data;
        e.meta.dirty |= dirty;
    }

    /// Aborts `victim`'s transaction if one is active ([`MemSystem::tx_abort`])
    /// and queues an event for it; an abort of the requester's own
    /// transaction is kept in `acc` instead. `line` is the line whose
    /// conflict or eviction forced the abort — recorded (keep-first, so a
    /// two-sided conflict's richer attribution wins) for the trace's abort
    /// attribution.
    pub(crate) fn abort_tx(
        &mut self,
        victim: CoreId,
        kind: AbortKind,
        line: LineAddr,
        acc: &mut Acc,
    ) {
        if !self.in_tx(victim) {
            return;
        }
        self.tracer.note_abort(victim, None, line);
        self.tx_abort(victim);
        if victim == acc.requester {
            acc.own_abort.get_or_insert(kind);
        } else {
            self.events.push_back(ProtoEvent::Aborted {
                core: victim,
                cause: kind,
            });
        }
    }

    /// Eager conflict detection against the footprint of `victim`'s copy.
    ///
    /// `relevant` selects which footprint bits the request actually
    /// endangers (e.g. a read-for-share downgrade does not conflict with a
    /// read-only footprint). On a conflict, timestamp arbitration decides:
    /// the victim aborts (Ok) or NACKs, in which case the requester's abort
    /// is recorded and `Err` returned. An abort rolls back footprint bits
    /// and data but fills and removes nothing, so `victim` stays valid.
    pub(crate) fn conflict_check(
        &mut self,
        requester: CoreId,
        victim: &mut Copies,
        class: ReqClass,
        req_ts: Option<u64>,
        relevant: impl Fn(SpecBits) -> bool,
        acc: &mut Acc,
    ) -> Result<(), AbortKind> {
        let (v, line) = (victim.core, victim.line);
        let Some(vts) = self.tx_ts(v) else {
            return Ok(());
        };
        let Some(bits) = self.spec_bits(victim) else {
            return Ok(());
        };
        if !bits.any() || !relevant(bits) {
            return Ok(());
        }
        let kind = classify_conflict(class, bits);
        let attacker_labeled = matches!(class, ReqClass::Labeled | ReqClass::Split);
        match arbitrate(req_ts, vts) {
            Arbitration::VictimAborts => {
                // Trace the arbitrated conflict and attribute the victim's
                // upcoming abort to the requester before the rollback.
                self.tracer
                    .conflict(requester, v, line, kind, attacker_labeled, false);
                self.abort_tx(v, kind, line, acc);
                Ok(())
            }
            Arbitration::Nack => {
                // The requester loses: its self-abort is attributed to the
                // defending victim.
                self.tracer
                    .conflict(requester, v, line, kind, attacker_labeled, true);
                self.stats.core_mut(v).nacks_sent += 1;
                self.stats.core_mut(requester).nacks_received += 1;
                acc.abort_self(kind);
                Err(kind)
            }
        }
    }

    fn req_ts(&self, core: CoreId, handler: bool) -> Option<u64> {
        if handler {
            None
        } else {
            self.tx_ts(core)
        }
    }

    /// Invalidates every sharer in `s` but the requester, each unless it
    /// NACKs (GETX and GETU case 2). Returns the sharers left and whether
    /// any NACKed, and charges the slowest round trip.
    fn invalidate_sharers(
        &mut self,
        core: CoreId,
        home: &Home,
        s: SharerSet,
        class: ReqClass,
        req_ts: Option<u64>,
        acc: &mut Acc,
    ) -> (SharerSet, bool) {
        let mut remaining = s;
        let mut nacked = false;
        let mut par = 0u64;
        for t in s.iter() {
            if t == core {
                continue;
            }
            par = par.max(2 * self.cfg.mesh.bank_to_core(home.bank, t));
            let mut tc = Copies::new(t, home.line);
            match self.conflict_check(core, &mut tc, class, req_ts, |b| b.any(), acc) {
                Err(_) => nacked = true,
                Ok(()) => {
                    self.invalidate_private(&mut tc);
                    remaining.remove(t);
                }
            }
        }
        acc.lat(par);
        (remaining, nacked)
    }

    /// GETS: conventional read miss.
    pub(crate) fn dir_gets(&mut self, c: &mut Copies, acc: &mut Acc, handler: bool) {
        let (core, line) = (c.core, c.line);
        self.stats.core_mut(core).gets += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);
        let mut home = self.l3_ensure(line, acc, handler);
        let req_ts = self.req_ts(core, handler);
        let shared = PrivMeta {
            state: CohState::S,
            label: None,
            dirty: false,
        };

        match self.dir(&mut home) {
            DirState::Uncached => {
                // MESI: sole requester gets E.
                let data = self.home_data(&mut home);
                self.set_dir(&mut home, DirState::Exclusive(core));
                let meta = PrivMeta {
                    state: CohState::E,
                    ..shared
                };
                self.install_private(c, data, meta, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Shared(mut s) => {
                let data = self.home_data(&mut home);
                s.insert(core);
                self.set_dir(&mut home, DirState::Shared(s));
                self.install_private(c, data, shared, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, core, "GETS from the exclusive owner");
                // A read-for-share downgrade conflicts only with write or
                // labeled footprints; read-read sharing is safe.
                let mut o = Copies::new(owner, line);
                if self
                    .conflict_check(
                        core,
                        &mut o,
                        ReqClass::PlainRead,
                        req_ts,
                        |b| b.written || b.labeled,
                        acc,
                    )
                    .is_err()
                {
                    return;
                }
                let was_m = self.priv_state(&mut o).0 == CohState::M;
                let v = self.priv_nonspec(&mut o);
                // Downgrade owner to S; its copy becomes clean.
                let l2_slot = self.l2_slot(&mut o).expect("owner must hold line");
                let l1_slot = self.l1_slot(&mut o);
                let p = &mut self.privs[owner.index()];
                let l2e = p.l2.touch_mut(l2_slot);
                l2e.meta = shared;
                l2e.data = v;
                if let Some(s) = l1_slot {
                    let e = p.l1.touch_mut(s);
                    e.data = v;
                    e.meta.dirty = false;
                }
                if was_m {
                    self.set_home_data(&mut home, v, true);
                    self.stats.core_mut(owner).writebacks += 1;
                }
                let mut s = SharerSet::single(owner);
                s.insert(core);
                self.set_dir(&mut home, DirState::Shared(s));
                self.install_private(c, v, shared, acc, handler);
                acc.lat(
                    self.cfg.mesh.bank_to_core(bank, owner)
                        + self.cfg.l2_latency
                        + self.cfg.mesh.core_to_core(owner, core),
                );
            }
            DirState::Reducible(label, s) => {
                assert!(!handler, "reduction handler hit reducible line {line}: handlers must not trigger reductions (Sec. III-B4)");
                self.reduction_flow(c, &mut home, label, s, ReqClass::PlainRead, req_ts, acc);
            }
        }
    }

    /// GETX: conventional write miss or upgrade.
    pub(crate) fn dir_getx(&mut self, c: &mut Copies, acc: &mut Acc, handler: bool) {
        let (core, line) = (c.core, c.line);
        self.stats.core_mut(core).getx += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);
        let mut home = self.l3_ensure(line, acc, handler);
        let req_ts = self.req_ts(core, handler);
        let exclusive = PrivMeta {
            state: CohState::E,
            label: None,
            dirty: false,
        };

        match self.dir(&mut home) {
            DirState::Uncached => {
                let data = self.home_data(&mut home);
                self.set_dir(&mut home, DirState::Exclusive(core));
                self.install_private(c, data, exclusive, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Shared(s) => {
                let (remaining, nacked) =
                    self.invalidate_sharers(core, &home, s, ReqClass::PlainWrite, req_ts, acc);
                if nacked {
                    self.set_dir(&mut home, DirState::shared_or_uncached(remaining));
                    return;
                }
                let data = if s.contains(core) {
                    self.priv_current(c)
                } else {
                    self.home_data(&mut home)
                };
                self.set_dir(&mut home, DirState::Exclusive(core));
                self.install_private(c, data, exclusive, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, core, "GETX from the exclusive owner");
                let mut o = Copies::new(owner, line);
                if self
                    .conflict_check(core, &mut o, ReqClass::PlainWrite, req_ts, |b| b.any(), acc)
                    .is_err()
                {
                    return;
                }
                let v = self.priv_nonspec(&mut o);
                self.invalidate_private(&mut o);
                self.set_home_data(&mut home, v, true);
                self.set_dir(&mut home, DirState::Exclusive(core));
                self.install_private(c, v, exclusive, acc, handler);
                acc.lat(
                    self.cfg.mesh.bank_to_core(bank, owner)
                        + self.cfg.l2_latency
                        + self.cfg.mesh.core_to_core(owner, core),
                );
            }
            DirState::Reducible(label, s) => {
                assert!(!handler, "reduction handler hit reducible line {line}: handlers must not trigger reductions (Sec. III-B4)");
                self.reduction_flow(c, &mut home, label, s, ReqClass::PlainWrite, req_ts, acc);
            }
        }
    }

    /// GETU: labeled access miss (the five cases of Sec. III-B3).
    pub(crate) fn dir_getu(
        &mut self,
        c: &mut Copies,
        label: LabelId,
        acc: &mut Acc,
        handler: bool,
    ) {
        assert!(
            !handler,
            "reduction handlers must use conventional accesses only"
        );
        let (core, line) = (c.core, c.line);
        self.stats.core_mut(core).getu += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);
        let mut home = self.l3_ensure(line, acc, handler);
        let req_ts = self.req_ts(core, handler);
        let reducible = PrivMeta {
            state: CohState::U,
            label: Some(label),
            dirty: true,
        };

        match self.dir(&mut home) {
            // Case 1: no other private copies — the first requester gets
            // the data (Fig. 4a).
            DirState::Uncached => {
                let data = self.home_data(&mut home);
                self.set_dir(
                    &mut home,
                    DirState::Reducible(label, SharerSet::single(core)),
                );
                self.install_private(c, data, reducible, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            // Case 2: read-only sharers are invalidated, then the data is
            // served.
            DirState::Shared(s) => {
                let (remaining, nacked) =
                    self.invalidate_sharers(core, &home, s, ReqClass::Labeled, req_ts, acc);
                if nacked {
                    self.set_dir(&mut home, DirState::shared_or_uncached(remaining));
                    return;
                }
                let data = if s.contains(core) {
                    self.priv_current(c)
                } else {
                    self.home_data(&mut home)
                };
                self.set_dir(
                    &mut home,
                    DirState::Reducible(label, SharerSet::single(core)),
                );
                self.install_private(c, data, reducible, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            // Case 4: same-label sharers — grant U, no data; the requester
            // initializes its copy with the identity value.
            DirState::Reducible(l, mut s) if l == label => {
                debug_assert!(
                    !s.contains(core),
                    "local U hit should not reach the directory"
                );
                s.insert(core);
                self.set_dir(&mut home, DirState::Reducible(label, s));
                let identity = self.labels.def(label).identity();
                self.install_private(c, identity, reducible, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            // Case 3: different-label sharers — reduce, then re-enter U
            // under the new label with the full value.
            DirState::Reducible(other, s) => {
                let ok =
                    self.reduction_flow(c, &mut home, other, s, ReqClass::Labeled, req_ts, acc);
                if ok {
                    self.set_priv_meta(c, reducible, acc);
                    self.set_dir(
                        &mut home,
                        DirState::Reducible(label, SharerSet::single(core)),
                    );
                }
            }
            // Case 5: exclusive owner is downgraded to U and retains the
            // data; the requester initializes with identity (Fig. 4b).
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, core, "GETU from the exclusive owner");
                let relevant =
                    |b: SpecBits| b.read || b.written || (b.labeled && b.label != Some(label));
                let mut o = Copies::new(owner, line);
                if self
                    .conflict_check(core, &mut o, ReqClass::Labeled, req_ts, relevant, acc)
                    .is_err()
                {
                    return;
                }
                self.set_priv_meta(&mut o, reducible, acc);
                let mut s = SharerSet::single(owner);
                s.insert(core);
                self.set_dir(&mut home, DirState::Reducible(label, s));
                let identity = self.labels.def(label).identity();
                self.install_private(c, identity, reducible, acc, handler);
                acc.lat(
                    self.cfg
                        .mesh
                        .bank_to_core(bank, owner)
                        .max(self.cfg.mesh.bank_to_core(bank, core)),
                );
            }
        }
    }

    /// A full reduction (Fig. 7): every U sharer forwards its partial line
    /// to the requester, whose shadow thread merges them with the
    /// user-defined reduction handler. Returns `true` when the reduction
    /// completed (requester ends in M with the full value); `false` when a
    /// NACK left the requester with a partial value in U and an abort
    /// pending (Fig. 6b semantics).
    #[allow(clippy::too_many_arguments)] // directory label and sharers, request class and ts
    pub(crate) fn reduction_flow(
        &mut self,
        c: &mut Copies,
        home: &mut Home,
        label: LabelId,
        sharers: SharerSet,
        class: ReqClass,
        req_ts: Option<u64>,
        acc: &mut Acc,
    ) -> bool {
        let (core, line) = (c.core, c.line);
        let bank = home.bank;
        self.stats.core_mut(core).reductions += 1;
        let modified = PrivMeta {
            state: CohState::M,
            label: None,
            dirty: true,
        };

        // Sole-sharer fast path: our copy already holds the full value; the
        // paper only reduces "if the core's U-state line was not the only
        // one in the system" (Sec. III-B4).
        if sharers.sole_member() == Some(core) {
            let slot = self.l2_slot(c).expect("sharer must hold line");
            self.privs[core.index()].l2.touch_mut(slot).meta = modified;
            self.set_dir(home, DirState::Exclusive(core));
            acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            return true;
        }

        let is_sharer = sharers.contains(core);
        let mut have_acc = false;
        let mut fold = LineData::zeroed();

        if is_sharer {
            // Sec. III-B4: an unlabeled (or differently-labeled) access to
            // data our own transaction speculatively modified with labeled
            // operations aborts us; the reduction proceeds with the
            // non-speculative state and the retry demotes labels.
            self.self_demote_if_dirty(c, acc);
            fold = self.priv_nonspec(c);
            have_acc = true;
        }
        // After a self-demotion the reduction itself is non-speculative.
        let req_ts = if acc.self_abort.is_some() {
            None
        } else {
            req_ts
        };

        let mut nacked = false;
        let mut survivors = sharers;
        let mut par = 0u64;
        let mut merges = 0u64;
        for t in sharers.iter() {
            if t == core {
                continue;
            }
            let mut tc = Copies::new(t, line);
            if self
                .conflict_check(core, &mut tc, class, req_ts, |b| b.any(), acc)
                .is_err()
            {
                nacked = true;
                continue;
            }
            let v = self.priv_nonspec(&mut tc);
            self.invalidate_private(&mut tc);
            survivors.remove(t);
            par = par.max(
                self.cfg.mesh.bank_to_core(bank, t)
                    + self.cfg.l2_latency
                    + self.cfg.mesh.core_to_core(t, core),
            );
            if have_acc {
                self.run_reduce(core, label, &mut fold, &v, acc);
                merges += 1;
            } else {
                fold = v;
                have_acc = true;
            }
            self.stats.core_mut(core).lines_reduced += 1;
        }
        acc.lat(par + merges * self.cfg.reduce_cycles);

        if nacked {
            // Fig. 6b: the requester keeps what it managed to reduce, in U.
            if is_sharer {
                self.set_nonspec_value(c, fold);
            } else if have_acc {
                let meta = PrivMeta {
                    state: CohState::U,
                    label: Some(label),
                    dirty: true,
                };
                self.install_private(c, fold, meta, acc, false);
                survivors.insert(core);
            }
            self.set_dir(home, DirState::Reducible(label, survivors));
            debug_assert!(
                acc.self_abort.is_some(),
                "NACKed reduction must abort requester"
            );
            return false;
        }

        // Full reduction: requester transitions to M with the merged value.
        self.set_dir(home, DirState::Exclusive(core));
        if is_sharer {
            self.set_nonspec_value(c, fold);
            let slot = self.l2_slot(c).expect("sharer must hold line");
            self.privs[core.index()].l2.touch_mut(slot).meta = modified;
        } else {
            self.install_private(c, fold, modified, acc, false);
        }
        true
    }

    /// Aborts the requester's transaction if it speculatively modified its
    /// own copy (a reduction or gather from such a transaction would need
    /// speculative merging; the retry demotes its labels).
    fn self_demote_if_dirty(&mut self, c: &mut Copies, acc: &mut Acc) {
        let dirty_spec = self.spec_bits(c).is_some_and(|b| b.dirty_data);
        if dirty_spec && self.in_tx(c.core) {
            self.tracer.note_abort(c.core, None, c.line);
            self.tx_abort(c.core);
            acc.abort_self(AbortKind::SelfDemote);
        }
    }

    /// A gather request (Sec. IV, Fig. 8): every other U sharer runs the
    /// user-defined splitter over its non-speculative copy and donates part
    /// of its value; donations merge into the requester's copy without any
    /// line leaving U.
    pub(crate) fn gather_flow(&mut self, c: &mut Copies, label: LabelId, acc: &mut Acc) {
        let (core, line) = (c.core, c.line);
        self.stats.core_mut(core).gathers += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);

        let DirState::Reducible(l, sharers) = self.dir(&mut self.home(line)) else {
            panic!("gather on {line} with a non-reducible directory state");
        };
        assert_eq!(l, label, "gather label mismatch");
        assert!(
            sharers.contains(core),
            "gather requester must be a U sharer"
        );

        // Conservative extension of the Sec. III-B4 rule: a gather from a
        // transaction that already speculatively modified its local copy
        // would need speculative splitting; abort and retry demoted (no
        // workload in the paper or this suite hits this).
        self.self_demote_if_dirty(c, acc);
        let req_ts = if acc.self_abort.is_some() {
            None
        } else {
            self.tx_ts(core)
        };

        let def = self.labels.def(label);
        assert!(
            def.has_split(),
            "gather on label '{}' which has no splitter",
            def.name()
        );
        let identity = def.identity();
        let nsharers = sharers.len();

        // The requester-side fold accumulates in a register copy: donations
        // merge into `mine` across the whole donor loop and the private
        // copy is written back once, instead of a peek/reduce/write-back
        // round-trip per donor. Handlers cannot touch the gathered line
        // itself (it is in U state, which handler accesses reject), so no
        // donor-side split can observe or change the requester's copy
        // mid-flow and the single write-back is behavior-identical.
        let mut mine = self.priv_nonspec(c);
        let mut par = 0u64;
        let mut merges = 0u64;
        for t in sharers.iter() {
            if t == core {
                continue;
            }
            let mut tc = Copies::new(t, line);
            if self
                .conflict_check(core, &mut tc, ReqClass::Split, req_ts, |b| b.any(), acc)
                .is_err()
            {
                continue;
            }
            let mut local = self.priv_nonspec(&mut tc);
            let mut donation = identity;
            self.run_split(t, label, &mut local, &mut donation, nsharers, acc);
            self.set_nonspec_value(&mut tc, local);
            self.stats.core_mut(t).splits += 1;

            self.run_reduce(core, label, &mut mine, &donation, acc);
            merges += 1;
            par = par.max(
                self.cfg.mesh.bank_to_core(bank, t)
                    + self.cfg.l2_latency
                    + self.cfg.split_cycles
                    + self.cfg.mesh.core_to_core(t, core),
            );
        }
        if merges > 0 {
            self.set_nonspec_value(c, mine);
        }
        acc.lat(par + merges * self.cfg.reduce_cycles);
        // Directory state is unchanged: donors and requester all stay in U.
    }
}
