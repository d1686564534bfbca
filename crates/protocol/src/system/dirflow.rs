//! Directory-side request flows: GETS, GETX, GETU (cases 1–5 of
//! Sec. III-B3), reductions (Sec. III-B4) and gathers (Sec. IV).

use commtm_cache::{CohState, PrivMeta, Slot, SpecBits};
use commtm_mem::{CoreId, LabelId, LineAddr, LineData, SharerSet};

use crate::dir::DirState;
use crate::types::{arbitrate, classify_conflict, AbortKind, Arbitration, ProtoEvent, ReqClass};

use super::{Acc, MemSystem};

impl MemSystem {
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

    /// Eager conflict detection against `victim`'s footprint on `line`.
    ///
    /// `relevant` selects which footprint bits the request actually
    /// endangers (e.g. a read-for-share downgrade does not conflict with a
    /// read-only footprint). On a conflict, timestamp arbitration decides:
    /// the victim aborts (Ok) or NACKs, in which case the requester's abort
    /// is recorded and `Err` returned.
    #[allow(clippy::too_many_arguments)] // two cores, the request's class and timestamp, its filter
    pub(crate) fn conflict_check(
        &mut self,
        requester: CoreId,
        victim: CoreId,
        line: LineAddr,
        class: ReqClass,
        req_ts: Option<u64>,
        relevant: impl Fn(SpecBits) -> bool,
        acc: &mut Acc,
    ) -> Result<(), AbortKind> {
        let Some(vts) = self.tx_ts(victim) else {
            return Ok(());
        };
        let Some(bits) = self.privs[victim.index()]
            .l1
            .peek(line)
            .map(|e| e.meta.spec)
        else {
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
                    .conflict(requester, victim, line, kind, attacker_labeled, false);
                self.abort_tx(victim, kind, line, acc);
                Ok(())
            }
            Arbitration::Nack => {
                // The requester loses: its self-abort is attributed to the
                // defending victim.
                self.tracer
                    .conflict(requester, victim, line, kind, attacker_labeled, true);
                self.stats.core_mut(victim).nacks_sent += 1;
                self.stats.core_mut(requester).nacks_received += 1;
                acc.abort_self(kind);
                Err(kind)
            }
        }
    }

    /// Removes a line from a core's private caches (invalidation).
    pub(crate) fn invalidate_private(&mut self, core: CoreId, line: LineAddr) {
        let p = &mut self.privs[core.index()];
        p.l1.remove(line);
        p.l2.remove(line);
        self.stats.core_mut(core).invalidations += 1;
    }

    pub(crate) fn dir(&mut self, line: LineAddr) -> DirState {
        let bank = self.bank_of(line);
        self.l3[bank]
            .peek(line)
            .expect("dir lookup before l3_ensure")
            .meta
            .dir
    }

    pub(crate) fn set_dir(&mut self, line: LineAddr, dir: DirState) {
        let bank = self.bank_of(line);
        self.l3[bank]
            .get(line)
            .expect("dir update before l3_ensure")
            .meta
            .dir = dir;
    }

    /// Slot-based variants of the directory accessors, for flows that hold
    /// the line's L3 slot from [`MemSystem::l3_ensure`]. Valid only while
    /// no nested flow (reduction handler, recursive `l3_ensure`) could have
    /// restructured the bank. The tag check is a real assert, not a debug
    /// one: a stale slot here would silently corrupt another line's
    /// directory state in release sweeps, and the branch is trivially
    /// predicted next to the set scan it replaced.
    pub(crate) fn dir_at(&mut self, bank: usize, slot: Slot, line: LineAddr) -> DirState {
        let e = self.l3[bank].entry(slot);
        assert_eq!(e.tag, line, "stale L3 slot");
        e.meta.dir
    }

    pub(crate) fn set_dir_at(&mut self, bank: usize, slot: Slot, line: LineAddr, dir: DirState) {
        self.l3[bank].touch(slot);
        let e = self.l3[bank].entry_mut(slot);
        assert_eq!(e.tag, line, "stale L3 slot");
        e.meta.dir = dir;
    }

    pub(crate) fn l3_data_at(&mut self, bank: usize, slot: Slot, line: LineAddr) -> LineData {
        let e = self.l3[bank].entry(slot);
        assert_eq!(e.tag, line, "stale L3 slot");
        e.data
    }

    pub(crate) fn set_l3_data_at(
        &mut self,
        bank: usize,
        slot: Slot,
        line: LineAddr,
        data: LineData,
        dirty: bool,
    ) {
        self.l3[bank].touch(slot);
        let e = self.l3[bank].entry_mut(slot);
        assert_eq!(e.tag, line, "stale L3 slot");
        e.data = data;
        e.meta.dirty |= dirty;
    }

    fn req_ts(&self, core: CoreId, handler: bool) -> Option<u64> {
        if handler {
            None
        } else {
            self.tx_ts(core)
        }
    }

    /// GETS: conventional read miss.
    pub(crate) fn dir_gets(&mut self, core: CoreId, line: LineAddr, acc: &mut Acc, handler: bool) {
        self.stats.core_mut(core).gets += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);
        let l3 = self.l3_ensure(line, acc, handler);
        let req_ts = self.req_ts(core, handler);

        match self.dir_at(bank, l3, line) {
            DirState::Uncached => {
                // MESI: sole requester gets E.
                let data = self.l3_data_at(bank, l3, line);
                self.set_dir_at(bank, l3, line, DirState::Exclusive(core));
                let meta = PrivMeta {
                    state: CohState::E,
                    label: None,
                    dirty: false,
                };
                self.install_private(core, line, data, meta, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Shared(mut s) => {
                let data = self.l3_data_at(bank, l3, line);
                s.insert(core);
                self.set_dir_at(bank, l3, line, DirState::Shared(s));
                let meta = PrivMeta {
                    state: CohState::S,
                    label: None,
                    dirty: false,
                };
                self.install_private(core, line, data, meta, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, core, "GETS from the exclusive owner");
                // A read-for-share downgrade conflicts only with write or
                // labeled footprints; read-read sharing is safe.
                if self
                    .conflict_check(
                        core,
                        owner,
                        line,
                        ReqClass::PlainRead,
                        req_ts,
                        |b| b.written || b.labeled,
                        acc,
                    )
                    .is_err()
                {
                    return;
                }
                let was_m = self.priv_state(owner, line).0 == CohState::M;
                let v = self.priv_nonspec(owner, line);
                // Downgrade owner to S; its copy becomes clean.
                {
                    let p = &mut self.privs[owner.index()];
                    let l2e = p.l2.get(line).expect("owner must hold line");
                    l2e.meta = PrivMeta {
                        state: CohState::S,
                        label: None,
                        dirty: false,
                    };
                    l2e.data = v;
                    if let Some(e) = p.l1.get(line) {
                        e.data = v;
                        e.meta.dirty = false;
                    }
                }
                if was_m {
                    self.set_l3_data_at(bank, l3, line, v, true);
                    self.stats.core_mut(owner).writebacks += 1;
                }
                let mut s = SharerSet::single(owner);
                s.insert(core);
                self.set_dir_at(bank, l3, line, DirState::Shared(s));
                let meta = PrivMeta {
                    state: CohState::S,
                    label: None,
                    dirty: false,
                };
                self.install_private(core, line, v, meta, acc, handler);
                acc.lat(
                    self.cfg.mesh.bank_to_core(bank, owner)
                        + self.cfg.l2_latency
                        + self.cfg.mesh.core_to_core(owner, core),
                );
            }
            DirState::Reducible(label, s) => {
                assert!(!handler, "reduction handler hit reducible line {line}: handlers must not trigger reductions (Sec. III-B4)");
                self.reduction_flow(core, line, label, s, ReqClass::PlainRead, req_ts, acc);
            }
        }
    }

    /// GETX: conventional write miss or upgrade.
    pub(crate) fn dir_getx(&mut self, core: CoreId, line: LineAddr, acc: &mut Acc, handler: bool) {
        self.stats.core_mut(core).getx += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);
        let l3 = self.l3_ensure(line, acc, handler);
        let req_ts = self.req_ts(core, handler);

        match self.dir_at(bank, l3, line) {
            DirState::Uncached => {
                let data = self.l3_data_at(bank, l3, line);
                self.set_dir_at(bank, l3, line, DirState::Exclusive(core));
                let meta = PrivMeta {
                    state: CohState::E,
                    label: None,
                    dirty: false,
                };
                self.install_private(core, line, data, meta, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Shared(s) => {
                let mut remaining = s;
                let mut nacked = false;
                let mut par = 0u64;
                for t in s.iter() {
                    if t == core {
                        continue;
                    }
                    par = par.max(2 * self.cfg.mesh.bank_to_core(bank, t));
                    match self.conflict_check(
                        core,
                        t,
                        line,
                        ReqClass::PlainWrite,
                        req_ts,
                        |b| b.any(),
                        acc,
                    ) {
                        Err(_) => nacked = true,
                        Ok(()) => {
                            self.invalidate_private(t, line);
                            remaining.remove(t);
                        }
                    }
                }
                acc.lat(par);
                if nacked {
                    self.set_dir_at(
                        bank,
                        l3,
                        line,
                        if remaining.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared(remaining)
                        },
                    );
                    return;
                }
                let data = if s.contains(core) {
                    self.priv_current(core, line)
                } else {
                    self.l3_data_at(bank, l3, line)
                };
                self.set_dir_at(bank, l3, line, DirState::Exclusive(core));
                let meta = PrivMeta {
                    state: CohState::E,
                    label: None,
                    dirty: false,
                };
                self.install_private(core, line, data, meta, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, core, "GETX from the exclusive owner");
                if self
                    .conflict_check(
                        core,
                        owner,
                        line,
                        ReqClass::PlainWrite,
                        req_ts,
                        |b| b.any(),
                        acc,
                    )
                    .is_err()
                {
                    return;
                }
                let v = self.priv_nonspec(owner, line);
                self.invalidate_private(owner, line);
                self.set_l3_data_at(bank, l3, line, v, true);
                self.set_dir_at(bank, l3, line, DirState::Exclusive(core));
                let meta = PrivMeta {
                    state: CohState::E,
                    label: None,
                    dirty: false,
                };
                self.install_private(core, line, v, meta, acc, handler);
                acc.lat(
                    self.cfg.mesh.bank_to_core(bank, owner)
                        + self.cfg.l2_latency
                        + self.cfg.mesh.core_to_core(owner, core),
                );
            }
            DirState::Reducible(label, s) => {
                assert!(!handler, "reduction handler hit reducible line {line}: handlers must not trigger reductions (Sec. III-B4)");
                self.reduction_flow(core, line, label, s, ReqClass::PlainWrite, req_ts, acc);
            }
        }
    }

    /// GETU: labeled access miss (the five cases of Sec. III-B3).
    pub(crate) fn dir_getu(
        &mut self,
        core: CoreId,
        label: LabelId,
        line: LineAddr,
        acc: &mut Acc,
        handler: bool,
    ) {
        assert!(
            !handler,
            "reduction handlers must use conventional accesses only"
        );
        self.stats.core_mut(core).getu += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);
        let l3 = self.l3_ensure(line, acc, handler);
        let req_ts = self.req_ts(core, handler);

        match self.dir_at(bank, l3, line) {
            // Case 1: no other private copies — the first requester gets
            // the data (Fig. 4a).
            DirState::Uncached => {
                let data = self.l3_data_at(bank, l3, line);
                self.set_dir_at(
                    bank,
                    l3,
                    line,
                    DirState::Reducible(label, SharerSet::single(core)),
                );
                let meta = PrivMeta {
                    state: CohState::U,
                    label: Some(label),
                    dirty: true,
                };
                self.install_private(core, line, data, meta, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            // Case 2: read-only sharers are invalidated, then the data is
            // served.
            DirState::Shared(s) => {
                let mut remaining = s;
                let mut nacked = false;
                let mut par = 0u64;
                for t in s.iter() {
                    if t == core {
                        continue;
                    }
                    par = par.max(2 * self.cfg.mesh.bank_to_core(bank, t));
                    match self.conflict_check(
                        core,
                        t,
                        line,
                        ReqClass::Labeled,
                        req_ts,
                        |b| b.any(),
                        acc,
                    ) {
                        Err(_) => nacked = true,
                        Ok(()) => {
                            self.invalidate_private(t, line);
                            remaining.remove(t);
                        }
                    }
                }
                acc.lat(par);
                if nacked {
                    self.set_dir_at(
                        bank,
                        l3,
                        line,
                        if remaining.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared(remaining)
                        },
                    );
                    return;
                }
                let data = if s.contains(core) {
                    self.priv_current(core, line)
                } else {
                    self.l3_data_at(bank, l3, line)
                };
                self.set_dir_at(
                    bank,
                    l3,
                    line,
                    DirState::Reducible(label, SharerSet::single(core)),
                );
                let meta = PrivMeta {
                    state: CohState::U,
                    label: Some(label),
                    dirty: true,
                };
                self.install_private(core, line, data, meta, acc, handler);
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
                self.set_dir_at(bank, l3, line, DirState::Reducible(label, s));
                let identity = self.labels.def(label).identity();
                let meta = PrivMeta {
                    state: CohState::U,
                    label: Some(label),
                    dirty: true,
                };
                self.install_private(core, line, identity, meta, acc, handler);
                acc.lat(self.cfg.mesh.bank_to_core(bank, core));
            }
            // Case 3: different-label sharers — reduce, then re-enter U
            // under the new label with the full value.
            DirState::Reducible(other, s) => {
                let ok = self.reduction_flow(core, line, other, s, ReqClass::Labeled, req_ts, acc);
                if ok {
                    let meta = PrivMeta {
                        state: CohState::U,
                        label: Some(label),
                        dirty: true,
                    };
                    self.set_priv_meta(core, line, meta, acc);
                    self.set_dir(line, DirState::Reducible(label, SharerSet::single(core)));
                }
            }
            // Case 5: exclusive owner is downgraded to U and retains the
            // data; the requester initializes with identity (Fig. 4b).
            DirState::Exclusive(owner) => {
                debug_assert_ne!(owner, core, "GETU from the exclusive owner");
                let relevant =
                    |b: SpecBits| b.read || b.written || (b.labeled && b.label != Some(label));
                if self
                    .conflict_check(core, owner, line, ReqClass::Labeled, req_ts, relevant, acc)
                    .is_err()
                {
                    return;
                }
                let owner_meta = PrivMeta {
                    state: CohState::U,
                    label: Some(label),
                    dirty: true,
                };
                self.set_priv_meta(owner, line, owner_meta, acc);
                let mut s = SharerSet::single(owner);
                s.insert(core);
                self.set_dir(line, DirState::Reducible(label, s));
                let identity = self.labels.def(label).identity();
                let meta = PrivMeta {
                    state: CohState::U,
                    label: Some(label),
                    dirty: true,
                };
                self.install_private(core, line, identity, meta, acc, handler);
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
        core: CoreId,
        line: LineAddr,
        label: LabelId,
        sharers: SharerSet,
        class: ReqClass,
        req_ts: Option<u64>,
        acc: &mut Acc,
    ) -> bool {
        let bank = self.bank_of(line);
        self.stats.core_mut(core).reductions += 1;

        // Sole-sharer fast path: our copy already holds the full value; the
        // paper only reduces "if the core's U-state line was not the only
        // one in the system" (Sec. III-B4).
        if sharers.sole_member() == Some(core) {
            let p = &mut self.privs[core.index()];
            let l2e = p.l2.get(line).expect("sharer must hold line");
            l2e.meta = PrivMeta {
                state: CohState::M,
                label: None,
                dirty: true,
            };
            self.set_dir(line, DirState::Exclusive(core));
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
            let dirty_spec = self.privs[core.index()]
                .l1
                .peek(line)
                .is_some_and(|e| e.meta.spec.dirty_data);
            if dirty_spec && self.in_tx(core) {
                self.tracer.note_abort(core, None, line);
                self.tx_abort(core);
                acc.abort_self(AbortKind::SelfDemote);
            }
            fold = self.priv_nonspec(core, line);
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
            if self
                .conflict_check(core, t, line, class, req_ts, |b| b.any(), acc)
                .is_err()
            {
                nacked = true;
                continue;
            }
            let v = self.priv_nonspec(t, line);
            self.invalidate_private(t, line);
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
                self.set_nonspec_value(core, line, fold);
            } else if have_acc {
                let meta = PrivMeta {
                    state: CohState::U,
                    label: Some(label),
                    dirty: true,
                };
                self.install_private(core, line, fold, meta, acc, false);
                survivors.insert(core);
            }
            self.set_dir(line, DirState::Reducible(label, survivors));
            debug_assert!(
                acc.self_abort.is_some(),
                "NACKed reduction must abort requester"
            );
            return false;
        }

        // Full reduction: requester transitions to M with the merged value.
        self.set_dir(line, DirState::Exclusive(core));
        if is_sharer {
            self.set_nonspec_value(core, line, fold);
            let p = &mut self.privs[core.index()];
            let l2e = p.l2.get(line).expect("sharer must hold line");
            l2e.meta = PrivMeta {
                state: CohState::M,
                label: None,
                dirty: true,
            };
        } else {
            let meta = PrivMeta {
                state: CohState::M,
                label: None,
                dirty: true,
            };
            self.install_private(core, line, fold, meta, acc, false);
        }
        true
    }

    /// A gather request (Sec. IV, Fig. 8): every other U sharer runs the
    /// user-defined splitter over its non-speculative copy and donates part
    /// of its value; donations merge into the requester's copy without any
    /// line leaving U.
    pub(crate) fn gather_flow(
        &mut self,
        core: CoreId,
        label: LabelId,
        line: LineAddr,
        acc: &mut Acc,
    ) {
        self.stats.core_mut(core).gathers += 1;
        let bank = self.bank_of(line);
        acc.lat(self.cfg.l2_latency + self.cfg.mesh.core_to_bank(core, bank) + self.cfg.l3_latency);

        let DirState::Reducible(l, sharers) = self.dir(line) else {
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
        let dirty_spec = self.privs[core.index()]
            .l1
            .peek(line)
            .is_some_and(|e| e.meta.spec.dirty_data);
        if dirty_spec && self.in_tx(core) {
            self.tracer.note_abort(core, None, line);
            self.tx_abort(core);
            acc.abort_self(AbortKind::SelfDemote);
        }
        let req_ts = if acc.self_abort.is_some() {
            None
        } else {
            self.tx_ts(core)
        };

        let def = self.labels.def(label);
        assert!(
            def.split().is_some(),
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
        let mut mine = self.priv_nonspec(core, line);
        let mut par = 0u64;
        let mut merges = 0u64;
        for t in sharers.iter() {
            if t == core {
                continue;
            }
            if self
                .conflict_check(core, t, line, ReqClass::Split, req_ts, |b| b.any(), acc)
                .is_err()
            {
                continue;
            }
            let mut local = self.priv_nonspec(t, line);
            let mut donation = identity;
            self.run_split(t, label, &mut local, &mut donation, nsharers, acc);
            self.set_nonspec_value(t, line, local);
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
            self.set_nonspec_value(core, line, mine);
        }
        acc.lat(par + merges * self.cfg.reduce_cycles);
        // Directory state is unchanged: donors and requester all stay in U.
    }
}
