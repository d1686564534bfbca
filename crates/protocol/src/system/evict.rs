//! Eviction handling: L1, private L2, and inclusive-L3 victims
//! (Sec. III-B5).

use commtm_cache::{CohState, Entry, EvictionClass, L1Meta, PrivMeta};
use commtm_mem::{CoreId, LineAddr, LineData, SharerSet};
use rand::RngExt;

use crate::dir::{DirState, L3Meta};
use crate::types::{AbortKind, TxTable};

use super::{Acc, MemSystem};

impl MemSystem {
    /// Disposes an L1 victim. Evicting speculatively-accessed data aborts
    /// the core's transaction (the paper's L1-capacity abort rule); dirty
    /// non-speculative data is pushed to the L2.
    pub(crate) fn l1_evict(&mut self, core: CoreId, victim: Entry<L1Meta>, acc: &mut Acc) {
        // Note: the transaction-abort side of a speculative L1 eviction is
        // handled by the caller through `l1_evict_tx`, because it needs the
        // TxTable; plain `l1_evict` is only called on paths where the
        // victim cannot be speculative or the abort was already recorded.
        debug_assert!(
            !victim.meta.spec.any(),
            "speculative L1 victim must go through l1_evict_tx"
        );
        if victim.meta.dirty {
            let p = &mut self.privs[core.index()];
            let l2e =
                p.l2.get(victim.tag)
                    .expect("inclusion: L1 line must be in L2");
            l2e.data = victim.data;
            l2e.meta.dirty = true;
        }
        let _ = acc;
    }

    /// L1 victim disposal with transaction awareness.
    pub(crate) fn l1_evict_tx(
        &mut self,
        core: CoreId,
        victim: Entry<L1Meta>,
        txs: &mut TxTable,
        acc: &mut Acc,
    ) {
        if victim.meta.spec.any() {
            // Preserve the non-speculative value first.
            if !victim.meta.spec.dirty_data && victim.meta.dirty {
                let p = &mut self.privs[core.index()];
                let l2e = p.l2.get(victim.tag).expect("inclusion");
                l2e.data = victim.data;
                l2e.meta.dirty = true;
            }
            self.abort_tx(core, AbortKind::Eviction, victim.tag, txs, acc);
            return;
        }
        self.l1_evict(core, victim, acc);
    }

    /// Disposes a private-L2 victim: the line leaves the core's hierarchy
    /// entirely. U-state victims follow Sec. III-B5: sole sharers write
    /// back; otherwise the partial value is forwarded to a random co-sharer
    /// and reduced there, aborting that sharer's transaction if it touched
    /// the line.
    pub(crate) fn l2_evict(
        &mut self,
        core: CoreId,
        victim: Entry<PrivMeta>,
        txs: &mut TxTable,
        acc: &mut Acc,
    ) {
        let line = victim.tag;
        // Inclusion: drop the L1 copy, salvaging its freshest
        // non-speculative data and aborting our transaction if the line was
        // in its footprint.
        let l1e = self.privs[core.index()].l1.remove(line);
        let nonspec = match &l1e {
            Some(e) if e.meta.dirty && !e.meta.spec.dirty_data => e.data,
            _ => victim.data,
        };
        if l1e.as_ref().is_some_and(|e| e.meta.spec.any()) {
            self.abort_tx(core, AbortKind::Eviction, line, txs, acc);
        }

        // One L3 probe for the whole disposal (inclusion guarantees
        // residency); only the U-forward arm re-probes, after its handler.
        let bank = self.bank_of(line);
        let l3 = self.l3[bank]
            .lookup(line)
            .expect("inclusion: evicted private line must be in L3");

        match victim.meta.state {
            CohState::I => unreachable!("invalid line resident in L2"),
            CohState::S => {
                let DirState::Shared(mut s) = self.dir_at(bank, l3, line) else {
                    panic!("S eviction with inconsistent directory for {line}");
                };
                s.remove(core);
                self.set_dir_at(
                    bank,
                    l3,
                    line,
                    if s.is_empty() {
                        DirState::Uncached
                    } else {
                        DirState::Shared(s)
                    },
                );
            }
            CohState::E => {
                self.set_dir_at(bank, l3, line, DirState::Uncached);
            }
            CohState::M => {
                self.set_l3_data_at(bank, l3, line, nonspec, true);
                self.set_dir_at(bank, l3, line, DirState::Uncached);
                self.stats.core_mut(core).writebacks += 1;
            }
            CohState::U => {
                let DirState::Reducible(label, mut s) = self.dir_at(bank, l3, line) else {
                    panic!("U eviction with inconsistent directory for {line}");
                };
                s.remove(core);
                if s.is_empty() {
                    // Sole sharer: a normal dirty writeback.
                    self.set_l3_data_at(bank, l3, line, nonspec, true);
                    self.set_dir_at(bank, l3, line, DirState::Uncached);
                    self.stats.core_mut(core).writebacks += 1;
                } else {
                    // Forward to a random co-sharer, which reduces it into
                    // its local line.
                    let others: Vec<CoreId> = s.iter().collect();
                    let t = others[self.rng.random_range(0..others.len())];
                    let touched = self.privs[t.index()]
                        .l1
                        .peek(line)
                        .is_some_and(|e| e.meta.spec.any());
                    if touched {
                        self.abort_tx(t, AbortKind::UEvictionForward, line, txs, acc);
                    }
                    let mut merged = self.priv_nonspec(t, line);
                    self.run_reduce(t, label, &mut merged, &nonspec, txs, acc);
                    self.set_nonspec_value(t, line, merged);
                    self.set_dir(line, DirState::Reducible(label, s));
                    self.stats.core_mut(core).u_evict_forwards += 1;
                }
            }
        }
    }

    /// Ensures a line is resident in its L3 bank, fetching from memory and
    /// evicting (with recalls) as needed. Returns the line's slot, the
    /// single L3 probe the calling directory flow reuses throughout.
    pub(crate) fn l3_ensure(
        &mut self,
        line: LineAddr,
        txs: &mut TxTable,
        acc: &mut Acc,
        handler: bool,
    ) -> commtm_cache::Slot {
        let bank = self.bank_of(line);
        if let Some(slot) = self.l3[bank].lookup(line) {
            return slot;
        }
        acc.lat(self.cfg.mem_latency);
        let data = self.mem.read_line(line);
        let class = if handler {
            EvictionClass::Handler
        } else {
            EvictionClass::NonReducible
        };
        let out = self.l3[bank].fill(line, data, L3Meta::default(), class);
        let slot = out.slot;
        if let Some(v) = out.victim {
            self.l3_evict(v, txs, acc);
            // Disposing the victim can recall lines and run reduction
            // handlers, whose own misses may recursively fill this bank —
            // in the worst case evicting the line just installed. Re-probe
            // so the returned slot is never stale (the pre-slot code
            // re-scanned on every directory accessor and panicked here).
            return self.l3[bank]
                .lookup(line)
                .expect("line evicted from L3 by nested flow during l3_ensure");
        }
        slot
    }

    /// Disposes an L3 victim. The L3 is inclusive, so all private copies
    /// are recalled; any transaction that accessed the line aborts
    /// (recalls are non-speculative and cannot be NACKed). Reducible
    /// victims are folded before writing back (Sec. III-B5).
    pub(crate) fn l3_evict(&mut self, victim: Entry<L3Meta>, txs: &mut TxTable, acc: &mut Acc) {
        let line = victim.tag;
        match victim.meta.dir {
            DirState::Uncached => {
                if victim.meta.dirty {
                    self.mem.write_line(line, victim.data);
                }
            }
            DirState::Shared(s) => {
                for t in s.iter() {
                    self.recall(t, line, txs, acc);
                }
                if victim.meta.dirty {
                    self.mem.write_line(line, victim.data);
                }
            }
            DirState::Exclusive(owner) => {
                let v = self.recall(owner, line, txs, acc);
                self.mem.write_line(line, v);
            }
            DirState::Reducible(label, s) => {
                let mut fold: Option<LineData> = None;
                let merge_at = s.iter().next().expect("reducible state with no sharers");
                let sharers: SharerSet = s;
                for t in sharers.iter() {
                    let v = self.recall(t, line, txs, acc);
                    fold = Some(match fold {
                        None => v,
                        Some(mut f) => {
                            self.run_reduce(merge_at, label, &mut f, &v, txs, acc);
                            f
                        }
                    });
                }
                self.mem
                    .write_line(line, fold.expect("at least one sharer"));
            }
        }
    }

    /// Recalls a line from one core for an inclusive-L3 eviction, aborting
    /// its transaction if the line is in its footprint. Returns the core's
    /// non-speculative value.
    fn recall(
        &mut self,
        core: CoreId,
        line: LineAddr,
        txs: &mut TxTable,
        acc: &mut Acc,
    ) -> LineData {
        let touched = self.privs[core.index()]
            .l1
            .peek(line)
            .is_some_and(|e| e.meta.spec.any());
        if touched {
            self.abort_tx(core, AbortKind::LlcEviction, line, txs, acc);
        }
        let v = self.priv_nonspec(core, line);
        self.invalidate_private(core, line);
        v
    }
}
