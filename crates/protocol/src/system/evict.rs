//! Eviction handling: L1, private L2, and inclusive-L3 victims
//! (Sec. III-B5).

use commtm_cache::{CohState, Entry, EvictionClass, L1Meta, PrivMeta};
use commtm_mem::{CoreId, LineAddr, LineData, SharerSet};
use rand::RngExt;

use crate::dir::{DirState, L3Meta};
use crate::types::AbortKind;

use super::dirflow::Home;
use super::{Acc, Copies, MemSystem};

impl MemSystem {
    /// Disposes an L1 victim. Dirty non-speculative data is pushed to the
    /// L2; evicting speculatively-accessed data aborts the core's
    /// transaction (the paper's L1-capacity abort rule).
    pub(crate) fn l1_evict(&mut self, core: CoreId, victim: Entry<L1Meta>, acc: &mut Acc) {
        if victim.meta.dirty && !victim.meta.spec.dirty_data {
            let p = &mut self.privs[core.index()];
            let l2e =
                p.l2.get(victim.tag)
                    .expect("inclusion: L1 line must be in L2");
            l2e.data = victim.data;
            l2e.meta.dirty = true;
        }
        if victim.meta.spec.any() {
            self.abort_tx(core, AbortKind::Eviction, victim.tag, acc);
        }
    }

    /// Disposes a private-L2 victim: the line leaves the core's hierarchy
    /// entirely. U-state victims follow Sec. III-B5: sole sharers write
    /// back; otherwise the partial value is forwarded to a random co-sharer
    /// and reduced there, aborting that sharer's transaction if it touched
    /// the line.
    pub(crate) fn l2_evict(&mut self, core: CoreId, victim: Entry<PrivMeta>, acc: &mut Acc) {
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
            self.abort_tx(core, AbortKind::Eviction, line, acc);
        }

        // One L3 probe for the whole disposal (inclusion guarantees
        // residency); only the U-forward arm may probe again, after its
        // handler.
        let mut home = self.home(line);

        match victim.meta.state {
            CohState::I => unreachable!("invalid line resident in L2"),
            CohState::S => {
                let DirState::Shared(mut s) = self.dir(&mut home) else {
                    panic!("S eviction with inconsistent directory for {line}");
                };
                s.remove(core);
                self.set_dir(&mut home, DirState::shared_or_uncached(s));
            }
            CohState::E => {
                self.set_dir(&mut home, DirState::Uncached);
            }
            CohState::M => {
                self.set_home_data(&mut home, nonspec, true);
                self.set_dir(&mut home, DirState::Uncached);
                self.stats.core_mut(core).writebacks += 1;
            }
            CohState::U => {
                let DirState::Reducible(label, mut s) = self.dir(&mut home) else {
                    panic!("U eviction with inconsistent directory for {line}");
                };
                s.remove(core);
                if s.is_empty() {
                    // Sole sharer: a normal dirty writeback.
                    self.set_home_data(&mut home, nonspec, true);
                    self.set_dir(&mut home, DirState::Uncached);
                    self.stats.core_mut(core).writebacks += 1;
                } else {
                    // Forward to a random co-sharer, which reduces it into
                    // its local line.
                    let pick = self.rng.random_range(0..s.len());
                    let t = s.iter().nth(pick).expect("pick is below the sharer count");
                    let mut tc = Copies::new(t, line);
                    if self.spec_bits(&mut tc).is_some_and(|b| b.any()) {
                        self.abort_tx(t, AbortKind::UEvictionForward, line, acc);
                    }
                    let mut merged = self.priv_nonspec(&mut tc);
                    self.run_reduce(t, label, &mut merged, &nonspec, acc);
                    self.set_nonspec_value(&mut tc, merged);
                    self.set_dir(&mut home, DirState::Reducible(label, s));
                    self.stats.core_mut(core).u_evict_forwards += 1;
                }
            }
        }
    }

    /// Ensures a line is resident in its L3 bank, fetching from memory and
    /// evicting (with recalls) as needed. Returns the line's home entry,
    /// the single L3 probe the calling directory flow reuses throughout.
    pub(crate) fn l3_ensure(&mut self, line: LineAddr, acc: &mut Acc, handler: bool) -> Home {
        let mut home = self.home(line);
        let bank = home.bank;
        if self.l3[bank].reach(&mut home.held, line).is_some() {
            return home;
        }
        acc.lat(self.cfg.mem_latency);
        let data = self.mem.read_line(line);
        let class = if handler {
            EvictionClass::Handler
        } else {
            EvictionClass::NonReducible
        };
        let out = self.l3[bank].fill(line, data, L3Meta::default(), class);
        home.held = self.l3[bank].hold(Some(out.slot));
        if let Some(v) = out.victim {
            // Disposing the victim can recall lines and run reduction
            // handlers, whose own misses may recursively fill this bank —
            // in the worst case evicting the line just installed. The
            // bank's epoch then tells the next access to probe again.
            self.l3_evict(v, acc);
        }
        home
    }

    /// Disposes an L3 victim. The L3 is inclusive, so all private copies
    /// are recalled; any transaction that accessed the line aborts
    /// (recalls are non-speculative and cannot be NACKed). Reducible
    /// victims are folded before writing back (Sec. III-B5).
    pub(crate) fn l3_evict(&mut self, victim: Entry<L3Meta>, acc: &mut Acc) {
        let line = victim.tag;
        match victim.meta.dir {
            DirState::Uncached => {
                if victim.meta.dirty {
                    self.mem.write_line(line, victim.data);
                }
            }
            DirState::Shared(s) => {
                for t in s.iter() {
                    self.recall(t, line, acc);
                }
                if victim.meta.dirty {
                    self.mem.write_line(line, victim.data);
                }
            }
            DirState::Exclusive(owner) => {
                let v = self.recall(owner, line, acc);
                self.mem.write_line(line, v);
            }
            DirState::Reducible(label, s) => {
                let mut fold: Option<LineData> = None;
                let merge_at = s.iter().next().expect("reducible state with no sharers");
                let sharers: SharerSet = s;
                for t in sharers.iter() {
                    let v = self.recall(t, line, acc);
                    fold = Some(match fold {
                        None => v,
                        Some(mut f) => {
                            self.run_reduce(merge_at, label, &mut f, &v, acc);
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
    fn recall(&mut self, core: CoreId, line: LineAddr, acc: &mut Acc) -> LineData {
        let mut c = Copies::new(core, line);
        if self.spec_bits(&mut c).is_some_and(|b| b.any()) {
            self.abort_tx(core, AbortKind::LlcEviction, line, acc);
        }
        let v = self.priv_nonspec(&mut c);
        self.invalidate_private(&mut c);
        v
    }
}
