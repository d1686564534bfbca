//! Whole-hierarchy coherence invariant checker, used by the test suite and
//! debug runs.

use commtm_cache::CohState;
use commtm_mem::{CoreId, FxHashMap, LineAddr, SharerSet};

use crate::dir::DirState;

use super::MemSystem;

impl MemSystem {
    /// Audits the entire hierarchy for protocol invariants:
    ///
    /// - inclusion: L1 ⊆ L2 ⊆ L3,
    /// - directory/private-state agreement in both directions,
    /// - a single exclusive owner; U sharers all carry the directory label,
    /// - the reserved way never holds U-state lines (when associativity
    ///   permits reservation),
    /// - speculative footprints are tracked in `spec_lines`.
    ///
    /// The private passes prove that the directory lists every private
    /// copy with a matching state. The directory side then only counts:
    /// if no sharer set is empty and the directories list as many copies
    /// as the private caches hold, they list nothing else, and every
    /// directory-to-private check holds. Only on a mismatch does the audit
    /// scan the directories line by line, to name the first bad line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut copies = 0usize;
        for (ci, p) in self.privs.iter().enumerate() {
            let core = CoreId::new(ci);
            for e in p.l1.iter() {
                let line = e.tag;
                let Some(l2e) = p.l2.inspect(line) else {
                    return Err(format!(
                        "{core}: L1 line {line} missing from L2 (inclusion)"
                    ));
                };
                if l2e.meta.state == CohState::I {
                    return Err(format!("{core}: L1 line {line} backed by invalid L2 state"));
                }
                if e.meta.spec.any() && !p.spec_lines.contains(&line) {
                    return Err(format!("{core}: speculative line {line} not in spec_lines"));
                }
            }
            for e in p.l2.iter() {
                copies += 1;
                let line = e.tag;
                let bank = self.bank_of(line);
                let Some(l3e) = self.l3[bank].inspect(line) else {
                    return Err(format!(
                        "{core}: private line {line} missing from L3 (inclusion)"
                    ));
                };
                let dir = l3e.meta.dir;
                match e.meta.state {
                    CohState::I => {
                        return Err(format!("{core}: invalid line {line} resident in L2"))
                    }
                    CohState::S => {
                        if !matches!(dir, DirState::Shared(s) if s.contains(core)) {
                            return Err(format!("{core}: S line {line} but directory is {dir:?}"));
                        }
                    }
                    CohState::E | CohState::M => {
                        if dir != DirState::Exclusive(core) {
                            return Err(format!(
                                "{core}: exclusive line {line} but directory is {dir:?}"
                            ));
                        }
                    }
                    CohState::U => {
                        let Some(label) = e.meta.label else {
                            return Err(format!("{core}: U line {line} without label"));
                        };
                        if !matches!(dir, DirState::Reducible(l, s) if l == label && s.contains(core))
                        {
                            return Err(format!(
                                "{core}: U({label}) line {line} but directory is {dir:?}"
                            ));
                        }
                        if self.cfg.l2.ways() > 1 && p.l2.way_of(line) == Some(0) {
                            return Err(format!(
                                "{core}: U line {line} occupies the reserved L2 way"
                            ));
                        }
                        if self.cfg.l1.ways() > 1 && p.l1.way_of(line) == Some(0) {
                            return Err(format!(
                                "{core}: U line {line} occupies the reserved L1 way"
                            ));
                        }
                    }
                }
            }
        }

        let mut listed = 0usize;
        let mut empty_set = false;
        for e in self.l3.iter().flat_map(|bank| bank.iter()) {
            let sharers = e.meta.dir.sharers();
            empty_set |= sharers.is_empty() && !e.meta.dir.is_uncached();
            listed += sharers.len();
        }
        if empty_set || listed != copies {
            return self.scan_directories();
        }
        Ok(())
    }

    /// The directory-side audit, line by line: every listed core holds the
    /// line in the listed state, and no other core holds it. Reports the
    /// first violation in L3 order.
    fn scan_directories(&self) -> Result<(), String> {
        // "Which cores hold this line privately" per L3 line, built once
        // from the private side: probing every core's L2 for every line
        // would be O(lines × cores).
        let mut residents: FxHashMap<LineAddr, SharerSet> = FxHashMap::default();
        for (ci, p) in self.privs.iter().enumerate() {
            let core = CoreId::new(ci);
            for e in p.l2.iter() {
                residents.entry(e.tag).or_default().insert(core);
            }
        }
        let foreign_resident = |line: LineAddr, allowed: &SharerSet| -> Option<CoreId> {
            residents
                .get(&line)
                .and_then(|s| s.iter().find(|t| !allowed.contains(*t)))
        };

        for bank in &self.l3 {
            for e in bank.iter() {
                let line = e.tag;
                match e.meta.dir {
                    DirState::Uncached => {
                        if let Some(t) = foreign_resident(line, &SharerSet::default()) {
                            return Err(format!(
                                "uncached line {line} resident at core{}",
                                t.index()
                            ));
                        }
                    }
                    DirState::Shared(s) => {
                        if s.is_empty() {
                            return Err(format!("shared line {line} with empty sharer set"));
                        }
                        for t in s.iter() {
                            let (st, _) = self.audited_state(t, line);
                            if st != CohState::S {
                                return Err(format!(
                                    "directory says {t} shares {line} but its state is {st}"
                                ));
                            }
                        }
                    }
                    DirState::Exclusive(o) => {
                        let (st, _) = self.audited_state(o, line);
                        if !matches!(st, CohState::E | CohState::M) {
                            return Err(format!(
                                "directory says {o} owns {line} but its state is {st}"
                            ));
                        }
                        if let Some(t) = foreign_resident(line, &SharerSet::single(o)) {
                            return Err(format!(
                                "exclusive line {line} also resident at core{}",
                                t.index()
                            ));
                        }
                    }
                    DirState::Reducible(l, s) => {
                        if s.is_empty() {
                            return Err(format!("reducible line {line} with empty sharer set"));
                        }
                        for t in s.iter() {
                            let (st, lbl) = self.audited_state(t, line);
                            if st != CohState::U || lbl != Some(l) {
                                return Err(format!(
                                    "directory says {t} holds {line} in U({l}) but its state \
                                     is {st} label {lbl:?}"
                                ));
                            }
                        }
                        if let Some(t) = foreign_resident(line, &s) {
                            return Err(format!(
                                "reducible line {line} resident at non-sharer core{}",
                                t.index()
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A core's coherence state and label for a line, read without
    /// counting a probe (see [`commtm_cache::CacheArray::inspect`]).
    fn audited_state(
        &self,
        core: CoreId,
        line: LineAddr,
    ) -> (CohState, Option<commtm_mem::LabelId>) {
        match self.privs[core.index()].l2.inspect(line) {
            Some(e) => (e.meta.state, e.meta.label),
            None => (CohState::I, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use commtm_cache::{EvictionClass, PrivMeta};
    use commtm_mem::{Addr, CoreId, LabelId, LineData, SharerSet};

    use super::*;
    use crate::{LabelDef, LabelTable, MemOp, ProtoConfig};

    const A: Addr = Addr::new(0x1000);
    const ADD: LabelId = LabelId::new(0);

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    /// A four-core Table I machine with an ADD label, after `ops`.
    fn sys_after(ops: &[(usize, MemOp)]) -> MemSystem {
        let mut labels = LabelTable::new();
        labels
            .register(LabelDef::new("ADD", LineData::zeroed(), |_, dst, src| {
                dst[0] = dst[0].wrapping_add(src[0]);
            }))
            .unwrap();
        let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), labels);
        for &(core, op) in ops {
            m.access(c(core), op, A);
        }
        m.check_invariants().expect("the setup is coherent");
        m
    }

    fn set_dir(m: &mut MemSystem, dir: DirState) {
        let bank = m.bank_of(A.line());
        m.l3[bank].get(A.line()).unwrap().meta.dir = dir;
    }

    fn rejects(m: &MemSystem, expected: &str) {
        assert_eq!(m.check_invariants(), Err(expected.to_string()));
    }

    #[test]
    fn rejects_an_l1_line_missing_from_the_l2() {
        let mut m = sys_after(&[(0, MemOp::Load)]);
        m.privs[0].l2.remove(A.line()).unwrap();
        rejects(&m, "core0: L1 line L0x40 missing from L2 (inclusion)");
    }

    #[test]
    fn rejects_a_private_line_missing_from_the_l3() {
        let mut m = sys_after(&[(0, MemOp::Load)]);
        let bank = m.bank_of(A.line());
        m.l3[bank].remove(A.line()).unwrap();
        rejects(&m, "core0: private line L0x40 missing from L3 (inclusion)");
    }

    #[test]
    fn rejects_an_s_copy_under_an_exclusive_directory() {
        let mut m = sys_after(&[(0, MemOp::Load)]);
        let meta = PrivMeta {
            state: CohState::S,
            label: None,
            dirty: false,
        };
        let l2 = &mut m.privs[1].l2;
        l2.fill(
            A.line(),
            LineData::zeroed(),
            meta,
            EvictionClass::NonReducible,
        );
        rejects(&m, "core1: S line L0x40 but directory is Exclusive(core0)");
    }

    #[test]
    fn rejects_a_directory_listing_a_core_that_holds_nothing() {
        let mut m = sys_after(&[(0, MemOp::Load), (1, MemOp::Load)]);
        let mut sharers = SharerSet::single(c(0));
        sharers.insert(c(1));
        sharers.insert(c(2));
        set_dir(&mut m, DirState::Shared(sharers));
        rejects(&m, "directory says core2 shares L0x40 but its state is I");
    }

    #[test]
    fn rejects_an_empty_sharer_set() {
        let mut m = sys_after(&[(0, MemOp::Load)]);
        m.privs[0].l1.remove(A.line()).unwrap();
        m.privs[0].l2.remove(A.line()).unwrap();
        set_dir(&mut m, DirState::Shared(SharerSet::default()));
        rejects(&m, "shared line L0x40 with empty sharer set");
    }

    #[test]
    fn rejects_a_u_line_in_the_reserved_way() {
        let mut m = sys_after(&[(0, MemOp::LoadL(ADD))]);
        let l2 = &mut m.privs[0].l2;
        let e = l2.remove(A.line()).unwrap();
        l2.fill(A.line(), e.data, e.meta, EvictionClass::Handler);
        assert_eq!(l2.way_of(A.line()), Some(0));
        rejects(&m, "core0: U line L0x40 occupies the reserved L2 way");
    }
}
