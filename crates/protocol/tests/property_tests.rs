//! Property-based tests: arbitrary interleavings of labeled and plain
//! operations must preserve the CommTM invariant — reducing the private
//! U-state copies always yields the value a sequential execution of the
//! committed operations would produce.

use proptest::prelude::*;

use commtm_mem::{Addr, CoreId, LineData, WORDS_PER_LINE};
use commtm_protocol::{LabelDef, LabelTable, MemOp, MemSystem, ProtoConfig, TxTable};

fn add_table() -> LabelTable {
    let mut t = LabelTable::new();
    t.register(
        LabelDef::new("ADD", LineData::zeroed(), |_, dst, src| {
            for i in 0..WORDS_PER_LINE {
                dst[i] = dst[i].wrapping_add(src[i]);
            }
        })
        .with_split(|_, local, out, n| {
            for i in 0..WORDS_PER_LINE {
                let v = local[i];
                let d = v.div_ceil(n as u64);
                out[i] = d;
                local[i] = v - d;
            }
        }),
    )
    .unwrap();
    t
}

const ADD: commtm_mem::LabelId = commtm_mem::LabelId::new(0);

/// One scripted non-transactional action.
#[derive(Clone, Debug)]
enum Action {
    /// `counter += delta` via labeled load + store at a core.
    LabeledAdd {
        core: usize,
        word: usize,
        delta: u64,
    },
    /// Plain read (forces a reduction) at a core.
    PlainRead { core: usize, word: usize },
    /// Plain overwrite at a core.
    PlainWrite {
        core: usize,
        word: usize,
        value: u64,
    },
    /// Gather at a core (redistributes, must not change the total).
    Gather { core: usize, word: usize },
}

fn action_strategy(cores: usize) -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0..cores, 0..WORDS_PER_LINE, 1u64..100)
            .prop_map(|(core, word, delta)| Action::LabeledAdd { core, word, delta }),
        2 => (0..cores, 0..WORDS_PER_LINE)
            .prop_map(|(core, word)| Action::PlainRead { core, word }),
        1 => (0..cores, 0..WORDS_PER_LINE, 0u64..1000)
            .prop_map(|(core, word, value)| Action::PlainWrite { core, word, value }),
        1 => (0..cores, 0..WORDS_PER_LINE)
            .prop_map(|(core, word)| Action::Gather { core, word }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential consistency of non-transactional mixes: every read
    /// observes the oracle value, and the final reduced state matches.
    #[test]
    fn reduce_fold_matches_sequential_oracle(
        actions in proptest::collection::vec(action_strategy(4), 1..120),
    ) {
        let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), add_table());
        let mut txs = TxTable::new(4);
        let base = Addr::new(0x4000);
        let mut oracle = [0u64; WORDS_PER_LINE];

        for a in &actions {
            match *a {
                Action::LabeledAdd { core, word, delta } => {
                    let addr = base.offset_words(word as u64);
                    let v = m.access(CoreId::new(core), MemOp::LoadL(ADD), addr, &mut txs).value;
                    m.access(CoreId::new(core), MemOp::StoreL(ADD, v.wrapping_add(delta)), addr, &mut txs);
                    oracle[word] = oracle[word].wrapping_add(delta);
                }
                Action::PlainRead { core, word } => {
                    let addr = base.offset_words(word as u64);
                    let v = m.access(CoreId::new(core), MemOp::Load, addr, &mut txs).value;
                    prop_assert_eq!(v, oracle[word], "plain read must observe the oracle");
                }
                Action::PlainWrite { core, word, value } => {
                    let addr = base.offset_words(word as u64);
                    m.access(CoreId::new(core), MemOp::Store(value), addr, &mut txs);
                    oracle[word] = value;
                }
                Action::Gather { core, word } => {
                    let addr = base.offset_words(word as u64);
                    m.access(CoreId::new(core), MemOp::Gather(ADD), addr, &mut txs);
                    // Redistribution must not change totals (checked below).
                }
            }
        }

        // Final state: every word reduces to the oracle.
        for (w, want) in oracle.iter().enumerate() {
            let v = m.access(CoreId::new(0), MemOp::Load, base.offset_words(w as u64), &mut txs).value;
            prop_assert_eq!(v, *want, "word {} must fold to the oracle", w);
        }
        m.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The paper's bounded decrement (Sec. IV) under arbitrary mixes of
    /// increments, gathers, and decrement attempts: gathers redistribute
    /// partials (possibly returning nothing when other sharers are dry —
    /// the NACK path), decrements fall back to a plain load, and the
    /// logical total is conserved at every step.
    #[test]
    fn bounded_decrement_gather_conserves(
        init in 0u64..=40,
        steps in proptest::collection::vec((0usize..3, 0u32..4), 1..80),
    ) {
        let mut m = MemSystem::new(ProtoConfig::paper_with_cores(3), add_table());
        let mut txs = TxTable::new(3);
        let addr = Addr::new(0xC000);
        m.poke_word(addr, init);
        let mut count = init;

        for (step, (core, kind)) in steps.into_iter().enumerate() {
            let c = CoreId::new(core);
            match kind {
                // Committed transactional increment.
                0 => {
                    txs.begin(c, step as u64 + 1);
                    let v = m.access(c, MemOp::LoadL(ADD), addr, &mut txs).value;
                    let r = m.access(c, MemOp::StoreL(ADD, v + 1), addr, &mut txs);
                    if r.self_abort.is_none() && txs.entry(c).active {
                        m.commit_core(c);
                        txs.end(c);
                        count += 1;
                    } else if txs.entry(c).active {
                        m.rollback_core(c);
                        txs.end(c);
                    }
                }
                // Bounded decrement: labeled load, gather if the local
                // partial is dry, plain load as the last resort. Only a
                // positive observed value permits the decrement.
                1 => {
                    txs.begin(c, step as u64 + 1);
                    let mut v = m.access(c, MemOp::LoadL(ADD), addr, &mut txs).value;
                    let mut aborted = false;
                    if v == 0 {
                        let r = m.access(c, MemOp::Gather(ADD), addr, &mut txs);
                        aborted |= r.self_abort.is_some();
                        v = r.value;
                    }
                    if v == 0 && !aborted {
                        let r = m.access(c, MemOp::Load, addr, &mut txs);
                        aborted |= r.self_abort.is_some();
                        v = r.value;
                    }
                    let mut decremented = false;
                    if v > 0 && !aborted {
                        let r = m.access(c, MemOp::StoreL(ADD, v - 1), addr, &mut txs);
                        aborted |= r.self_abort.is_some();
                        decremented = !aborted;
                    }
                    if !aborted && txs.entry(c).active {
                        m.commit_core(c);
                        txs.end(c);
                        if decremented {
                            count -= 1;
                        }
                    } else if txs.entry(c).active {
                        m.rollback_core(c);
                        txs.end(c);
                    }
                }
                // Non-transactional gather: pure redistribution.
                2 => {
                    m.access(c, MemOp::Gather(ADD), addr, &mut txs);
                }
                // Non-transactional plain read: forces a reduction and
                // must observe the exact logical count.
                _ => {
                    let v = m.access(c, MemOp::Load, addr, &mut txs).value;
                    prop_assert_eq!(v, count, "plain read must fold to the count");
                }
            }
            prop_assert_eq!(
                m.logical_w0(addr.line()),
                count,
                "logical total must be conserved after every step"
            );
        }
        m.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// Transactional counter mixes: committed increments are exactly
    /// preserved under arbitrary conflict interleavings.
    #[test]
    fn transactional_adds_never_lost(
        schedule in proptest::collection::vec((0usize..3, 1u64..20), 1..60),
    ) {
        let mut m = MemSystem::new(ProtoConfig::paper_with_cores(3), add_table());
        let mut txs = TxTable::new(3);
        let addr = Addr::new(0x8000);
        let mut committed = 0u64;

        for (step, (core, delta)) in schedule.into_iter().enumerate() {
            let c = CoreId::new(core);
            // One short transaction per step (sequentialized here; conflict
            // paths are exercised by the engine tests).
            txs.begin(c, step as u64 + 1);
            let v = m.access(c, MemOp::LoadL(ADD), addr, &mut txs).value;
            let r = m.access(c, MemOp::StoreL(ADD, v.wrapping_add(delta)), addr, &mut txs);
            if r.self_abort.is_none() && txs.entry(c).active {
                m.commit_core(c);
                txs.end(c);
                committed += delta;
            }
        }
        let v = m.access(CoreId::new(0), MemOp::Load, addr, &mut txs).value;
        prop_assert_eq!(v, committed);
    }
}
