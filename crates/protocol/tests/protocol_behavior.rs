//! Behavioral tests for the MESI+U protocol engine: the GETU cases of
//! Sec. III-B3, reductions, NACK semantics (Fig. 6), gathers (Fig. 8), and
//! eviction flows (Sec. III-B5).

use commtm_cache::CohState;
use commtm_mem::{Addr, CoreId, LineData, WORDS_PER_LINE};
use commtm_protocol::{
    AbortKind, LabelDef, LabelTable, MemOp, MemSystem, ProtoConfig, ProtoEvent, TraceEventKind,
};

fn add_label_table() -> LabelTable {
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
                let donation = v.div_ceil(n as u64);
                out[i] = donation;
                local[i] = v - donation;
            }
        }),
    )
    .unwrap();
    t.register(LabelDef::new(
        "MIN",
        LineData::splat(u64::MAX),
        |_, dst, src| {
            for i in 0..WORDS_PER_LINE {
                dst[i] = dst[i].min(src[i]);
            }
        },
    ))
    .unwrap();
    t
}

fn sys(cores: usize) -> MemSystem {
    MemSystem::new(ProtoConfig::paper_with_cores(cores), add_label_table())
}

/// The victim aborts queued since they were last taken.
fn events(m: &mut MemSystem) -> Vec<ProtoEvent> {
    std::iter::from_fn(|| m.next_event()).collect()
}

fn c(i: usize) -> CoreId {
    CoreId::new(i)
}

const ADD: commtm_mem::LabelId = commtm_mem::LabelId::new(0);
const MIN: commtm_mem::LabelId = commtm_mem::LabelId::new(1);

const A: Addr = Addr::new(0x1000);

#[test]
fn getu_case1_first_requester_receives_data() {
    let mut m = sys(4);
    m.poke_word(A, 24);
    let r = m.access(c(0), MemOp::LoadL(ADD), A);
    assert_eq!(
        r.value, 24,
        "Fig. 4a: first GETU requester obtains the data"
    );
    assert!(r.self_abort.is_none());
    assert_eq!(m.line_state(c(0), A.line()).0, CohState::U);
    m.check_invariants().unwrap();
}

#[test]
fn getu_case4_same_label_sharer_gets_identity() {
    let mut m = sys(4);
    m.poke_word(A, 24);
    m.access(c(0), MemOp::LoadL(ADD), A);
    let r = m.access(c(1), MemOp::LoadL(ADD), A);
    assert_eq!(
        r.value, 0,
        "same-label sharers initialize with the identity value"
    );
    assert_eq!(m.line_state(c(1), A.line()).0, CohState::U);
    m.check_invariants().unwrap();
}

#[test]
fn getu_case5_downgrades_exclusive_owner_who_keeps_data() {
    let mut m = sys(4);
    m.poke_word(A, 20);
    // Core 1 becomes the exclusive (M) owner.
    m.access(c(1), MemOp::Store(24), A);
    assert_eq!(m.line_state(c(1), A.line()).0, CohState::M);
    // Core 0 issues a labeled load: owner downgraded M -> U, keeps 24;
    // requester initializes with identity 0 (Fig. 4b).
    let r = m.access(c(0), MemOp::LoadL(ADD), A);
    assert_eq!(r.value, 0);
    assert_eq!(m.line_state(c(0), A.line()).0, CohState::U);
    assert_eq!(m.line_state(c(1), A.line()).0, CohState::U);
    m.check_invariants().unwrap();
    // A plain read must reduce 24 + 0 = 24.
    let r = m.access(c(2), MemOp::Load, A);
    assert_eq!(r.value, 24);
    m.check_invariants().unwrap();
}

#[test]
fn concurrent_adds_reduce_to_sum_on_plain_read() {
    let mut m = sys(8);
    m.poke_word(A, 100);
    // Each core buffers local commutative additions.
    for i in 0..8 {
        let v = m.access(c(i), MemOp::LoadL(ADD), A).value;
        m.access(c(i), MemOp::StoreL(ADD, v + 1 + i as u64), A);
    }
    m.check_invariants().unwrap();
    // Plain read triggers a full reduction: 100 + sum(1..=8... ) with the
    // first sharer having received the base 100.
    let expect = 100 + (0..8).map(|i| 1 + i as u64).sum::<u64>();
    let r = m.access(c(0), MemOp::Load, A);
    assert_eq!(r.value, expect);
    assert_eq!(m.line_state(c(0), A.line()).0, CohState::M);
    // All other copies invalidated.
    for i in 1..8 {
        assert_eq!(m.line_state(c(i), A.line()).0, CohState::I);
    }
    m.check_invariants().unwrap();
}

#[test]
fn labeled_ops_in_transactions_do_not_conflict() {
    let mut m = sys(4);
    m.poke_word(A, 0);
    for i in 0..4 {
        m.tx_begin(c(i), i as u64);
        let v = m.access(c(i), MemOp::LoadL(ADD), A).value;
        let r = m.access(c(i), MemOp::StoreL(ADD, v + 1), A);
        assert!(r.self_abort.is_none());
        assert!(
            events(&mut m).is_empty(),
            "commutative updates must not conflict"
        );
    }
    for i in 0..4 {
        m.tx_commit(c(i));
    }
    let r = m.access(c(0), MemOp::Load, A);
    assert_eq!(r.value, 4);
    m.check_invariants().unwrap();
}

#[test]
fn older_reader_aborts_younger_labeled_writer() {
    let mut m = sys(4);
    m.poke_word(A, 0);
    // Core 1 (younger, ts=10) performs a labeled update in a transaction.
    m.tx_begin(c(1), 10);
    let v = m.access(c(1), MemOp::LoadL(ADD), A).value;
    m.access(c(1), MemOp::StoreL(ADD, v + 5), A);
    // Core 0 (older, ts=1) reads: the reduction invalidates core 1's line,
    // aborting it; the read must see only committed state (0).
    m.tx_begin(c(0), 1);
    let r = m.access(c(0), MemOp::Load, A);
    assert!(r.self_abort.is_none());
    assert_eq!(
        events(&mut m),
        vec![ProtoEvent::Aborted {
            core: c(1),
            cause: AbortKind::ReadAfterWrite
        }]
    );
    assert_eq!(r.value, 0, "speculative labeled update must not be visible");
    assert!(!m.in_tx(c(1)));
    m.tx_commit(c(0));
    m.check_invariants().unwrap();
}

/// `tx_begin`/`tx_commit` move the transaction table and the tracer
/// together, and a victim abort ends the victim's transaction before the
/// attacker's access returns, queueing exactly one event for the driver.
#[test]
fn tx_lifecycle_moves_table_and_tracer_together() {
    const B: Addr = Addr::new(0x2000);
    let mut m = sys(3);
    m.tracer_mut().start(3, "commtm", 0);

    // Core 0 commits a store on its own line.
    m.tracer_mut().step(c(0), 1);
    m.tx_begin(c(0), 1);
    assert!(m.in_tx(c(0)));
    assert!(m.access(c(0), MemOp::Store(5), A).self_abort.is_none());
    m.tx_commit(c(0));
    assert!(!m.in_tx(c(0)));

    // Core 1 (younger) writes B speculatively; core 2 (older) reads it.
    m.tracer_mut().step(c(1), 2);
    m.tx_begin(c(1), 5);
    m.access(c(1), MemOp::Store(7), B);
    m.tracer_mut().step(c(2), 3);
    m.tx_begin(c(2), 2);
    let r = m.access(c(2), MemOp::Load, B);
    assert!(r.self_abort.is_none());
    assert_eq!(r.value, 0, "the victim's speculative store is rolled back");
    assert!(
        !m.in_tx(c(1)),
        "victim ends before the attacker's access returns"
    );
    assert!(m.in_tx(c(2)));
    assert_eq!(
        events(&mut m),
        vec![ProtoEvent::Aborted {
            core: c(1),
            cause: AbortKind::ReadAfterWrite
        }]
    );
    assert!(events(&mut m).is_empty(), "draining empties the queue");
    m.tx_commit(c(2));
    // The driver traces the victim's abort when it delivers the event.
    m.tracer_mut().step(c(1), 4);
    m.tracer_mut().abort(c(1), AbortKind::ReadAfterWrite);

    let trace = m.tracer_mut().take().expect("trace captured");
    let lifecycle = |core: usize| -> Vec<TraceEventKind> {
        trace
            .events
            .iter()
            .filter(|e| e.core == core)
            .map(|e| e.kind.clone())
            .filter(|k| {
                matches!(
                    k,
                    TraceEventKind::Begin { .. }
                        | TraceEventKind::Commit
                        | TraceEventKind::Abort { .. }
                )
            })
            .collect()
    };
    assert_eq!(
        lifecycle(0),
        [TraceEventKind::Begin { ts: 1 }, TraceEventKind::Commit]
    );
    assert_eq!(
        lifecycle(1),
        [
            TraceEventKind::Begin { ts: 5 },
            TraceEventKind::Abort {
                cause: AbortKind::ReadAfterWrite,
                attacker: Some(2),
                line: Some(B.line().raw()),
            }
        ]
    );
    assert_eq!(
        lifecycle(2),
        [TraceEventKind::Begin { ts: 2 }, TraceEventKind::Commit]
    );
    m.check_invariants().unwrap();
}

#[test]
fn younger_reader_is_nacked_and_keeps_partial_reduction() {
    let mut m = sys(4);
    m.poke_word(A, 3);
    // Core 2 holds a committed partial delta (25), core 1 holds a
    // speculative one from an older transaction.
    m.access(c(2), MemOp::LoadL(ADD), A); // receives base 3
    m.access(c(2), MemOp::StoreL(ADD, 3 + 25), A);
    m.tx_begin(c(1), 5);
    m.access(c(1), MemOp::LoadL(ADD), A); // identity 0
    m.access(c(1), MemOp::StoreL(ADD, 1), A);
    // Core 0, younger (ts=7), plain-reads: core 1 NACKs (older), core 2's
    // committed value is still collected; requester keeps the partial in U
    // and aborts (Fig. 6 semantics).
    m.tx_begin(c(0), 7);
    let r = m.access(c(0), MemOp::Load, A);
    assert_eq!(r.self_abort, Some(AbortKind::ReadAfterWrite));
    assert!(!m.in_tx(c(0)), "NACKed requester transaction ends");
    assert_eq!(m.line_state(c(0), A.line()).0, CohState::U);
    assert_eq!(m.line_state(c(1), A.line()).0, CohState::U);
    m.check_invariants().unwrap();
    // Core 1's speculative delta survives; commit it and reduce:
    m.tx_commit(c(1));
    let r = m.access(c(3), MemOp::Load, A);
    assert_eq!(r.value, 3 + 25 + 1);
    m.check_invariants().unwrap();
}

#[test]
fn self_demotion_on_unlabeled_access_to_own_speculative_labeled_data() {
    let mut m = sys(4);
    m.poke_word(A, 0);
    // Another sharer exists, so the plain read needs a true reduction.
    m.access(c(1), MemOp::LoadL(ADD), A);
    m.tx_begin(c(0), 1);
    let v = m.access(c(0), MemOp::LoadL(ADD), A).value;
    m.access(c(0), MemOp::StoreL(ADD, v + 9), A);
    // Unlabeled read of the same data within the same transaction.
    let r = m.access(c(0), MemOp::Load, A);
    assert_eq!(r.self_abort, Some(AbortKind::SelfDemote));
    assert!(!m.in_tx(c(0)));
    // The speculative delta 9 was discarded with the abort.
    let r = m.access(c(2), MemOp::Load, A);
    assert_eq!(r.value, 0);
    m.check_invariants().unwrap();
}

#[test]
fn sole_sharer_plain_access_needs_no_reduction_or_abort() {
    let mut m = sys(4);
    m.poke_word(A, 7);
    m.tx_begin(c(0), 1);
    let v = m.access(c(0), MemOp::LoadL(ADD), A).value;
    m.access(c(0), MemOp::StoreL(ADD, v + 1), A);
    // Sole U copy: the paper only reduces when other copies exist; the
    // transaction continues.
    let r = m.access(c(0), MemOp::Load, A);
    assert!(r.self_abort.is_none());
    assert_eq!(r.value, 8);
    assert_eq!(m.line_state(c(0), A.line()).0, CohState::M);
    m.tx_commit(c(0));
    assert_eq!(m.access(c(1), MemOp::Load, A).value, 8);
    m.check_invariants().unwrap();
}

#[test]
fn cross_label_request_triggers_reduction_and_relabel() {
    let mut m = sys(4);
    m.poke_word(A, 10);
    m.access(c(0), MemOp::LoadL(ADD), A);
    m.access(c(0), MemOp::StoreL(ADD, 10 + 5), A);
    m.access(c(1), MemOp::LoadL(ADD), A);
    m.access(c(1), MemOp::StoreL(ADD, 2), A);
    // MIN-labeled access: reduce ADD partials (15 + 2), then enter U(MIN).
    let r = m.access(c(2), MemOp::LoadL(MIN), A);
    assert_eq!(r.value, 17);
    let (st, lbl) = m.line_state(c(2), A.line());
    assert_eq!(st, CohState::U);
    assert_eq!(lbl, Some(MIN));
    assert_eq!(m.line_state(c(0), A.line()).0, CohState::I);
    m.check_invariants().unwrap();
}

#[test]
fn gather_redistributes_value_without_leaving_u() {
    let mut m = sys(4);
    m.poke_word(A, 0);
    // Core 1 accumulates 19, core 3 accumulates 16; cores 0 and 2 hold 0.
    for (core, v) in [(1usize, 19u64), (3, 16)] {
        let base = m.access(c(core), MemOp::LoadL(ADD), A).value;
        m.access(c(core), MemOp::StoreL(ADD, base + v), A);
    }
    m.access(c(0), MemOp::LoadL(ADD), A);
    let local = m.access(c(2), MemOp::LoadL(ADD), A).value;
    assert_eq!(local, 0);
    // Core 2 gathers: splitters donate ceil(v/4) from each sharer.
    let r = m.access(c(2), MemOp::Gather(ADD), A);
    assert!(r.self_abort.is_none());
    let expected = 19u64.div_ceil(4) + 16u64.div_ceil(4); // 5 + 4
    assert_eq!(
        r.value, expected,
        "Fig. 8: donations accumulate at the requester"
    );
    // Everyone stays in U.
    for i in 0..4 {
        assert_eq!(m.line_state(c(i), A.line()).0, CohState::U, "core {i}");
    }
    m.check_invariants().unwrap();
    // Total value is conserved.
    let total = m.access(c(0), MemOp::Load, A).value;
    assert_eq!(total, 35);
    m.check_invariants().unwrap();
}

#[test]
fn gather_split_conflicts_with_speculative_toucher_by_timestamp() {
    let mut m = sys(4);
    m.poke_word(A, 0);
    // Core 1 (older tx) updates the counter speculatively.
    m.tx_begin(c(1), 1);
    let v = m.access(c(1), MemOp::LoadL(ADD), A).value;
    m.access(c(1), MemOp::StoreL(ADD, v + 8), A);
    // Core 0 (younger tx) joins in U and gathers: core 1 NACKs the split.
    m.tx_begin(c(0), 9);
    m.access(c(0), MemOp::LoadL(ADD), A);
    let r = m.access(c(0), MemOp::Gather(ADD), A);
    assert_eq!(r.self_abort, Some(AbortKind::GatherAfterLabeled));
    assert!(m.in_tx(c(1)), "older transaction survives the gather");
    m.tx_commit(c(1));
    m.check_invariants().unwrap();
    assert_eq!(m.access(c(2), MemOp::Load, A).value, 8);
}

#[test]
fn write_after_read_conflict_arbitrated_by_timestamp() {
    let mut m = sys(4);
    m.poke_word(A, 1);
    // Older tx reads A.
    m.tx_begin(c(0), 1);
    assert_eq!(m.access(c(0), MemOp::Load, A).value, 1);
    // Younger tx writes A: core 0 NACKs, requester aborts.
    m.tx_begin(c(1), 5);
    let r = m.access(c(1), MemOp::Store(2), A);
    assert_eq!(r.self_abort, Some(AbortKind::WriteAfterRead));
    assert!(m.in_tx(c(0)));
    m.tx_commit(c(0));
    // Now the write proceeds (no transaction).
    let r = m.access(c(1), MemOp::Store(2), A);
    assert!(r.self_abort.is_none());
    assert_eq!(m.access(c(2), MemOp::Load, A).value, 2);
    m.check_invariants().unwrap();
}

#[test]
fn read_read_sharing_never_conflicts() {
    let mut m = sys(4);
    m.poke_word(A, 42);
    m.tx_begin(c(0), 1);
    m.tx_begin(c(1), 2);
    assert_eq!(m.access(c(0), MemOp::Load, A).value, 42);
    let r = m.access(c(1), MemOp::Load, A);
    assert!(r.self_abort.is_none());
    assert!(events(&mut m).is_empty());
    assert!(m.in_tx(c(0)) && m.in_tx(c(1)));
    m.check_invariants().unwrap();
}

#[test]
fn abort_rolls_back_speculative_plain_writes() {
    let mut m = sys(4);
    m.poke_word(A, 10);
    m.tx_begin(c(0), 5);
    m.access(c(0), MemOp::Store(99), A);
    // Older reader forces core 0 to abort.
    m.tx_begin(c(1), 1);
    let r = m.access(c(1), MemOp::Load, A);
    assert_eq!(r.value, 10, "aborted speculative store must not be visible");
    assert_eq!(
        events(&mut m),
        vec![ProtoEvent::Aborted {
            core: c(0),
            cause: AbortKind::ReadAfterWrite
        }]
    );
    m.check_invariants().unwrap();
}

#[test]
fn commit_makes_speculative_writes_durable() {
    let mut m = sys(4);
    m.poke_word(A, 10);
    m.tx_begin(c(0), 5);
    m.access(c(0), MemOp::Store(99), A);
    m.tx_commit(c(0));
    assert_eq!(m.access(c(1), MemOp::Load, A).value, 99);
    m.check_invariants().unwrap();
}

/// Regression: a labeled store hitting an E-state copy (a plain read
/// brought the line in exclusively, then a labeled RMW hit it locally)
/// must upgrade the line to M like a plain store would. The line used to
/// stay "E", so the read-share downgrade treated it as clean, skipped the
/// L3 writeback, and the committed update was silently resurrected from
/// the stale L3 copy once the S copies died — creating value out of thin
/// air in ADD workloads with read-then-update access patterns.
#[test]
fn labeled_store_on_exclusive_copy_upgrades_to_m() {
    let mut m = sys(4);
    m.poke_word(A, 128);
    // Plain read: sole sharer takes the line in E.
    assert_eq!(m.access(c(0), MemOp::Load, A).value, 128);
    assert_eq!(m.line_state(c(0), A.line()).0, CohState::E);
    // Labeled RMW on the exclusive copy, committed.
    m.tx_begin(c(0), 1);
    assert_eq!(m.access(c(0), MemOp::LoadL(ADD), A).value, 128);
    m.access(c(0), MemOp::StoreL(ADD, 126), A);
    m.tx_commit(c(0));
    assert_eq!(
        m.line_state(c(0), A.line()).0,
        CohState::M,
        "dirtied copy is M"
    );
    // Another core's plain read downgrades the owner: the committed value
    // must be written back and served, not the stale memory copy.
    assert_eq!(m.access(c(1), MemOp::Load, A).value, 126);
    assert_eq!(m.logical_w0(A.line()), 126, "no resurrection from stale L3");
    m.check_invariants().unwrap();
}

#[test]
fn u_state_counts_as_getu_traffic() {
    let mut m = sys(2);
    m.poke_word(A, 0);
    m.access(c(0), MemOp::LoadL(ADD), A);
    m.access(c(0), MemOp::StoreL(ADD, 1), A);
    m.access(c(1), MemOp::LoadL(ADD), A);
    let t = m.stats().total();
    assert_eq!(t.getu, 2, "one GETU per first labeled touch per core");
    assert_eq!(t.gets + t.getx, 0);
    // Subsequent labeled ops hit locally: no further directory traffic.
    m.access(c(0), MemOp::StoreL(ADD, 2), A);
    assert_eq!(m.stats().total().getu, 2);
}

#[test]
fn capacity_eviction_of_speculative_line_aborts() {
    let cfg = ProtoConfig::tiny(2);
    let l1_lines = cfg.l1.lines();
    let mut m = MemSystem::new(cfg, add_label_table());
    m.tx_begin(c(0), 1);
    // Touch more distinct lines than the L1 can hold.
    let mut aborted = false;
    for i in 0..(l1_lines + 4) {
        let a = Addr::new(0x4000 + (i as u64) * 64);
        let r = m.access(c(0), MemOp::Store(i as u64), a);
        if r.self_abort.is_some() {
            assert_eq!(r.self_abort, Some(AbortKind::Eviction));
            aborted = true;
            break;
        }
    }
    assert!(
        aborted,
        "overflowing the L1 with speculative data must abort"
    );
    m.check_invariants().unwrap();
}

#[test]
fn u_eviction_forwards_partial_value_to_co_sharer() {
    let cfg = ProtoConfig::tiny(2);
    let mut m = MemSystem::new(cfg, add_label_table());
    let a0 = Addr::new(0x8000);
    m.poke_word(a0, 0);
    // Both cores hold partial deltas (committed, non-transactional).
    for core in 0..2 {
        let v = m.access(c(core), MemOp::LoadL(ADD), a0).value;
        m.access(c(core), MemOp::StoreL(ADD, v + 10), a0);
    }
    // Thrash core 0's tiny L2 with conflicting-set lines until a0 leaves.
    let l2_sets = m.config().l2.sets() as u64;
    let mut evicted = false;
    for i in 1..64 {
        let alias = Addr::new(0x8000 + i * 64 * l2_sets);
        m.access(c(0), MemOp::Store(1), alias);
        if m.line_state(c(0), a0.line()).0 == CohState::I {
            evicted = true;
            break;
        }
    }
    assert!(evicted, "aliased fills must evict the U line");
    m.check_invariants().unwrap();
    // Core 0's 10 was folded into core 1's line: total conserved.
    let total = m.access(c(1), MemOp::Load, a0).value;
    assert_eq!(total, 20);
    assert!(m.stats().total().u_evict_forwards >= 1);
}

#[test]
fn plain_value_flow_through_hierarchy() {
    let mut m = sys(4);
    // Write on one core, read on others, write again elsewhere.
    m.access(c(0), MemOp::Store(5), A);
    assert_eq!(m.access(c(1), MemOp::Load, A).value, 5);
    assert_eq!(m.access(c(2), MemOp::Load, A).value, 5);
    m.access(c(3), MemOp::Store(6), A);
    assert_eq!(m.access(c(0), MemOp::Load, A).value, 6);
    m.check_invariants().unwrap();
}

#[test]
fn word_neighbors_within_line_are_independent() {
    let mut m = sys(2);
    let a1 = A.offset_words(1);
    m.access(c(0), MemOp::Store(1), A);
    m.access(c(0), MemOp::Store(2), a1);
    assert_eq!(m.access(c(1), MemOp::Load, A).value, 1);
    assert_eq!(m.access(c(1), MemOp::Load, a1).value, 2);
}

#[test]
#[should_panic(expected = "handlers must not trigger reductions")]
fn handler_touching_reducible_data_panics() {
    let mut t = LabelTable::new();
    let poison = Addr::new(0x9000);
    t.register(LabelDef::new(
        "BAD",
        LineData::zeroed(),
        move |ops, dst, src| {
            // Touch another reducible line from inside the handler.
            ops.read(poison);
            for i in 0..WORDS_PER_LINE {
                dst[i] = dst[i].wrapping_add(src[i]);
            }
        },
    ))
    .unwrap();
    let cfg = ProtoConfig::paper_with_cores(4);
    let mut m = MemSystem::new(cfg, t);
    let bad = commtm_mem::LabelId::new(0);
    // Make `poison` reducible.
    m.access(c(2), MemOp::LoadL(bad), poison);
    m.access(c(3), MemOp::LoadL(bad), poison);
    // Create two partial copies of A, then force a reduction.
    m.access(c(0), MemOp::LoadL(bad), A);
    m.access(c(1), MemOp::LoadL(bad), A);
    m.access(c(0), MemOp::Load, A);
}

#[test]
fn latency_orders_sanely() {
    let mut m = sys(4);
    m.poke_word(A, 1);
    // Cold miss (memory) on core 0.
    let cold = m.access(c(0), MemOp::Load, A).latency;
    // L1 hit.
    let hit = m.access(c(0), MemOp::Load, A).latency;
    assert!(
        cold >= m.config().mem_latency,
        "cold miss pays memory latency"
    );
    assert_eq!(hit, 0, "L1 hits are covered by the 1-cycle issue cost");
    // L2 miss served by L3 (warm): another core reads the same line.
    let warm = m.access(c(1), MemOp::Load, A).latency;
    assert!(warm < cold, "L3 hit must be cheaper than memory");
    assert!(warm >= m.config().l3_latency);
}
