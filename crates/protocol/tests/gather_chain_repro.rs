//! Reproduces a gather chain across three cores: a labeled list line is
//! split between two donors, and a third core's gather must collect both
//! fragments before its reduction observes the full list.

use commtm_mem::{Addr, CoreId, LineData, WORDS_PER_LINE};
use commtm_protocol::{LabelDef, LabelTable, MemOp, MemSystem, ProtoConfig};

fn table() -> LabelTable {
    let mut t = LabelTable::new();
    // The list label, as in commtm::labels::list().
    t.register(
        LabelDef::new("LIST", LineData::zeroed(), |ops, dst, src| {
            if src[0] == 0 {
                return;
            }
            if dst[0] == 0 {
                dst[0] = src[0];
                dst[1] = src[1];
            } else {
                ops.write(Addr::new(dst[1]), src[0]);
                dst[1] = src[1];
            }
        })
        .with_split(|ops, local, out, _n| {
            let head = local[0];
            if head == 0 {
                return;
            }
            let next = ops.read(Addr::new(head));
            local[0] = next;
            if next == 0 {
                local[1] = 0;
            }
            ops.write(Addr::new(head), 0);
            out[0] = head;
            out[1] = head;
        }),
    )
    .unwrap();
    t
}

const LIST: commtm_mem::LabelId = commtm_mem::LabelId::new(0);
const DESC: Addr = Addr::new(0x1000);
const NODE_A: Addr = Addr::new(0x2000);
const NODE_B: Addr = Addr::new(0x3000);
fn c(i: usize) -> CoreId {
    CoreId::new(i)
}

#[test]
fn split_from_retained_chain_detaches_donated_node() {
    let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), table());
    let _ = WORDS_PER_LINE;
    // Core 2 holds list {A}; core 3 holds list {B} (committed enqueues).
    m.access(c(2), MemOp::Store(0), NODE_A);
    m.access(c(2), MemOp::LoadL(LIST), DESC);
    m.access(c(2), MemOp::StoreL(LIST, NODE_A.raw()), DESC);
    m.access(
        c(2),
        MemOp::StoreL(LIST, NODE_A.raw()),
        DESC.offset_words(1),
    );
    m.access(c(3), MemOp::Store(0), NODE_B);
    m.access(c(3), MemOp::LoadL(LIST), DESC);
    m.access(c(3), MemOp::StoreL(LIST, NODE_B.raw()), DESC);
    m.access(
        c(3),
        MemOp::StoreL(LIST, NODE_B.raw()),
        DESC.offset_words(1),
    );
    // Core 1: OLDER tx with labeled footprint -> NACKs splits.
    m.tx_begin(c(1), 1);
    m.access(c(1), MemOp::LoadL(LIST), DESC);
    // Core 0: YOUNGER tx gathers: cores 2,3 donate A and B (chained A->B at
    // core 0); core 1 NACKs; core 0 aborts retaining the chain.
    m.tx_begin(c(0), 9);
    m.access(c(0), MemOp::LoadL(LIST), DESC);
    let r = m.access(c(0), MemOp::Gather(LIST), DESC);
    assert!(r.self_abort.is_some(), "core 1 must NACK");
    // Chain at core 0: head=A, tail=B, A.next=B.
    let head = m.access(c(0), MemOp::LoadL(LIST), DESC).value;
    assert_eq!(head, NODE_A.raw(), "retained chain head");
    // Core 1 commits; then gathers (no conflicts now): takes A from core 0.
    m.tx_commit(c(1));
    m.access(c(1), MemOp::LoadL(LIST), DESC);
    let got = m.access(c(1), MemOp::Gather(LIST), DESC);
    assert!(got.self_abort.is_none());
    assert_eq!(
        got.value,
        NODE_A.raw(),
        "core 1 receives the donated head A"
    );
    // THE CRITICAL CHECK: A was detached when donated, so A.next must be 0.
    let a_next = m.access(c(1), MemOp::Load, NODE_A).value;
    assert_eq!(
        a_next, 0,
        "donated node must be detached from the old chain"
    );
    m.check_invariants().unwrap();
}

#[test]
fn nacked_gather_chain_visible_to_retry() {
    let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), table());
    // Committed singleton lists at cores 2 and 3.
    m.access(c(2), MemOp::Store(0), NODE_A);
    m.access(c(2), MemOp::LoadL(LIST), DESC);
    m.access(c(2), MemOp::StoreL(LIST, NODE_A.raw()), DESC);
    m.access(
        c(2),
        MemOp::StoreL(LIST, NODE_A.raw()),
        DESC.offset_words(1),
    );
    m.access(c(3), MemOp::Store(0), NODE_B);
    m.access(c(3), MemOp::LoadL(LIST), DESC);
    m.access(c(3), MemOp::StoreL(LIST, NODE_B.raw()), DESC);
    m.access(
        c(3),
        MemOp::StoreL(LIST, NODE_B.raw()),
        DESC.offset_words(1),
    );
    // Core 0: older tx with labeled footprint (will NACK).
    m.tx_begin(c(0), 7);
    m.access(c(0), MemOp::LoadL(LIST), DESC);
    // Core 1: younger tx gathers: retains chain {A->B}, aborts on the NACK.
    m.tx_begin(c(1), 10);
    m.access(c(1), MemOp::LoadL(LIST), DESC);
    let r = m.access(c(1), MemOp::Gather(LIST), DESC);
    assert!(r.self_abort.is_some());
    // Retry: the retained chain head must be visible.
    m.tx_begin(c(1), 10);
    let v = m.access(c(1), MemOp::LoadL(LIST), DESC).value;
    assert_eq!(
        v,
        NODE_A.raw(),
        "retained chained donations must be visible to the retry"
    );
    m.check_invariants().unwrap();
}

#[test]
fn victim_abort_then_split_keeps_remainder_visible() {
    let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), table());
    m.access(c(2), MemOp::Store(0), NODE_A);
    m.access(c(2), MemOp::LoadL(LIST), DESC);
    m.access(c(2), MemOp::StoreL(LIST, NODE_A.raw()), DESC);
    m.access(
        c(2),
        MemOp::StoreL(LIST, NODE_A.raw()),
        DESC.offset_words(1),
    );
    m.access(c(3), MemOp::Store(0), NODE_B);
    m.access(c(3), MemOp::LoadL(LIST), DESC);
    m.access(c(3), MemOp::StoreL(LIST, NODE_B.raw()), DESC);
    m.access(
        c(3),
        MemOp::StoreL(LIST, NODE_B.raw()),
        DESC.offset_words(1),
    );
    // Core 1 (younger): gathers both donations -> chain {A->B} at core 1,
    // still inside its transaction (no NACK: others idle).
    m.tx_begin(c(1), 10);
    m.access(c(1), MemOp::LoadL(LIST), DESC);
    let r = m.access(c(1), MemOp::Gather(LIST), DESC);
    assert!(r.self_abort.is_none());
    assert_eq!(r.value, NODE_A.raw());
    // Core 0 (older): gathers; splits core 1 (victim aborts), taking A.
    m.tx_begin(c(0), 7);
    m.access(c(0), MemOp::LoadL(LIST), DESC);
    let r = m.access(c(0), MemOp::Gather(LIST), DESC);
    assert!(r.self_abort.is_none());
    assert_eq!(r.value, NODE_A.raw(), "core 0 takes the head A");
    assert!(!m.in_tx(c(1)), "core 1 must have been victim-aborted");
    // Core 1 retry: the remainder (B) must be visible.
    m.tx_begin(c(1), 10);
    let v = m.access(c(1), MemOp::LoadL(LIST), DESC).value;
    assert_eq!(
        v,
        NODE_B.raw(),
        "split remainder must be visible to the victim's retry"
    );
    m.check_invariants().unwrap();
}
