//! Reproduces a gather hitting a transaction's speculative labeled data:
//! the owner defends its fragment with a NACK instead of surrendering
//! state the gatherer could then commit against. The two loops at the end
//! repeat the all-donors and the NACK outcomes 1,024 times each and check
//! conservation and the coherence invariants afterwards.

use commtm_cache::CohState;
use commtm_mem::{Addr, CoreId, LineData, WORDS_PER_LINE};
use commtm_protocol::{LabelDef, LabelTable, MemOp, MemSystem, ProtoConfig};

fn table() -> LabelTable {
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
const A: Addr = Addr::new(0x1000);
fn c(i: usize) -> CoreId {
    CoreId::new(i)
}

#[test]
fn nacked_gather_retains_donations_visibly() {
    let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), table());
    m.poke_word(A, 0);
    // Core 0: committed value 12 in its U copy.
    m.access(c(0), MemOp::LoadL(ADD), A);
    m.access(c(0), MemOp::StoreL(ADD, 12), A);
    // Core 1: OLDER tx with a labeled footprint (will NACK splits).
    m.tx_begin(c(1), 1);
    let v = m.access(c(1), MemOp::LoadL(ADD), A).value;
    m.access(c(1), MemOp::StoreL(ADD, v + 7), A);
    // Core 2: YOUNGER tx gathers: core 0 donates, core 1 NACKs -> core 2
    // aborts but must retain the donation.
    m.tx_begin(c(2), 9);
    m.access(c(2), MemOp::LoadL(ADD), A);
    let r = m.access(c(2), MemOp::Gather(ADD), A);
    assert!(r.self_abort.is_some());
    assert_eq!(m.line_state(c(2), A.line()).0, CohState::U);
    // Retry outside tx: the local labeled load must see the retained donation (ceil(12/3)=4).
    let v = m.access(c(2), MemOp::LoadL(ADD), A).value;
    assert_eq!(v, 4, "retained donation must be visible to the retry");
    m.check_invariants().unwrap();
    // Total conserved.
    m.tx_commit(c(1));
    assert_eq!(m.access(c(3), MemOp::Load, A).value, 19);
}

/// Core 3 gathers 1,024 times from three committed U sharers: the
/// donations all flow to the gatherer and the total is conserved.
#[test]
fn repeated_gathers_drain_every_donor() {
    let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), table());
    m.poke_word(A, 0);
    for i in 0..4 {
        m.access(c(i), MemOp::LoadL(ADD), A);
    }
    m.access(c(0), MemOp::StoreL(ADD, 1 << 40), A);
    let mut got = 0;
    for _ in 0..1024 {
        got = m.access(c(3), MemOp::Gather(ADD), A).value;
        assert_eq!(
            m.logical_w0(A.line()),
            1 << 40,
            "gathers conserve the total"
        );
    }
    assert_eq!(got, 1 << 40, "the gatherer ends up holding everything");
    m.check_invariants().unwrap();
}

/// An older transaction with a labeled footprint NACKs 1,024 younger
/// gathers in a row: each gatherer self-aborts, the older transaction
/// survives, and nothing speculative leaks into the total.
#[test]
fn older_tx_nacks_every_younger_gather() {
    let mut m = MemSystem::new(ProtoConfig::paper_with_cores(4), table());
    m.poke_word(A, 0);
    // Core 0: committed donor. Core 1: OLDER tx with a labeled footprint.
    m.access(c(0), MemOp::LoadL(ADD), A);
    m.access(c(0), MemOp::StoreL(ADD, 64), A);
    m.tx_begin(c(1), 1);
    let v = m.access(c(1), MemOp::LoadL(ADD), A).value;
    m.access(c(1), MemOp::StoreL(ADD, v + 7), A);
    for ts in 11..11 + 1024 {
        m.tx_begin(c(2), ts);
        m.access(c(2), MemOp::LoadL(ADD), A);
        let r = m.access(c(2), MemOp::Gather(ADD), A);
        assert!(
            r.self_abort.is_some(),
            "ts {ts}: the younger gather is NACKed"
        );
        assert!(
            !m.in_tx(c(2)),
            "ts {ts}: the self-abort ends the gatherer's tx"
        );
        assert_eq!(m.logical_w0(A.line()), 64, "ts {ts}: speculative +7 leaked");
    }
    assert!(m.in_tx(c(1)), "the older transaction survives every NACK");
    m.check_invariants().unwrap();
}
