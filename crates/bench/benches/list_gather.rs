//! Microbenchmarks of the LIST label and the gather request path — the
//! two hot spots behind the Fig. 12 list grids.
//!
//! The first pair times the label handlers themselves (reduce =
//! concatenate partial lists, split = donate the head node) against a
//! plain map-backed heap, isolating the handler cost from the protocol.
//! The second pair drives `MemSystem::access` with `MemOp::Gather`:
//! once down the all-donors path and once against a transactional sharer
//! that NACKs the request and aborts the gatherer — the most expensive
//! (and, under contention, most frequent) outcome of a dequeue on an
//! empty local list.
//!
//! Run with `cargo bench --bench list_gather`.

use criterion::{criterion_group, criterion_main, Criterion};

use commtm_mem::{Addr, CoreId, LineData, WORDS_PER_LINE};
use commtm_protocol::testing::MapHeap;
use commtm_protocol::{LabelDef, LabelTable, MemOp, MemSystem, ProtoConfig};

/// Operations per timed batch: large enough to amortize setup noise.
const BATCH: usize = 4 * 1024;

fn list_def() -> LabelDef {
    commtm::labels::list()
}

fn add_def() -> LabelDef {
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
    })
}

/// LIST reduce: concatenate two non-empty partial lists. One heap write
/// (tail.next = other.head) plus descriptor bookkeeping per merge.
fn list_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("list_gather");
    g.sample_size(20);
    let def = list_def();
    let reduce = def.reduce();
    let mut ops = MapHeap::new();
    ops.set(0x100, 0x200);
    ops.set(0x200, 0);
    ops.set(0x300, 0);
    g.bench_function(format!("list_reduce x{BATCH}"), |b| {
        b.iter(|| {
            let mut tail = 0u64;
            for _ in 0..BATCH {
                // Fresh descriptors each merge; the heap reaches a steady
                // state after the first iteration (same keys rewritten).
                let mut d1 = LineData::zeroed();
                d1[0] = 0x100;
                d1[1] = 0x200;
                let mut d2 = LineData::zeroed();
                d2[0] = 0x300;
                d2[1] = 0x300;
                reduce(&mut ops, &mut d1, &d2);
                tail = tail.wrapping_add(d1[1]);
            }
            tail
        })
    });
    g.finish();
}

/// LIST split: donate the head node of a chain until it runs dry. Each
/// donation reads the head's next pointer and detaches the node — the
/// work a gather imposes on every donor.
fn list_split(c: &mut Criterion) {
    const CHAIN: u64 = 64;
    let mut g = c.benchmark_group("list_gather");
    g.sample_size(20);
    let def = list_def();
    let split = def.split().expect("LIST has a splitter");
    let mut ops = MapHeap::new();
    g.bench_function(format!("list_split x{}", BATCH / 16), |b| {
        b.iter(|| {
            let mut donated = 0u64;
            for _ in 0..BATCH / 16 {
                // Rebuild a CHAIN-node list (same keys every iteration),
                // then split it down to empty plus one no-op split.
                for i in 0..CHAIN {
                    let node = 0x1000 + i * 64;
                    let next = if i + 1 < CHAIN { node + 64 } else { 0 };
                    ops.set(node, next);
                }
                let mut local = LineData::zeroed();
                local[0] = 0x1000;
                local[1] = 0x1000 + (CHAIN - 1) * 64;
                for _ in 0..=CHAIN {
                    let mut out = def.identity();
                    split(&mut ops, &mut local, &mut out, 2);
                    donated = donated.wrapping_add(out[0]);
                }
            }
            donated
        })
    });
    g.finish();
}

/// Gather with every sharer donating: the directory walks the sharers,
/// runs the splitter on each U copy, and reduces the donations into the
/// requester — the Fig. 11b dequeue fast path.
fn gather_donate(c: &mut Criterion) {
    let mut g = c.benchmark_group("list_gather");
    g.sample_size(20);
    let mut t = LabelTable::new();
    t.register(add_def()).expect("label registers");
    let add = commtm_mem::LabelId::new(0);
    let mut sys = MemSystem::new(ProtoConfig::paper_with_cores(4), t);
    let a = Addr::new(0x1_0000);
    sys.poke_word(a, 0);
    // Cores 0..3 hold committed U copies; core 3 gathers from the other
    // three every iteration (donations flow to it, totals conserved).
    for i in 0..4 {
        sys.access(CoreId::new(i), MemOp::LoadL(add), a);
    }
    sys.access(CoreId::new(0), MemOp::StoreL(add, 1 << 40), a);
    g.bench_function(format!("gather_donate x{}", BATCH / 4), |b| {
        b.iter(|| {
            let mut got = 0u64;
            for _ in 0..BATCH / 4 {
                got = got.wrapping_add(sys.access(CoreId::new(3), MemOp::Gather(add), a).value);
            }
            got
        })
    });
    g.finish();
    sys.check_invariants().expect("invariants hold");
}

/// Gather against an older transactional sharer: the victim defends its
/// labeled fragment with a NACK and the requester self-aborts — the
/// worst-case dequeue outcome under contention, and the path a
/// conflict-heavy list grid spends its time in.
fn gather_nack(c: &mut Criterion) {
    let mut g = c.benchmark_group("list_gather");
    g.sample_size(20);
    let mut t = LabelTable::new();
    t.register(add_def()).expect("label registers");
    let add = commtm_mem::LabelId::new(0);
    let mut sys = MemSystem::new(ProtoConfig::paper_with_cores(4), t);
    let a = Addr::new(0x1_0000);
    sys.poke_word(a, 0);
    // Core 0: committed donor. Core 1: long-lived OLDER tx with a labeled
    // footprint — it NACKs every split request.
    sys.access(CoreId::new(0), MemOp::LoadL(add), a);
    sys.access(CoreId::new(0), MemOp::StoreL(add, 64), a);
    sys.tx_begin(CoreId::new(1), 1);
    let v = sys.access(CoreId::new(1), MemOp::LoadL(add), a).value;
    sys.access(CoreId::new(1), MemOp::StoreL(add, v + 7), a);
    let mut ts = 10u64;
    g.bench_function(format!("gather_nack x{}", BATCH / 4), |b| {
        b.iter(|| {
            let mut aborts = 0u64;
            for _ in 0..BATCH / 4 {
                // A fresh YOUNGER tx gathers, gets NACKed, and aborts;
                // committing its retained donation keeps state bounded.
                ts += 1;
                sys.tx_begin(CoreId::new(2), ts);
                sys.access(CoreId::new(2), MemOp::LoadL(add), a);
                let r = sys.access(CoreId::new(2), MemOp::Gather(add), a);
                aborts += u64::from(r.self_abort.is_some());
                if sys.in_tx(CoreId::new(2)) {
                    sys.tx_commit(CoreId::new(2));
                }
            }
            aborts
        })
    });
    g.finish();
    sys.check_invariants().expect("invariants hold");
}

criterion_group!(
    list_gather,
    list_reduce,
    list_split,
    gather_donate,
    gather_nack,
);
criterion_main!(list_gather);
