//! Microbenchmarks of the protocol hot path: `MemSystem::access` mixes
//! driven directly, without the HTM engine or scheduler on top — the same
//! entry point as the production loop (`Machine::run` → `EnginePort`), so
//! what is measured here is the real steady-state per-operation cost.
//!
//! Each benchmark times a fixed batch of accesses against a paper-geometry
//! hierarchy, so a regression in the per-operation protocol cost (extra set
//! scans, allocations, hashing) shows up here first, isolated from
//! workload and engine changes. The `machine_counter_loop` case adds the
//! full engine/scheduler stack for contrast, which brackets where time
//! goes when a sweep slows down.
//!
//! Run with `cargo bench --bench hotpath`.

use criterion::{criterion_group, criterion_main, Criterion};

use commtm_mem::{Addr, CoreId, LineData, WORDS_PER_LINE};
use commtm_protocol::{LabelDef, LabelTable, MemOp, MemSystem, ProtoConfig};

/// Accesses per timed batch: large enough to amortize setup noise.
const BATCH: usize = 8 * 1024;

fn add_label_table() -> LabelTable {
    let mut t = LabelTable::new();
    t.register(LabelDef::new("ADD", LineData::zeroed(), |_, dst, src| {
        for i in 0..WORDS_PER_LINE {
            dst[i] = dst[i].wrapping_add(src[i]);
        }
    }))
    .expect("label registers");
    t
}

fn fresh(cores: usize) -> MemSystem {
    MemSystem::new(ProtoConfig::paper_with_cores(cores), add_label_table())
}

fn label_of(sys: &MemSystem) -> commtm_mem::LabelId {
    use commtm_mem::LabelId;
    let _ = sys;
    LabelId::new(0)
}

/// L1-hit loads: the shortest possible path (probe L2 state, probe L1,
/// read the word).
fn l1_hit_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(20);
    let mut sys = fresh(1);
    let core = CoreId::new(0);
    let addr = Addr::new(0x1_0000);
    sys.access(core, MemOp::Load, addr);
    g.bench_function(format!("l1_hit_load x{BATCH}"), |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for _ in 0..BATCH {
                sum = sum.wrapping_add(sys.access(core, MemOp::Load, addr).value);
            }
            sum
        })
    });
    g.finish();
}

/// L1-hit stores: adds the E→M upgrade check and dirty-bit handling.
fn l1_hit_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(20);
    let mut sys = fresh(1);
    let core = CoreId::new(0);
    let addr = Addr::new(0x1_0000);
    sys.access(core, MemOp::Store(1), addr);
    g.bench_function(format!("l1_hit_store x{BATCH}"), |b| {
        b.iter(|| {
            for i in 0..BATCH {
                sys.access(core, MemOp::Store(i as u64), addr);
            }
        })
    });
    g.finish();
}

/// L1-hit labeled stores in U state: the CommTM fast path for commutative
/// updates.
fn l1_hit_labeled(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(20);
    let mut sys = fresh(1);
    let core = CoreId::new(0);
    let l = label_of(&sys);
    let addr = Addr::new(0x1_0000);
    sys.access(core, MemOp::LoadL(l), addr);
    g.bench_function(format!("l1_hit_labeled_store x{BATCH}"), |b| {
        b.iter(|| {
            for i in 0..BATCH {
                sys.access(core, MemOp::StoreL(l, i as u64), addr);
            }
        })
    });
    g.finish();
}

/// L2 hits: a stride-64-line stream that always misses the (64-set) L1 but
/// stays resident in the (256-set) private L2 — exercises the L1 fill and
/// eviction disposal without directory traffic.
fn l2_hit_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(20);
    let mut sys = fresh(1);
    let core = CoreId::new(0);
    // 16 lines, all in L1 set 0, spread over four L2 sets (4 ways each).
    let addrs: Vec<Addr> = (0..16u64).map(|i| Addr::new(i * 64 * 64)).collect();
    for &a in &addrs {
        sys.access(core, MemOp::Load, a);
    }
    g.bench_function(format!("l2_hit_load x{BATCH}"), |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..BATCH {
                let a = addrs[i % addrs.len()];
                sum = sum.wrapping_add(sys.access(core, MemOp::Load, a).value);
            }
            sum
        })
    });
    g.finish();
}

/// Exclusive-transfer ping-pong: two cores alternately store to one line,
/// so every access runs the full GETX directory flow (conflict check,
/// invalidation, writeback, install).
fn getx_ping_pong(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(20);
    let mut sys = fresh(2);
    let a = Addr::new(0x1_0000);
    sys.access(CoreId::new(0), MemOp::Store(1), a);
    g.bench_function(format!("getx_ping_pong x{BATCH}"), |b| {
        b.iter(|| {
            for i in 0..BATCH {
                let core = CoreId::new(i % 2);
                sys.access(core, MemOp::Store(i as u64), a);
            }
        })
    });
    g.finish();
}

/// Reduction round-trip: two cores hold a line in U (buffered commutative
/// updates), then a plain load forces a full reduction; repeated each
/// iteration. Exercises GETU, the reduction flow, and the handler runner.
fn reduction_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(20);
    let mut sys = fresh(3);
    let l = label_of(&sys);
    let a = Addr::new(0x1_0000);
    g.bench_function(format!("reduction_cycle x{}", BATCH / 8), |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for _ in 0..BATCH / 8 {
                sys.access(CoreId::new(0), MemOp::StoreL(l, 1), a);
                sys.access(CoreId::new(1), MemOp::StoreL(l, 2), a);
                sum = sum.wrapping_add(sys.access(CoreId::new(2), MemOp::Load, a).value);
            }
            sum
        })
    });
    g.finish();
}

/// Machine construction alone: hierarchy allocation is a real cost at
/// sweep scale (one machine per grid cell).
fn machine_build_only(c: &mut Criterion) {
    use commtm::prelude::*;
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);
    g.bench_function("machine_build_only (4 cores)", |b| {
        b.iter(|| {
            let mut builder = MachineBuilder::new(4, Scheme::CommTm);
            builder
                .register_label(commtm::labels::add())
                .expect("label registers");
            builder.build()
        })
    });
    g.finish();
}

/// The full stack for contrast: engine + replay runner + scheduler running
/// the Fig. 1 counter loop on four cores.
fn machine_counter_loop(c: &mut Criterion) {
    use commtm::prelude::*;
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);
    g.bench_function("machine_counter_loop (4 cores x 5000 txs)", |b| {
        b.iter(|| {
            let mut builder = MachineBuilder::new(4, Scheme::CommTm);
            let add = builder
                .register_label(commtm::labels::add())
                .expect("label registers");
            let mut machine = builder.build();
            let counter = machine.heap_mut().alloc_lines(1);
            for t in 0..4 {
                let mut p = Program::builder();
                let top = p.here();
                p.tx(move |c| {
                    let v = c.load_l(add, counter);
                    c.store_l(add, counter, v + 1);
                });
                p.ctl(move |c| {
                    c.regs[0] += 1;
                    if c.regs[0] < 5000 {
                        Ctl::Jump(top)
                    } else {
                        Ctl::Done
                    }
                });
                machine.set_program(t, p.build(), ());
            }
            machine.run().expect("run completes")
        })
    });
    g.finish();
}

criterion_group!(
    hotpath,
    l1_hit_load,
    l1_hit_store,
    l1_hit_labeled,
    l2_hit_load,
    getx_ping_pong,
    reduction_cycle,
    machine_build_only,
    machine_counter_loop,
);
criterion_main!(hotpath);
