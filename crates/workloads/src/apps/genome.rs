//! genome (paper Sec. VII, Table II): gene sequencing whose first phase
//! deduplicates DNA segments through a hash set. The paper compiles genome
//! with *resizable* hash tables whose remaining-space bookkeeping is a
//! bounded 64-bit ADD counter — the conditionally-commutative operation
//! that benefits from gather requests (Table II marks genome as a gather
//! user; CommTM wins 3.0x at 128 threads).
//!
//! This reproduction implements the segment-dedup phase faithfully: chained
//! hash-set buckets in simulated memory, per-thread node pools, and a
//! shared remaining-space counter decremented with the paper's bounded
//! `decrement` (labeled load → gather → plain load fallback).

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// Per-thread tallies for the oracle.
#[derive(Clone, Default)]
struct Tally {
    inserted: u64,
    duplicates: u64,
    overflows: u64,
}

const R_I: usize = 0;
const R_CUR: usize = 1;
const NODE_BYTES: u64 = 64; // key at +0, next at +8

/// What the oracle needs from the simulation setup.
struct Aux {
    buckets: Addr,
    remaining: Addr,
    capacity: u64,
    host_segments: Vec<u64>,
}

/// The registered genome application (Table II).
pub struct Genome;

impl Workload for Genome {
    fn name(&self) -> &'static str {
        "genome"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::App
    }

    fn summary(&self) -> &'static str {
        "sequence dedup over a hash set with gathers"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let add = LabelId::new(0);
        let space = Addr::new(0x1000); // bounded remaining-space counter
        let bucket = |i: u64| Addr::new(0x2000 + 64 * i);
        let insert = move |core: usize, b: u64| {
            move |ctx: &mut ClaimCtx, _inp: &Inputs| {
                ctx.txn(core, |t| {
                    // Claim a slot from the bounded remaining-space counter
                    // (gather, then plain-read fallback), then count the
                    // segment in its bucket.
                    let mut v = t.load_l(add, space);
                    if v == 0 {
                        v = t.gather(add, space);
                    }
                    if v == 0 {
                        v = t.load(space);
                    }
                    if v > 0 {
                        t.store_l(add, space, v - 1);
                        let c = t.load_l(add, bucket(b));
                        t.store_l(add, bucket(b), c + 1);
                    }
                });
            }
        };
        vec![Claim::new(
            "genome/segment-insertions-commute",
            "two hash-set segment insertions that both fit the remaining \
             space commute: bucket counts and the space counter agree in \
             either order",
        )
        .label(labels::add())
        .input("space", 2..=64)
        .setup(move |ctx: &mut ClaimCtx, inp: &Inputs| ctx.poke(space, inp.get("space")))
        .op_a(insert(0, 0))
        .op_b(insert(1, 1))
        .probe(move |ctx: &mut ClaimCtx| {
            vec![
                ctx.logical_w0(space),
                ctx.read(0, space),
                ctx.read(0, bucket(0)),
                ctx.read(0, bucket(1)),
            ]
        })]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale(
                "segments",
                2_000,
                "total segments processed (with duplicates)",
            )
            .u64_per_scale("unique", 200, "distinct segment values")
            .u64_per_scale("buckets", 512, "hash-set buckets")
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let segments = params.u64("segments");
        let unique = params.u64("unique");
        let nbuckets = params.u64("buckets");
        let mut b = base.builder();
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();

        let buckets = m.heap_mut().alloc(nbuckets * 8, 64);
        let remaining = m.heap_mut().alloc_lines(1);
        // Capacity: the paper's tables (-g4096) are sized well above the
        // insert count, so the remaining-space counter stays comfortably
        // positive and gathers are needed only when per-core partials run
        // low — twice the unique count models that.
        let capacity = unique * 2 + 16;
        m.poke(remaining, capacity);

        // Host-side segment stream: unique values interleaved, every value
        // appearing at least once.
        let seg_stream = m.heap_mut().alloc(segments * 8, 64);
        let mut host_segments = Vec::with_capacity(segments as usize);
        {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(base.seed ^ 0x6765_6e6f);
            for i in 0..segments {
                let u = if i < unique {
                    i
                } else {
                    rng.random_range(0..unique)
                };
                let value = u.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1; // non-zero keys
                host_segments.push(value);
                m.poke(seg_stream.offset_words(i), value);
            }
        }

        let threads = base.threads;
        for t in 0..threads {
            let lo = (segments as usize) * t / threads;
            let hi = (segments as usize) * (t + 1) / threads;
            let pool = m
                .heap_mut()
                .alloc(((hi - lo).max(1) as u64) * NODE_BYTES, 64);
            let mut p = Program::builder();
            if hi > lo {
                let pool_base = pool.raw();
                p.ctl(move |c| {
                    c.regs[R_I] = lo as u64;
                    c.regs[R_CUR] = pool_base;
                    Ctl::Next
                });
                let top = p.here();
                p.tx(move |c| {
                    let i = c.reg(R_I);
                    let key = c.load(seg_stream.offset_words(i));
                    let h = key.wrapping_mul(0xff51_afd7_ed55_8ccd) % nbuckets;
                    let bucket = buckets.offset_words(h);
                    // Probe the chain for a duplicate.
                    let mut node = c.load(bucket);
                    let mut dup = false;
                    let mut hops = 0;
                    while node != 0 && hops < 128 {
                        if c.load(Addr::new(node)) == key {
                            dup = true;
                            break;
                        }
                        node = c.load(Addr::new(node + 8));
                        hops += 1;
                    }
                    c.work(12);
                    if dup {
                        c.defer(|s: &mut Tally| s.duplicates += 1);
                    } else {
                        // Bounded decrement of the remaining-space counter
                        // (paper Sec. IV), then link a fresh node.
                        let mut v = c.load_l(add, remaining);
                        if v == 0 {
                            v = c.load_gather(add, remaining);
                        }
                        if v == 0 {
                            v = c.load(remaining);
                        }
                        if v == 0 {
                            c.defer(|s: &mut Tally| s.overflows += 1);
                        } else {
                            c.store_l(add, remaining, v - 1);
                            let node = c.reg(R_CUR);
                            c.set_reg(R_CUR, node + NODE_BYTES);
                            c.store(Addr::new(node), key);
                            let head = c.load(bucket);
                            c.store(Addr::new(node + 8), head);
                            c.store(bucket, node);
                            c.defer(|s: &mut Tally| s.inserted += 1);
                        }
                    }
                });
                p.ctl(move |c| {
                    c.regs[R_I] += 1;
                    if (c.regs[R_I] as usize) < hi {
                        Ctl::Jump(top)
                    } else {
                        Ctl::Done
                    }
                });
            }
            m.set_program(t, p.build(), Tally::default());
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux {
                buckets,
                remaining,
                capacity,
                host_segments,
            }),
        }
    }

    /// The oracle: the set contains exactly the unique segments once
    /// each, and the remaining-space counter conserves capacity.
    fn oracle(&self, base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let segments = params.u64("segments");
        let aux = out.aux.downcast_ref::<Aux>().expect("genome aux");
        let (buckets, remaining, capacity) = (aux.buckets, aux.remaining, aux.capacity);
        let host_segments = aux.host_segments.clone();
        let m = &mut out.machine;
        let threads = base.threads;
        let mut found = std::collections::HashSet::new();
        for h in 0..params.u64("buckets") {
            let mut node = m.read_word(buckets.offset_words(h));
            let mut hops = 0;
            while node != 0 {
                let key = m.read_word(Addr::new(node));
                assert!(found.insert(key), "duplicate key {key:#x} in the set");
                node = m.read_word(Addr::new(node + 8));
                hops += 1;
                assert!(hops <= segments, "bucket chain must be acyclic");
            }
        }
        let expected: std::collections::HashSet<u64> = host_segments.iter().copied().collect();
        assert_eq!(
            found, expected,
            "set contents must equal the unique segments"
        );

        let mut inserted = 0u64;
        let mut overflows = 0u64;
        let mut processed = 0u64;
        for t in 0..threads {
            let s = m.env(t).user::<Tally>();
            inserted += s.inserted;
            overflows += s.overflows;
            processed += s.inserted + s.duplicates + s.overflows;
        }
        assert_eq!(processed, segments);
        assert_eq!(
            overflows, 0,
            "capacity has slack; overflow means lost space"
        );
        assert_eq!(inserted, expected.len() as u64);
        assert_eq!(
            m.read_word(remaining),
            capacity - inserted,
            "remaining-space conservation"
        );
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    /// Runs and oracle-checks `segments` segments of `unique` distinct
    /// values over 128 buckets on `threads` cores.
    fn run(threads: usize, scheme: Scheme, segments: u64, unique: u64) -> RunReport {
        let over =
            Params::from_iter([("segments", segments), ("unique", unique), ("buckets", 128)]);
        let params = Genome
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        Genome.run_checked(BaseCfg::new(threads, scheme), &params).0
    }

    #[test]
    fn dedup_correct_under_both_schemes() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 200, 32);
        }
    }

    #[test]
    fn single_thread_dedup() {
        run(1, Scheme::CommTm, 100, 16);
    }

    #[test]
    fn gathers_fire_under_commtm() {
        let r = run(8, Scheme::CommTm, 400, 128);
        assert!(r.core_totals().labeled_ops > 0);
    }
}
