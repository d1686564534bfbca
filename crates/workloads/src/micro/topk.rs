//! Top-K set insertions (paper Sec. VI, Figs. 14 and 15): a top-K set
//! retains the K highest inserted elements. The descriptor line holds a
//! pointer to a heap; under CommTM each thread builds a *local* heap behind
//! its U-state descriptor copy and reductions merge them (Fig. 15), while
//! the baseline funnels every insert through one shared heap and
//! serializes.

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::ds::{simheap, topk_label, TxWords, Words};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// What the oracle needs from the simulation setup.
struct Aux {
    desc: Addr,
}

/// The registered Fig. 14 top-K workload.
pub struct TopK;

impl Workload for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Micro
    }

    fn summary(&self) -> &'static str {
        "top-K set insertions (Fig. 14)"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        const K: u64 = 4;
        let topk = LabelId::new(0);
        let desc = Addr::new(0x1000);
        let insert = move |core: usize, my_heap: Addr, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let x = inp.get(key);
                ctx.txn(core, |t| {
                    let mut hp = t.load_l(topk, desc);
                    if hp == 0 {
                        // Install this core's local heap behind the
                        // (partial) descriptor.
                        hp = my_heap.raw();
                        t.store_l(topk, desc, hp);
                    }
                    simheap::insert(t, Addr::new(hp), x);
                });
            }
        };
        vec![Claim::new(
            "topk/inserts-commute",
            "two top-K insertions into per-core partial heaps retain the same \
             value set after the reduction merges them, in either order",
        )
        .label(topk_label())
        .input("xa", 1..=1_000_000)
        .input("xb", 1..=1_000_000)
        .setup(move |ctx: &mut ClaimCtx, _inp: &Inputs| {
            // Two empty heaps of capacity K (len word stays zero).
            ctx.poke(Addr::new(0x2000).offset_words(1), K);
            ctx.poke(Addr::new(0x3000).offset_words(1), K);
        })
        .op_a(insert(0, Addr::new(0x2000), "xa"))
        .op_b(insert(1, Addr::new(0x3000), "xb"))
        .probe(move |ctx: &mut ClaimCtx| {
            // A plain read of the descriptor reduces: the partial heaps
            // merge into whichever survives.
            let hp = ctx.read(0, desc);
            if hp == 0 {
                return vec![0];
            }
            let len = ctx.read(0, Addr::new(hp));
            let mut vals: Vec<u64> = (0..len.min(K))
                .map(|i| ctx.read(0, Addr::new(hp).offset_words(2 + i)))
                .collect();
            vals.sort_unstable();
            let mut probe = vec![len];
            probe.extend(vals);
            probe
        })]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale(
                "total_inserts",
                8_000,
                "total insertions (the paper uses 10M)",
            )
            .u64(
                "k",
                100,
                "retained-set size (the paper uses a top-1000 set)",
            )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let (total_inserts, k) = (params.u64("total_inserts"), params.u64("k"));
        let mut b = base.builder();
        let topk = b.register_label(topk_label()).expect("label budget");
        let mut m = b.build();
        let desc = m.heap_mut().alloc_lines(1);

        // One heap per thread (CommTM uses them as the local partial heaps;
        // the baseline only ever installs thread 0's... whichever first
        // commits the descriptor initialization).
        let heap_words = 2 + k;
        let heaps: Vec<Addr> = (0..base.threads)
            .map(|_| m.heap_mut().alloc(heap_words * 8, 64))
            .collect();
        for &h in &heaps {
            m.poke(h.offset_words(1), k); // capacity; len starts 0
        }

        for (t, &my_heap) in heaps.iter().enumerate() {
            let iters = base.share(total_inserts, t);
            const I: usize = 0;
            let mut p = Program::builder();
            if iters > 0 {
                let top = p.here();
                p.tx(move |c| {
                    let x = c.rand();
                    let mut hp = c.load_l(topk, desc);
                    if hp == 0 {
                        // Install this thread's local heap behind the
                        // (partial) descriptor.
                        hp = my_heap.raw();
                        c.store_l(topk, desc, hp);
                    }
                    simheap::insert(&mut TxWords(c), Addr::new(hp), x);
                    c.defer(move |seen: &mut Vec<u64>| seen.push(x));
                });
                p.ctl(move |c| {
                    c.regs[I] += 1;
                    if c.regs[I] < iters {
                        Ctl::Jump(top)
                    } else {
                        Ctl::Done
                    }
                });
            }
            m.set_program(t, p.build(), Vec::<u64>::new());
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux { desc }),
        }
    }

    /// The oracle: the retained set equals the K largest committed
    /// insertions. Drains the merged heap, so it can only run once.
    fn oracle(&self, base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let (total_inserts, k) = (params.u64("total_inserts"), params.u64("k"));
        let desc = out.aux.downcast_ref::<Aux>().expect("topk aux").desc;
        let m = &mut out.machine;

        // A plain read of the descriptor reduces all local heaps into one.
        let final_heap = Addr::new(m.read_word(desc));
        assert!(
            !final_heap.is_null(),
            "descriptor must point at the merged heap"
        );
        let mut host = HostWords(&mut *m);
        let mut got = simheap::drain_values(&mut host, final_heap);
        got.sort_unstable();

        // Oracle: the K largest over every committed insertion.
        let mut all: Vec<u64> = Vec::new();
        for t in 0..base.threads {
            all.extend(m.env(t).user::<Vec<u64>>());
        }
        assert_eq!(all.len() as u64, total_inserts);
        all.sort_unstable();
        let want: Vec<u64> = all
            .iter()
            .rev()
            .take(k.min(total_inserts) as usize)
            .rev()
            .copied()
            .collect();
        assert_eq!(got, want, "retained set must be the K largest insertions");
        m.check_invariants().expect("coherence invariants");
    }
}

/// Host-side `Words` over coherent machine reads (post-run verification).
struct HostWords<'a>(&'a mut Machine);

impl Words for HostWords<'_> {
    fn get(&mut self, addr: Addr) -> u64 {
        self.0.read_word(addr)
    }
    fn put(&mut self, addr: Addr, value: u64) {
        self.0.write_word(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    /// Runs and oracle-checks `total_inserts` insertions into a top-`k`
    /// set on `threads` cores.
    fn run(threads: usize, scheme: Scheme, total_inserts: u64, k: u64) -> RunReport {
        let over = Params::from_iter([("total_inserts", total_inserts), ("k", k)]);
        let params = TopK
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        TopK.run_checked(BaseCfg::new(threads, scheme), &params).0
    }

    #[test]
    fn both_schemes_retain_top_k() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 300, 16);
        }
    }

    #[test]
    fn k_larger_than_inserts() {
        run(2, Scheme::CommTm, 20, 64);
    }

    #[test]
    fn commtm_scales_better_than_baseline() {
        let base = run(8, Scheme::Baseline, 400, 16);
        let comm = run(8, Scheme::CommTm, 400, 16);
        assert!(
            comm.total_cycles < base.total_cycles,
            "CommTM should win on contended top-K inserts ({} vs {})",
            comm.total_cycles,
            base.total_cycles
        );
    }
}
