//! Ordered puts / priority updates (paper Sec. VI, Fig. 13): each
//! transaction replaces a shared (key, value) pair if its new key is lower.
//! The OPUT label lets lower-key puts buffer locally; the baseline mostly
//! scales too because only smaller keys cause conflicting writes, which is
//! exactly the paper's observation (31x vs near-linear).

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// Per-thread record of the minimum pair this thread attempted.
#[derive(Clone, Default)]
struct Tally {
    min_key: u64,
    min_val: u64,
}

/// What the oracle needs from the simulation setup.
struct Aux {
    key_addr: Addr,
    val_addr: Addr,
}

/// The registered Fig. 13 ordered-put workload.
pub struct Oput;

impl Workload for Oput {
    fn name(&self) -> &'static str {
        "oput"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Micro
    }

    fn summary(&self) -> &'static str {
        "ordered puts / priority updates (Fig. 13)"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let oput_l = LabelId::new(0);
        let key_addr = Addr::new(0x1000);
        let val_addr = key_addr.offset_words(1);
        let put = move |core: usize, kname: &'static str, vname: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let (k, v) = (inp.get(kname), inp.get(vname));
                ctx.txn(core, |t| {
                    let cur = t.load_l(oput_l, key_addr);
                    if k < cur {
                        t.store_l(oput_l, key_addr, k);
                        t.store_l(oput_l, val_addr, v);
                    }
                });
            }
        };
        vec![Claim::new(
            "oput/distinct-key-puts-commute",
            "two ordered puts with distinct keys keep the lower-key pair in \
             either order (ties are excluded: OPUT's tie-break is first-wins)",
        )
        .label(labels::oput())
        // Disjoint key ranges: shrinking stays within them, so no ties.
        .input("ka", 0..=999)
        .input("kb", 1_000..=1_999)
        .input("va", 1..=1_000_000)
        .input("vb", 1..=1_000_000)
        .setup(move |ctx: &mut ClaimCtx, _inp: &Inputs| ctx.poke(key_addr, u64::MAX))
        .op_a(put(0, "ka", "va"))
        .op_b(put(1, "kb", "vb"))
        .probe(move |ctx: &mut ClaimCtx| vec![ctx.read(0, key_addr), ctx.read(0, val_addr)])]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new().u64_per_scale(
            "total_puts",
            20_000,
            "total puts across all threads (the paper uses 10M)",
        )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let total_puts = params.u64("total_puts");
        let mut b = base.builder();
        let oput = b.register_label(labels::oput()).expect("label budget");
        let mut m = b.build();
        let pair = m.heap_mut().alloc_lines(1);
        let key_addr = pair;
        let val_addr = pair.offset_words(1);
        // Initialize to the identity (key = MAX) so the first put always wins.
        m.poke(key_addr, u64::MAX);

        for t in 0..base.threads {
            let iters = base.share(total_puts, t);
            const I: usize = 0;
            let mut p = Program::builder();
            if iters > 0 {
                let top = p.here();
                p.tx(move |c| {
                    // Keys leave headroom below u64::MAX (the identity).
                    let k = c.rand() >> 8;
                    let v = c.rand();
                    let cur = c.load_l(oput, key_addr);
                    if k < cur {
                        c.store_l(oput, key_addr, k);
                        c.store_l(oput, val_addr, v);
                    }
                    c.defer(move |t: &mut Tally| {
                        if k < t.min_key {
                            t.min_key = k;
                            t.min_val = v;
                        }
                    });
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
            m.set_program(
                t,
                p.build(),
                Tally {
                    min_key: u64::MAX,
                    min_val: 0,
                },
            );
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux { key_addr, val_addr }),
        }
    }

    /// The oracle: the surviving pair is the global minimum over every
    /// thread's committed draws.
    fn oracle(&self, base: &BaseCfg, _params: &Params, out: &mut RunOutcome) {
        let &Aux { key_addr, val_addr } = out.aux.downcast_ref::<Aux>().expect("oput aux");
        let m = &mut out.machine;
        let mut best = (u64::MAX, 0u64);
        for t in 0..base.threads {
            let tally = m.env(t).user::<Tally>();
            if tally.min_key < best.0 {
                best = (tally.min_key, tally.min_val);
            }
        }
        let (k, v) = (m.read_word(key_addr), m.read_word(val_addr));
        assert_eq!((k, v), best, "surviving pair must be the global minimum");
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    /// Runs and oracle-checks `total_puts` puts on `threads` cores.
    fn run(threads: usize, scheme: Scheme, total_puts: u64) -> RunReport {
        let params = Oput
            .schema()
            .resolve(1, threads, &Params::from_iter([("total_puts", total_puts)]))
            .expect("overrides fit the schema");
        Oput.run_checked(BaseCfg::new(threads, scheme), &params).0
    }

    #[test]
    fn both_schemes_keep_global_minimum() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 200);
        }
    }

    #[test]
    fn commtm_reduces_aborts() {
        let base = run(8, Scheme::Baseline, 400);
        let comm = run(8, Scheme::CommTm, 400);
        assert!(comm.aborts() <= base.aborts());
    }
}
