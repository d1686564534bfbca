//! Counter increments (paper Sec. VI, Fig. 9): every thread increments one
//! shared counter in short transactions. Conventional HTMs serialize all of
//! them; CommTM's ADD label makes them local and concurrent (the paper's
//! Fig. 1 example).

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// What the oracle needs from the simulation setup.
struct Aux {
    counter: Addr,
}

/// The registered Fig. 9 counter workload.
pub struct Counter;

impl Workload for Counter {
    fn name(&self) -> &'static str {
        "counter"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Micro
    }

    fn summary(&self) -> &'static str {
        "shared-counter increments (Fig. 9)"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let add = LabelId::new(0);
        let ctr = Addr::new(0x1000);
        let inc = move |core: usize, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let d = inp.get(key);
                ctx.txn(core, |t| {
                    let v = t.load_l(add, ctr);
                    t.store_l(add, ctr, v.wrapping_add(d));
                });
            }
        };
        vec![Claim::new(
            "counter/increments-commute",
            "two transactional ADD-labeled increments to one shared counter",
        )
        .label(labels::add())
        .input("init", 0..=1_000_000)
        .input("da", 1..=1_000)
        .input("db", 1..=1_000)
        .setup(move |ctx, inp| ctx.poke(ctr, inp.get("init")))
        .op_a(inc(0, "da"))
        .op_b(inc(1, "db"))
        .probe(move |ctx| vec![ctx.logical_w0(ctr), ctx.read(0, ctr)])]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new().u64_per_scale(
            "total_incs",
            20_000,
            "total increments across all threads (the paper uses 10M)",
        )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let total_incs = params.u64("total_incs");
        let mut b = base.builder();
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();
        let counter = m.heap_mut().alloc_lines(1);

        for t in 0..base.threads {
            let iters = base.share(total_incs, t);
            const I: usize = 0;
            let mut p = Program::builder();
            if iters > 0 {
                let top = p.here();
                p.tx(move |c| {
                    let v = c.load_l(add, counter);
                    c.store_l(add, counter, v + 1);
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
            m.set_program(t, p.build(), ());
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux { counter }),
        }
    }

    /// The sequential oracle: the counter equals the number of increments
    /// and every increment committed exactly once.
    fn oracle(&self, _base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let total_incs = params.u64("total_incs");
        let counter = out.aux.downcast_ref::<Aux>().expect("counter aux").counter;
        let v = out.machine.read_word(counter);
        assert_eq!(v, total_incs, "counter must equal the number of increments");
        assert_eq!(out.report.commits(), total_incs, "one commit per increment");
        out.machine
            .check_invariants()
            .expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    /// Runs and oracle-checks `total_incs` increments on `threads` cores.
    fn run(threads: usize, scheme: Scheme, total_incs: u64) -> RunReport {
        let params = Counter
            .schema()
            .resolve(1, threads, &Params::from_iter([("total_incs", total_incs)]))
            .expect("overrides fit the schema");
        Counter
            .run_checked(BaseCfg::new(threads, scheme), &params)
            .0
    }

    #[test]
    fn both_schemes_are_correct() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 200);
        }
    }

    #[test]
    fn commtm_avoids_all_aborts() {
        let r = run(8, Scheme::CommTm, 400);
        assert_eq!(r.aborts(), 0);
        let r = run(8, Scheme::Baseline, 400);
        assert!(r.aborts() > 0);
    }

    #[test]
    fn single_thread_works() {
        run(1, Scheme::CommTm, 50);
    }

    #[test]
    fn uneven_split_is_exact() {
        run(3, Scheme::CommTm, 100);
    }
}
