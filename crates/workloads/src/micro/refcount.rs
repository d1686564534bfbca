//! Reference counting with bounded non-negative counters (paper Secs. IV
//! and VI, Fig. 10): threads acquire and release references to 16 objects.
//! `decrement` only commutes while the counter is positive, so CommTM
//! without gather requests reduces whenever a thread's local partial value
//! hits zero; gather requests redistribute value between the U-state copies
//! and restore scalability.

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// Per-thread state: references currently held per object, plus a count of
/// decrements that observed a globally-zero counter (conservation makes
/// these impossible; the oracle asserts none happened).
#[derive(Clone)]
struct Held {
    refs: Vec<u64>,
    failed_decrements: u64,
}

/// What the oracle needs from the simulation setup.
struct Aux {
    counters: Vec<Addr>,
}

/// The registered Fig. 10 reference-counting workload. The `gather`
/// flag selects between the paper's full design and the no-gather
/// variant; under the baseline scheme it is ignored.
pub struct Refcount;

impl Workload for Refcount {
    fn name(&self) -> &'static str {
        "refcount"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Micro
    }

    fn summary(&self) -> &'static str {
        "bounded non-negative reference counters (Fig. 10)"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let add = LabelId::new(0);
        let ctr = Addr::new(0x1000);
        vec![Claim::new(
            "refcount/acquire-commutes-with-bounded-release",
            "a labeled increment and the paper's bounded decrement (gather, then \
             plain-read fallback) commute while the count stays positive",
        )
        .label(labels::add())
        .input("init", 1..=64)
        .input("inc", 1..=16)
        .setup(move |ctx: &mut ClaimCtx, inp: &Inputs| ctx.poke(ctr, inp.get("init")))
        .op_a(move |ctx: &mut ClaimCtx, inp: &Inputs| {
            let d = inp.get("inc");
            ctx.txn(0, |t| {
                let v = t.load_l(add, ctr);
                t.store_l(add, ctr, v + d);
            });
        })
        .op_b(move |ctx: &mut ClaimCtx, _inp: &Inputs| {
            ctx.txn(1, |t| {
                // Sec. IV bounded decrement: local partial, then gather,
                // then a reducing plain read.
                let mut v = t.load_l(add, ctr);
                if v == 0 {
                    v = t.gather(add, ctr);
                }
                if v == 0 {
                    v = t.load(ctr);
                }
                if v > 0 {
                    t.store_l(add, ctr, v - 1);
                }
            });
        })
        .probe(move |ctx: &mut ClaimCtx| vec![ctx.logical_w0(ctr), ctx.read(0, ctr)])]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale(
                "total_ops",
                8_000,
                "total acquire/release operations (the paper uses 1M)",
            )
            .flag(
                "gather",
                true,
                "issue gather requests on empty local counters (CommTM only)",
            )
            .u64("objects", 16, "reference-counted objects")
            .u64(
                "initial_refs",
                3,
                "initial references held per thread per object",
            )
            .u64(
                "max_refs",
                10,
                "maximum references a thread holds per object",
            )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let total_ops = params.u64("total_ops");
        let objects = params.u64("objects");
        let initial_refs = params.u64("initial_refs");
        let max_refs = params.u64("max_refs");
        // The three Fig. 10 series: the baseline, CommTM whose decrement
        // falls straight back to a reducing plain load on an empty local
        // count, and CommTM with `load_gather` rebalancing.
        let use_gather = base.scheme == Scheme::CommTm && params.flag("gather");
        let mut b = base.builder();
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();

        // One counter per object, each on its own line.
        let counters: Vec<Addr> = (0..objects).map(|_| m.heap_mut().alloc_lines(1)).collect();
        for &c in &counters {
            m.poke(c, initial_refs * base.threads as u64);
        }

        // Registers: I = iteration, OBJ = chosen object, DO_INC = op kind.
        const I: usize = 0;
        const OBJ: usize = 1;
        const DO_INC: usize = 2;

        for t in 0..base.threads {
            let iters = base.share(total_ops, t);
            let counters = counters.clone();
            let mut p = Program::builder();
            if iters > 0 {
                let top = p.here();
                // Pick an object and an operation: p(increment) falls
                // linearly with the references held (1.0 at 0 refs, 0.0 at
                // max).
                p.ctl(move |c| {
                    let obj = c.rand_below(objects);
                    c.regs[OBJ] = obj;
                    let held = c.user::<Held>().refs[obj as usize];
                    let p_inc_num = max_refs.saturating_sub(held);
                    let draw = c.rand_below(max_refs);
                    c.regs[DO_INC] = u64::from(draw < p_inc_num);
                    Ctl::Next
                });
                let counters_tx = counters.clone();
                p.tx(move |c| {
                    let obj = c.reg(OBJ) as usize;
                    let addr = counters_tx[obj];
                    if c.reg(DO_INC) == 1 {
                        // Acquire: increments always commute.
                        let v = c.load_l(add, addr);
                        c.store_l(add, addr, v + 1);
                        c.defer(move |h: &mut Held| h.refs[obj] += 1);
                    } else {
                        // Release: the paper's bounded decrement (Sec. IV).
                        let mut v = c.load_l(add, addr);
                        if v == 0 && use_gather {
                            v = c.load_gather(add, addr);
                        }
                        if v == 0 {
                            v = c.load(addr); // triggers a reduction
                        }
                        if v > 0 {
                            c.store_l(add, addr, v - 1);
                            c.defer(move |h: &mut Held| h.refs[obj] -= 1);
                        } else {
                            // Impossible under conservation; counted and
                            // asserted zero by the oracle.
                            c.defer(move |h: &mut Held| h.failed_decrements += 1);
                        }
                    }
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
                Held {
                    refs: vec![initial_refs; objects as usize],
                    failed_decrements: 0,
                },
            );
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux { counters }),
        }
    }

    /// The conservation oracle: each counter equals the sum of references
    /// held, and no decrement ever saw a zero global count.
    fn oracle(&self, base: &BaseCfg, _params: &Params, out: &mut RunOutcome) {
        let counters = out
            .aux
            .downcast_ref::<Aux>()
            .expect("refcount aux")
            .counters
            .clone();
        let m = &mut out.machine;
        for (o, &c) in counters.iter().enumerate() {
            let held: u64 = (0..base.threads)
                .map(|t| m.env(t).user::<Held>().refs[o])
                .sum();
            let v = m.read_word(c);
            assert_eq!(v, held, "object {o}: counter must equal held references");
        }
        let failed: u64 = (0..base.threads)
            .map(|t| m.env(t).user::<Held>().failed_decrements)
            .sum();
        assert_eq!(
            failed, 0,
            "conservation: a held reference implies a positive count"
        );
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamValue;

    /// The three Fig. 10 series: the baseline, CommTM without gathers and
    /// CommTM with gathers.
    const VARIANTS: [(Scheme, bool); 3] = [
        (Scheme::Baseline, false),
        (Scheme::CommTm, false),
        (Scheme::CommTm, true),
    ];

    /// Runs and oracle-checks `total_ops` acquires/releases over `objects`
    /// counters on `threads` cores.
    fn run(
        threads: usize,
        (scheme, gather): (Scheme, bool),
        total_ops: u64,
        objects: u64,
    ) -> RunReport {
        let over = Params::from_iter([
            ("total_ops", ParamValue::U64(total_ops)),
            ("gather", ParamValue::Bool(gather)),
            ("objects", ParamValue::U64(objects)),
        ]);
        let params = Refcount
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        Refcount
            .run_checked(BaseCfg::new(threads, scheme), &params)
            .0
    }

    #[test]
    fn all_variants_conserve_references() {
        for variant in VARIANTS {
            run(4, variant, 400, 16);
        }
    }

    #[test]
    fn gather_requests_are_issued() {
        let r = run(8, (Scheme::CommTm, true), 800, 2);
        assert!(
            r.core_totals().gather_ops > 0,
            "low counters should trigger gathers"
        );
    }

    #[test]
    fn single_thread_each_variant() {
        for variant in VARIANTS {
            run(1, variant, 100, 16);
        }
    }
}
