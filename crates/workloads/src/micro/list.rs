//! Concurrent linked-list enqueues and dequeues (paper Sec. VI, Figs. 11
//! and 12). When element order is unimportant (sets, work-sharing queues),
//! enqueue/dequeue are semantically — but not strictly — commutative: under
//! CommTM each thread appends to a *local* partial list behind its U-state
//! descriptor copy; reductions concatenate the partial lists and splitters
//! donate head elements to empty dequeuers.
//!
//! Layout follows the paper: under CommTM the descriptor (head, tail) is
//! one line; under the baseline, head and tail live on different lines to
//! avoid false sharing (Sec. VI).

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// Per-thread tallies for the conservation oracle.
#[derive(Clone, Default)]
struct Tally {
    enq_count: u64,
    enq_sum: u64,
    deq_count: u64,
    deq_sum: u64,
    deq_empty: u64,
}

const NODE_BYTES: u64 = 64; // one line per node: next at +0, value at +8

/// What the oracle needs from the simulation setup.
struct Aux {
    head_addr: Addr,
    /// Elements pre-populated before the run, and their value sum.
    warm_start: u64,
    warm_sum: u64,
}

/// The registered Fig. 12 linked-list workload. `mixed` selects the
/// 50/50 enqueue/dequeue mix vs. enqueue-only; `warm_start` only applies
/// to the mixed variant (enqueue-only starts empty, as in the paper).
pub struct List;

impl Workload for List {
    fn name(&self) -> &'static str {
        "list"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Micro
    }

    fn summary(&self) -> &'static str {
        "linked-list enqueues/dequeues (Fig. 12)"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let list_l = LabelId::new(0);
        let head_addr = Addr::new(0x1000);
        let tail_addr = head_addr.offset_words(1);
        let enqueue = move |core: usize, node: u64, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let value = inp.get(key);
                ctx.txn(core, |t| {
                    t.store(Addr::new(node), 0); // node.next
                    t.store(Addr::new(node + 8), value);
                    let tail = t.load_l(list_l, tail_addr);
                    if tail == 0 {
                        t.store_l(list_l, head_addr, node);
                        t.store_l(list_l, tail_addr, node);
                    } else {
                        t.store(Addr::new(tail), node); // tail.next = node
                        t.store_l(list_l, tail_addr, node);
                    }
                });
            }
        };
        vec![Claim::new(
            "list/enqueues-commute",
            "two transactional enqueues onto one shared list build the same \
             multiset of values and a well-formed chain, in either order",
        )
        .label(labels::list())
        .input("va", 1..=1_000_000)
        .input("vb", 1..=1_000_000)
        .op_a(enqueue(0, 0x2000, "va"))
        .op_b(enqueue(1, 0x2040, "vb"))
        .probe(move |ctx: &mut ClaimCtx| {
            // A plain read reduces the descriptor (concatenating the
            // partial lists); walk the merged chain.
            let mut head = ctx.read(0, head_addr);
            let tail = ctx.read(0, tail_addr);
            let mut values = Vec::new();
            let mut last = 0;
            let mut steps = 0u64;
            while head != 0 && steps < 16 {
                values.push(ctx.read(0, Addr::new(head + 8)));
                last = head;
                head = ctx.read(0, Addr::new(head));
                steps += 1;
            }
            values.sort_unstable();
            let mut probe = vec![steps, u64::from(tail == last)];
            probe.extend(values);
            probe
        })]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale("total_ops", 8_000, "total operations (the paper uses 10M)")
            .flag(
                "mixed",
                true,
                "50/50 enqueue/dequeue mix (false = enqueue-only)",
            )
            .u64_per_thread(
                "warm_start",
                48,
                "elements pre-populated before the run (mixed variant only)",
            )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let total_ops = params.u64("total_ops");
        let mixed = params.flag("mixed");
        // The paper's 10M-op mixed run keeps the list thousands of
        // elements deep; scaled runs use a warm start so dequeues aren't
        // dominated by empty-list gathers (a scale artifact, not a scheme
        // property).
        let warm_start = if mixed { params.u64("warm_start") } else { 0 };
        let mut b = base.builder();
        let list = b.register_label(labels::list()).expect("label budget");
        let mut m = b.build();

        // Descriptor layout depends on the scheme (see module docs).
        let (head_addr, tail_addr) = match base.scheme {
            Scheme::CommTm => {
                let d = m.heap_mut().alloc_lines(1);
                (d, d.offset_words(1))
            }
            Scheme::Baseline => (m.heap_mut().alloc_lines(1), m.heap_mut().alloc_lines(1)),
        };

        // Warm-start population: a pre-built chain behind the descriptor.
        let mut warm_sum = 0u64;
        if warm_start > 0 {
            let pool = m.heap_mut().alloc(warm_start * NODE_BYTES, 64);
            let mut prev = 0u64;
            for i in 0..warm_start {
                let node = pool.raw() + i * NODE_BYTES;
                let value = (0x57_41_52_4Du64 ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                warm_sum = warm_sum.wrapping_add(value);
                m.poke(Addr::new(node), 0);
                m.poke(Addr::new(node + 8), value);
                if prev != 0 {
                    m.poke(Addr::new(prev), node);
                } else {
                    m.poke(head_addr, node);
                }
                prev = node;
            }
            m.poke(tail_addr, prev);
        }

        // Per-thread node pools; a register-held cursor allocates
        // (registers roll back with the transaction, so aborted enqueues
        // don't leak).
        const I: usize = 0;
        const CUR: usize = 1;
        const DO_ENQ: usize = 2;

        for t in 0..base.threads {
            let iters = base.share(total_ops, t);
            let pool = m.heap_mut().alloc(iters.max(1) * NODE_BYTES, 64);
            let mut p = Program::builder();
            if iters > 0 {
                let pool_base = pool.raw();
                p.ctl(move |c| {
                    c.regs[CUR] = pool_base;
                    Ctl::Next
                });
                let top = p.here();
                p.ctl(move |c| {
                    c.regs[DO_ENQ] = if mixed { c.rand_below(2) } else { 1 };
                    Ctl::Next
                });
                p.tx(move |c| {
                    if c.reg(DO_ENQ) == 1 {
                        // Enqueue: append a fresh node to the local partial
                        // list.
                        let node = c.reg(CUR);
                        c.set_reg(CUR, node + NODE_BYTES);
                        let value = c.rand() | 1; // non-zero sentinel-safe value
                        c.store(Addr::new(node), 0); // node.next
                        c.store(Addr::new(node + 8), value);
                        let tail = c.load_l(list, tail_addr);
                        if tail == 0 {
                            c.store_l(list, head_addr, node);
                            c.store_l(list, tail_addr, node);
                        } else {
                            c.store(Addr::new(tail), node); // tail.next = node
                            c.store_l(list, tail_addr, node);
                        }
                        c.defer(move |s: &mut Tally| {
                            s.enq_count += 1;
                            s.enq_sum = s.enq_sum.wrapping_add(value);
                        });
                    } else {
                        // Dequeue: take the local head; gather from other
                        // partial lists when empty; a plain read
                        // (reduction) settles true emptiness.
                        let mut head = c.load_l(list, head_addr);
                        if head == 0 {
                            head = c.load_gather(list, head_addr);
                        }
                        if head == 0 {
                            head = c.load(head_addr);
                        }
                        if head == 0 {
                            c.defer(|s: &mut Tally| s.deq_empty += 1);
                        } else {
                            let next = c.load(Addr::new(head));
                            c.store_l(list, head_addr, next);
                            if next == 0 {
                                c.store_l(list, tail_addr, 0);
                            }
                            let value = c.load(Addr::new(head + 8));
                            c.defer(move |s: &mut Tally| {
                                s.deq_count += 1;
                                s.deq_sum = s.deq_sum.wrapping_add(value);
                            });
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
            m.set_program(t, p.build(), Tally::default());
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux {
                head_addr,
                warm_start,
                warm_sum,
            }),
        }
    }

    /// The conservation oracle: walking the merged list must account for
    /// every enqueue minus every successful dequeue, in count and value
    /// sum.
    fn oracle(&self, base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let total_ops = params.u64("total_ops");
        let &Aux {
            head_addr,
            warm_start,
            warm_sum,
        } = out.aux.downcast_ref::<Aux>().expect("list aux");
        let m = &mut out.machine;

        // Walk the merged list (the plain read of the head reduces all
        // partial lists first).
        let mut remaining_count = 0u64;
        let mut remaining_sum = 0u64;
        let mut node = m.read_word(head_addr);
        while node != 0 {
            remaining_count += 1;
            remaining_sum = remaining_sum.wrapping_add(m.read_word(Addr::new(node + 8)));
            node = m.read_word(Addr::new(node));
            assert!(
                remaining_count <= total_ops + warm_start,
                "list must be acyclic"
            );
        }

        let mut enq = 0u64;
        let mut deq = 0u64;
        let mut enq_sum = 0u64;
        let mut deq_sum = 0u64;
        for t in 0..base.threads {
            let s = m.env(t).user::<Tally>();
            enq += s.enq_count;
            deq += s.deq_count;
            enq_sum = enq_sum.wrapping_add(s.enq_sum);
            deq_sum = deq_sum.wrapping_add(s.deq_sum);
        }
        assert_eq!(
            remaining_count,
            warm_start + enq - deq,
            "length conservation"
        );
        assert_eq!(
            remaining_sum,
            warm_sum.wrapping_add(enq_sum).wrapping_sub(deq_sum),
            "value conservation: every enqueued element is dequeued or present exactly once"
        );
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamValue;
    use commtm::Scheme;

    /// Runs and oracle-checks `total_ops` operations (the 50/50 mix when
    /// `mixed`, else enqueue-only) on `threads` cores, from an empty list.
    fn run(threads: usize, scheme: Scheme, total_ops: u64, mixed: bool) -> RunReport {
        let over = Params::from_iter([
            ("total_ops", ParamValue::U64(total_ops)),
            ("mixed", ParamValue::Bool(mixed)),
            ("warm_start", ParamValue::U64(0)),
        ]);
        let params = List
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        List.run_checked(BaseCfg::new(threads, scheme), &params).0
    }

    #[test]
    fn enqueue_only_conserves_elements() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            let r = run(4, scheme, 200, false);
            assert!(r.commits() >= 200);
        }
    }

    #[test]
    fn mixed_ops_conserve_elements() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 300, true);
        }
    }

    #[test]
    fn commtm_beats_baseline_on_enqueues() {
        let base = run(8, Scheme::Baseline, 400, false);
        let comm = run(8, Scheme::CommTm, 400, false);
        assert!(
            comm.total_cycles < base.total_cycles,
            "CommTM should win on concurrent enqueues ({} vs {})",
            comm.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn single_thread_mixed() {
        run(1, Scheme::CommTm, 100, true);
    }
}
