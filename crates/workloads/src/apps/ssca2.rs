//! ssca2 (paper Sec. VII, Table II): a graph-construction kernel that
//! spends most of its time in parallel per-node work and only a small
//! fraction in commutative updates to shared global graph metadata (32b ADD
//! in the paper). The paper measures a negligible CommTM gain (+0.2% at 128
//! threads) precisely because contention is rare — this workload exists to
//! show CommTM does no harm when commutativity is scarce.
//!
//! Structure: threads scan a partition of a synthetic scale-free edge list,
//! transactionally bumping per-node degree counters (rarely contended), and
//! every `batch` edges commit one transaction updating the global edge
//! counter with an ADD-labeled operation.

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

const R_E: usize = 0; // edge index
const R_BATCH: usize = 1; // edges since last metadata update

/// What the oracle needs from the simulation setup.
struct Aux {
    deg: Addr,
    total_edges: Addr,
    host_deg: Vec<u64>,
}

/// The registered ssca2 application (Table II).
pub struct Ssca2;

impl Workload for Ssca2 {
    fn name(&self) -> &'static str {
        "ssca2"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::App
    }

    fn summary(&self) -> &'static str {
        "graph kernel with rare global-metadata updates"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let add = LabelId::new(0);
        let degrees = Addr::new(0x1000); // eight per-vertex counters, one line
        let bump = move |core: usize, wkey: &'static str, dkey: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let a = degrees.offset_words(inp.get(wkey));
                let d = inp.get(dkey);
                ctx.txn(core, |t| {
                    let v = t.load_l(add, a);
                    t.store_l(add, a, v.wrapping_add(d));
                });
            }
        };
        vec![Claim::new(
            "ssca2/degree-updates-commute",
            "ADD-labeled per-vertex degree bumps commute even when both land \
             on the same word of the shared metadata line",
        )
        .label(labels::add())
        .input("wa", 0..=7)
        .input("wb", 0..=7)
        .input("da", 1..=1_000)
        .input("db", 1..=1_000)
        .op_a(bump(0, "wa", "da"))
        .op_b(bump(1, "wb", "db"))
        .probe(move |ctx: &mut ClaimCtx| {
            let mut p = vec![ctx.logical_w0(degrees)];
            p.extend((0..8).map(|w| ctx.read(0, degrees.offset_words(w))));
            p
        })]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64("nodes", 1024, "number of nodes")
            .u64_per_scale("edges", 2_048, "number of edges")
            .u64("batch", 16, "edges per global-metadata batch update")
            .u64("work_per_edge", 24, "non-memory work cycles per edge")
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let nodes = params.u64("nodes") as usize;
        let edges = params.u64("edges") as usize;
        let batch = params.u64("batch");
        let work = params.u64("work_per_edge");
        let mut b = base.builder();
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();

        let deg = m.heap_mut().alloc(nodes as u64 * 8, 64);
        let edge_src = m.heap_mut().alloc(edges as u64 * 8, 64);
        let total_edges = m.heap_mut().alloc_lines(1);

        // Synthetic scale-free-ish edge endpoints (preferential towards low
        // node ids, like RMAT output).
        let mut host_deg = vec![0u64; nodes];
        {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(base.seed ^ 0x5543_4132);
            for e in 0..edges {
                let r: f64 = rng.random_range(0.0..1.0);
                let u = ((r * r) * nodes as f64) as usize % nodes;
                host_deg[u] += 1;
                m.poke(edge_src.offset_words(e as u64), u as u64);
            }
        }

        let threads = base.threads;
        for t in 0..threads {
            let lo = edges * t / threads;
            let hi = edges * (t + 1) / threads;
            let mut p = Program::builder();
            p.ctl(move |c| {
                c.regs[R_E] = lo as u64;
                c.regs[R_BATCH] = 0;
                Ctl::Next
            });
            if hi > lo {
                let top = p.here();
                // Per-edge transaction: bump the endpoint's degree (plain RMW;
                // rarely contended across 1024 nodes).
                p.tx(move |c| {
                    c.work(work);
                    let e = c.reg(R_E);
                    let u = c.load(edge_src.offset_words(e));
                    let a = deg.offset_words(u % nodes as u64);
                    let dv = c.load(a);
                    c.store(a, dv + 1);
                });
                // Every `batch` edges, update global metadata (the commutative
                // op of Table II). Layout: [decide] [meta tx] [advance], so the
                // skip target is two blocks past the decision.
                let decide = p.here();
                let advance = decide + 2;
                p.ctl(move |c| {
                    c.regs[R_BATCH] += 1;
                    if c.regs[R_BATCH] >= batch || c.regs[R_E] + 1 >= hi as u64 {
                        Ctl::Next // fall through to the metadata tx
                    } else {
                        Ctl::Jump(advance)
                    }
                });
                p.tx(move |c| {
                    let n = c.reg(R_BATCH);
                    let v = c.load_l(add, total_edges);
                    c.store_l(add, total_edges, v + n);
                    c.set_reg(R_BATCH, 0);
                });
                debug_assert_eq!(p.here(), advance);
                p.ctl(move |c| {
                    c.regs[R_E] += 1;
                    if (c.regs[R_E] as usize) < hi {
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
            aux: Box::new(Aux {
                deg,
                total_edges,
                host_deg,
            }),
        }
    }

    /// The oracle: per-node degrees match the host-side tally and sum to
    /// the edge count, which the global metadata counter must also equal.
    fn oracle(&self, _base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let aux = out.aux.downcast_ref::<Aux>().expect("ssca2 aux");
        let (deg, total_edges) = (aux.deg, aux.total_edges);
        let host_deg = aux.host_deg.clone();
        let m = &mut out.machine;
        let edges = params.u64("edges");
        let total = m.read_word(total_edges);
        assert_eq!(
            total, edges,
            "global metadata counter must equal edge count"
        );
        let mut sum = 0u64;
        for (u, &hd) in host_deg.iter().enumerate() {
            let dv = m.read_word(deg.offset_words(u as u64));
            assert_eq!(dv, hd, "degree of node {u}");
            sum += dv;
        }
        assert_eq!(sum, edges);
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    /// Runs and oracle-checks `edges` edges over `nodes` nodes on
    /// `threads` cores.
    fn run(threads: usize, scheme: Scheme, nodes: u64, edges: u64) -> RunReport {
        let over = Params::from_iter([("nodes", nodes), ("edges", edges)]);
        let params = Ssca2
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        Ssca2.run_checked(BaseCfg::new(threads, scheme), &params).0
    }

    #[test]
    fn degrees_and_metadata_match_under_both_schemes() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 128, 256);
        }
    }

    #[test]
    fn single_thread() {
        run(1, Scheme::CommTm, 64, 100);
    }
}
