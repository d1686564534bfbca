//! boruvka (paper Sec. VII, Table II): minimum spanning tree by Borůvka
//! rounds, using all four of the paper's commutative operations:
//!
//! - **OPUT** records the minimum-weight edge leaving each component,
//! - **MIN** unions components (labels only ever decrease),
//! - **MAX** marks edges added to the MST,
//! - **ADD** accumulates the MST weight and per-round change counters.
//!
//! Each round has three barrier-separated phases: (A) scan edges, ordered-
//! putting each cross-component edge into both endpoint components' min-
//! edge slots; (B) process owned components, adding their selected edge (a
//! component pair's selections coincide by the distinct-weight argument, so
//! the lower-label owner adds it) and unioning via MIN; (C) reset min-edge
//! slots and check the change counter for termination.
//!
//! The input graph substitutes the paper's `usroads` (SuiteSparse) with a
//! synthetic road-network-like graph: a 2-D grid with random diagonals and
//! distinct random weights (see "Modeling departures" in
//! docs/ARCHITECTURE.md).

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::ds::emit_barrier;
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, ParamValue, Params};

/// A host-side graph: `edges[e] = (u, v, w)` with distinct weights.
struct Graph {
    /// Number of nodes.
    nodes: usize,
    /// Edge list with distinct weights.
    edges: Vec<(u64, u64, u64)>,
}

/// Generates the grid-plus-diagonals road-like graph.
fn road_graph(side: usize, diagonal_pct: u64, seed: u64) -> Graph {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x726f_6164);
    let nodes = side * side;
    let id = |x: usize, y: usize| (y * side + x) as u64;
    let mut edges = Vec::new();
    for y in 0..side {
        for x in 0..side {
            if x + 1 < side {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < side {
                edges.push((id(x, y), id(x, y + 1)));
            }
            if x + 1 < side && y + 1 < side && rng.random_range(0..100) < diagonal_pct {
                edges.push((id(x, y), id(x + 1, y + 1)));
            }
        }
    }
    // Distinct weights: a random permutation of 1..=E scaled.
    let mut weights: Vec<u64> = (1..=edges.len() as u64).map(|w| w * 7).collect();
    for i in (1..weights.len()).rev() {
        let j = rng.random_range(0..=i as u64) as usize;
        weights.swap(i, j);
    }
    let edges = edges
        .into_iter()
        .zip(weights)
        .map(|((u, v), w)| (u, v, w))
        .collect();
    Graph { nodes, edges }
}

/// Kruskal's algorithm on the host graph (the oracle).
fn kruskal_weight(g: &Graph) -> u64 {
    let mut parent: Vec<usize> = (0..g.nodes).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut edges = g.edges.clone();
    edges.sort_by_key(|&(_, _, w)| w);
    let mut total = 0;
    for (u, v, w) in edges {
        let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if ru != rv {
            parent[ru] = rv;
            total += w;
        }
    }
    total
}

const R_PHASE: usize = 0; // + R_PHASE+1 barrier scratch
const R_E: usize = 2;
const R_ROUND: usize = 3;
const R_C: usize = 4;
const R_DONE: usize = 5;

const MAX_ROUNDS: u64 = 64;

/// Chases component labels to a fixed point (plain loads inside the
/// enclosing block; bounded, and tolerant of satiated-zero reads).
fn find_label(c: &mut TxCtx<'_, '_>, labels_base: Addr, mut x: u64, nodes: u64) -> u64 {
    // Labels strictly decrease along chains, so `nodes` hops always reach
    // the root; satiated-zero reads terminate at node 0.
    for _ in 0..nodes {
        if x >= nodes {
            return x;
        }
        let l = c.load(labels_base.offset_words(x));
        if l == x {
            return x;
        }
        x = l;
    }
    x
}

/// What the oracle needs from the simulation setup.
struct Aux {
    weight: Addr,
    marks: Addr,
    nodes: u64,
    nedges: u64,
    /// Kruskal's MST weight over the generated input graph.
    oracle_weight: u64,
}

/// The registered boruvka application (Table II).
pub struct Boruvka;

impl Workload for Boruvka {
    fn name(&self) -> &'static str {
        "boruvka"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::App
    }

    fn summary(&self) -> &'static str {
        "minimum spanning tree over a road-like graph"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let min_l = LabelId::new(0);
        let add = LabelId::new(0);
        let comp = Addr::new(0x1000);
        let weight = Addr::new(0x1000);
        let relabel = move |core: usize, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let lo = inp.get(key);
                ctx.txn(core, |t| t.store_l(min_l, comp, lo));
            }
        };
        let accumulate = move |core: usize, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let w = inp.get(key);
                ctx.txn(core, |t| {
                    let tot = t.load_l(add, weight);
                    t.store_l(add, weight, tot + w);
                });
            }
        };
        vec![
            Claim::new(
                "boruvka/component-relabels-commute",
                "two MIN-labeled component relabelings keep the lowest \
                 representative id in either order",
            )
            .label(labels::min())
            .input("xa", 0..=1_000_000)
            .input("xb", 0..=1_000_000)
            .setup(move |ctx: &mut ClaimCtx, _inp: &Inputs| ctx.poke(comp, u64::MAX))
            .op_a(relabel(0, "xa"))
            .op_b(relabel(1, "xb"))
            .probe(move |ctx: &mut ClaimCtx| vec![ctx.read(0, comp)]),
            Claim::new(
                "boruvka/mst-weight-accumulations-commute",
                "two ADD-labeled MST-weight accumulations sum identically in \
                 either order",
            )
            .label(labels::add())
            .input("wa", 1..=1_000_000)
            .input("wb", 1..=1_000_000)
            .op_a(accumulate(0, "wa"))
            .op_b(accumulate(1, "wb"))
            .probe(move |ctx: &mut ClaimCtx| vec![ctx.logical_w0(weight), ctx.read(0, weight)]),
        ]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_computed(
                "side",
                |scale, _| ParamValue::U64(10 + 2 * scale.min(20)),
                "grid side (nodes = side², grows with scale up to 50)",
            )
            .u64(
                "diagonal_pct",
                30,
                "percent chance of a diagonal shortcut per cell",
            )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let g = road_graph(
            params.u64("side") as usize,
            params.u64("diagonal_pct"),
            base.seed,
        );
        let oracle = kruskal_weight(&g);
        let (nodes, nedges) = (g.nodes as u64, g.edges.len() as u64);

        let mut b = base.builder();
        let oput = b.register_label(labels::oput()).expect("label budget");
        let min = b.register_label(labels::min()).expect("label budget");
        let max = b.register_label(labels::max()).expect("label budget");
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();

        // Layout.
        let labels_arr = m.heap_mut().alloc(nodes * 8, 64);
        let edge_u = m.heap_mut().alloc(nedges * 8, 64);
        let edge_v = m.heap_mut().alloc(nedges * 8, 64);
        let edge_w = m.heap_mut().alloc(nedges * 8, 64);
        // One OPUT (key, value) pair per component, line-aligned to keep the
        // baseline free of false sharing (the pair fits one line).
        let minedge: Vec<Addr> = (0..nodes).map(|_| m.heap_mut().alloc_lines(1)).collect();
        // One mark per line: this transaction mixes plain reads (which fold
        // the line into a full M copy) with MAX-labeled updates; padding keeps
        // every line single-writer-of-one-word so the mixed access pattern
        // cannot interleave stale full copies with partials.
        let marks = m.heap_mut().alloc(nedges * 64, 64);
        let weight = m.heap_mut().alloc_lines(1);
        let changed = m.heap_mut().alloc(MAX_ROUNDS * 8, 64);
        let barrier = m.heap_mut().alloc_lines(1);

        for x in 0..nodes {
            m.poke(labels_arr.offset_words(x), x);
        }
        for (e, &(u, v, w)) in g.edges.iter().enumerate() {
            m.poke(edge_u.offset_words(e as u64), u);
            m.poke(edge_v.offset_words(e as u64), v);
            m.poke(edge_w.offset_words(e as u64), w);
        }
        for me in &minedge {
            m.poke(*me, u64::MAX); // OPUT identity key
        }

        let threads = base.threads;
        for t in 0..threads {
            let e_lo = (nedges as usize) * t / threads;
            let e_hi = (nedges as usize) * (t + 1) / threads;
            let minedge = minedge.clone();
            let mut p = Program::builder();

            let round_top = p.here();
            // ---- Phase A: ordered-put each cross edge into both components.
            p.ctl(move |c| {
                c.regs[R_E] = e_lo as u64;
                Ctl::Next
            });
            if e_hi > e_lo {
                let scan_top = p.here();
                let me_a = minedge.clone();
                p.tx(move |c| {
                    let e = c.reg(R_E);
                    let u = c.load(edge_u.offset_words(e));
                    let v = c.load(edge_v.offset_words(e));
                    let w = c.load(edge_w.offset_words(e));
                    let lu = find_label(c, labels_arr, u, nodes);
                    let lv = find_label(c, labels_arr, v, nodes);
                    if lu != lv && lu < nodes && lv < nodes {
                        let key = w * (nedges + 1) + e; // distinct keys
                        for comp in [lu, lv] {
                            let slot = me_a[comp as usize];
                            let cur = c.load_l(oput, slot);
                            if key < cur {
                                c.store_l(oput, slot, key);
                                c.store_l(oput, slot.offset_words(1), e);
                            }
                        }
                    }
                    c.work(8);
                });
                p.ctl(move |c| {
                    c.regs[R_E] += 1;
                    if (c.regs[R_E] as usize) < e_hi {
                        Ctl::Jump(scan_top)
                    } else {
                        Ctl::Next
                    }
                });
            }
            emit_barrier(&mut p, barrier, threads as u64, R_PHASE);

            // ---- Phase B: add selected edges, union components.
            p.ctl(move |c| {
                c.regs[R_C] = t as u64;
                Ctl::Next
            });
            let comp_top = p.here();
            let me_b = minedge.clone();
            p.tx(move |c| {
                let comp = c.reg(R_C);
                if comp < nodes {
                    let slot = me_b[comp as usize];
                    let key = c.load(slot); // plain read: reduces the OPUT slot
                    if key != u64::MAX && key != 0 {
                        let e = c.load(slot.offset_words(1));
                        let u = c.load(edge_u.offset_words(e));
                        let v = c.load(edge_v.offset_words(e));
                        let w = c.load(edge_w.offset_words(e));
                        let lu = find_label(c, labels_arr, u, nodes);
                        let lv = find_label(c, labels_arr, v, nodes);
                        if lu != lv && lu < nodes && lv < nodes {
                            let (lo, hi) = (lu.min(lv), lu.max(lv));
                            // Union: labels only ever decrease (MIN commutes).
                            c.store_l(min, labels_arr.offset_words(hi), lo);
                            // Both endpoint components may have selected this
                            // edge; a *plain* read of the mark serializes the
                            // two adders through ordinary conflict detection,
                            // so the weight is counted exactly once. The mark
                            // itself is a commutative MAX.
                            let mk = c.load(marks.offset_words(e * 8));
                            if mk == 0 {
                                c.store_l(max, marks.offset_words(e * 8), 1);
                                let tot = c.load_l(add, weight);
                                c.store_l(add, weight, tot + w);
                                let round = c.reg(R_ROUND);
                                let ch = c.load_l(add, changed.offset_words(round));
                                c.store_l(add, changed.offset_words(round), ch + 1);
                            }
                        }
                    }
                }
                c.work(8);
            });
            p.ctl(move |c| {
                c.regs[R_C] += threads as u64;
                if c.regs[R_C] < nodes {
                    Ctl::Jump(comp_top)
                } else {
                    Ctl::Next
                }
            });
            emit_barrier(&mut p, barrier, threads as u64, R_PHASE);

            // ---- Phase C: reset owned min-edge slots; check for termination.
            let me_c = minedge.clone();
            p.plain(move |c| {
                let mut comp = t as u64;
                while comp < nodes {
                    c.store(me_c[comp as usize], u64::MAX);
                    c.store(me_c[comp as usize].offset_words(1), 0);
                    comp += threads as u64;
                }
                let round = c.reg(R_ROUND);
                let ch = c.load(changed.offset_words(round));
                c.set_reg(R_DONE, u64::from(ch == 0));
            });
            emit_barrier(&mut p, barrier, threads as u64, R_PHASE);
            p.ctl(move |c| {
                c.regs[R_ROUND] += 1;
                if c.regs[R_DONE] == 1 || c.regs[R_ROUND] >= MAX_ROUNDS {
                    Ctl::Done
                } else {
                    Ctl::Jump(round_top)
                }
            });
            m.set_program(t, p.build(), ());
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux {
                weight,
                marks,
                nodes,
                nedges,
                oracle_weight: oracle,
            }),
        }
    }

    /// The oracle: MST weight equals Kruskal's and the marked edges form a
    /// spanning tree (`nodes - 1` of them for a connected graph).
    fn oracle(&self, _base: &BaseCfg, _params: &Params, out: &mut RunOutcome) {
        let &Aux {
            weight,
            marks,
            nodes,
            nedges,
            oracle_weight,
        } = out.aux.downcast_ref::<Aux>().expect("boruvka aux");
        let m = &mut out.machine;
        let got = m.read_word(weight);
        let marked = (0..nedges)
            .filter(|&e| m.read_word(marks.offset_words(e * 8)) != 0)
            .count() as u64;
        assert_eq!(got, oracle_weight, "MST weight must match Kruskal");
        assert_eq!(marked, nodes - 1, "a connected graph's MST has n-1 edges");
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    #[test]
    fn kruskal_on_tiny_graph() {
        let g = Graph {
            nodes: 3,
            edges: vec![(0, 1, 10), (1, 2, 20), (0, 2, 30)],
        };
        assert_eq!(kruskal_weight(&g), 30);
    }

    #[test]
    fn road_graph_is_connected_and_distinct() {
        let g = road_graph(6, 30, 42);
        assert_eq!(g.nodes, 36);
        let mut ws: Vec<u64> = g.edges.iter().map(|e| e.2).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), g.edges.len(), "weights must be distinct");
    }

    /// Runs and oracle-checks the MST of a `side`×`side` road graph on
    /// `threads` cores.
    fn run(threads: usize, scheme: Scheme, side: u64) -> RunReport {
        let params = Boruvka
            .schema()
            .resolve(1, threads, &Params::from_iter([("side", side)]))
            .expect("overrides fit the schema");
        Boruvka
            .run_checked(BaseCfg::new(threads, scheme), &params)
            .0
    }

    #[test]
    fn mst_matches_kruskal_under_both_schemes() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 6);
        }
    }

    #[test]
    fn single_thread_mst() {
        run(1, Scheme::CommTm, 5);
    }
}
