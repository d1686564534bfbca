//! kmeans (paper Sec. VII, Table II): iterative clustering where each
//! point-assignment transaction adds the point's coordinates into its
//! cluster's centroid accumulators — a large number of commutative updates
//! (32b ADD / FP ADD in the paper; 64-bit here, see "Modeling
//! departures" in docs/ARCHITECTURE.md) that serialize conventional HTMs
//! and scale under CommTM (the paper's strongest result, 3.4x at 128
//! threads).
//!
//! Structure per iteration: an assignment phase (read centers, pick the
//! nearest, record the assignment), a transactional accumulation phase
//! (FPADD into `sum[c][d]`, ADD into `count[c]`), a barrier, and a
//! recomputation phase (owners divide sums by counts and reset them).

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs, ProbeEquality};
use crate::ds::emit_barrier;
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

// Register assignments (R_PHASE also uses R_PHASE+1 as barrier scratch).
const R_PHASE: usize = 0;
const R_P: usize = 2;
const R_C: usize = 3;
const R_ITER: usize = 4;

/// Largest `d`: the assignment closure keeps a point's coordinates in a
/// fixed array of this length.
const MAX_DIMS: usize = 16;

/// What the oracle needs from the simulation setup.
struct Aux {
    assign: Addr,
    centers: Addr,
    host_points: Vec<f64>,
}

/// The registered kmeans application (Table II).
pub struct Kmeans;

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::App
    }

    fn summary(&self) -> &'static str {
        "clustering with commutative centroid updates"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let fpadd = LabelId::new(0);
        let acc = Addr::new(0x1000);
        // Inputs are drawn as integers and mapped onto f64 coordinates by
        // an exact power-of-two scale, so shrinking stays meaningful.
        let coord = |raw: u64| raw as f64 / 16.0;
        let accumulate = move |core: usize, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let x = coord(inp.get(key));
                ctx.txn(core, |t| {
                    let cur = f64::from_bits(t.load_l(fpadd, acc));
                    t.store_l(fpadd, acc, (cur + x).to_bits());
                });
            }
        };
        vec![Claim::new(
            "kmeans/centroid-accumulations-commute-within-tolerance",
            "FP ADD centroid accumulations are semantically, not bit-exactly, \
             commutative: probes compare within relative tolerance (the \
             paper's carve-out Coup cannot express)",
        )
        .label(labels::fp_add())
        .input("init", 0..=1_000_000)
        .input("xa", 1..=1_000_000)
        .input("xb", 1..=1_000_000)
        .equality(ProbeEquality::FpTolerance { rel: 1e-12 })
        .setup(move |ctx: &mut ClaimCtx, inp: &Inputs| {
            ctx.poke(acc, coord(inp.get("init")).to_bits());
        })
        .op_a(accumulate(0, "xa"))
        .op_b(accumulate(1, "xb"))
        .probe(move |ctx: &mut ClaimCtx| vec![ctx.read(0, acc)])]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale("n", 192, "number of points")
            .u64("d", 4, "dimensions per point")
            .at_most(MAX_DIMS as u64)
            .u64("k", 8, "number of clusters")
            .u64("iters", 2, "fixed iteration count (for determinism)")
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let n = params.u64("n") as usize;
        let d = params.u64("d") as usize;
        let k = params.u64("k") as usize;
        let iters = params.u64("iters");
        assert!(
            k <= n,
            "kmeans parameter k ({k}) must not exceed n ({n}): each cluster is seeded from a point"
        );
        let mut b = base.builder();
        let fpadd = b.register_label(labels::fp_add()).expect("label budget");
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();

        let points = m.heap_mut().alloc(n as u64 * d as u64 * 8, 64);
        let assign = m.heap_mut().alloc(n as u64 * 8, 64);
        let centers = m.heap_mut().alloc(k as u64 * d as u64 * 8, 64);
        let sums: Vec<Addr> = (0..k)
            .map(|_| m.heap_mut().alloc(d as u64 * 8, 64))
            .collect();
        let counts: Vec<Addr> = (0..k).map(|_| m.heap_mut().alloc_lines(1)).collect();
        let barrier = m.heap_mut().alloc_lines(1);

        // Host-side input generation: blobs around k anchors.
        let mut host_points = vec![0f64; n * d];
        {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(base.seed ^ 0x6b6d_6561_6e73);
            for p in 0..n {
                let anchor = p % k;
                for dim in 0..d {
                    let v = (anchor * 10 + dim) as f64 + rng.random_range(-2.0..2.0);
                    host_points[p * d + dim] = v;
                    m.poke(points.offset_words((p * d + dim) as u64), v.to_bits());
                }
            }
        }
        // Seed centers with the first k points.
        for c in 0..k {
            for dim in 0..d {
                m.poke(
                    centers.offset_words((c * d + dim) as u64),
                    host_points[c * d + dim].to_bits(),
                );
            }
        }

        let threads = base.threads;
        for t in 0..threads {
            let lo = n * t / threads;
            let hi = n * (t + 1) / threads;
            let mut p = Program::builder();

            let iter_top = p.here();
            p.ctl(move |c| {
                c.regs[R_P] = lo as u64;
                Ctl::Next
            });
            let point_top = p.here();
            // Assignment: read the point and every center, pick the nearest.
            p.plain(move |c| {
                let pi = c.reg(R_P) as usize;
                let mut coords = [0f64; MAX_DIMS];
                for (dim, coord) in coords.iter_mut().enumerate().take(d) {
                    *coord = f64::from_bits(c.load(points.offset_words((pi * d + dim) as u64)));
                }
                let mut best = (f64::INFINITY, 0usize);
                for cl in 0..k {
                    let mut dist = 0f64;
                    for (dim, coord) in coords.iter().enumerate().take(d) {
                        let cv =
                            f64::from_bits(c.load(centers.offset_words((cl * d + dim) as u64)));
                        let delta = coord - cv;
                        dist += delta * delta;
                    }
                    if dist < best.0 {
                        best = (dist, cl);
                    }
                }
                c.work(4 * (k * d) as u64); // distance arithmetic
                c.store(assign.offset_words(pi as u64), best.1 as u64);
                c.set_reg(R_C, best.1 as u64);
            });
            // Accumulate into the chosen cluster (the commutative hotspot).
            let sums_tx = sums.clone();
            let counts_tx = counts.clone();
            p.tx(move |c| {
                let pi = c.reg(R_P) as usize;
                let cl = (c.reg(R_C) as usize).min(k - 1);
                for dim in 0..d {
                    let a = sums_tx[cl].offset_words(dim as u64);
                    let cur = f64::from_bits(c.load_l(fpadd, a));
                    let pv = f64::from_bits(c.load(points.offset_words((pi * d + dim) as u64)));
                    c.store_l(fpadd, a, (cur + pv).to_bits());
                }
                let cnt = c.load_l(add, counts_tx[cl]);
                c.store_l(add, counts_tx[cl], cnt + 1);
            });
            p.ctl(move |c| {
                c.regs[R_P] += 1;
                if (c.regs[R_P] as usize) < hi {
                    Ctl::Jump(point_top)
                } else {
                    Ctl::Next
                }
            });
            emit_barrier(&mut p, barrier, threads as u64, R_PHASE);
            // Recompute owned clusters' centers and reset accumulators.
            let sums_rc = sums.clone();
            let counts_rc = counts.clone();
            p.plain(move |c| {
                for cl in (t..k).step_by(threads.max(1)) {
                    let cnt = c.load(counts_rc[cl]);
                    for dim in 0..d {
                        let s = f64::from_bits(c.load(sums_rc[cl].offset_words(dim as u64)));
                        if cnt > 0 {
                            let mean = s / cnt as f64;
                            c.store(centers.offset_words((cl * d + dim) as u64), mean.to_bits());
                        }
                        c.store(sums_rc[cl].offset_words(dim as u64), 0);
                    }
                    c.store(counts_rc[cl], 0);
                }
            });
            emit_barrier(&mut p, barrier, threads as u64, R_PHASE);
            p.ctl(move |c| {
                c.regs[R_ITER] += 1;
                if c.regs[R_ITER] < iters {
                    Ctl::Jump(iter_top)
                } else {
                    Ctl::Done
                }
            });
            m.set_program(t, p.build(), ());
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux {
                assign,
                centers,
                host_points,
            }),
        }
    }

    /// The oracle: recompute the final centers from the recorded
    /// assignments, within floating-point reassociation tolerance.
    fn oracle(&self, _base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let n = params.u64("n") as usize;
        let d = params.u64("d") as usize;
        let k = params.u64("k") as usize;
        let aux = out.aux.downcast_ref::<Aux>().expect("kmeans aux");
        let (assign, centers) = (aux.assign, aux.centers);
        let host_points = aux.host_points.clone();
        let m = &mut out.machine;
        let mut sums_h = vec![0f64; k * d];
        let mut counts_h = vec![0u64; k];
        for pi in 0..n {
            let cl = m.read_word(assign.offset_words(pi as u64)) as usize;
            assert!(cl < k, "assignment out of range");
            counts_h[cl] += 1;
            for dim in 0..d {
                sums_h[cl * d + dim] += host_points[pi * d + dim];
            }
        }
        assert_eq!(counts_h.iter().sum::<u64>(), n as u64);
        for cl in 0..k {
            if counts_h[cl] == 0 {
                continue;
            }
            for dim in 0..d {
                let want = sums_h[cl * d + dim] / counts_h[cl] as f64;
                let got = f64::from_bits(m.read_word(centers.offset_words((cl * d + dim) as u64)));
                let tol = 1e-6 * want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "center[{cl}][{dim}]: got {got}, want {want}"
                );
            }
        }
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    /// Runs and oracle-checks `iters` iterations over `n` points on
    /// `threads` cores.
    fn run(threads: usize, scheme: Scheme, n: u64, iters: u64) -> RunReport {
        let over = Params::from_iter([("n", n), ("iters", iters)]);
        let params = Kmeans
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        Kmeans.run_checked(BaseCfg::new(threads, scheme), &params).0
    }

    #[test]
    fn clusters_match_oracle_under_both_schemes() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 64, 2);
        }
    }

    #[test]
    fn single_thread_matches_oracle() {
        run(1, Scheme::CommTm, 32, 2);
    }

    #[test]
    fn commtm_wastes_no_more_than_baseline() {
        let base = run(8, Scheme::Baseline, 96, 2);
        let comm = run(8, Scheme::CommTm, 96, 2);
        assert!(comm.cycle_breakdown().aborted <= base.cycle_breakdown().aborted);
    }
}
