//! Workspace-level integration tests: every workload at small scale under
//! both schemes, cross-checking the qualitative claims the paper's
//! evaluation rests on.

use commtm::{RunReport, Scheme};
use commtm_workloads::apps::{
    boruvka::Boruvka, genome::Genome, kmeans::Kmeans, ssca2::Ssca2, vacation::Vacation,
};
use commtm_workloads::micro::{
    counter::Counter, list::List, oput::Oput, refcount::Refcount, topk::TopK,
};
use commtm_workloads::ParamValue::{self, Bool, U64};
use commtm_workloads::{BaseCfg, Workload};

fn both_schemes() -> [Scheme; 2] {
    [Scheme::Baseline, Scheme::CommTm]
}

/// Resolves `overrides` against `w`'s schema at scale 1 and runs `w` on
/// `threads` cores, checking its oracle.
fn run(
    w: &dyn Workload,
    threads: usize,
    scheme: Scheme,
    overrides: &[(&'static str, ParamValue)],
) -> RunReport {
    let overrides = overrides.iter().cloned().collect();
    let params = w
        .schema()
        .resolve(1, threads, &overrides)
        .expect("overrides fit the schema");
    w.run_checked(BaseCfg::new(threads, scheme), &params).0
}

#[test]
fn every_microbenchmark_verifies_under_both_schemes() {
    for scheme in both_schemes() {
        run(&Counter, 4, scheme, &[("total_incs", U64(200))]);
        run(&Oput, 4, scheme, &[("total_puts", U64(200))]);
        run(
            &TopK,
            4,
            scheme,
            &[("total_inserts", U64(200)), ("k", U64(16))],
        );
        run(
            &List,
            4,
            scheme,
            &[
                ("total_ops", U64(200)),
                ("mixed", Bool(true)),
                ("warm_start", U64(0)),
            ],
        );
        // Gathers only apply under CommTM; the baseline ignores the flag.
        run(
            &Refcount,
            4,
            scheme,
            &[("total_ops", U64(200)), ("gather", Bool(true))],
        );
    }
}

#[test]
fn every_application_verifies_under_both_schemes() {
    for scheme in both_schemes() {
        run(&Boruvka, 4, scheme, &[("side", U64(6))]);
        run(&Kmeans, 4, scheme, &[("n", U64(64)), ("iters", U64(2))]);
        run(
            &Ssca2,
            4,
            scheme,
            &[("nodes", U64(128)), ("edges", U64(256))],
        );
        run(
            &Genome,
            4,
            scheme,
            &[
                ("segments", U64(150)),
                ("unique", U64(24)),
                ("buckets", U64(128)),
            ],
        );
        run(&Vacation, 4, scheme, &[("tasks", U64(150))]);
    }
}

#[test]
fn commtm_beats_baseline_on_update_heavy_microbenchmarks() {
    // The paper's headline: commutative-update-heavy workloads serialize
    // under the baseline and scale under CommTM.
    let t = 16;
    let ops = 1200;

    let incs = [("total_incs", U64(ops))];
    let base = run(&Counter, t, Scheme::Baseline, &incs);
    let comm = run(&Counter, t, Scheme::CommTm, &incs);
    assert!(
        comm.total_cycles * 4 < base.total_cycles,
        "counter: expected >4x gain"
    );
    assert_eq!(comm.aborts(), 0, "counter: CommTM must not abort");

    let inserts = [("total_inserts", U64(ops)), ("k", U64(32))];
    let base = run(&TopK, t, Scheme::Baseline, &inserts);
    let comm = run(&TopK, t, Scheme::CommTm, &inserts);
    assert!(
        comm.total_cycles < base.total_cycles,
        "top-K: CommTM must win"
    );
}

#[test]
fn gather_requests_restore_refcount_scalability() {
    let t = 16;
    let ops = U64(1600);
    let no_gather = run(
        &Refcount,
        t,
        Scheme::CommTm,
        &[("total_ops", ops.clone()), ("gather", Bool(false))],
    );
    let gather = run(
        &Refcount,
        t,
        Scheme::CommTm,
        &[("total_ops", ops), ("gather", Bool(true))],
    );
    assert!(
        gather.total_cycles < no_gather.total_cycles,
        "gathers must beat reduction-only bounded counters ({} vs {})",
        gather.total_cycles,
        no_gather.total_cycles
    );
    assert!(gather.core_totals().gather_ops > 0);
}

#[test]
fn labeled_operations_are_a_small_fraction_in_apps() {
    // Sec. VII: labeled instructions are rare (0.13% boruvka .. 1.2%
    // kmeans) yet their impact is large.
    let r = run(
        &Kmeans,
        8,
        Scheme::CommTm,
        &[("n", U64(96)), ("iters", U64(2))],
    );
    let frac = r.labeled_fraction();
    assert!(
        frac > 0.0 && frac < 0.5,
        "labeled fraction {frac} out of range"
    );
}

#[test]
fn deterministic_across_identical_runs() {
    let incs = [("total_incs", U64(400))];
    let a = run(&Counter, 8, Scheme::CommTm, &incs);
    let b = run(&Counter, 8, Scheme::CommTm, &incs);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.commits(), b.commits());
    assert_eq!(a.proto_totals().getu, b.proto_totals().getu);
}

#[test]
fn wasted_cycles_follow_fig18_taxonomy() {
    let base = run(&Counter, 8, Scheme::Baseline, &[("total_incs", U64(800))]);
    let wasted = base.wasted_breakdown();
    let total: u64 = wasted.iter().map(|(_, v)| v).sum();
    assert!(total > 0, "contended baseline counter must waste cycles");
    // The counter's conflicts are read-after-write and write-after-read
    // dependency violations, as in the paper's Fig. 18.
    let raw_war = wasted[0].1 + wasted[1].1;
    assert!(
        raw_war * 10 >= total * 9,
        "counter waste should be dominated by RaW/WaR ({raw_war}/{total})"
    );
}
