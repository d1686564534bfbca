//! Randomized conservation check for the list microbenchmark: every
//! combination of operation count, thread count, seed, mix and scheme
//! below (1,000 configurations) must keep the list's contents, in count
//! and value sum, equal to what its enqueues and dequeues committed.

use commtm::Scheme;
use commtm_workloads::micro::list::List;
use commtm_workloads::{BaseCfg, ParamValue, Params, Workload};

#[test]
fn every_configuration_conserves_list_contents() {
    let mut checked = 0;
    for ops in [10, 20, 40, 80, 150] {
        for threads in [1, 2, 3, 4, 8] {
            for seed in 0..10 {
                for mixed in [false, true] {
                    let over = Params::from_iter([
                        ("total_ops", ParamValue::U64(ops)),
                        ("mixed", ParamValue::Bool(mixed)),
                        ("warm_start", ParamValue::U64(0)),
                    ]);
                    let params = List
                        .schema()
                        .resolve(1, threads, &over)
                        .expect("overrides fit the schema");
                    for scheme in [Scheme::Baseline, Scheme::CommTm] {
                        let base = BaseCfg::new(threads, scheme).with_seed(seed);
                        List.run_checked(base, &params);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 1_000);
}
