//! The benchmark workloads: each is a list of lab scenarios derived from
//! the run's `--seed`. The same seed always yields the same scenarios.

use commtm_lab::{scenarios, Scenario, WorkloadSpec};

/// Workload names accepted by `--workload`.
pub const NAMES: &[&str] = &["counter-sweep", "list-mix", "list-epoch", "repro-all"];

/// Host threads the `list-epoch` machines run on: the epoch-parallel
/// engine at its smallest, so the run stays within a 2-vCPU host.
pub const EPOCH_THREADS: usize = 2;

/// Thread cap for `repro-all`. The paper's sweeps reach 128 threads, which
/// makes one pass of every figure take seconds; capping at 16 keeps enough
/// passes in a run for a steady fast quantile while still covering every
/// scenario, workload, report kind and figure renderer.
const REPRO_THREADS_MAX: usize = 16;

/// The scenarios of `workload`, every cell seeded from `seed`.
///
/// All scenarios of a workload share one cell seed, so cells that the
/// built-in figures deliberately share (fig17 and fig18 re-run fig16's
/// points, table2 overlaps the micro figures) stay exact duplicates, as
/// they are in `commtm-lab run --all`.
///
/// # Errors
///
/// Fails on an unknown workload name.
pub fn scenarios(workload: &str, seed: u64) -> Result<Vec<Scenario>, String> {
    let builtin = |name: &str| {
        scenarios::builtin(name).ok_or_else(|| format!("built-in scenario {name:?} is missing"))
    };
    let mut out = match workload {
        // Fig. 9 as shipped: labeled reductions on one hot line under
        // CommTM, serialized read-modify-writes under the baseline, swept
        // over 1..128 threads.
        "counter-sweep" => vec![builtin("fig09")?],
        // The 50/50 enqueue/dequeue series of Fig. 12: heap-linked LIST
        // reductions, splits on dequeue, and gathers with NACK fallback.
        "list-mix" => vec![list_mix()],
        // The same grid under the epoch-parallel engine: speculative epochs
        // on cloned machines, footprint conflict checks, replay and absorb.
        // Its results must equal the serial engine's byte for byte, so it
        // keeps list-mix's scenario name and canonical output.
        "list-epoch" => {
            let mut s = list_mix();
            s.tuning.machine_threads = Some(EPOCH_THREADS);
            vec![s]
        }
        // Every figure scenario `commtm-lab run --all` regenerates.
        "repro-all" => {
            let mut all = Vec::new();
            for name in scenarios::builtin_names() {
                if name != "smoke" {
                    let mut s = builtin(name)?;
                    s.cap_threads(REPRO_THREADS_MAX);
                    all.push(s);
                }
            }
            all
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of: {})",
                NAMES.join(", ")
            ))
        }
    };
    let cell_seed = splitmix64(seed);
    for s in &mut out {
        s.seeds = vec![cell_seed];
    }
    Ok(out)
}

fn list_mix() -> Scenario {
    Scenario::new("list-mix", "linked-list 50/50 enqueue/dequeue mix")
        .workload(WorkloadSpec::named("list").label("list 50/50 mix"))
        .threads(&[1, 8, 32, 64])
}

/// SplitMix64: spreads consecutive `--seed` values over the whole seed
/// space the simulator's generators draw from.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
