//! The parallel sweep executor: the crate's one worker pool.
//!
//! Cells of a scenario are independent simulations, so the executor fans
//! them out across host threads: a shared atomic cursor hands each worker
//! the next unclaimed cell, and results land in their cell's slot, so the
//! output order — and, because each `sim::Machine` is deterministic given
//! its seed, every number in it — is identical no matter how many workers
//! run or how the OS schedules them. The determinism tests assert this by
//! comparing parallel and serial runs byte-for-byte.
//!
//! [`run_scenario_in`] and [`crate::batch::run_batch`] both run on this
//! pool; a batch run journals each finished cell through its `after` hook.
//! Cells that agree on everything [`run_cell`] reads share one simulation
//! per pool run, each getting a copy relabelled with its own cell, so
//! figures that share cells (fig16–19, Table II) simulate them once.
//!
//! Cells are *claimed* longest-first (see [`schedule_order_in`]): a sweep
//! mixing 128-thread full-scale cells with tiny 1-thread cells would
//! otherwise risk starting its largest cell last and stretching the
//! makespan by nearly that cell's whole runtime. Claim order only affects
//! wall-clock time, never results — slots keep the job order.
//!
//! A cell that panics (a workload oracle failure or a `SimError` unwrap)
//! is caught and recorded as that cell's error; the rest of the sweep
//! continues.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

use crate::registry;
use crate::results::{CellResult, CellStats, ResultSet};
use crate::spec::{self, scheme_name, Scenario};

/// Executor options.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Worker threads; 0 means one per available core.
    pub jobs: usize,
    /// Suppress per-cell progress lines on stderr.
    pub quiet: bool,
    /// Stop claiming new cells after the first failure (in-flight cells
    /// finish). Off by default: a poisoned cell is recorded and the rest
    /// of the sweep continues — in batch mode its ledger row stays
    /// `failed` and the figure renders a gap. Unclaimed cells are
    /// recorded as skipped, never as failed.
    pub fail_fast: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: 0,
            quiet: true,
            fail_fast: false,
        }
    }
}

impl ExecOptions {
    /// The effective worker count for `cells` cells.
    pub fn effective_jobs(&self, cells: usize) -> usize {
        let jobs = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        };
        jobs.clamp(1, cells.max(1))
    }
}

/// The estimated relative cost of one cell: simulated threads × the mean
/// of its resolved numeric workload parameters (a deterministic proxy for
/// workload size — operation counts dominate the parameter set, and more
/// cores mean more scheduler steps per operation), with the workload's
/// schema resolved in `reg`. Booleans count as 0/1 (they were integer
/// switches before parameters were typed, keeping the schedule order
/// stable); strings name variants, not sizes, and are excluded.
pub fn estimated_cost_in(reg: &registry::Registry, cell: &spec::Cell, scale: u64) -> u64 {
    let size = reg
        .resolved_params(cell, scale)
        .map(|params| {
            let (sum, count) = params.iter().fold((0u64, 0u64), |(s, n), (_, v)| match v {
                spec::ParamValue::U64(x) => (s.saturating_add(*x), n + 1),
                spec::ParamValue::F64(x) => (s.saturating_add(*x as u64), n + 1),
                spec::ParamValue::Bool(b) => (s.saturating_add(u64::from(*b)), n + 1),
                spec::ParamValue::Str(_) => (s, n),
            });
            sum.checked_div(count).unwrap_or(1)
        })
        .unwrap_or(1);
    (cell.threads as u64).saturating_mul(size.max(1))
}

/// The order in which workers claim cells: descending
/// [`estimated_cost_in`], ties broken by cell index (so the order — like
/// everything else in the executor — is deterministic). Longest-first
/// claiming is the classic LPT heuristic: it keeps one huge cell from
/// being picked up last and dominating the sweep makespan.
pub fn schedule_order_in(reg: &registry::Registry, cells: &[spec::Cell], scale: u64) -> Vec<usize> {
    let costs: Vec<u64> = cells
        .iter()
        .map(|c| estimated_cost_in(reg, c, scale))
        .collect();
    longest_first(&costs)
}

/// Indices of `costs`, largest first, ties by index.
fn longest_first(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    order
}

/// Runs every cell of `scenario` and collects the results, resolving
/// workloads in the global registry.
///
/// # Errors
///
/// Fails fast if the scenario does not validate; individual cell failures
/// are recorded in the result set instead.
pub fn run_scenario(scenario: &Scenario, opts: &ExecOptions) -> Result<ResultSet, String> {
    run_scenario_in(registry::global(), scenario, opts)
}

/// Like [`run_scenario`], against an explicit [`registry::Registry`] —
/// the entry point for drivers that registered their own workloads.
///
/// # Errors
///
/// See [`run_scenario`].
pub fn run_scenario_in(
    reg: &registry::Registry,
    scenario: &Scenario,
    opts: &ExecOptions,
) -> Result<ResultSet, String> {
    scenario.validate_in(reg)?;
    let cells = scenario.cells();
    let started = Instant::now();
    let jobs: Vec<Job> = cells.iter().map(|cell| (scenario, cell)).collect();
    let ran = run_jobs(reg, &jobs, opts, |_, _| Ok(()))?;
    Ok(ResultSet {
        scenario: scenario.name.clone(),
        title: scenario.title.clone(),
        scale: scenario.scale,
        cells: ran.results,
        wall_ms: started.elapsed().as_millis() as u64,
        jobs: opts.effective_jobs(cells.len()),
        engine: engine_name(1),
    })
}

/// One unit of pool work: a cell and the scenario it belongs to (which
/// supplies the scale and tuning it runs under).
pub(crate) type Job<'a> = (&'a Scenario, &'a spec::Cell);

/// What [`run_jobs`] produced.
pub(crate) struct PoolRun {
    /// One result per job, in job order. Jobs a `--fail-fast` stop left
    /// unclaimed carry the [`SKIPPED_FAIL_FAST`] error.
    pub results: Vec<CellResult>,
    /// Distinct cells actually simulated (at most `results.len()`).
    pub simulated: usize,
}

/// The identity of a simulation: everything [`run_cell`] reads. Jobs
/// with equal keys produce byte-identical statistics, whatever their
/// label, scenario or position. The scale is folded into the resolved
/// parameters, so two scales that resolve alike share a key too.
fn cell_key(reg: &registry::Registry, scenario: &Scenario, cell: &spec::Cell) -> String {
    format!(
        "{} {:?} t={} {:?} seed={:#x} {:?}",
        cell.workload,
        reg.resolved_params(cell, scenario.scale),
        cell.threads,
        cell.scheme,
        cell.seed,
        scenario.tuning
    )
}

/// The crate's one worker pool. Groups `jobs` by [`cell_key`], simulates
/// one representative per group — groups claimed longest-first
/// ([`estimated_cost_in`]) by `opts.jobs` workers — and hands every
/// member of the group a copy of the result carrying its own cell.
///
/// `after` runs for each member of a group with its result; it stops the
/// pool by returning an error, which this function then returns
/// (in-flight groups finish first). With `opts.fail_fast`, the first
/// failed cell stops further claims, and every job never claimed is
/// recorded as skipped without a hook call.
pub(crate) fn run_jobs(
    reg: &registry::Registry,
    jobs: &[Job],
    opts: &ExecOptions,
    after: impl Fn(usize, &CellResult) -> Result<(), String> + Sync,
) -> Result<PoolRun, String> {
    install_quiet_cell_hook();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = HashMap::new();
    for (j, &(scenario, cell)) in jobs.iter().enumerate() {
        let g = *group_of
            .entry(cell_key(reg, scenario, cell))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[g].push(j);
    }
    let costs: Vec<u64> = groups
        .iter()
        .map(|g| {
            let (scenario, cell) = jobs[g[0]];
            estimated_cost_in(reg, cell, scenario.scale)
        })
        .collect();
    let order = longest_first(&costs);

    let slots: Vec<Mutex<Option<CellResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let simulated = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let error: Mutex<Option<String>> = Mutex::new(None);

    // Runs one group: one simulation, then every member's copy of the
    // result through `after` into its slot.
    let run_group = |group: &[usize]| -> Result<(), String> {
        let (scenario, cell) = jobs[group[0]];
        let shared = run_cell(reg, cell, scenario);
        simulated.fetch_add(1, Ordering::Relaxed);
        if shared.stats.is_none() {
            failed.store(true, Ordering::Relaxed);
        }
        for &j in group {
            let result = CellResult {
                cell: jobs[j].1.clone(),
                ..shared.clone()
            };
            after(j, &result)?;
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if !opts.quiet {
                progress_line(jobs[j].0, &result, finished, jobs.len());
            }
            *slots[j].lock().expect("slot lock") = Some(result);
        }
        Ok(())
    };

    std::thread::scope(|scope| {
        for _ in 0..opts.effective_jobs(groups.len()) {
            scope.spawn(|| loop {
                if opts.fail_fast && failed.load(Ordering::Relaxed) {
                    return;
                }
                let claim = cursor.fetch_add(1, Ordering::Relaxed);
                if claim >= groups.len() {
                    return;
                }
                if let Err(e) = run_group(&groups[order[claim]]) {
                    // A hook failure poisons the run itself, not one
                    // cell: stop every worker and surface it.
                    error.lock().expect("error lock").get_or_insert(e);
                    cursor.store(groups.len(), Ordering::Relaxed);
                    return;
                }
            });
        }
    });

    if let Some(e) = error.into_inner().expect("error lock") {
        return Err(e);
    }
    let results = slots
        .into_iter()
        .zip(jobs)
        .map(|(slot, &(_, cell))| {
            // Jobs left unclaimed by a --fail-fast stop are recorded as
            // skipped (the shape of the result set never changes), never
            // as failed: a batch ledger must not mark them failed either.
            slot.into_inner().expect("slot lock").unwrap_or(CellResult {
                cell: cell.clone(),
                stats: None,
                error: Some(SKIPPED_FAIL_FAST.to_string()),
                wall_ms: 0,
                trace: None,
            })
        })
        .collect();
    Ok(PoolRun {
        results,
        simulated: simulated.into_inner(),
    })
}

/// The machine engine label result sets carry: always `"serial"`, the
/// only engine. The ignored argument exists only for the `perfbench`
/// harness, which still passes its `machine_threads`.
pub fn engine_name(_machine_threads: usize) -> String {
    "serial".to_string()
}

/// The error string recorded for cells a `--fail-fast` stop never ran.
/// Distinguishable from real failures: the batch layer leaves these cells
/// fresh in the ledger so a later `--resume` runs them.
pub const SKIPPED_FAIL_FAST: &str =
    "skipped: --fail-fast stopped the sweep after an earlier failure";

/// Runs every cell serially on the calling thread (reference mode for
/// determinism checks; also useful under debuggers).
pub fn run_scenario_serial(scenario: &Scenario) -> Result<ResultSet, String> {
    run_scenario(
        scenario,
        &ExecOptions {
            jobs: 1,
            ..ExecOptions::default()
        },
    )
}

thread_local! {
    /// Whether this thread is inside a caught cell execution (its panics
    /// are captured into the cell's error and should not also hit stderr).
    static IN_CELL: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// panics already captured by [`run_cell`] and delegates everything else
/// to the previously-installed hook.
fn install_quiet_cell_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_CELL.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs one grid cell of `scenario` on the calling thread: resolve in
/// `reg`, simulate, check the oracle, catch panics into the cell's error.
/// This is the unit of work the pool above fans out, for sweeps and batch
/// runs alike.
pub fn run_cell(reg: &registry::Registry, cell: &spec::Cell, scenario: &Scenario) -> CellResult {
    let started = Instant::now();
    IN_CELL.with(|f| f.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        reg.run_cell(cell, scenario.scale, scenario.tuning)
    }));
    IN_CELL.with(|f| f.set(false));
    let (stats, error, trace) = match outcome {
        Ok(Ok((report, trace))) => (Some(CellStats::from_report(&report)), None, trace),
        Ok(Err(e)) => (None, Some(e), None),
        Err(panic) => (None, Some(panic_message(panic.as_ref())), None),
    };
    CellResult {
        cell: cell.clone(),
        stats,
        error,
        wall_ms: started.elapsed().as_millis() as u64,
        trace,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

fn progress_line(scenario: &Scenario, result: &CellResult, finished: usize, total: usize) {
    let cell = &result.cell;
    let outcome = match (&result.stats, &result.error) {
        (Some(s), _) => format!("{} cycles", s.total_cycles),
        (None, Some(e)) => format!("FAILED: {}", e.lines().next().unwrap_or("?")),
        (None, None) => "FAILED".to_string(),
    };
    eprintln!(
        "[{finished}/{total}] {}#{} {} t={} {} seed={:#x}: {} ({} ms)",
        scenario.name,
        cell.index,
        cell.label,
        cell.threads,
        scheme_name(cell.scheme),
        cell.seed,
        outcome,
        result.wall_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use commtm_workloads::micro::counter;
    use commtm_workloads::{BaseCfg, ParamSchema, Params, RunOutcome, Workload, WorkloadKind};
    use std::sync::Arc;

    fn small_scenario() -> Scenario {
        Scenario::new("exec-test", "executor test")
            .workload(WorkloadSpec::named("counter").param("total_incs", 120))
            .workload(WorkloadSpec::named("oput").param("total_puts", 80))
            .threads(&[1, 2, 4])
            .seeds(&[11, 12])
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let scn = small_scenario();
        let serial = run_scenario_serial(&scn).unwrap();
        let parallel = run_scenario(
            &scn,
            &ExecOptions {
                jobs: 8,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert!(serial.all_ok());
        assert_eq!(
            serial.canonical_json().pretty(),
            parallel.canonical_json().pretty(),
            "parallel execution must not change any deterministic statistic"
        );
    }

    #[test]
    fn failed_cells_are_recorded_not_fatal() {
        // threads > 128 is rejected by validation; an in-run failure needs
        // a panicking workload: counter with an impossible oracle can't be
        // forced, so use the cycle-limit tuning to make the run fail.
        let mut scn = Scenario::new("fail-test", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 5_000))
            .threads(&[2])
            .schemes(&[commtm::Scheme::Baseline])
            .seeds(&[1]);
        scn.tuning.max_cycles = Some(10);
        let set = run_scenario_serial(&scn).unwrap();
        assert_eq!(set.cells.len(), 1);
        assert!(!set.all_ok());
        let err = set.cells[0].error.as_ref().unwrap();
        assert!(
            err.contains("CycleLimit"),
            "error should mention the cycle limit: {err}"
        );
    }

    #[test]
    fn cells_are_claimed_longest_first() {
        // One huge 4-thread cell among tiny 1/2-thread cells: the huge
        // cell must be claimed first, and the order must be a permutation.
        let scn = Scenario::new("sched", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 50))
            .workload(
                WorkloadSpec::named("oput")
                    .label("huge")
                    .param("total_puts", 1_000_000),
            )
            .threads(&[1, 2, 4])
            .seeds(&[1]);
        let cells = scn.cells();
        let reg = registry::global();
        let order = schedule_order_in(reg, &cells, scn.scale);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cells.len()).collect::<Vec<_>>());
        let first = &cells[order[0]];
        assert_eq!((first.label.as_str(), first.threads), ("huge", 4));
        // Costs along the claim order never increase.
        let costs: Vec<u64> = order
            .iter()
            .map(|&i| estimated_cost_in(reg, &cells[i], scn.scale))
            .collect();
        assert!(costs.windows(2).all(|w| w[0] >= w[1]), "{costs:?}");
        // Equal-cost cells keep their scenario order (determinism).
        assert_eq!(schedule_order_in(reg, &cells, scn.scale), order);
        // Threads scale the estimate for the same workload size.
        assert_eq!((cells[4].label.as_str(), cells[4].threads), ("counter", 4));
        assert!(
            estimated_cost_in(reg, &cells[4], 1) > estimated_cost_in(reg, &cells[0], 1),
            "4-thread cell costs more than its 1-thread sibling"
        );
    }

    /// The counter micro, counting how often it is simulated.
    struct Counted(Arc<AtomicUsize>);

    impl Workload for Counted {
        fn name(&self) -> &'static str {
            "counted"
        }
        fn kind(&self) -> WorkloadKind {
            WorkloadKind::Micro
        }
        fn summary(&self) -> &'static str {
            "counter, counting its runs"
        }
        fn schema(&self) -> ParamSchema {
            ParamSchema::new().u64("total_incs", 10, "n")
        }
        fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
            self.0.fetch_add(1, Ordering::Relaxed);
            counter::execute(&counter::Cfg::new(base, params.u64("total_incs")))
        }
        fn oracle(&self, base: &BaseCfg, params: &Params, run: &mut RunOutcome) {
            counter::check(&counter::Cfg::new(*base, params.u64("total_incs")), run);
        }
    }

    #[test]
    fn each_distinct_cell_is_simulated_once() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut reg = registry::Registry::new();
        reg.register(Box::new(Counted(Arc::clone(&runs))));
        // Specs a and b differ only in their label; c differs in a param.
        let specs = [
            WorkloadSpec::named("counted")
                .label("a")
                .param("total_incs", 40),
            WorkloadSpec::named("counted")
                .label("b")
                .param("total_incs", 40),
            WorkloadSpec::named("counted")
                .label("c")
                .param("total_incs", 60),
        ];
        let grid = |specs: &[WorkloadSpec]| {
            specs.iter().cloned().fold(
                Scenario::new("dedupe", "t").threads(&[1, 2]).seeds(&[3]),
                Scenario::workload,
            )
        };
        let opts = ExecOptions {
            jobs: 2,
            ..ExecOptions::default()
        };
        let shared = run_scenario_in(&reg, &grid(&specs), &opts).unwrap();
        assert!(shared.all_ok());
        assert_eq!(shared.cells.len(), 12, "3 specs x 2 threads x 2 schemes");
        assert_eq!(
            runs.swap(0, Ordering::Relaxed),
            8,
            "one run per distinct key"
        );

        // Each spec as a scenario of its own: no cell is shared, and the
        // results are the same, cell for cell.
        let mut separate = shared.clone();
        separate.cells = specs
            .iter()
            .flat_map(|spec| {
                run_scenario_in(&reg, &grid(std::slice::from_ref(spec)), &opts)
                    .unwrap()
                    .cells
            })
            .collect();
        assert_eq!(runs.load(Ordering::Relaxed), 12);
        assert_eq!(
            shared.canonical_json().pretty(),
            separate.canonical_json().pretty()
        );
    }

    #[test]
    fn jobs_are_clamped_to_cells() {
        let opts = ExecOptions {
            jobs: 64,
            ..ExecOptions::default()
        };
        assert_eq!(opts.effective_jobs(3), 3);
        assert_eq!(
            ExecOptions {
                jobs: 2,
                ..ExecOptions::default()
            }
            .effective_jobs(100),
            2
        );
        assert!(
            ExecOptions {
                jobs: 0,
                ..ExecOptions::default()
            }
            .effective_jobs(100)
                >= 1
        );
    }
}
