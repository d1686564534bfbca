//! `commtm-perfbench` — times the CommTM simulator and lab end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload counter-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run makes one warm-up pass over its grid through the executor, then
//! repeats the pass step by step (one step per cell, one per scenario's
//! rendering) for `--seconds` and sums each step's fast quantile across
//! passes (see [`PASS_QUANTILE`]). Spread over the same time it sets the
//! grid up several times (registry, scenario validation, one machine per
//! cell) and takes the median as `setup_s`. After every pass it times a
//! fixed calibration kernel and scales every time it reports to the
//! reference host's speed (see [`calibrate`]), so the host's drift cancels.
//!
//! - `--trace 0` drives the path a `commtm-lab run` user takes: each cell
//!   through the executor's per-cell entry point on one thread (so a pass
//!   does not depend on the host's core count), then the text report, the
//!   figure and the results JSON. It prints the end-to-end metrics.
//! - `--trace 1` runs the same cells with a span around each call into a
//!   layer — machine construction, simulation (scheduler, cores, memory
//!   system), oracle, statistics, report rendering — and prints per-layer
//!   times and the simulator's deterministic work counters.
//!
//! Correctness: every cell's workload oracle must pass, every pass must
//! reproduce the warm-up pass's canonical results and figures exactly
//! (the simulator is deterministic), and in traced runs each cell's
//! statistics must equal the executor's for the same cell.
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted` (cells simulated, warm-up pass included), `failed` and
//! `metrics`.

mod calibrate;
mod grids;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use commtm::{EnginePhases, RunReport};
use commtm_lab::{
    exec, figures, registry, report, run_scenario, CellStats, ExecOptions, ResultSet,
};
use commtm_lab::{Registry, Scenario};
use commtm_workloads::BaseCfg;

use calibrate::Calibrator;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// The quantile taken of each step's times and of the calibration
/// kernel's. Other tenants of a shared host only ever add time, and their
/// load comes in bursts of seconds, so a fast quantile tracks the
/// program's own cost where the median tracks the host's load. In one
/// 30 s window of a `list-mix` probe on a shared 2-vCPU VM, such a burst
/// slowed the fastest quartile of whole passes by 58%, and by 20% after
/// calibration; the calibrated sum of per-step 10th percentiles moved 2%.
const PASS_QUANTILE: f64 = 0.1;
/// Fewest measured passes, however long a pass takes.
const MIN_PASSES: usize = 3;

const USAGE: &str =
    "usage: commtm-perfbench --workload <counter-sweep|list-mix|list-epoch|repro-all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("commtm-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("commtm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let scenarios = grids::scenarios(&args.workload, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let out = if args.trace {
        traced(&scenarios, budget)?
    } else {
        end_to_end(args, &scenarios, budget)?
    };
    Ok(out.to_json())
}

/// One set-up: a fresh workload registry, the seeded scenarios validated
/// against it, every cell's parameters resolved and its machine built.
fn setup(workload: &str, seed: u64) -> Result<Duration, String> {
    let start = Instant::now();
    let reg = Registry::with_builtins();
    for s in grids::scenarios(workload, seed)? {
        s.validate_in(&reg)?;
        for cell in s.cells() {
            black_box(reg.resolved_params(&cell, s.scale)?);
            black_box(base_cfg(&s, &cell).builder().build());
        }
    }
    Ok(start.elapsed())
}

fn base_cfg(s: &Scenario, cell: &commtm_lab::Cell) -> BaseCfg {
    BaseCfg::new(cell.threads, cell.scheme)
        .with_seed(cell.seed)
        .with_tuning(s.tuning)
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; report 0 rather than emit an
                // unparseable line (a zero metric is itself a visible fault).
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The executor's results for every scenario of one pass, reduced to
/// what the correctness checks compare.
#[derive(Default)]
struct PassResult {
    sets: Vec<ResultSet>,
    /// Hash of every canonical results JSON and rendered figure.
    digest: u64,
    cells: u64,
    failed_cells: u64,
    ops: u64,
    /// Host time of each step, in a fixed order: every cell, then the
    /// scenario's rendering, scenario by scenario.
    steps: Vec<Duration>,
}

impl PassResult {
    /// Renders one scenario's report, figure and results JSON, hashes what
    /// canonical output holds and counts the scenario's cells.
    fn add_set(&mut self, s: &Scenario, set: ResultSet, hasher: &mut DefaultHasher) {
        black_box(report::render(s, &set));
        black_box(set.to_json().pretty());
        set.canonical_json().pretty().hash(hasher);
        figures::render_figure(s, &set).hash(hasher);
        for c in &set.cells {
            self.cells += 1;
            match &c.stats {
                Some(st) if st.total_ops > 0 => self.ops += st.total_ops,
                _ => self.failed_cells += 1,
            }
        }
        self.sets.push(set);
    }
}

/// The cells simulated and failed by the warm-up pass `reference`, and,
/// when a scenario runs under the epoch-parallel engine, by a second pass
/// under the serial engine: the engines are byte-identical by
/// construction, so a difference fails every cell of the pass.
fn check_engines(scenarios: &[Scenario], reference: &PassResult) -> Result<(u64, u64), String> {
    let (mut attempted, mut failed) = (reference.cells, reference.failed_cells);
    if scenarios
        .iter()
        .any(|s| s.tuning.machine_threads.unwrap_or(1) > 1)
    {
        let serial: Vec<Scenario> = scenarios
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.tuning.machine_threads = None;
                s
            })
            .collect();
        let serial = executor_pass(&serial)?;
        attempted += serial.cells;
        failed += if serial.digest == reference.digest {
            serial.failed_cells
        } else {
            eprintln!(
                "commtm-perfbench: the epoch engine's results differ from the serial engine's"
            );
            reference.cells
        };
    }
    Ok((attempted, failed))
}

/// One pass as a `commtm-lab run` user sees it, through the executor:
/// simulate every cell of every scenario, then render the text report,
/// the figure and the results JSON.
fn executor_pass(scenarios: &[Scenario]) -> Result<PassResult, String> {
    let opts = ExecOptions {
        jobs: 1,
        ..ExecOptions::default()
    };
    let mut hasher = DefaultHasher::new();
    let mut out = PassResult::default();
    for s in scenarios {
        out.add_set(s, run_scenario(s, &opts)?, &mut hasher);
    }
    out.digest = hasher.finish();
    Ok(out)
}

/// The same pass step by step on this thread: each cell through
/// `exec::run_cell`, the executor's per-cell entry point, each timed on
/// its own, then each scenario's rendering timed. Its results must equal
/// [`executor_pass`]'s.
fn stepped_pass(scenarios: &[Scenario]) -> Result<PassResult, String> {
    let reg = registry::global();
    let mut hasher = DefaultHasher::new();
    let mut out = PassResult::default();
    for s in scenarios {
        s.validate_in(reg)?;
        let mut cells = Vec::new();
        for cell in s.cells() {
            let t = Instant::now();
            cells.push(exec::run_cell(reg, &cell, s));
            out.steps.push(t.elapsed());
        }
        let set = ResultSet {
            scenario: s.name.clone(),
            title: s.title.clone(),
            scale: s.scale,
            cells,
            wall_ms: 0,
            jobs: 1,
            engine: exec::engine_name(s.tuning.machine_threads.unwrap_or(1)),
        };
        let t = Instant::now();
        out.add_set(s, set, &mut hasher);
        out.steps.push(t.elapsed());
    }
    out.digest = hasher.finish();
    Ok(out)
}

/// `--trace 0`: end-to-end metrics over repeated passes, with the set-ups
/// spread evenly over the run. A pass's time is the sum over its steps of
/// each step's fast quantile across passes: a burst of host load slows
/// some steps of a pass, seldom the same step in most passes.
fn end_to_end(args: &Args, scenarios: &[Scenario], budget: Duration) -> Result<Outcome, String> {
    let reference = executor_pass(scenarios)?;
    let (mut attempted, mut failed) = check_engines(scenarios, &reference)?;
    // steps[i][k]: step i of pass k, in ms.
    let mut steps: Vec<Vec<f64>> = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut cal = Calibrator::new();
    let mut cal_ms = Vec::new();
    let start = Instant::now();
    while cal_ms.len() < MIN_PASSES || start.elapsed() < budget {
        let due = 1
            + (SETUP_REPS - 1) * start.elapsed().as_millis() as usize
                / budget.as_millis().max(1) as usize;
        while setup_s.len() < due.min(SETUP_REPS) {
            setup_s.push(setup(&args.workload, args.seed)?.as_secs_f64());
        }
        let pass = stepped_pass(scenarios)?;
        cal_ms.push(cal.sample().as_secs_f64() * 1e3);
        steps.resize_with(pass.steps.len(), Vec::new);
        for (column, t) in steps.iter_mut().zip(&pass.steps) {
            column.push(t.as_secs_f64() * 1e3);
        }
        attempted += pass.cells;
        failed += if pass.digest == reference.digest {
            pass.failed_cells
        } else {
            eprintln!("commtm-perfbench: a pass diverged from the executor's warm-up pass");
            pass.cells
        };
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(setup(&args.workload, args.seed)?.as_secs_f64());
    }
    let scale = host_scale(&mut cal_ms);
    let pass: f64 = steps
        .iter_mut()
        .map(|column| quantile(column, PASS_QUANTILE))
        .sum::<f64>()
        * scale;
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("pass_ms", pass, "ms"),
            Metric::new("sim_ops_per_s", reference.ops as f64 * 1e3 / pass, "1/s"),
            Metric::new("setup_s", quantile(&mut setup_s, 0.5) * scale, "s"),
        ],
    })
}

/// Host time per layer over one traced pass.
#[derive(Default)]
struct Spans {
    /// Building one machine per cell, as each workload does before it
    /// simulates (that build is inside `simulate` as well).
    build: Duration,
    /// `Workload::run`: program set-up, then the scheduler stepping the
    /// cores against the memory system until every thread finishes.
    simulate: Duration,
    /// `Workload::oracle`: the sequential check and coherence invariants.
    oracle: Duration,
    /// Reducing each run report to the exported cell statistics.
    stats: Duration,
    /// Rendering each scenario's text report, figure and results JSON.
    report: Duration,
    /// The whole pass.
    total: Duration,
    /// Where the epoch-parallel engine's time went inside `simulate`, over
    /// the pass's cells (all zero under the serial engine).
    epoch: EnginePhases,
}

impl Spans {
    /// Pass time outside every span: workload lookup, parameter
    /// resolution and machine teardown.
    fn other(&self) -> Duration {
        let spanned = self.build + self.simulate + self.oracle + self.stats + self.report;
        self.total.saturating_sub(spanned)
    }
}

/// Deterministic work counters reported by `--trace 1`, layer by layer:
/// the simulated machine, the HTM cores, the coherence protocol and the
/// private caches. Index-aligned with [`counters`].
const COUNTERS: [&str; 18] = [
    "sim_ops",
    "sim_cycles",
    "aborts",
    "aborted_cycles",
    "backoff_cycles",
    "gets",
    "getx",
    "getu",
    "gathers",
    "reductions",
    "splits",
    "nacks",
    "invalidations",
    "writebacks",
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
];

/// One cell's [`COUNTERS`].
fn counters(stats: &CellStats, report: &RunReport) -> [u64; COUNTERS.len()] {
    let core = report.core_totals();
    let proto = report.proto_totals();
    [
        stats.total_ops,
        stats.total_cycles,
        stats.aborts,
        stats.aborted_cycles,
        core.backoff_cycles,
        proto.gets,
        proto.getx,
        proto.getu,
        proto.gathers,
        proto.reductions,
        proto.splits,
        proto.nacks_sent,
        proto.invalidations,
        proto.writebacks,
        proto.l1_hits,
        proto.l1_misses,
        proto.l2_hits,
        proto.l2_misses,
    ]
}

/// `--trace 1`: the executor pass's cells re-run call by call, with a
/// span around each layer.
fn traced(scenarios: &[Scenario], budget: Duration) -> Result<Outcome, String> {
    let reference = executor_pass(scenarios)?;
    let (mut attempted, mut failed) = check_engines(scenarios, &reference)?;
    let mut passes: Vec<Spans> = Vec::new();
    let mut counts = [0; COUNTERS.len()];
    let mut cal = Calibrator::new();
    let mut cal_ms = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = traced_pass(scenarios, &reference.sets)?;
        attempted += pass.cells;
        failed += pass.failed;
        counts = pass.counts;
        passes.push(pass.spans);
        cal_ms.push(cal.sample().as_secs_f64() * 1e3);
    }
    let scale = host_scale(&mut cal_ms);
    let ms = |f: fn(&Spans) -> Duration| -> f64 {
        let mut v: Vec<f64> = passes.iter().map(|p| f(p).as_secs_f64() * 1e3).collect();
        quantile(&mut v, PASS_QUANTILE) * scale
    };
    let simulate_ms = ms(|p| p.simulate);
    // Positions of `sim_ops` and `aborts` in COUNTERS.
    let (ops, aborts) = (counts[0], counts[2]);
    let commits: u64 = reference
        .sets
        .iter()
        .flat_map(|set| &set.cells)
        .filter_map(|c| c.stats.as_ref())
        .map(|st| st.commits)
        .sum();
    let mut metrics = vec![
        Metric::new("build_ms", ms(|p| p.build), "ms"),
        Metric::new("simulate_ms", simulate_ms, "ms"),
        Metric::new("oracle_ms", ms(|p| p.oracle), "ms"),
        Metric::new("stats_ms", ms(|p| p.stats), "ms"),
        Metric::new("report_ms", ms(|p| p.report), "ms"),
        Metric::new("other_ms", ms(Spans::other), "ms"),
        Metric::new("sim_ns_per_op", simulate_ms * 1e6 / ops.max(1) as f64, "ns"),
        Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
        Metric::new(
            "commit_ratio",
            commits as f64 / (commits + aborts).max(1) as f64,
            "ratio",
        ),
    ];
    let epoch_ms = |f: fn(&EnginePhases) -> f64| -> f64 {
        let mut v: Vec<f64> = passes.iter().map(|p| f(&p.epoch)).collect();
        quantile(&mut v, PASS_QUANTILE) * scale
    };
    // Speculation is parked and resumed on measured host cost, so these
    // counts vary from pass to pass; the median pass's are reported.
    let epoch_count = |f: fn(&EnginePhases) -> u64| -> f64 {
        let mut v: Vec<f64> = passes.iter().map(|p| f(&p.epoch) as f64).collect();
        quantile(&mut v, 0.5)
    };
    metrics.extend([
        Metric::new("epoch_spec_ms", epoch_ms(|e| e.spec_ms), "ms"),
        Metric::new("epoch_clone_ms", epoch_ms(|e| e.clone_ms), "ms"),
        Metric::new("epoch_validate_ms", epoch_ms(|e| e.validate_ms), "ms"),
        Metric::new("epoch_replay_ms", epoch_ms(|e| e.replay_ms), "ms"),
        Metric::new("epoch_serial_ms", epoch_ms(|e| e.serial_ms), "ms"),
        Metric::new("epoch_sync_ms", epoch_ms(|e| e.sync_ms), "ms"),
        Metric::new("epoch_attempts", epoch_count(|e| e.attempts), "count"),
        Metric::new("epoch_commits", epoch_count(|e| e.commits), "count"),
        Metric::new("epoch_fallbacks", epoch_count(|e| e.fallbacks), "count"),
        Metric::new("epoch_parks", epoch_count(|e| e.parks), "count"),
    ]);
    for (name, value) in COUNTERS.iter().zip(counts) {
        metrics.push(Metric::new(name, value as f64, "count"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// What one traced pass measured.
#[derive(Default)]
struct TracedPass {
    spans: Spans,
    counts: [u64; COUNTERS.len()],
    cells: u64,
    failed: u64,
}

/// One traced pass: every cell resolved, built, simulated, oracle-checked
/// and summarized through the workload API, then every scenario's report,
/// figure and results JSON rendered from the reference results. Returns
/// the spans and counters, and counts a cell as failed when it panics,
/// fails its oracle, or disagrees with the executor's statistics.
fn traced_pass(scenarios: &[Scenario], reference: &[ResultSet]) -> Result<TracedPass, String> {
    let reg = registry::global();
    let mut pass = TracedPass::default();
    let spans = &mut pass.spans;
    let pass_start = Instant::now();
    for (s, set) in scenarios.iter().zip(reference) {
        for (cell, expected) in s.cells().iter().zip(&set.cells) {
            let workload = reg
                .resolve(&cell.workload)
                .ok_or_else(|| format!("unknown workload {:?}", cell.workload))?;
            let params = reg.resolved_params(cell, s.scale)?;
            let base = base_cfg(s, cell);

            let t = Instant::now();
            black_box(base.builder().build());
            spans.build += t.elapsed();

            let t = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| workload.run(base, &params)));
            spans.simulate += t.elapsed();
            if let Some(phases) = commtm::take_engine_phases() {
                spans.epoch.accumulate(&phases);
            }
            pass.cells += 1;
            let Ok(mut run) = run else {
                pass.failed += 1;
                continue;
            };

            let t = Instant::now();
            let checked = catch_unwind(AssertUnwindSafe(|| {
                workload.oracle(&base, &params, &mut run)
            }));
            spans.oracle += t.elapsed();

            let t = Instant::now();
            let stats = CellStats::from_report(&run.report);
            spans.stats += t.elapsed();

            if checked.is_err() || expected.stats.as_ref() != Some(&stats) {
                pass.failed += 1;
            }
            for (sum, n) in pass.counts.iter_mut().zip(counters(&stats, &run.report)) {
                *sum += n;
            }
        }
        let t = Instant::now();
        black_box(report::render(s, set));
        black_box(figures::render_figure(s, set));
        black_box(set.to_json().pretty());
        spans.report += t.elapsed();
    }
    spans.total = pass_start.elapsed();
    Ok(pass)
}

/// The factor that turns this run's host times into reference-host times:
/// the calibration kernel's reference time over its [`PASS_QUANTILE`]
/// here, the statistic the step times use.
fn host_scale(cal_ms: &mut [f64]) -> f64 {
    calibrate::REFERENCE_MS / quantile(cal_ms, PASS_QUANTILE)
}

/// The `q` quantile of `v`, interpolating linearly between the closest
/// ranks (the default method of R and NumPy).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set size (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
