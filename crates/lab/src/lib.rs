//! **commtm-lab** — a declarative, parallel experiment harness for the
//! CommTM simulator.
//!
//! The paper's evaluation is a grid of sweeps: threads × scheme ×
//! workload × seeds. This crate turns that grid into data:
//!
//! - [`spec`]: declarative [`Scenario`]s — a builder API and a TOML
//!   loader ([`toml`]) describing sweeps over `MachineConfig`
//!   dimensions (threads, [`commtm::Scheme`], typed workload parameters,
//!   seeds, and [`commtm::Tuning`] overrides). Parameters are typed
//!   ([`commtm_workloads::ParamValue`]: u64 / f64 / bool / string) and
//!   validated against each workload's declared schema before anything
//!   runs,
//! - [`registry`]: an extensible name → [`commtm_workloads::Workload`]
//!   registry covering the paper's five microbenchmarks and five
//!   applications plus the `bank` transfer/audit micro; custom drivers
//!   register their own implementations
//!   ([`registry::Registry::register`]) and run them via
//!   [`exec::run_scenarios_in`],
//! - [`exec`]: a parallel executor that fans independent
//!   `sim::Machine` runs across host threads with deterministic
//!   per-cell seeding — results are byte-identical to a serial run,
//! - [`batch`]: the report directory `commtm-lab run` writes — every
//!   scenario's cells on one pool ([`exec::run_scenarios_in`]), the
//!   report written once ([`batch::emit_report`]),
//! - [`results`]: structured per-cell statistics with multi-seed
//!   mean ± stddev aggregation ([`results::Summary`]), JSON export and
//!   baseline diffing for regression gating,
//! - [`scenarios`]: built-in definitions reproducing Figs. 9–19 and
//!   Table II, [`report`]: figure-style text rendering with the
//!   original harness's shape checks, and [`figures`]: the actual
//!   charts — SVG speedup curves and stacked breakdowns (via
//!   [`commtm_plot`]) plus Table II as HTML, with error bars whenever
//!   a scenario sweeps ≥ 2 seeds.
//!
//! # Example
//!
//! ```
//! use commtm_lab::prelude::*;
//!
//! let scenario = Scenario::new("quick", "counter at tiny scale")
//!     .workload(WorkloadSpec::named("counter").param("total_incs", 200))
//!     .threads(&[1, 2]);
//! let results = run_scenario(&scenario, &ExecOptions::default())?;
//! assert!(results.all_ok());
//! let json = results.to_json().pretty();
//! assert!(json.contains("total_cycles"));
//! # Ok::<(), String>(())
//! ```
//!
//! The `commtm-lab` binary exposes the same machinery on the command
//! line, and every file it writes goes through one report directory:
//! `commtm-lab run fig09 --threads-max 16 --out-dir report` writes fig09's
//! figure and `fig09.json`, `commtm-lab run --all --out-dir report`
//! regenerates every figure plus a `manifest.json` of the produced
//! artifacts, and `commtm-lab diff` compares two `<name>.json` files.

pub mod batch;
pub mod exec;
pub mod figures;
pub mod json;
pub mod registry;
pub mod report;
pub mod results;
pub mod scenarios;
pub mod spec;
pub mod toml;
pub mod trace;
pub mod verify;

pub use exec::{run_scenario, run_scenario_serial, run_scenarios_in, ExecOptions};
pub use figures::{figure_file_name, render_figure, render_index};
pub use registry::Registry;
pub use results::{diff, summarize, CellResult, CellStats, DiffReport, ResultSet, Summary};
pub use spec::{Cell, ParamValue, Params, ReportKind, Scenario, WorkloadSpec};

/// The common imports for driving experiments.
pub mod prelude {
    pub use crate::exec::{run_scenario, run_scenario_serial, ExecOptions};
    pub use crate::figures::{figure_file_name, render_figure};
    pub use crate::results::{diff, ResultSet, Summary};
    pub use crate::scenarios::builtin;
    pub use crate::spec::{ReportKind, Scenario, WorkloadSpec};
}
