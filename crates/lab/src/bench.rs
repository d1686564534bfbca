//! The `commtm-lab bench` pinned performance baseline.
//!
//! Runs a fixed set of sweep grids in-process, times each phase, and
//! reports wall time, simulated-operation throughput, and a determinism
//! fingerprint per grid. The JSON this emits (`BENCH.json` by convention)
//! is the repo's tracked perf baseline: timing fields are informational
//! (they move with the host), while the fingerprints are exact — two
//! builds that disagree on a fingerprint have changed simulated behavior,
//! not just speed.
//!
//! The grids are **pinned**: same scenarios, thread counts, seeds, and
//! scales on every run, so numbers are comparable across commits on the
//! same machine. `quick` runs the subset CI exercises; the full set adds
//! the heavier grids used for PR-to-PR speedup claims.

use crate::batch;
use crate::exec::{run_scenario, ExecOptions};
use crate::json::{parse, Json};
use crate::results::ResultSet;
use crate::scenarios;
use crate::spec::Scenario;

/// One pinned grid: a named, fixed-shape scenario.
pub struct BenchGrid {
    /// Stable grid name (fingerprints are compared per name).
    pub name: &'static str,
    /// What the grid stresses, for the report.
    pub what: &'static str,
    /// The pinned scenario.
    pub scenario: Scenario,
}

/// The pinned grids. `quick` = the CI perf-smoke subset; full adds the
/// heavier sweep used for cross-commit speedup comparisons.
///
/// # Panics
///
/// Panics if a built-in scenario referenced here disappears (a programming
/// error caught by the test suite).
pub fn grids(quick: bool) -> Vec<BenchGrid> {
    let mut out = Vec::new();

    // Counter microbenchmark, small grid: protocol fast path + reductions
    // under both schemes, single seed, fast enough for CI.
    let mut g = scenarios::builtin("fig09").expect("fig09 scenario exists");
    g.threads = vec![1, 8, 32];
    g.seeds = vec![0xC0FFEE];
    g.scale = 1;
    out.push(BenchGrid {
        name: "counter-quick",
        what: "counter micro, threads 1/8/32, scale 1",
        scenario: g,
    });

    if !quick {
        // The PR acceptance smoke: the full fig09 grid at scale 4.
        let g = {
            let mut g = scenarios::builtin("fig09").expect("fig09 scenario exists");
            g.scale = 4;
            g
        };
        out.push(BenchGrid {
            name: "counter-scale4",
            what: "counter micro, full thread grid, scale 4",
            scenario: g,
        });

        // A pointer-chasing workload: long transactions, more L1/L2
        // traffic per op, exercises footprint tracking and evictions.
        let g = {
            let mut g = scenarios::builtin("fig12").expect("fig12 scenario exists");
            g.threads = vec![1, 8, 32];
            g.seeds = vec![0xC0FFEE];
            g.scale = 2;
            g
        };
        out.push(BenchGrid {
            name: "list-quick",
            what: "list micro, threads 1/8/32, scale 2",
            scenario: g,
        });
    }
    out
}

/// One row of the batch-overhead measurement: a pinned serial grid
/// re-run through the ledger-backed batch path ([`batch::run_batch`]:
/// journal appends + per-cell snapshot writes) and then replayed
/// merge-style (ledger replay + snapshot loads + fingerprint
/// verification). `run_wall_ms` against the base grid's `wall_ms` is the
/// journaling overhead; `replay_wall_ms` is the whole merge-side cost.
/// Both should be ~0 relative to simulation time, and the fingerprint
/// must equal the base grid's — the batch path may not change simulated
/// behavior, and [`BenchReport::batch_mismatches`] gates that.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// The serial grid this row re-runs (matches a [`GridResult::name`]).
    pub grid: String,
    /// Host wall time for the grid through the batch path, milliseconds.
    pub run_wall_ms: u64,
    /// Host wall time to replay the ledger and reload + verify every
    /// snapshot, milliseconds.
    pub replay_wall_ms: u64,
    /// Canonical results fingerprint of the reloaded cells (must match
    /// the base grid's).
    pub fingerprint: String,
}

/// Measured results for one pinned grid.
#[derive(Clone, Debug)]
pub struct GridResult {
    /// Grid name (matches [`BenchGrid::name`]).
    pub name: String,
    /// What the grid stresses.
    pub what: String,
    /// Host wall time for the whole grid, milliseconds.
    pub wall_ms: u64,
    /// Grid cells executed.
    pub cells: u64,
    /// Simulated memory operations issued, over all cells.
    pub ops: u64,
    /// Simulated operations per host second (the headline number).
    pub ops_per_sec: u64,
    /// FNV-1a hash of the grid's canonical (timing-free) results JSON.
    /// Exact: any change means simulated behavior changed.
    pub fingerprint: String,
}

/// A full bench run: per-grid phases plus the total.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Whether this was the quick (CI) subset.
    pub quick: bool,
    /// Per-grid results, in execution order.
    pub grids: Vec<GridResult>,
    /// Ledger/merge overhead rows, one per serial grid.
    pub batch: Vec<BatchRow>,
    /// Total host wall time, milliseconds.
    pub total_wall_ms: u64,
}

/// FNV-1a over the canonical results JSON: stable, dependency-free, and
/// plenty for change *detection* (this gates determinism, not security).
fn fingerprint(set: &ResultSet) -> String {
    crate::json::fnv1a(&set.canonical_json().pretty())
}

/// Runs the pinned grids and collects the report.
///
/// # Errors
///
/// Propagates scenario execution failures (a cell that cannot run).
pub fn run(quick: bool, opts: &ExecOptions) -> Result<BenchReport, String> {
    let mut out = Vec::new();
    let total_start = std::time::Instant::now();
    for grid in grids(quick) {
        let start = std::time::Instant::now();
        let set = run_scenario(&grid.scenario, opts)?;
        let wall_ms = start.elapsed().as_millis() as u64;
        let ops: u64 = set
            .cells
            .iter()
            .filter_map(|c| c.stats.as_ref())
            .map(|s| s.total_ops)
            .sum();
        let secs = (wall_ms as f64 / 1000.0).max(1e-9);
        out.push(GridResult {
            name: grid.name.to_string(),
            what: grid.what.to_string(),
            wall_ms,
            cells: set.cells.len() as u64,
            ops,
            ops_per_sec: (ops as f64 / secs) as u64,
            fingerprint: fingerprint(&set),
        });
    }
    let mut batch_rows = Vec::new();
    for grid in grids(quick) {
        batch_rows.push(batch_overhead_row(&grid, opts)?);
    }
    Ok(BenchReport {
        quick,
        grids: out,
        batch: batch_rows,
        total_wall_ms: total_start.elapsed().as_millis() as u64,
    })
}

/// Runs one pinned grid through the full batch machinery in a scratch
/// directory — journaled run, then a merge-style replay that reloads and
/// fingerprint-verifies every snapshot — timing both halves.
fn batch_overhead_row(grid: &BenchGrid, opts: &ExecOptions) -> Result<BatchRow, String> {
    let reg = crate::registry::global();
    let dir = std::env::temp_dir().join(format!(
        "commtm-bench-batch-{}-{}",
        std::process::id(),
        grid.name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = batch::BatchPlan::from_scenarios(
        reg,
        grid.name,
        &batch::Overrides::default(),
        vec![grid.scenario.clone()],
        1,
    )?;
    let start = std::time::Instant::now();
    let outcome = batch::run_batch(reg, &plan, batch::Shard::WHOLE, &dir, None, "light", opts)?;
    let run_wall_ms = start.elapsed().as_millis() as u64;
    if !outcome.all_ok {
        let _ = std::fs::remove_dir_all(&dir);
        return Err(format!(
            "batch overhead grid {} had failing cells",
            grid.name
        ));
    }
    let start = std::time::Instant::now();
    let replay = batch::Replay::load(&dir)?;
    let inputs = batch::merge::MergeInputs {
        plan,
        shards: vec![(dir.clone(), replay)],
        theme: "light".to_string(),
    };
    let results = batch::merge::collect(&inputs)?;
    let sets = batch::assemble_sets(&inputs.plan, &results)?;
    let replay_wall_ms = start.elapsed().as_millis() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(BatchRow {
        grid: grid.name.to_string(),
        run_wall_ms,
        replay_wall_ms,
        fingerprint: fingerprint(&sets[0]),
    })
}

impl BenchReport {
    /// Serializes the report (the `BENCH.json` format).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("generator", Json::Str("commtm-lab bench".to_string())),
            (
                "mode",
                Json::Str(if self.quick { "quick" } else { "full" }.to_string()),
            ),
            ("total_wall_ms", Json::U64(self.total_wall_ms)),
            (
                "grids",
                Json::Arr(
                    self.grids
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("name", Json::Str(g.name.clone())),
                                ("what", Json::Str(g.what.clone())),
                                ("wall_ms", Json::U64(g.wall_ms)),
                                ("cells", Json::U64(g.cells)),
                                ("ops", Json::U64(g.ops)),
                                ("ops_per_sec", Json::U64(g.ops_per_sec)),
                                ("fingerprint", Json::Str(g.fingerprint.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "batch_overhead",
                Json::Arr(
                    self.batch
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("grid", Json::Str(r.grid.clone())),
                                ("run_wall_ms", Json::U64(r.run_wall_ms)),
                                ("replay_wall_ms", Json::U64(r.replay_wall_ms)),
                                ("fingerprint", Json::Str(r.fingerprint.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a previously-written `BENCH.json`.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a missing required field.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let grids = v
            .get("grids")
            .and_then(Json::as_arr)
            .ok_or("BENCH.json missing \"grids\"")?;
        let mut out = Vec::new();
        for g in grids {
            let s = |k: &str| -> Result<String, String> {
                g.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("grid missing {k:?}"))
            };
            let u = |k: &str| -> Result<u64, String> {
                g.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("grid missing {k:?}"))
            };
            out.push(GridResult {
                name: s("name")?,
                what: s("what")?,
                wall_ms: u("wall_ms")?,
                cells: u("cells")?,
                ops: u("ops")?,
                ops_per_sec: u("ops_per_sec")?,
                fingerprint: s("fingerprint")?,
            });
        }
        // Baselines predating the batch-overhead rows (pr8 and earlier)
        // have no such section; treat it as empty. Sections of other
        // retired measurements are ignored.
        let mut batch = Vec::new();
        if let Some(rows) = v.get("batch_overhead").and_then(Json::as_arr) {
            for r in rows {
                let s = |k: &str| -> Result<String, String> {
                    r.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("batch row missing {k:?}"))
                };
                let u = |k: &str| -> Result<u64, String> {
                    r.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("batch row missing {k:?}"))
                };
                batch.push(BatchRow {
                    grid: s("grid")?,
                    run_wall_ms: u("run_wall_ms")?,
                    replay_wall_ms: u("replay_wall_ms")?,
                    fingerprint: s("fingerprint")?,
                });
            }
        }
        Ok(BenchReport {
            quick: v.get("mode").and_then(Json::as_str) == Some("quick"),
            grids: out,
            batch,
            total_wall_ms: v.get("total_wall_ms").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "commtm-lab bench ({})\n",
            if self.quick { "quick" } else { "full" }
        ));
        s.push_str(&format!(
            "{:<16} {:>8} {:>6} {:>12} {:>12}  {}\n",
            "grid", "wall ms", "cells", "sim ops", "ops/sec", "fingerprint"
        ));
        for g in &self.grids {
            s.push_str(&format!(
                "{:<16} {:>8} {:>6} {:>12} {:>12}  {}\n",
                g.name, g.wall_ms, g.cells, g.ops, g.ops_per_sec, g.fingerprint
            ));
        }
        if !self.batch.is_empty() {
            s.push_str("batch-path overhead (ledger + snapshots; behavior must not move)\n");
            s.push_str(&format!(
                "{:<16} {:>11} {:>14}  {}\n",
                "grid", "run wall ms", "replay wall ms", "fingerprint"
            ));
            for r in &self.batch {
                s.push_str(&format!(
                    "{:<16} {:>11} {:>14}  {}\n",
                    r.grid, r.run_wall_ms, r.replay_wall_ms, r.fingerprint
                ));
            }
        }
        s.push_str(&format!("total wall time: {} ms\n", self.total_wall_ms));
        s
    }

    /// Batch-overhead rows must carry their base grid's fingerprint: the
    /// ledger path stores and reloads results, it must not change them.
    /// Returns the rows that diverged, as `<grid>@batch`.
    pub fn batch_mismatches(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for r in &self.batch {
            if let Some(b) = self.grids.iter().find(|b| b.name == r.grid) {
                if b.fingerprint != r.fingerprint {
                    bad.push(format!("{}@batch", r.grid));
                }
            }
        }
        bad
    }

    /// Renders a per-grid delta table against a baseline report (the
    /// `bench --compare old.json new.json` output): wall time, throughput,
    /// and whether fingerprints still match. Grids present on only one
    /// side are listed but not compared.
    pub fn compare_render(&self, baseline: &BenchReport) -> String {
        fn pct(old: f64, new: f64) -> String {
            if old <= 0.0 {
                return "n/a".to_string();
            }
            format!("{:+.1}%", (new - old) / old * 100.0)
        }
        let mut s = String::new();
        s.push_str("bench compare: baseline -> current\n");
        s.push_str(&format!(
            "{:<20} {:>9} {:>9} {:>8} {:>12} {:>12} {:>8}  {}\n",
            "grid", "old ms", "new ms", "wall", "old ops/s", "new ops/s", "ops/s", "fingerprint"
        ));
        for g in &self.grids {
            match baseline.grids.iter().find(|b| b.name == g.name) {
                Some(b) => {
                    let fp = if b.fingerprint == g.fingerprint {
                        "match"
                    } else {
                        "DIVERGED"
                    };
                    s.push_str(&format!(
                        "{:<20} {:>9} {:>9} {:>8} {:>12} {:>12} {:>8}  {}\n",
                        g.name,
                        b.wall_ms,
                        g.wall_ms,
                        pct(b.wall_ms as f64, g.wall_ms as f64),
                        b.ops_per_sec,
                        g.ops_per_sec,
                        pct(b.ops_per_sec as f64, g.ops_per_sec as f64),
                        fp
                    ));
                }
                None => s.push_str(&format!("{:<20} (not in baseline)\n", g.name)),
            }
        }
        for b in &baseline.grids {
            if !self.grids.iter().any(|g| g.name == b.name) {
                s.push_str(&format!("{:<20} (baseline only)\n", b.name));
            }
        }
        let diverged = self.fingerprint_mismatches(baseline);
        if diverged.is_empty() {
            s.push_str("fingerprints: all shared grids match\n");
        } else {
            s.push_str(&format!("fingerprints DIVERGED: {}\n", diverged.join(", ")));
        }
        s
    }

    /// Compares determinism fingerprints against a baseline report.
    /// Timing is deliberately ignored: only behavior gates. Baseline grids
    /// this run did not produce are skipped (a quick run against a full
    /// baseline).
    ///
    /// Returns the grids whose fingerprints differ from the baseline's.
    pub fn fingerprint_mismatches(&self, baseline: &BenchReport) -> Vec<String> {
        let mut bad = Vec::new();
        for g in &self.grids {
            if let Some(b) = baseline.grids.iter().find(|b| b.name == g.name) {
                if b.fingerprint != g.fingerprint {
                    bad.push(g.name.clone());
                }
            }
        }
        bad
    }

    /// The `bench --check` determinism gate: every grid this run produced
    /// must have an entry in `baseline` with an equal fingerprint. A grid
    /// missing from the baseline (renamed or new) fails rather than
    /// passing unchecked, and so does a run that compared no grid at all.
    /// Returns the names of the compared grids.
    ///
    /// # Errors
    ///
    /// Describes every missing or diverging grid.
    pub fn check(&self, baseline: &BenchReport) -> Result<Vec<String>, String> {
        let missing: Vec<&str> = self
            .grids
            .iter()
            .filter(|g| !baseline.grids.iter().any(|b| b.name == g.name))
            .map(|g| g.name.as_str())
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "no baseline fingerprint for {}: the gate cannot check these grids; \
                 regenerate the baseline with `commtm-lab bench --out`",
                missing.join(", ")
            ));
        }
        if self.grids.is_empty() {
            return Err("the determinism gate compared no grid".to_string());
        }
        let bad = self.fingerprint_mismatches(baseline);
        if !bad.is_empty() {
            return Err(format!(
                "determinism fingerprint mismatch: {} — simulated behavior \
                 changed; see docs/PERFORMANCE.md",
                bad.join(", ")
            ));
        }
        Ok(self.grids.iter().map(|g| g.name.clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(name: &str, fingerprint: &str) -> GridResult {
        GridResult {
            name: name.into(),
            what: "x".into(),
            wall_ms: 12,
            cells: 6,
            ops: 1000,
            ops_per_sec: 83000,
            fingerprint: fingerprint.into(),
        }
    }

    fn report(grids: Vec<GridResult>) -> BenchReport {
        BenchReport {
            quick: true,
            grids,
            batch: vec![],
            total_wall_ms: 12,
        }
    }

    #[test]
    fn quick_grids_are_pinned() {
        let g = grids(true);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].name, "counter-quick");
        assert_eq!(g[0].scenario.threads, vec![1, 8, 32]);
        assert_eq!(g[0].scenario.scale, 1);
        // Full mode strictly extends quick mode, so fingerprints of shared
        // grids stay comparable across the two.
        let full: Vec<&str> = grids(false).iter().map(|g| g.name).collect();
        assert_eq!(full, ["counter-quick", "counter-scale4", "list-quick"]);
    }

    #[test]
    fn bench_json_roundtrip_and_check() {
        let mut report = report(vec![grid("counter-quick", "00ff")]);
        report.batch = vec![BatchRow {
            grid: "counter-quick".into(),
            run_wall_ms: 13,
            replay_wall_ms: 1,
            fingerprint: "00ff".into(),
        }];
        let text = report.to_json().pretty();
        let back = BenchReport::from_json_str(&text).expect("roundtrip parses");
        assert_eq!(back.grids[0].fingerprint, "00ff");
        assert_eq!(back.grids[0].ops, 1000);
        assert!(back.quick);
        assert_eq!(back.batch.len(), 1);
        assert_eq!(back.batch[0].replay_wall_ms, 1);
        assert!(report.fingerprint_mismatches(&back).is_empty());
        assert_eq!(report.check(&back), Ok(vec!["counter-quick".to_string()]));
        assert!(back.batch_mismatches().is_empty());

        // A batch row that disagrees with its base grid means storing and
        // reloading results through the ledger changed them.
        let mut diverged = back.clone();
        diverged.batch[0].fingerprint = "beef".into();
        assert_eq!(
            diverged.batch_mismatches(),
            vec!["counter-quick@batch".to_string()]
        );

        // Baselines predating the batch rows lack that key and must still
        // parse; sections of retired measurements are ignored.
        let old = BenchReport::from_json_str(
            r#"{"mode":"quick","total_wall_ms":1,"machine_threads_sweep":[],
                "grids":[{"name":"g","what":"x","wall_ms":1,"cells":1,"ops":1,
                "ops_per_sec":1,"fingerprint":"aa"}]}"#,
        )
        .expect("pre-batch baseline parses");
        assert!(old.batch.is_empty());

        let mut other = back;
        other.grids[0].fingerprint = "beef".into();
        // Timing differences never gate; fingerprints do.
        other.grids[0].wall_ms = 9999;
        assert_eq!(
            report.fingerprint_mismatches(&other),
            vec!["counter-quick".to_string()]
        );
        let err = report.check(&other).unwrap_err();
        assert!(err.contains("mismatch: counter-quick"), "{err}");
    }

    #[test]
    fn check_fails_for_a_grid_missing_from_the_baseline() {
        let current = report(vec![grid("counter-quick", "00ff"), grid("renamed", "11")]);
        let baseline = report(vec![grid("counter-quick", "00ff"), grid("old-name", "11")]);
        // The shared grid matches, so only the missing one can fail it.
        assert!(current.fingerprint_mismatches(&baseline).is_empty());
        let err = current.check(&baseline).unwrap_err();
        assert!(err.contains("no baseline fingerprint for renamed"), "{err}");
    }

    #[test]
    fn check_fails_when_no_grid_was_compared() {
        let baseline = report(vec![grid("counter-quick", "00ff")]);
        let err = report(vec![]).check(&baseline).unwrap_err();
        assert!(err.contains("compared no grid"), "{err}");
    }

    #[test]
    fn compare_render_reports_deltas_and_divergence() {
        let baseline = report(vec![GridResult {
            wall_ms: 1000,
            ..grid("list-quick", "00ff")
        }]);
        let mut current = baseline.clone();
        current.grids[0].wall_ms = 800;
        let cmp = current.compare_render(&baseline);
        assert!(cmp.contains("all shared grids match"));
        assert!(cmp.contains("-20.0%"));
        current.grids[0].fingerprint = "beef".into();
        let cmp = current.compare_render(&baseline);
        assert!(cmp.contains("DIVERGED"));
        assert!(cmp.contains("list-quick"));
    }

    #[test]
    fn quick_bench_runs_and_fingerprints_deterministically() {
        let opts = ExecOptions {
            jobs: 1,
            ..ExecOptions::default()
        };
        let a = run(true, &opts).expect("bench runs");
        let b = run(true, &opts).expect("bench runs");
        assert_eq!(a.grids.len(), 1);
        assert!(a.grids[0].ops > 0, "ops counted");
        assert_eq!(
            a.grids[0].fingerprint, b.grids[0].fingerprint,
            "same build, same seeds, same fingerprint"
        );
        assert!(a.check(&b).is_ok());
        assert!(a.batch_mismatches().is_empty());
    }
}
