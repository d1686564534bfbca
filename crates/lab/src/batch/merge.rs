//! Merging shard ledgers back into one report.
//!
//! `commtm-lab merge <dir>...` takes the output directories of an
//! `n`-way sharded run, validates that the shard ledgers describe the
//! same grid (target, overrides, grid fingerprint), that together they
//! cover every shard exactly once, and that every cell is accounted for
//! (completed with a verifying snapshot, or failed), then assembles the
//! full result sets and emits the identical report a single-process
//! `run --all` would have written.

use std::path::{Path, PathBuf};

use crate::registry::Registry;
use crate::results::CellResult;

use super::ledger::{load_cell_file, CellState, Replay};
use super::BatchPlan;

/// A validated set of shard inputs: the rebuilt plan plus each shard's
/// replayed ledger, keyed by shard index.
pub struct MergeInputs {
    /// The plan rebuilt from the (consistent) shard manifests.
    pub plan: BatchPlan,
    /// `(directory, replay)` per shard, indexed by shard index.
    pub shards: Vec<(PathBuf, Replay)>,
    /// The theme name every shard recorded.
    pub theme: String,
}

/// Replays and cross-validates the shard ledgers in `dirs`.
///
/// # Errors
///
/// Fails when a ledger is missing or corrupt, when manifests disagree on
/// target/overrides/theme/grid-fingerprint/shard-count, when a shard
/// index is duplicated or missing (incomplete cover), or when the grid
/// the manifests describe can no longer be re-derived identically (the
/// scenarios changed under the ledger).
pub fn validate(reg: &Registry, dirs: &[PathBuf]) -> Result<MergeInputs, String> {
    if dirs.is_empty() {
        return Err("merge needs at least one shard directory".into());
    }
    let mut replays: Vec<(PathBuf, Replay)> = Vec::new();
    for dir in dirs {
        replays.push((dir.clone(), Replay::load(dir)?));
    }
    let first = replays[0].1.manifest.clone();
    for (dir, r) in &replays[1..] {
        let m = &r.manifest;
        if m.target != first.target
            || m.grid_fingerprint != first.grid_fingerprint
            || m.overrides != first.overrides
            || m.theme != first.theme
        {
            return Err(format!(
                "{}: ledger describes a different grid than {} (target {:?} vs {:?}, \
                 fingerprint {} vs {})",
                dir.display(),
                dirs[0].display(),
                m.target,
                first.target,
                m.grid_fingerprint,
                first.grid_fingerprint,
            ));
        }
        if m.shard.total != first.shard.total {
            return Err(format!(
                "{}: shard count {} disagrees with {} ({})",
                dir.display(),
                m.shard.total,
                dirs[0].display(),
                first.shard.total,
            ));
        }
    }
    let total = first.shard.total;
    if replays.len() != total {
        return Err(format!(
            "grid was sharded {total} way(s) but {} director(ies) were given — pass every \
             shard's output directory exactly once",
            replays.len()
        ));
    }
    let mut by_index: Vec<Option<(PathBuf, Replay)>> = (0..total).map(|_| None).collect();
    for (dir, r) in replays {
        let i = r.manifest.shard.index;
        if i >= total {
            return Err(format!("{}: shard index {i} out of range", dir.display()));
        }
        if let Some((prev, _)) = &by_index[i] {
            return Err(format!(
                "shard {i} appears twice: {} and {}",
                prev.display(),
                dir.display()
            ));
        }
        by_index[i] = Some((dir, r));
    }
    let shards: Vec<(PathBuf, Replay)> = by_index
        .into_iter()
        .map(|s| s.expect("all indices covered"))
        .collect();
    let plan = BatchPlan::new(reg, &first.target, &first.overrides, total)?;
    if plan.grid_fingerprint != first.grid_fingerprint {
        return Err(format!(
            "grid fingerprint mismatch: the ledgers were written for {} but this build \
             enumerates {} — the scenarios changed; re-run instead of merging",
            first.grid_fingerprint, plan.grid_fingerprint
        ));
    }
    if plan.jobs.len() != first.total_cells {
        return Err(format!(
            "cell count mismatch: ledgers recorded {} cells, this build enumerates {}",
            first.total_cells,
            plan.jobs.len()
        ));
    }
    let theme = first.theme.clone();
    Ok(MergeInputs {
        plan,
        shards,
        theme,
    })
}

/// Collects every cell of the plan from its owning shard: completed
/// cells are loaded and fingerprint-verified, failed cells become error
/// results (their figures render as gaps). An unfinished cell — fresh or
/// orphaned-claimed — is an error naming the shard to resume.
///
/// # Errors
///
/// Fails on unfinished cells, unreadable snapshots, or fingerprint
/// mismatches.
pub fn collect(inputs: &MergeInputs) -> Result<Vec<Option<CellResult>>, String> {
    let plan = &inputs.plan;
    let mut results: Vec<Option<CellResult>> = vec![None; plan.jobs.len()];
    for (ji, job) in plan.jobs.iter().enumerate() {
        let (dir, replay) = &inputs.shards[job.shard];
        match replay.states.get(&job.id) {
            Some(CellState::Completed {
                fingerprint,
                results: rel,
                ..
            }) => {
                results[ji] = Some(load_cell_file(dir, rel, plan.cell_of(job), fingerprint)?);
            }
            Some(CellState::Failed { error }) => {
                results[ji] = Some(CellResult {
                    cell: plan.cell_of(job).clone(),
                    stats: None,
                    error: Some(error.clone()),
                    wall_ms: 0,
                    trace: None,
                });
            }
            Some(CellState::Claimed) | None => {
                return Err(format!(
                    "cell {} is unfinished in shard {} ({}) — resume it first: \
                     commtm-lab run --resume {}",
                    job.id,
                    job.shard,
                    dir.display(),
                    dir.display(),
                ));
            }
        }
    }
    Ok(results)
}

/// The full merge: validate shard ledgers, collect every cell, and emit
/// the combined report into `out_dir`. Returns whether every cell
/// succeeded (failed cells merge as gaps, mirroring a single-process run
/// with failures).
///
/// # Errors
///
/// See [`validate`] and [`collect`], plus report filesystem errors.
pub fn merge_dirs(
    reg: &Registry,
    dirs: &[PathBuf],
    out_dir: &Path,
    quiet_report: bool,
) -> Result<bool, String> {
    let inputs = validate(reg, dirs)?;
    let theme = crate::figures::theme_by_name(&inputs.theme)
        .ok_or_else(|| format!("ledger records unknown theme {:?}", inputs.theme))?;
    let results = collect(&inputs)?;
    let sets = super::assemble_sets(&inputs.plan, &results)?;
    super::emit_report(out_dir, &inputs.plan, &sets, theme, quiet_report)
}
