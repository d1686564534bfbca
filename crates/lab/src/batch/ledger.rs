//! The crash-safe cell ledger: an append-only JSONL journal plus atomic
//! per-cell snapshot files.
//!
//! `ledger.jsonl` starts with one manifest record (what grid this
//! directory holds: target, overrides, shard slice, grid fingerprint) and
//! then grows one compact-JSON line per cell event — `claimed` when a
//! worker picks the cell up, `completed` (with the cell's determinism
//! fingerprint, wall time and results path) or `failed` (with the error)
//! when it finishes. Events are appended and flushed one line at a time,
//! and per-cell result snapshots are written to a temp file and
//! atomically renamed, so a `kill -9` at any instant loses at most the
//! cells that were in flight: replaying the journal ignores a truncated
//! final line (the crash artifact) and treats `claimed`-without-outcome
//! cells as orphans to retry.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{self, fnv1a, Json};
use crate::results::CellResult;

use super::shard::Shard;

/// The ledger file name inside a batch output directory.
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// The ledger format version written into manifest records.
pub const LEDGER_VERSION: u64 = 1;

/// The generator string recorded in batch manifests and reports. One
/// spelling for direct `run --all`, sharded runs and `merge`, so a merged
/// report is byte-identical to a single-process one.
pub const GENERATOR: &str = "commtm-lab batch";

/// The first line of every ledger: which grid this directory holds.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestRecord {
    /// What was asked for: a built-in scenario name, a `.toml` path, a
    /// registry workload name, or `"--all"`.
    pub target: String,
    /// Grid overrides in effect, re-applied verbatim on `--resume`.
    pub overrides: super::Overrides,
    /// Figure color theme name (themes change figure bytes, so a resume
    /// or merge must reproduce the original choice).
    pub theme: String,
    /// Which slice of the grid this directory owns.
    pub shard: Shard,
    /// Fingerprint of the full deterministic cell enumeration — shards of
    /// the same grid share it; anything else refuses to resume/merge.
    pub grid_fingerprint: String,
    /// Total cells in the full grid (all shards).
    pub total_cells: usize,
}

impl ManifestRecord {
    /// The ledger's first line (compact form is one JSONL record).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("manifest".into())),
            ("version", Json::U64(LEDGER_VERSION)),
            ("generator", Json::Str(GENERATOR.into())),
            ("target", Json::Str(self.target.clone())),
            ("overrides", self.overrides.to_json()),
            ("theme", Json::Str(self.theme.clone())),
            (
                "shard",
                Json::obj(vec![
                    ("index", Json::U64(self.shard.index as u64)),
                    ("total", Json::U64(self.shard.total as u64)),
                ]),
            ),
            ("grid_fingerprint", Json::Str(self.grid_fingerprint.clone())),
            ("total_cells", Json::U64(self.total_cells as u64)),
        ])
    }

    /// Parses a manifest line ([`ManifestRecord::to_json`]).
    ///
    /// # Errors
    ///
    /// Fails on a non-manifest record, an unsupported ledger version, or
    /// a missing required field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("kind").and_then(Json::as_str) != Some("manifest") {
            return Err("first ledger line is not a manifest record".into());
        }
        let version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != LEDGER_VERSION {
            return Err(format!(
                "ledger version {version} not supported (this build writes {LEDGER_VERSION})"
            ));
        }
        let shard = v.get("shard").ok_or("manifest missing \"shard\"")?;
        Ok(ManifestRecord {
            target: v
                .get("target")
                .and_then(Json::as_str)
                .ok_or("manifest missing \"target\"")?
                .to_string(),
            overrides: super::Overrides::from_json(
                v.get("overrides").ok_or("manifest missing \"overrides\"")?,
            )?,
            theme: v
                .get("theme")
                .and_then(Json::as_str)
                .unwrap_or("light")
                .to_string(),
            shard: Shard {
                index: shard.get("index").and_then(Json::as_u64).unwrap_or(0) as usize,
                total: shard.get("total").and_then(Json::as_u64).unwrap_or(1) as usize,
            },
            grid_fingerprint: v
                .get("grid_fingerprint")
                .and_then(Json::as_str)
                .ok_or("manifest missing \"grid_fingerprint\"")?
                .to_string(),
            total_cells: v.get("total_cells").and_then(Json::as_u64).unwrap_or(0) as usize,
        })
    }
}

/// One journaled cell event. Jobs are identified by their stable id
/// (`"<scenario>#<cell-index>"` — see [`super::BatchPlan`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A worker picked the cell up.
    Claimed {
        /// Job id.
        job: String,
    },
    /// The cell finished and its snapshot file is on disk.
    Completed {
        /// Job id.
        job: String,
        /// FNV-1a fingerprint of the cell's canonical JSON
        /// ([`cell_fingerprint`]) — verified on resume and merge.
        fingerprint: String,
        /// Host wall-clock milliseconds the cell took.
        wall_ms: u64,
        /// Snapshot path, relative to the ledger directory.
        results: String,
    },
    /// The cell ran and failed (panic or resolve error).
    Failed {
        /// Job id.
        job: String,
        /// The failure description.
        error: String,
    },
}

impl Event {
    /// The job this event belongs to.
    pub fn job(&self) -> &str {
        match self {
            Event::Claimed { job } | Event::Failed { job, .. } | Event::Completed { job, .. } => {
                job
            }
        }
    }

    /// The event's JSONL record (compact form is one line).
    pub fn to_json(&self) -> Json {
        match self {
            Event::Claimed { job } => Json::obj(vec![
                ("kind", Json::Str("claimed".into())),
                ("job", Json::Str(job.clone())),
            ]),
            Event::Completed {
                job,
                fingerprint,
                wall_ms,
                results,
            } => Json::obj(vec![
                ("kind", Json::Str("completed".into())),
                ("job", Json::Str(job.clone())),
                ("fingerprint", Json::Str(fingerprint.clone())),
                ("wall_ms", Json::U64(*wall_ms)),
                ("results", Json::Str(results.clone())),
            ]),
            Event::Failed { job, error } => Json::obj(vec![
                ("kind", Json::Str("failed".into())),
                ("job", Json::Str(job.clone())),
                ("error", Json::Str(error.clone())),
            ]),
        }
    }

    /// Parses an event line ([`Event::to_json`]).
    ///
    /// # Errors
    ///
    /// Fails on an unknown kind or a missing required field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("event missing \"kind\"")?;
        let job = v
            .get("job")
            .and_then(Json::as_str)
            .ok_or("event missing \"job\"")?
            .to_string();
        match kind {
            "claimed" => Ok(Event::Claimed { job }),
            "completed" => Ok(Event::Completed {
                job,
                fingerprint: v
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .ok_or("completed event missing \"fingerprint\"")?
                    .to_string(),
                wall_ms: v.get("wall_ms").and_then(Json::as_u64).unwrap_or(0),
                results: v
                    .get("results")
                    .and_then(Json::as_str)
                    .ok_or("completed event missing \"results\"")?
                    .to_string(),
            }),
            "failed" => Ok(Event::Failed {
                job,
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            }),
            other => Err(format!("unknown ledger event kind {other:?}")),
        }
    }
}

/// The replayed state of one cell: the last event wins.
#[derive(Clone, Debug, PartialEq)]
pub enum CellState {
    /// Claimed but never finished — an in-flight cell at crash time;
    /// resume retries it.
    Claimed,
    /// Completed with a snapshot on disk.
    Completed {
        /// Recorded canonical-JSON fingerprint.
        fingerprint: String,
        /// Snapshot path relative to the ledger directory.
        results: String,
        /// Recorded wall time (informational).
        wall_ms: u64,
    },
    /// Ran and failed; resume retries it.
    Failed {
        /// The recorded failure.
        error: String,
    },
}

/// A replayed ledger: manifest plus per-job last-event-wins states.
#[derive(Clone, Debug)]
pub struct Replay {
    /// The ledger's manifest record.
    pub manifest: ManifestRecord,
    /// Last-event-wins state per job id; jobs with no events are fresh.
    pub states: BTreeMap<String, CellState>,
    /// Whether the final line was truncated mid-write (the signature of a
    /// kill during an append) and ignored.
    pub truncated_tail: bool,
}

impl Replay {
    /// Replays `<dir>/ledger.jsonl`.
    ///
    /// # Errors
    ///
    /// Fails on a missing/unreadable file, a malformed manifest line, or
    /// a corrupt line *before* the end of the file (a truncated final
    /// line is tolerated as a crash artifact; mid-file corruption is not
    /// — it means the file was edited or the filesystem lost data).
    pub fn load(dir: &Path) -> Result<Replay, String> {
        let path = dir.join(LEDGER_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Replay::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Replays ledger text (see [`Replay::load`]).
    ///
    /// # Errors
    ///
    /// See [`Replay::load`].
    pub fn parse(text: &str) -> Result<Replay, String> {
        let terminated = text.ends_with('\n');
        let lines: Vec<&str> = text.lines().collect();
        let first = lines
            .first()
            .ok_or("empty ledger (no manifest line)")?
            .trim();
        // A ledger so young its manifest line is still partial counts as
        // no ledger at all.
        let manifest = ManifestRecord::from_json(
            &json::parse(first).map_err(|e| format!("manifest line: {e}"))?,
        )?;
        if lines.len() == 1 && !terminated {
            return Err("truncated manifest line".into());
        }
        let mut states = BTreeMap::new();
        let mut truncated_tail = false;
        for (i, line) in lines.iter().enumerate().skip(1) {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let last = i == lines.len() - 1;
            let event = match json::parse(line).and_then(|v| Event::from_json(&v)) {
                Ok(e) => e,
                Err(_) if last && !terminated => {
                    // The crash artifact: a partially-appended final line.
                    truncated_tail = true;
                    continue;
                }
                Err(e) => return Err(format!("ledger line {}: {e}", i + 1)),
            };
            let state = match &event {
                Event::Claimed { .. } => CellState::Claimed,
                Event::Completed {
                    fingerprint,
                    wall_ms,
                    results,
                    ..
                } => CellState::Completed {
                    fingerprint: fingerprint.clone(),
                    results: results.clone(),
                    wall_ms: *wall_ms,
                },
                Event::Failed { error, .. } => CellState::Failed {
                    error: error.clone(),
                },
            };
            states.insert(event.job().to_string(), state);
        }
        Ok(Replay {
            manifest,
            states,
            truncated_tail,
        })
    }
}

/// An open, append-only ledger. Appends are serialized under a mutex and
/// flushed per line, so concurrent workers never interleave partial
/// lines and a crash can only truncate the final one.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl Journal {
    /// Creates (truncating any previous ledger) `<dir>/ledger.jsonl` and
    /// writes the manifest line.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn create(dir: &Path, manifest: &ManifestRecord) -> Result<Journal, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(LEDGER_FILE);
        let mut file =
            File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        file.write_all(manifest.to_json().compact().as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Opens an existing ledger for appending (the `--resume` path). If
    /// the file does not end with a newline — the previous run was killed
    /// mid-append — the partial final line is truncated away first, so
    /// the file holds only whole records again. Replay already ignored
    /// that partial record; dropping its bytes keeps later replays from
    /// seeing it as mid-file corruption once new events follow it.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn open_append(dir: &Path) -> Result<Journal, String> {
        let path = dir.join(LEDGER_FILE);
        // Truncation needs a write (not append-only) handle; reopen in
        // append mode afterwards so every future write lands at the end.
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        if !text.is_empty() && !text.ends_with('\n') {
            let keep = text.rfind('\n').map_or(0, |p| p + 1) as u64;
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            file.set_len(keep)
                .map_err(|e| format!("repairing {}: {e}", path.display()))?;
        }
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("seeking {}: {e}", path.display()))?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Appends one event line and flushes it.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors.
    pub fn append(&self, event: &Event) -> Result<(), String> {
        let line = event.to_json().compact();
        let mut file = self.file.lock().expect("journal lock");
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("appending to {}: {e}", self.path.display()))
    }
}

/// The determinism fingerprint of one cell result: FNV-1a over its
/// canonical (timing-free) JSON. Recorded in `completed` events and
/// re-verified whenever a snapshot is loaded.
pub fn cell_fingerprint(result: &CellResult) -> String {
    fnv1a(&result.to_json(false).pretty())
}

/// Writes one cell snapshot crash-safely: the timing-tier JSON goes to
/// `<path>.tmp` and is atomically renamed over `<path>`, so a killed run
/// never leaves a half-written snapshot behind a `completed` event.
///
/// # Errors
///
/// Fails on filesystem errors.
pub fn write_cell_file(dir: &Path, rel: &str, result: &CellResult) -> Result<(), String> {
    let path = dir.join(rel);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, result.to_json(true).pretty())
        .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))
}

/// Loads one cell snapshot and checks it is the cell the plan expects
/// (same identity) and unchanged (same canonical fingerprint as the
/// ledger recorded). The returned result carries the *plan's* cell —
/// snapshot files don't round-trip `workload_index`, and results must be
/// indistinguishable from a fresh run.
///
/// # Errors
///
/// Fails on filesystem errors, malformed JSON, an identity mismatch, or
/// a fingerprint mismatch.
pub fn load_cell_file(
    dir: &Path,
    rel: &str,
    expected: &crate::spec::Cell,
    fingerprint: &str,
) -> Result<CellResult, String> {
    let path = dir.join(rel);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut result = CellResult::from_json(&v, expected.index)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let c = &result.cell;
    if (
        c.workload.as_str(),
        c.label.as_str(),
        c.threads,
        c.scheme,
        c.seed_index,
        c.seed,
    ) != (
        expected.workload.as_str(),
        expected.label.as_str(),
        expected.threads,
        expected.scheme,
        expected.seed_index,
        expected.seed,
    ) {
        return Err(format!(
            "{}: snapshot holds a different cell ({}) than the plan expects ({})",
            path.display(),
            result.key(),
            crate::spec::scheme_name(expected.scheme),
        ));
    }
    result.cell = expected.clone();
    let actual = cell_fingerprint(&result);
    if actual != fingerprint {
        return Err(format!(
            "{}: fingerprint mismatch (ledger recorded {fingerprint}, snapshot hashes to \
             {actual}) — the snapshot was modified or belongs to a different grid",
            path.display(),
        ));
    }
    Ok(result)
}

/// The result a replayed cell state stands for: a `completed` cell's
/// snapshot, loaded and verified ([`load_cell_file`]), or a `failed`
/// cell's error. A `claimed` cell never finished and has none
/// (`Ok(None)`).
///
/// # Errors
///
/// Fails when a `completed` cell's snapshot does not load or verify.
pub fn replayed_result(
    dir: &Path,
    state: &CellState,
    cell: &crate::spec::Cell,
) -> Result<Option<CellResult>, String> {
    match state {
        CellState::Completed {
            fingerprint,
            results,
            ..
        } => load_cell_file(dir, results, cell, fingerprint).map(Some),
        CellState::Failed { error } => Ok(Some(CellResult {
            cell: cell.clone(),
            stats: None,
            error: Some(error.clone()),
            wall_ms: 0,
            trace: None,
        })),
        CellState::Claimed => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> ManifestRecord {
        ManifestRecord {
            target: "fig09".into(),
            overrides: super::super::Overrides::default(),
            theme: "light".into(),
            shard: Shard::WHOLE,
            grid_fingerprint: "aabbccdd00112233".into(),
            total_cells: 4,
        }
    }

    #[test]
    fn manifest_and_events_roundtrip() {
        let m = manifest();
        let back =
            ManifestRecord::from_json(&json::parse(&m.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back, m);
        for e in [
            Event::Claimed {
                job: "fig09#0".into(),
            },
            Event::Completed {
                job: "fig09#0".into(),
                fingerprint: "ff00".into(),
                wall_ms: 12,
                results: "cells/fig09-0.json".into(),
            },
            Event::Failed {
                job: "fig09#1".into(),
                error: "oracle: counter mismatch".into(),
            },
        ] {
            let line = e.to_json().compact();
            assert!(!line.trim_end_matches('\n').contains('\n'), "one line each");
            assert_eq!(Event::from_json(&json::parse(&line).unwrap()).unwrap(), e);
        }
    }

    #[test]
    fn replay_applies_last_event_wins_and_tolerates_truncation() {
        let m = manifest();
        let mut text = m.to_json().compact();
        for e in [
            Event::Claimed { job: "a#0".into() },
            Event::Claimed { job: "a#1".into() },
            Event::Failed {
                job: "a#1".into(),
                error: "boom".into(),
            },
            Event::Claimed { job: "a#1".into() },
            Event::Completed {
                job: "a#1".into(),
                fingerprint: "ff".into(),
                wall_ms: 1,
                results: "cells/a-1.json".into(),
            },
        ] {
            text.push_str(&e.to_json().compact());
        }
        let r = Replay::parse(&text).unwrap();
        assert!(!r.truncated_tail);
        assert_eq!(r.manifest, m);
        assert_eq!(r.states.get("a#0"), Some(&CellState::Claimed));
        assert!(matches!(
            r.states.get("a#1"),
            Some(CellState::Completed { fingerprint, .. }) if fingerprint == "ff"
        ));
        assert_eq!(r.states.get("a#2"), None, "untouched cells have no state");

        // A truncated final line — the kill-mid-append artifact — is
        // ignored and flagged, leaving the prior state intact.
        let truncated = format!("{text}{{\"kind\":\"claimed\",\"jo");
        let r = Replay::parse(&truncated).unwrap();
        assert!(r.truncated_tail);
        assert_eq!(r.states.len(), 2);

        // Mid-file corruption is an error, not silently skipped.
        let corrupt = text.replace(
            "{\"kind\":\"failed\",\"job\":\"a#1\",\"error\":\"boom\"}",
            "{\"kind\":\"failed\",\"jo",
        );
        assert!(Replay::parse(&corrupt).is_err());

        // So is a ledger whose manifest line never finished.
        assert!(Replay::parse("{\"kind\":\"mani").is_err());
        assert!(Replay::parse("").is_err());
    }

    #[test]
    fn journal_appends_survive_reopen_and_newline_repair() {
        let dir = std::env::temp_dir().join(format!("commtm-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = manifest();
        let j = Journal::create(&dir, &m).unwrap();
        j.append(&Event::Claimed { job: "x#0".into() }).unwrap();
        drop(j);
        // Simulate a kill mid-append: a partial line with no newline.
        let path = dir.join(LEDGER_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"claimed\",\"jo").unwrap();
        drop(f);
        let r = Replay::load(&dir).unwrap();
        assert!(r.truncated_tail);
        assert_eq!(r.states.get("x#0"), Some(&CellState::Claimed));
        // Reopening truncates the partial tail so the next event starts
        // cleanly and later replays see only whole records.
        let j = Journal::open_append(&dir).unwrap();
        j.append(&Event::Failed {
            job: "x#0".into(),
            error: "e".into(),
        })
        .unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("\"jo\n"), "partial record bytes dropped");
        let r = Replay::load(&dir).unwrap();
        assert!(!r.truncated_tail, "repaired ledger holds whole lines only");
        assert_eq!(
            r.states.get("x#0"),
            Some(&CellState::Failed { error: "e".into() })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
