//! The crash-safe cell ledger: one append-only JSONL journal that is
//! the batch run's only store.
//!
//! `ledger.jsonl` starts with one manifest record (what grid this
//! directory holds: target, overrides, theme, grid fingerprint) and then
//! grows one compact-JSON line per finished cell: `completed` (with the
//! cell's determinism fingerprint, wall time and its result JSON inline)
//! or `failed` (with the error). Events are appended and flushed one line
//! at a time, so a `kill -9` at any instant loses at most the cells that
//! were in flight: replaying the journal ignores a truncated final line
//! (the crash artifact), and a cell without an event is fresh.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{self, fnv1a, Json};
use crate::results::CellResult;

/// The ledger file name inside a batch output directory.
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// The ledger format version written into manifest records.
pub const LEDGER_VERSION: u64 = 2;

/// The generator string recorded in batch manifests and reports. One
/// spelling for fresh and resumed runs, so a resumed report is
/// byte-identical to an uninterrupted one.
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
    /// must reproduce the original choice).
    pub theme: String,
    /// Fingerprint of the full deterministic cell enumeration; a build
    /// that enumerates anything else refuses to resume.
    pub grid_fingerprint: String,
    /// Total cells in the grid.
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
    /// The cell finished; its result rides along inline.
    Completed {
        /// Job id.
        job: String,
        /// FNV-1a fingerprint of the cell's canonical JSON
        /// ([`cell_fingerprint`]) — verified on resume.
        fingerprint: String,
        /// Host wall-clock milliseconds the cell took.
        wall_ms: u64,
        /// The cell's timing-tier result JSON
        /// ([`CellResult::to_json`]`(true)`).
        result: Json,
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
            Event::Failed { job, .. } | Event::Completed { job, .. } => job,
        }
    }

    /// The event's JSONL record (compact form is one line).
    pub fn to_json(&self) -> Json {
        match self {
            Event::Completed {
                job,
                fingerprint,
                wall_ms,
                result,
            } => Json::obj(vec![
                ("kind", Json::Str("completed".into())),
                ("job", Json::Str(job.clone())),
                ("fingerprint", Json::Str(fingerprint.clone())),
                ("wall_ms", Json::U64(*wall_ms)),
                ("result", result.clone()),
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
            "completed" => Ok(Event::Completed {
                job,
                fingerprint: v
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .ok_or("completed event missing \"fingerprint\"")?
                    .to_string(),
                wall_ms: v.get("wall_ms").and_then(Json::as_u64).unwrap_or(0),
                result: v
                    .get("result")
                    .cloned()
                    .ok_or("completed event missing \"result\"")?,
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
    /// Completed; resume keeps it once the record verifies.
    Completed {
        /// Recorded canonical-JSON fingerprint.
        fingerprint: String,
        /// The recorded result JSON, unverified.
        result: Json,
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
            let (job, state) = match event {
                Event::Completed {
                    job,
                    fingerprint,
                    result,
                    ..
                } => (
                    job,
                    CellState::Completed {
                        fingerprint,
                        result,
                    },
                ),
                Event::Failed { job, error } => (job, CellState::Failed { error }),
            };
            states.insert(job, state);
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
/// re-verified whenever a record is replayed.
pub fn cell_fingerprint(result: &CellResult) -> String {
    fnv1a(&result.to_json(false).pretty())
}

/// The result a replayed cell state stands for: a `failed` cell's error,
/// or a `completed` cell's inline record, checked to be the cell the plan
/// expects (same identity) and unchanged (same canonical fingerprint as
/// the ledger recorded) — the ledger is input from outside the program.
/// The returned result carries the *plan's* cell: records don't
/// round-trip `workload_index`, and results must be indistinguishable
/// from a fresh run.
///
/// # Errors
///
/// Fails when a `completed` record is malformed, holds a different cell,
/// or does not match its fingerprint.
pub fn replayed_result(
    state: &CellState,
    expected: &crate::spec::Cell,
) -> Result<CellResult, String> {
    let (fingerprint, record) = match state {
        CellState::Completed {
            fingerprint,
            result,
        } => (fingerprint, result),
        CellState::Failed { error } => {
            return Ok(CellResult {
                cell: expected.clone(),
                stats: None,
                error: Some(error.clone()),
                wall_ms: 0,
                trace: None,
            })
        }
    };
    let mut result = CellResult::from_json(record, expected.index)
        .map_err(|e| format!("malformed ledger record: {e}"))?;
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
            "ledger record holds a different cell ({}) than the plan expects ({})",
            result.key(),
            crate::spec::scheme_name(expected.scheme),
        ));
    }
    result.cell = expected.clone();
    let actual = cell_fingerprint(&result);
    if actual != *fingerprint {
        return Err(format!(
            "fingerprint mismatch (ledger recorded {fingerprint}, record hashes to \
             {actual}) — the record was modified or belongs to a different grid"
        ));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> ManifestRecord {
        ManifestRecord {
            target: "fig09".into(),
            overrides: super::super::Overrides::default(),
            theme: "light".into(),
            grid_fingerprint: "aabbccdd00112233".into(),
            total_cells: 4,
        }
    }

    fn completed(job: &str, fingerprint: &str) -> Event {
        Event::Completed {
            job: job.into(),
            fingerprint: fingerprint.into(),
            wall_ms: 12,
            result: Json::obj(vec![("workload", Json::Str("counter".into()))]),
        }
    }

    fn failed(job: &str, error: &str) -> Event {
        Event::Failed {
            job: job.into(),
            error: error.into(),
        }
    }

    #[test]
    fn manifest_and_events_roundtrip() {
        let m = manifest();
        let back =
            ManifestRecord::from_json(&json::parse(&m.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back, m);
        for e in [
            completed("fig09#0", "ff00"),
            failed("fig09#1", "oracle: counter mismatch\nsecond line"),
        ] {
            let line = e.to_json().compact();
            assert!(!line.trim_end_matches('\n').contains('\n'), "one line each");
            assert_eq!(Event::from_json(&json::parse(&line).unwrap()).unwrap(), e);
        }
    }

    #[test]
    fn v1_manifest_is_refused_naming_the_version() {
        let v1 = "{\"kind\":\"manifest\",\"version\":1,\"generator\":\"commtm-lab batch\",\
                  \"target\":\"fig09\",\"overrides\":{},\"theme\":\"light\",\
                  \"shard\":{\"index\":0,\"total\":1},\
                  \"grid_fingerprint\":\"aabbccdd00112233\",\"total_cells\":4}\n";
        let err = Replay::parse(v1).unwrap_err();
        assert!(
            err.contains("ledger version 1 not supported")
                && err.contains(&format!("writes {LEDGER_VERSION}")),
            "{err}"
        );
    }

    #[test]
    fn replay_applies_last_event_wins_and_tolerates_truncation() {
        let m = manifest();
        let mut text = m.to_json().compact();
        for e in [
            failed("a#0", "boom0"),
            failed("a#1", "boom"),
            completed("a#1", "ff"),
        ] {
            text.push_str(&e.to_json().compact());
        }
        let r = Replay::parse(&text).unwrap();
        assert!(!r.truncated_tail);
        assert_eq!(r.manifest, m);
        assert_eq!(
            r.states.get("a#0"),
            Some(&CellState::Failed {
                error: "boom0".into()
            })
        );
        assert!(matches!(
            r.states.get("a#1"),
            Some(CellState::Completed { fingerprint, .. }) if fingerprint == "ff"
        ));
        assert_eq!(r.states.get("a#2"), None, "untouched cells have no state");

        // A truncated final line — the kill-mid-append artifact — is
        // ignored and flagged, leaving the prior state intact.
        let truncated = format!("{text}{{\"kind\":\"completed\",\"jo");
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
        j.append(&failed("x#0", "first")).unwrap();
        drop(j);
        // Simulate a kill mid-append: a partial line with no newline.
        let path = dir.join(LEDGER_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"completed\",\"jo").unwrap();
        drop(f);
        let r = Replay::load(&dir).unwrap();
        assert!(r.truncated_tail);
        assert_eq!(
            r.states.get("x#0"),
            Some(&CellState::Failed {
                error: "first".into()
            })
        );
        // Reopening truncates the partial tail so the next event starts
        // cleanly and later replays see only whole records.
        let j = Journal::open_append(&dir).unwrap();
        j.append(&failed("x#0", "e")).unwrap();
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
