//! Trace aggregation: conflict attribution, abort-cause breakdowns, and
//! the cross-transaction speculation audit.
//!
//! The protocol layer captures a per-transaction event stream (see
//! `commtm_protocol::trace`); this module turns one run's [`Trace`] into
//! the lab's analysis artifacts:
//!
//! - [`TraceSummary`] — event counts, aborts keyed by cause, the
//!   labeled-vs-plain conflict matrix, and the hottest conflicting lines,
//! - the **speculation audit** — committed transactions whose footprint
//!   overlaps lines *speculatively written* by a concurrently-aborted
//!   transaction on another core. Aborted writes are rolled back before
//!   anyone can read them, so an incident is a near-miss contention
//!   report, not a correctness violation; see docs/OBSERVABILITY.md,
//! - JSON export of traces and summaries, plus a minimal JSON-Schema
//!   validator for the committed `docs/trace.schema.json` (the
//!   `commtm-lab trace-validate` gate).
//!
//! Everything here is a pure function of the commit-ordered event stream.

use std::collections::{BTreeMap, HashMap, HashSet};

use commtm::{Trace, TraceEventKind};

use crate::json::Json;

/// The committed schema the `trace-validate` subcommand checks emitted
/// trace files against.
pub const TRACE_SCHEMA: &str = include_str!("../../../docs/trace.schema.json");

/// How many hot conflicting lines a summary retains.
pub const HOT_LINES: usize = 8;

/// Cap on reported speculation-audit incidents per trace; the overflow is
/// counted in [`TraceSummary::audit_truncated`].
pub const MAX_AUDIT_INCIDENTS: usize = 32;

/// One speculation-audit finding: a committed transaction whose accessed
/// lines overlap a concurrently-aborted transaction's speculative writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditIncident {
    /// Core that committed.
    pub committed_core: usize,
    /// Scheduler clock of the commit.
    pub commit_clock: u64,
    /// Core whose overlapping transaction aborted.
    pub aborted_core: usize,
    /// Scheduler clock of the abort.
    pub abort_clock: u64,
    /// The overlapping lines (sorted).
    pub lines: Vec<u64>,
}

/// Aggregated view of one run's trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Transactions begun (retries count separately).
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transaction attempts aborted.
    pub aborts: u64,
    /// Conflicts arbitrated.
    pub conflicts: u64,
    /// Conflicts resolved by NACKing the requester.
    pub nacks: u64,
    /// Events dropped by the capture ring (a windowed trace undercounts).
    pub dropped: u64,
    /// Abort counts keyed by stable cause name.
    pub abort_causes: BTreeMap<String, u64>,
    /// Labeled-vs-plain conflict matrix, indexed
    /// `attacker_labeled * 2 + victim_labeled`: `[plain→plain,
    /// plain→labeled, labeled→plain, labeled→labeled]`.
    pub label_matrix: [u64; 4],
    /// The most-conflicted lines as `(line, conflicts)`, descending by
    /// count (ties by line), at most [`HOT_LINES`] entries.
    pub hot_lines: Vec<(u64, u64)>,
    /// Speculation-audit incidents (at most [`MAX_AUDIT_INCIDENTS`]).
    pub audit: Vec<AuditIncident>,
    /// Incidents found beyond the reporting cap.
    pub audit_truncated: u64,
}

/// A live (begun, not yet resolved) transaction's audit state.
#[derive(Default)]
struct TxLive {
    begin_clock: u64,
    lines: HashSet<u64>,
    writes: HashSet<u64>,
}

/// An aborted transaction retained while its interval can still overlap a
/// future commit.
struct AbortedTx {
    core: usize,
    begin_clock: u64,
    abort_clock: u64,
    writes: HashSet<u64>,
}

/// Builds the [`TraceSummary`] for one trace.
///
/// The audit walks the commit-ordered stream with one pass: each core's
/// live transaction accumulates its accessed and speculatively-written
/// lines; aborts park that state; commits intersect against parked aborts
/// whose `[begin, abort]` interval overlaps the committed `[begin,
/// commit]` interval. Parked aborts are pruned once no live or future
/// transaction can reach back to them, so the pass stays linear in
/// practice.
pub fn summarize_trace(trace: &Trace) -> TraceSummary {
    let mut s = TraceSummary {
        dropped: trace.dropped,
        ..TraceSummary::default()
    };
    let mut line_conflicts: HashMap<u64, u64> = HashMap::new();
    let mut live: HashMap<usize, TxLive> = HashMap::new();
    let mut parked: Vec<AbortedTx> = Vec::new();

    for ev in &trace.events {
        match &ev.kind {
            TraceEventKind::Begin { .. } => {
                s.begins += 1;
                live.insert(
                    ev.core,
                    TxLive {
                        begin_clock: ev.clock,
                        ..TxLive::default()
                    },
                );
            }
            TraceEventKind::Access { line, op, .. } => {
                if let Some(tx) = live.get_mut(&ev.core) {
                    tx.lines.insert(*line);
                    if op.is_store() {
                        tx.writes.insert(*line);
                    }
                }
            }
            TraceEventKind::Conflict {
                line,
                cause,
                attacker_labeled,
                nack,
                ..
            } => {
                s.conflicts += 1;
                if *nack {
                    s.nacks += 1;
                }
                *line_conflicts.entry(*line).or_insert(0) += 1;
                // The victim side is "labeled" when the conflict class
                // only exists for labeled state (a plain line can't raise
                // a cross-label or gather-after-labeled dependency).
                let victim_labeled = matches!(
                    cause,
                    commtm::AbortKind::CrossLabel | commtm::AbortKind::GatherAfterLabeled
                );
                s.label_matrix[usize::from(*attacker_labeled) * 2 + usize::from(victim_labeled)] +=
                    1;
            }
            TraceEventKind::Abort { cause, .. } => {
                s.aborts += 1;
                *s.abort_causes.entry(cause.name().to_string()).or_insert(0) += 1;
                if let Some(tx) = live.remove(&ev.core) {
                    if !tx.writes.is_empty() {
                        parked.push(AbortedTx {
                            core: ev.core,
                            begin_clock: tx.begin_clock,
                            abort_clock: ev.clock,
                            writes: tx.writes,
                        });
                    }
                }
                prune_parked(&mut parked, &live, ev.clock);
            }
            TraceEventKind::Commit => {
                s.commits += 1;
                if let Some(tx) = live.remove(&ev.core) {
                    for a in &parked {
                        if a.core == ev.core
                            || tx.begin_clock > a.abort_clock
                            || a.begin_clock > ev.clock
                        {
                            continue;
                        }
                        let mut lines: Vec<u64> =
                            tx.lines.intersection(&a.writes).copied().collect();
                        if lines.is_empty() {
                            continue;
                        }
                        if s.audit.len() >= MAX_AUDIT_INCIDENTS {
                            s.audit_truncated += 1;
                            continue;
                        }
                        lines.sort_unstable();
                        s.audit.push(AuditIncident {
                            committed_core: ev.core,
                            commit_clock: ev.clock,
                            aborted_core: a.core,
                            abort_clock: a.abort_clock,
                            lines,
                        });
                    }
                }
                prune_parked(&mut parked, &live, ev.clock);
            }
        }
    }

    let mut hot: Vec<(u64, u64)> = line_conflicts.into_iter().collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(HOT_LINES);
    s.hot_lines = hot;
    s
}

/// Drops parked aborts no live or future transaction can overlap: the
/// stream's clocks are non-decreasing, so a future begin happens at or
/// after `clock`, and overlap requires `begin <= abort_clock`.
fn prune_parked(parked: &mut Vec<AbortedTx>, live: &HashMap<usize, TxLive>, clock: u64) {
    let floor = live
        .values()
        .map(|t| t.begin_clock)
        .min()
        .unwrap_or(clock)
        .min(clock);
    parked.retain(|a| a.abort_clock >= floor);
}

/// The JSON form of a summary (deterministic key order).
pub fn summary_to_json(s: &TraceSummary) -> Json {
    let causes = Json::Obj(
        s.abort_causes
            .iter()
            .map(|(k, v)| (k.clone(), Json::U64(*v)))
            .collect(),
    );
    let matrix = Json::obj(vec![
        ("plain_vs_plain", Json::U64(s.label_matrix[0])),
        ("plain_vs_labeled", Json::U64(s.label_matrix[1])),
        ("labeled_vs_plain", Json::U64(s.label_matrix[2])),
        ("labeled_vs_labeled", Json::U64(s.label_matrix[3])),
    ]);
    let hot = Json::Arr(
        s.hot_lines
            .iter()
            .map(|(line, n)| {
                Json::obj(vec![
                    ("line", Json::U64(*line)),
                    ("conflicts", Json::U64(*n)),
                ])
            })
            .collect(),
    );
    let incidents = Json::Arr(
        s.audit
            .iter()
            .map(|i| {
                Json::obj(vec![
                    ("committed_core", Json::U64(i.committed_core as u64)),
                    ("commit_clock", Json::U64(i.commit_clock)),
                    ("aborted_core", Json::U64(i.aborted_core as u64)),
                    ("abort_clock", Json::U64(i.abort_clock)),
                    (
                        "lines",
                        Json::Arr(i.lines.iter().map(|&l| Json::U64(l)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("begins", Json::U64(s.begins)),
        ("commits", Json::U64(s.commits)),
        ("aborts", Json::U64(s.aborts)),
        ("conflicts", Json::U64(s.conflicts)),
        ("nacks", Json::U64(s.nacks)),
        ("dropped", Json::U64(s.dropped)),
        ("abort_causes", causes),
        ("label_matrix", matrix),
        ("hot_lines", hot),
        (
            "speculation_audit",
            Json::obj(vec![
                ("incidents", incidents),
                ("truncated", Json::U64(s.audit_truncated)),
            ]),
        ),
    ])
}

/// The JSON form of a full trace: header fields plus the commit-ordered
/// event stream, one tagged object per event.
pub fn trace_to_json(trace: &Trace) -> Json {
    let events: Vec<Json> = trace
        .events
        .iter()
        .map(|e| {
            let mut pairs = vec![
                ("clock".to_string(), Json::U64(e.clock)),
                ("core".to_string(), Json::U64(e.core as u64)),
            ];
            let mut put = |k: &str, v: Json| pairs.push((k.to_string(), v));
            match &e.kind {
                TraceEventKind::Begin { ts } => {
                    put("type", Json::Str("begin".into()));
                    put("ts", Json::U64(*ts));
                }
                TraceEventKind::Access {
                    addr,
                    line,
                    op,
                    labeled,
                    demoted,
                } => {
                    put("type", Json::Str("access".into()));
                    put("addr", Json::U64(*addr));
                    put("line", Json::U64(*line));
                    put("op", Json::Str(op.name().into()));
                    put("labeled", Json::Bool(*labeled));
                    put("demoted", Json::Bool(*demoted));
                }
                TraceEventKind::Conflict {
                    attacker,
                    victim,
                    line,
                    cause,
                    attacker_labeled,
                    nack,
                } => {
                    put("type", Json::Str("conflict".into()));
                    put("attacker", Json::U64(*attacker as u64));
                    put("victim", Json::U64(*victim as u64));
                    put("line", Json::U64(*line));
                    put("cause", Json::Str(cause.name().into()));
                    put("attacker_labeled", Json::Bool(*attacker_labeled));
                    put("nack", Json::Bool(*nack));
                }
                TraceEventKind::Abort {
                    cause,
                    attacker,
                    line,
                } => {
                    put("type", Json::Str("abort".into()));
                    put("cause", Json::Str(cause.name().into()));
                    put(
                        "attacker",
                        attacker.map_or(Json::Null, |a| Json::U64(a as u64)),
                    );
                    put("line", line.map_or(Json::Null, Json::U64));
                }
                TraceEventKind::Commit => put("type", Json::Str("commit".into())),
            }
            Json::Obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("threads", Json::U64(trace.threads as u64)),
        ("scheme", Json::Str(trace.scheme.clone())),
        ("seed", Json::U64(trace.seed)),
        ("capacity", Json::U64(trace.capacity as u64)),
        ("dropped", Json::U64(trace.dropped)),
        ("events", Json::Arr(events)),
    ])
}

/// The side-car trace artifact for one traced sweep (`<name>.trace.json`):
/// every cell that carries a trace, with its full event stream and its
/// [`TraceSummary`] (`summaries` is index-aligned with the set's cells,
/// `None` for a cell without a trace). The document matches the committed
/// [`TRACE_SCHEMA`] (`commtm-lab trace-validate` checks it).
pub fn trace_file_json(
    set: &crate::results::ResultSet,
    summaries: &[Option<TraceSummary>],
) -> Json {
    let cells: Vec<Json> = set
        .cells
        .iter()
        .zip(summaries)
        .filter_map(|(c, summary)| {
            let trace = c.trace.as_ref()?;
            let summary = summary.as_ref()?;
            Some(Json::obj(vec![
                ("workload", Json::Str(c.cell.workload.clone())),
                ("label", Json::Str(c.cell.label.clone())),
                ("threads", Json::U64(c.cell.threads as u64)),
                (
                    "scheme",
                    Json::Str(crate::spec::scheme_name(c.cell.scheme).to_string()),
                ),
                ("seed_index", Json::U64(c.cell.seed_index as u64)),
                ("seed", Json::U64(c.cell.seed)),
                ("trace", trace_to_json(trace)),
                ("summary", summary_to_json(summary)),
            ]))
        })
        .collect();
    Json::obj(vec![
        ("generator", Json::Str("commtm-lab run --trace".into())),
        ("schema", Json::Str("commtm-trace-v1".into())),
        ("scenario", Json::Str(set.scenario.clone())),
        ("scale", Json::U64(set.scale)),
        ("cells", Json::Arr(cells)),
    ])
}

/// Validates `value` against a subset of JSON Schema — the subset
/// `docs/trace.schema.json` uses: `type` (single name or list), `enum`,
/// `required`, `properties`, `items`. Unknown keywords are ignored, as
/// JSON Schema specifies.
///
/// # Errors
///
/// Returns the path and reason of the first violation.
pub fn validate_schema(schema: &Json, value: &Json) -> Result<(), String> {
    validate_at(schema, value, "$")
}

fn validate_at(schema: &Json, value: &Json, path: &str) -> Result<(), String> {
    if let Some(expected) = schema.get("type") {
        let names: Vec<&str> = match expected {
            Json::Str(s) => vec![s.as_str()],
            Json::Arr(list) => list.iter().filter_map(Json::as_str).collect(),
            other => return Err(format!("{path}: malformed schema \"type\": {other:?}")),
        };
        if !names.iter().any(|n| type_matches(n, value)) {
            return Err(format!(
                "{path}: expected type {}, got {}",
                names.join(" | "),
                type_name(value)
            ));
        }
    }
    if let Some(Json::Arr(allowed)) = schema.get("enum") {
        if !allowed.iter().any(|a| json_eq(a, value)) {
            return Err(format!("{path}: value not in enum"));
        }
    }
    if let Some(Json::Arr(required)) = schema.get("required") {
        for key in required.iter().filter_map(Json::as_str) {
            if value.get(key).is_none() {
                return Err(format!("{path}: missing required key {key:?}"));
            }
        }
    }
    if let (Some(Json::Obj(props)), Json::Obj(fields)) = (schema.get("properties"), value) {
        for (key, sub) in props {
            if let Some((_, v)) = fields.iter().find(|(k, _)| k == key) {
                validate_at(sub, v, &format!("{path}.{key}"))?;
            }
        }
    }
    if let (Some(items), Json::Arr(elems)) = (schema.get("items"), value) {
        for (i, v) in elems.iter().enumerate() {
            validate_at(items, v, &format!("{path}[{i}]"))?;
        }
    }
    Ok(())
}

fn type_matches(name: &str, value: &Json) -> bool {
    match name {
        "object" => matches!(value, Json::Obj(_)),
        "array" => matches!(value, Json::Arr(_)),
        "string" => matches!(value, Json::Str(_)),
        "boolean" => matches!(value, Json::Bool(_)),
        "null" => matches!(value, Json::Null),
        "integer" => matches!(value, Json::U64(_) | Json::I64(_)),
        "number" => matches!(value, Json::U64(_) | Json::I64(_) | Json::F64(_)),
        _ => false,
    }
}

fn type_name(value: &Json) -> &'static str {
    match value {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::U64(_) | Json::I64(_) => "integer",
        Json::F64(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn json_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Str(x), Json::Str(y)) => x == y,
        (Json::Bool(x), Json::Bool(y)) => x == y,
        (Json::Null, Json::Null) => true,
        _ => a.as_f64().zip(b.as_f64()).is_some_and(|(x, y)| x == y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::{AbortKind, AccessOp, TraceEvent};

    fn ev(clock: u64, core: usize, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { clock, core, kind }
    }

    fn access(line: u64, op: AccessOp) -> TraceEventKind {
        TraceEventKind::Access {
            addr: line * 8,
            line,
            op,
            labeled: false,
            demoted: false,
        }
    }

    fn sample_trace(events: Vec<TraceEvent>) -> Trace {
        Trace {
            threads: 2,
            scheme: "commtm".into(),
            seed: 1,
            capacity: 1 << 16,
            dropped: 0,
            events,
        }
    }

    #[test]
    fn summary_counts_causes_matrix_and_hot_lines() {
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(1, 1, TraceEventKind::Begin { ts: 2 }),
            ev(2, 0, access(7, AccessOp::Store)),
            ev(
                3,
                1,
                TraceEventKind::Conflict {
                    attacker: 1,
                    victim: 0,
                    line: 7,
                    cause: AbortKind::ReadAfterWrite,
                    attacker_labeled: false,
                    nack: false,
                },
            ),
            ev(
                4,
                0,
                TraceEventKind::Abort {
                    cause: AbortKind::ReadAfterWrite,
                    attacker: Some(1),
                    line: Some(7),
                },
            ),
            ev(
                5,
                1,
                TraceEventKind::Conflict {
                    attacker: 1,
                    victim: 0,
                    line: 7,
                    cause: AbortKind::CrossLabel,
                    attacker_labeled: true,
                    nack: true,
                },
            ),
            ev(6, 1, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        assert_eq!((s.begins, s.commits, s.aborts), (2, 1, 1));
        assert_eq!((s.conflicts, s.nacks), (2, 1));
        assert_eq!(s.abort_causes.get("read-after-write"), Some(&1));
        assert_eq!(s.label_matrix, [1, 0, 0, 1]);
        assert_eq!(s.hot_lines, vec![(7, 2)]);
    }

    #[test]
    fn audit_flags_commit_overlapping_concurrent_aborted_writes() {
        // Core 0 speculatively writes line 9 and aborts; core 1's
        // transaction overlaps in time, reads line 9, and commits.
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(0, 1, TraceEventKind::Begin { ts: 2 }),
            ev(1, 0, access(9, AccessOp::Store)),
            ev(2, 1, access(9, AccessOp::Load)),
            ev(
                3,
                0,
                TraceEventKind::Abort {
                    cause: AbortKind::WriteAfterRead,
                    attacker: Some(1),
                    line: Some(9),
                },
            ),
            ev(4, 1, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        assert_eq!(s.audit.len(), 1);
        let i = &s.audit[0];
        assert_eq!((i.committed_core, i.aborted_core), (1, 0));
        assert_eq!(i.lines, vec![9]);
        assert_eq!(s.audit_truncated, 0);
    }

    #[test]
    fn audit_ignores_disjoint_or_non_overlapping_transactions() {
        // The aborted write happens on a different line, and a second
        // committed transaction begins only after the abort resolved.
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(0, 1, TraceEventKind::Begin { ts: 2 }),
            ev(1, 0, access(3, AccessOp::Store)),
            ev(2, 1, access(9, AccessOp::Load)),
            ev(
                3,
                0,
                TraceEventKind::Abort {
                    cause: AbortKind::Eviction,
                    attacker: None,
                    line: Some(3),
                },
            ),
            ev(4, 1, TraceEventKind::Commit),
            // Begins strictly after the abort: no temporal overlap.
            ev(5, 1, TraceEventKind::Begin { ts: 3 }),
            ev(6, 1, access(3, AccessOp::Load)),
            ev(7, 1, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        assert!(s.audit.is_empty(), "{:?}", s.audit);
    }

    #[test]
    fn summary_json_has_audit_section_and_validates() {
        let t = sample_trace(vec![
            ev(0, 0, TraceEventKind::Begin { ts: 1 }),
            ev(1, 0, access(2, AccessOp::StoreL)),
            ev(2, 0, TraceEventKind::Commit),
        ]);
        let s = summarize_trace(&t);
        let j = summary_to_json(&s);
        assert!(j.get("speculation_audit").is_some());
        assert_eq!(j.get("begins").and_then(Json::as_u64), Some(1));
        let tj = trace_to_json(&t);
        assert_eq!(
            tj.get("events").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        // The committed schema's event subschema accepts the emitted form.
        let schema = crate::json::parse(TRACE_SCHEMA).expect("schema parses");
        let cell_schema = schema
            .get("properties")
            .and_then(|p| p.get("cells"))
            .and_then(|c| c.get("items"))
            .and_then(|i| i.get("properties"))
            .expect("cell schema present");
        let trace_schema = cell_schema.get("trace").expect("trace subschema");
        validate_schema(trace_schema, &tj).expect("trace JSON matches schema");
        let summary_schema = cell_schema.get("summary").expect("summary subschema");
        validate_schema(summary_schema, &summary_to_json(&s)).expect("summary JSON matches schema");
    }

    #[test]
    fn validator_reports_type_and_required_violations() {
        let schema = crate::json::parse(
            r#"{"type":"object","required":["a"],"properties":{"a":{"type":"integer"},
                "b":{"type":"array","items":{"type":"string"}}}}"#,
        )
        .unwrap();
        assert!(validate_schema(&schema, &crate::json::parse(r#"{"a":1}"#).unwrap()).is_ok());
        let missing = validate_schema(&schema, &crate::json::parse(r#"{"b":[]}"#).unwrap());
        assert!(missing.unwrap_err().contains("missing required key"));
        let wrong = validate_schema(
            &schema,
            &crate::json::parse(r#"{"a":1,"b":["x",2]}"#).unwrap(),
        );
        assert!(wrong.unwrap_err().contains("$.b[1]"));
    }
}
