//! A minimal TOML loader for scenario files.
//!
//! Supports the subset scenario specs need: top-level `key = value`
//! pairs, `[table]` headers, `[[array-of-table]]` headers, and values
//! that are strings, integers (decimal or hex, with underscores),
//! floats, booleans, or single-line arrays of those. Comments (`#`)
//! and blank lines are ignored. The loader parses into the crate's
//! [`Json`] tree and [`scenario_from_toml`] maps that onto a
//! [`Scenario`].
//!
//! # Example
//!
//! ```
//! let text = r#"
//! name = "quick-counter"
//! title = "counter at small scale"
//! threads = [1, 2, 4]
//! schemes = ["baseline", "commtm"]
//! seeds = [0xC0FFEE]
//! scale = 1
//!
//! [tuning]
//! mem_latency = 200
//!
//! [[workload]]
//! name = "counter"
//! total_incs = 500
//! "#;
//! let scn = commtm_lab::toml::scenario_from_toml(text).unwrap();
//! assert_eq!(scn.threads, vec![1, 2, 4]);
//! assert_eq!(scn.tuning.mem_latency, Some(200));
//! assert_eq!(scn.workloads[0].params.get_u64("total_incs"), Some(500));
//! ```

use commtm::Tuning;

use crate::json::Json;
use crate::spec::{parse_scheme, ReportKind, Scenario, WorkloadSpec};

/// Parses TOML text into a JSON-shaped tree: tables become objects,
/// `[[x]]` headers become arrays of objects.
///
/// # Errors
///
/// Returns `"line N: message"` for the first syntax error.
pub fn parse_toml(text: &str) -> Result<Json, String> {
    let mut root: Vec<(String, Json)> = Vec::new();
    // Path of the table currently being filled; empty = root.
    let mut current: Vec<String> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let err = |msg: &str| format!("line {}: {}", lineno + 1, msg);
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = header.trim();
            if name.is_empty() {
                return Err(err("empty [[table]] header"));
            }
            let arr = lookup_or_insert(&mut root, name, || Json::Arr(Vec::new()));
            match arr {
                Json::Arr(items) => items.push(Json::Obj(Vec::new())),
                _ => return Err(err(&format!("{name:?} is both a value and a table array"))),
            }
            current = vec![name.to_string()];
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = header.trim();
            if name.is_empty() {
                return Err(err("empty [table] header"));
            }
            let slot = lookup_or_insert(&mut root, name, || Json::Obj(Vec::new()));
            if !matches!(slot, Json::Obj(_)) {
                return Err(err(&format!("{name:?} is both a value and a table")));
            }
            current = vec![name.to_string()];
        } else if let Some((key, value)) = line.split_once('=') {
            let key = unquote_key(key.trim()).map_err(|e| err(&e))?;
            let value = parse_value(value.trim()).map_err(|e| err(&e))?;
            let target = target_object(&mut root, &current).ok_or_else(|| err("lost table"))?;
            if target.iter().any(|(k, _)| *k == key) {
                return Err(err(&format!("duplicate key {key:?}")));
            }
            target.push((key, value));
        } else {
            return Err(err("expected `key = value` or a [table] header"));
        }
    }
    Ok(Json::Obj(root))
}

fn lookup_or_insert<'a>(
    root: &'a mut Vec<(String, Json)>,
    name: &str,
    default: impl FnOnce() -> Json,
) -> &'a mut Json {
    if let Some(i) = root.iter().position(|(k, _)| k == name) {
        return &mut root[i].1;
    }
    root.push((name.to_string(), default()));
    &mut root.last_mut().expect("just pushed").1
}

fn target_object<'a>(
    root: &'a mut Vec<(String, Json)>,
    current: &[String],
) -> Option<&'a mut Vec<(String, Json)>> {
    if current.is_empty() {
        return Some(root);
    }
    let slot = root
        .iter_mut()
        .find(|(k, _)| *k == current[0])
        .map(|(_, v)| v)?;
    match slot {
        Json::Obj(pairs) => Some(pairs),
        Json::Arr(items) => match items.last_mut() {
            Some(Json::Obj(pairs)) => Some(pairs),
            _ => None,
        },
        _ => None,
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote_key(key: &str) -> Result<String, String> {
    if key.is_empty() {
        return Err("empty key".to_string());
    }
    if let Some(inner) = key.strip_prefix('"').and_then(|k| k.strip_suffix('"')) {
        return Ok(inner.to_string());
    }
    if key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        Ok(key.to_string())
    } else {
        Err(format!("invalid bare key {key:?}"))
    }
}

fn parse_value(text: &str) -> Result<Json, String> {
    if text.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(inner) = text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        if inner.contains('"') {
            return Err("unsupported escaped string".to_string());
        }
        return Ok(Json::Str(inner.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?;
        let mut items = Vec::new();
        for part in split_array(inner)? {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part)?);
            }
        }
        return Ok(Json::Arr(items));
    }
    match text {
        "true" => return Ok(Json::Bool(true)),
        "false" => return Ok(Json::Bool(false)),
        _ => {}
    }
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        return u64::from_str_radix(hex, 16)
            .map(Json::U64)
            .map_err(|_| format!("bad hex integer {text:?}"));
    }
    if let Ok(v) = cleaned.parse::<u64>() {
        return Ok(Json::U64(v));
    }
    if let Ok(v) = cleaned.parse::<i64>() {
        return Ok(Json::I64(v));
    }
    if let Ok(v) = cleaned.parse::<f64>() {
        return Ok(Json::F64(v));
    }
    Err(format!("unrecognized value {text:?}"))
}

fn split_array(inner: &str) -> Result<Vec<&str>, String> {
    if inner.contains('[') {
        return Err("nested arrays are not supported".to_string());
    }
    let mut parts = Vec::new();
    let (mut start, mut in_string) = (0usize, false);
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string in array".to_string());
    }
    parts.push(&inner[start..]);
    Ok(parts)
}

/// Loads a [`Scenario`] from TOML text.
///
/// Recognized top-level keys: `name` (required), `title`, `claim`,
/// `threads`, `schemes`, `seeds`, `scale`, `report`; a `[tuning]` table
/// with [`Tuning`] field names; and one `[[workload]]` table per
/// workload with `name` (required), optional `label`, an optional
/// `schemes` restriction, and any parameter overrides. Parameter values
/// are typed — integers, floats, booleans and strings — and are checked
/// against the workload's declared schema during validation.
///
/// # Errors
///
/// Returns a syntax or validation message.
pub fn scenario_from_toml(text: &str) -> Result<Scenario, String> {
    let doc = parse_toml(text)?;
    const KNOWN_KEYS: &[&str] = &[
        "name", "title", "claim", "threads", "schemes", "seeds", "scale", "report", "tuning",
        "workload",
    ];
    if let Json::Obj(pairs) = &doc {
        // A misspelled grid dimension (`seed`, `thread`, `[tunings]`)
        // would otherwise silently run the default grid.
        if let Some((key, _)) = pairs
            .iter()
            .find(|(k, _)| !KNOWN_KEYS.contains(&k.as_str()))
        {
            return Err(format!(
                "unknown scenario key {key:?} (expected one of: {})",
                KNOWN_KEYS.join(", ")
            ));
        }
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("scenario file must set `name`")?;
    let title = doc.get("title").and_then(Json::as_str).unwrap_or(name);
    let mut scn = Scenario::new(name, title);
    if let Some(claim) = doc.get("claim").and_then(Json::as_str) {
        scn.claim = claim.to_string();
    }
    if let Some(threads) = doc.get("threads") {
        let arr = threads.as_arr().ok_or("`threads` must be an array")?;
        scn.threads = arr
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|t| t as usize)
                    .ok_or("`threads` entries must be integers")
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(schemes) = doc.get("schemes") {
        let arr = schemes.as_arr().ok_or("`schemes` must be an array")?;
        scn.schemes = arr
            .iter()
            .map(|v| parse_scheme(v.as_str().ok_or("`schemes` entries must be strings")?))
            .collect::<Result<_, _>>()?;
    }
    if let Some(seeds) = doc.get("seeds") {
        let arr = seeds.as_arr().ok_or("`seeds` must be an array")?;
        scn.seeds = arr
            .iter()
            .map(|v| v.as_u64().ok_or("`seeds` entries must be integers"))
            .collect::<Result<_, _>>()?;
    }
    if let Some(scale) = doc.get("scale") {
        scn.scale = scale.as_u64().ok_or("`scale` must be an integer")?;
    }
    if let Some(report) = doc.get("report") {
        scn.report = ReportKind::parse(report.as_str().ok_or("`report` must be a string")?)?;
    }
    if let Some(tuning) = doc.get("tuning") {
        scn.tuning = tuning_from_json(tuning)?;
    }
    match doc.get("workload") {
        Some(Json::Arr(entries)) => {
            for entry in entries {
                scn.workloads.push(workload_from_json(entry)?);
            }
        }
        Some(_) => return Err("`workload` must use [[workload]] headers".to_string()),
        None => {}
    }
    scn.validate()?;
    Ok(scn)
}

/// Tuning keys of the retired parallel machine engine. They are rejected
/// by name rather than as unknown, so an old scenario file says why.
const REMOVED_TUNING_KEYS: [&str; 2] = ["machine_threads", "adaptive_groups"];

fn tuning_from_json(v: &Json) -> Result<Tuning, String> {
    let pairs = match v {
        Json::Obj(pairs) => pairs,
        _ => return Err("[tuning] must be a table".to_string()),
    };
    let mut t = Tuning::default();
    for (key, value) in pairs {
        if REMOVED_TUNING_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "tuning.{key} was removed: every machine runs on the serial scheduler"
            ));
        }
        // `trace` is a boolean tuning knob (TOML `true`/`false`; 0/1
        // accepted for symmetry with the integers).
        if key == "trace" {
            let b = match value {
                Json::Bool(b) => *b,
                other => match other.as_u64() {
                    Some(n) => n != 0,
                    None => return Err(format!("tuning.{key} must be a boolean")),
                },
            };
            t.trace = Some(b);
            continue;
        }
        let int = value
            .as_u64()
            .ok_or_else(|| format!("tuning.{key} must be an integer"))?;
        match key.as_str() {
            "backoff_base" => t.backoff_base = Some(int),
            "backoff_cap" => t.backoff_cap = Some(int as u32),
            "tx_overhead" => t.tx_overhead = Some(int),
            "l2_latency" => t.l2_latency = Some(int),
            "l3_latency" => t.l3_latency = Some(int),
            "mem_latency" => t.mem_latency = Some(int),
            "reduce_cycles" => t.reduce_cycles = Some(int),
            "split_cycles" => t.split_cycles = Some(int),
            "max_cycles" => t.max_cycles = Some(int),
            other => return Err(format!("unknown tuning field {other:?}")),
        }
    }
    Ok(t)
}

fn workload_from_json(v: &Json) -> Result<WorkloadSpec, String> {
    let pairs = match v {
        Json::Obj(pairs) => pairs,
        _ => return Err("[[workload]] must be a table".to_string()),
    };
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("each [[workload]] must set `name`")?;
    let mut spec = WorkloadSpec::named(name);
    for (key, value) in pairs {
        match key.as_str() {
            "name" => {}
            "label" => {
                spec.label = Some(
                    value
                        .as_str()
                        .ok_or("workload `label` must be a string")?
                        .to_string(),
                );
            }
            "schemes" => {
                let arr = value
                    .as_arr()
                    .ok_or("workload `schemes` must be an array")?;
                spec.schemes = Some(
                    arr.iter()
                        .map(|s| {
                            parse_scheme(
                                s.as_str()
                                    .ok_or("workload `schemes` entries must be strings")?,
                            )
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            param => {
                let typed = match value {
                    Json::U64(v) => commtm_workloads::ParamValue::U64(*v),
                    Json::F64(v) => commtm_workloads::ParamValue::F64(*v),
                    Json::Bool(b) => commtm_workloads::ParamValue::Bool(*b),
                    Json::Str(s) => commtm_workloads::ParamValue::Str(s.clone()),
                    other => {
                        return Err(format!(
                            "workload param {param:?} must be an integer, float, bool or \
                             string (got {other:?})"
                        ))
                    }
                };
                spec.params.set(param, typed);
            }
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    #[test]
    fn parses_a_full_scenario() {
        let text = r##"
# A sweep over two workloads.
name = "demo"
title = "demo sweep"
claim = "CommTM wins"
threads = [1, 4]          # inline comment
schemes = ["commtm"]
seeds = [0xC0FFEE, 1_000]
scale = 2
report = "speedup"

[tuning]
mem_latency = 272
backoff_cap = 4

[[workload]]
name = "counter"
total_incs = 500

[[workload]]
name = "refcount"
label = "refcount w/o gather"
gather = 0
"##;
        let scn = scenario_from_toml(text).unwrap();
        assert_eq!(scn.name, "demo");
        assert_eq!(scn.threads, vec![1, 4]);
        assert_eq!(scn.schemes, vec![Scheme::CommTm]);
        assert_eq!(scn.seeds, vec![0xC0FFEE, 1000]);
        assert_eq!(scn.scale, 2);
        assert_eq!(scn.tuning.mem_latency, Some(272));
        assert_eq!(scn.tuning.backoff_cap, Some(4));
        assert_eq!(scn.workloads.len(), 2);
        assert_eq!(scn.workloads[0].params.get_u64("total_incs"), Some(500));
        assert_eq!(scn.workloads[1].display(), "refcount w/o gather");
        assert_eq!(scn.workloads[1].params.get_u64("gather"), Some(0));
    }

    #[test]
    fn rejects_unknown_workloads_and_tuning_fields() {
        let bad_wl = "name = \"x\"\n[[workload]]\nname = \"nope\"\n";
        assert!(scenario_from_toml(bad_wl)
            .unwrap_err()
            .contains("unknown workload"));
        let bad_tuning =
            "name = \"x\"\n[tuning]\nwarp_factor = 9\n[[workload]]\nname = \"counter\"\n";
        assert!(scenario_from_toml(bad_tuning)
            .unwrap_err()
            .contains("warp_factor"));
    }

    #[test]
    fn rejects_removed_engine_tuning_keys_by_name() {
        for line in ["machine_threads = 2", "adaptive_groups = false"] {
            let text =
                format!("name = \"x\"\n[tuning]\n{line}\n[[workload]]\nname = \"counter\"\n");
            let err = scenario_from_toml(&text).unwrap_err();
            let key = line.split(' ').next().unwrap();
            assert!(err.contains(&format!("tuning.{key} was removed")), "{err}");
        }
    }

    #[test]
    fn rejects_misspelled_grid_dimensions_and_params() {
        // `seed` (singular) would silently run one default seed.
        let bad = "name = \"x\"\nseed = [1, 2]\n[[workload]]\nname = \"counter\"\n";
        let err = scenario_from_toml(bad).unwrap_err();
        assert!(err.contains("unknown scenario key \"seed\""), "{err}");
        // A typo'd workload param would silently run the default size.
        let bad = "name = \"x\"\n[[workload]]\nname = \"counter\"\ntotal_inc = 50\n";
        let err = scenario_from_toml(bad).unwrap_err();
        assert!(err.contains("no parameter \"total_inc\""), "{err}");
        // `[tunings]` (plural) would silently apply no tuning.
        let bad = "name = \"x\"\n[tunings]\nmem_latency = 1\n[[workload]]\nname = \"counter\"\n";
        assert!(scenario_from_toml(bad)
            .unwrap_err()
            .contains("unknown scenario key \"tunings\""));
    }

    #[test]
    fn reports_line_numbers_on_syntax_errors() {
        let err = parse_toml("name = \"x\"\nthis is not toml\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(parse_toml("a = [1, 2\n")
            .unwrap_err()
            .contains("unterminated"));
        assert!(parse_toml("a = 1\na = 2\n")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn shipped_example_scenario_loads() {
        let scn = scenario_from_toml(include_str!("../scenarios/example.toml")).unwrap();
        assert_eq!(scn.name, "example");
        assert_eq!(scn.threads, vec![1, 4, 16]);
        assert_eq!(scn.tuning.mem_latency, Some(272));
        assert_eq!(scn.workloads.len(), 2);
        assert!(!scn.cells().is_empty());
    }

    #[test]
    fn strings_with_hashes_and_commas_survive() {
        let doc = parse_toml("s = \"a # not a comment\"\narr = [\"x,y\", \"z\"]\n").unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a # not a comment"));
        let arr = doc.get("arr").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("x,y"));
        assert_eq!(arr[1].as_str(), Some("z"));
    }
}
