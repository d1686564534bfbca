//! Structured sweep results: per-cell statistics, JSON export, and
//! baseline diffing for regression gating.
//!
//! Everything here is deterministic except wall-clock timings, which are
//! kept in a separate field and excluded from [`ResultSet::canonical_json`]
//! — the form the determinism tests and `commtm-lab diff` compare.

use commtm::{RunReport, WasteBucket};

use crate::json::{parse, Json};
use crate::spec::{parse_scheme, scheme_name, Cell, ParamValue, Params};

/// The per-cell statistics exported to JSON, extracted from a
/// [`RunReport`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellStats {
    /// Simulated makespan in cycles.
    pub total_cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Non-transactional cycles (summed over cores).
    pub nontx_cycles: u64,
    /// Committed transactional cycles.
    pub committed_cycles: u64,
    /// Aborted (wasted) transactional cycles.
    pub aborted_cycles: u64,
    /// Wasted cycles per Fig. 18 bucket (RaW, WaR, Gather, Others).
    pub wasted: [u64; 4],
    /// GETS directory requests.
    pub gets: u64,
    /// GETX directory requests.
    pub getx: u64,
    /// GETU directory requests.
    pub getu: u64,
    /// Gather requests to the directory.
    pub gathers: u64,
    /// Full reductions performed.
    pub reductions: u64,
    /// Splits executed for others' gathers.
    pub splits: u64,
    /// NACKs sent (transactions defended).
    pub nacks_sent: u64,
    /// Fraction of issued memory operations that were labeled.
    pub labeled_fraction: f64,
    /// Memory operations issued (plain + labeled, over all cores).
    pub total_ops: u64,
}

impl CellStats {
    /// Extracts the exported statistics from a run report.
    pub fn from_report(r: &RunReport) -> Self {
        let b = r.cycle_breakdown();
        let proto = r.proto_totals();
        let core_totals = r.core_totals();
        let mut wasted = [0u64; 4];
        for (i, (_, v)) in r.wasted_breakdown().iter().enumerate() {
            wasted[i] = *v;
        }
        CellStats {
            total_cycles: r.total_cycles,
            commits: r.commits(),
            aborts: r.aborts(),
            nontx_cycles: b.nontx,
            committed_cycles: b.committed,
            aborted_cycles: b.aborted,
            wasted,
            gets: proto.gets,
            getx: proto.getx,
            getu: proto.getu,
            gathers: proto.gathers,
            reductions: proto.reductions,
            splits: proto.splits,
            nacks_sent: proto.nacks_sent,
            labeled_fraction: r.labeled_fraction(),
            total_ops: core_totals.plain_ops + core_totals.labeled_ops,
        }
    }

    /// Total directory GETs (the Fig. 19 total).
    pub fn total_gets(&self) -> u64 {
        self.gets + self.getx + self.getu
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_cycles", Json::U64(self.total_cycles)),
            ("commits", Json::U64(self.commits)),
            ("aborts", Json::U64(self.aborts)),
            ("nontx_cycles", Json::U64(self.nontx_cycles)),
            ("committed_cycles", Json::U64(self.committed_cycles)),
            ("aborted_cycles", Json::U64(self.aborted_cycles)),
            (
                "wasted",
                Json::Arr(self.wasted.iter().map(|&v| Json::U64(v)).collect()),
            ),
            ("gets", Json::U64(self.gets)),
            ("getx", Json::U64(self.getx)),
            ("getu", Json::U64(self.getu)),
            ("gathers", Json::U64(self.gathers)),
            ("reductions", Json::U64(self.reductions)),
            ("splits", Json::U64(self.splits)),
            ("nacks_sent", Json::U64(self.nacks_sent)),
            ("labeled_fraction", Json::F64(self.labeled_fraction)),
            ("total_ops", Json::U64(self.total_ops)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let u = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats missing {k:?}"))
        };
        let wasted_arr = v
            .get("wasted")
            .and_then(Json::as_arr)
            .ok_or("stats missing \"wasted\"")?;
        let mut wasted = [0u64; 4];
        if wasted_arr.len() != wasted.len() {
            return Err(format!(
                "stats \"wasted\" has {} bucket(s), want {}",
                wasted_arr.len(),
                wasted.len()
            ));
        }
        for (slot, w) in wasted.iter_mut().zip(wasted_arr) {
            *slot = w.as_u64().ok_or("non-integer \"wasted\" bucket")?;
        }
        Ok(CellStats {
            total_cycles: u("total_cycles")?,
            commits: u("commits")?,
            aborts: u("aborts")?,
            nontx_cycles: u("nontx_cycles")?,
            committed_cycles: u("committed_cycles")?,
            aborted_cycles: u("aborted_cycles")?,
            wasted,
            gets: u("gets")?,
            getx: u("getx")?,
            getu: u("getu")?,
            gathers: u("gathers")?,
            reductions: u("reductions")?,
            splits: u("splits")?,
            nacks_sent: u("nacks_sent")?,
            labeled_fraction: v
                .get("labeled_fraction")
                .and_then(Json::as_f64)
                .ok_or("stats missing \"labeled_fraction\"")?,
            total_ops: u("total_ops")?,
        })
    }
}

/// A typed parameter value as it appears in result files: u64 params emit
/// as plain integers (byte-compatible with pre-typed result files), the
/// other types as their natural JSON forms.
fn param_to_json(v: &ParamValue) -> Json {
    match v {
        ParamValue::U64(x) => Json::U64(*x),
        ParamValue::Bool(b) => Json::Bool(*b),
        ParamValue::Str(s) => Json::Str(s.clone()),
    }
}

fn param_from_json(v: &Json) -> Result<ParamValue, String> {
    Ok(match v {
        Json::U64(x) => ParamValue::U64(*x),
        Json::Bool(b) => ParamValue::Bool(*b),
        Json::Str(s) => ParamValue::Str(s.clone()),
        other => return Err(format!("unsupported param value {other:?}")),
    })
}

/// A statistic aggregated over the seed replicas of one grid point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Arithmetic mean over seeds.
    pub mean: f64,
    /// Sample standard deviation over seeds (Bessel-corrected). A single
    /// seed yields `0.0`, not NaN — a lone replica has no measured
    /// spread, and figures must not propagate NaN into error bars.
    pub stddev: f64,
    /// Number of seed replicas aggregated.
    pub n: usize,
}

/// Aggregates raw per-seed values into a [`Summary`]; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let stddev = if n < 2 {
        0.0
    } else {
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    };
    Some(Summary { mean, stddev, n })
}

/// The label of a Fig. 18 waste bucket at a given index.
pub fn waste_bucket_name(i: usize) -> &'static str {
    match WasteBucket::ALL[i] {
        WasteBucket::ReadAfterWrite => "RaW",
        WasteBucket::WriteAfterRead => "WaR",
        WasteBucket::GatherAfterLabeled => "Gather",
        WasteBucket::Others => "Others",
    }
}

/// One executed (or failed) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The grid point this result belongs to.
    pub cell: Cell,
    /// Statistics, if the run completed.
    pub stats: Option<CellStats>,
    /// Failure description (panic message or resolve error), if any.
    pub error: Option<String>,
    /// Host wall-clock milliseconds spent on this cell (non-deterministic;
    /// excluded from canonical output).
    pub wall_ms: u64,
    /// The run's event trace, when the sweep ran with tracing on. It goes
    /// to the side-car trace file (`<name>.trace.json`), never into the
    /// results JSON, so results (and every determinism golden) are
    /// byte-identical with tracing on or off.
    pub trace: Option<commtm::Trace>,
}

impl CellResult {
    /// A stable identity string for matching cells across result sets.
    pub fn key(&self) -> String {
        format!(
            "{}[{}] t={} {} seed={:#x}",
            self.cell.label,
            self.cell.workload,
            self.cell.threads,
            scheme_name(self.cell.scheme),
            self.cell.seed
        )
    }

    /// The JSON form of one cell result — identity, parameters, then
    /// stats or error. With `timing` set, host wall-clock rides along;
    /// without it the output is canonical (two runs of the same cell emit
    /// byte-identical text).
    pub fn to_json(&self, timing: bool) -> Json {
        let c = self;
        let mut pairs = vec![
            ("workload".to_string(), Json::Str(c.cell.workload.clone())),
            ("label".to_string(), Json::Str(c.cell.label.clone())),
            ("threads".to_string(), Json::U64(c.cell.threads as u64)),
            (
                "scheme".to_string(),
                Json::Str(scheme_name(c.cell.scheme).to_string()),
            ),
            (
                "seed_index".to_string(),
                Json::U64(c.cell.seed_index as u64),
            ),
            ("seed".to_string(), Json::U64(c.cell.seed)),
        ];
        if !c.cell.params.is_empty() {
            pairs.push((
                "params".to_string(),
                Json::Obj(
                    c.cell
                        .params
                        .iter()
                        .map(|(n, v)| (n.to_string(), param_to_json(v)))
                        .collect(),
                ),
            ));
        }
        match (&c.stats, &c.error) {
            (Some(s), _) => pairs.push(("stats".to_string(), s.to_json())),
            (None, Some(e)) => pairs.push(("error".to_string(), Json::Str(e.clone()))),
            (None, None) => pairs.push(("error".to_string(), Json::Str("unknown".into()))),
        }
        if timing {
            pairs.push(("wall_ms".to_string(), Json::U64(c.wall_ms)));
        }
        Json::Obj(pairs)
    }

    /// Parses one cell result back from its JSON form ([`CellResult::to_json`]).
    /// `index` positions the cell in its result set; traces are not
    /// round-tripped (result files carry none).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(c: &Json, index: usize) -> Result<Self, String> {
        let workload = c
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("cell missing \"workload\"")?
            .to_string();
        let label = c
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or(&workload)
            .to_string();
        let mut params = Params::new();
        if let Some(Json::Obj(pairs)) = c.get("params") {
            for (n, pv) in pairs {
                params.set(n, param_from_json(pv)?);
            }
        }
        let stats = match c.get("stats") {
            Some(s) => Some(CellStats::from_json(s)?),
            None => None,
        };
        Ok(CellResult {
            cell: Cell {
                index,
                workload_index: 0,
                workload,
                label,
                params,
                threads: c
                    .get("threads")
                    .and_then(Json::as_u64)
                    .ok_or("cell missing \"threads\"")? as usize,
                scheme: parse_scheme(
                    c.get("scheme")
                        .and_then(Json::as_str)
                        .ok_or("cell missing \"scheme\"")?,
                )?,
                seed_index: c.get("seed_index").and_then(Json::as_u64).unwrap_or(0) as usize,
                seed: c
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("cell missing \"seed\"")?,
            },
            stats,
            error: c.get("error").and_then(Json::as_str).map(str::to_string),
            wall_ms: c.get("wall_ms").and_then(Json::as_u64).unwrap_or(0),
            // Traces live in the side-car trace file.
            trace: None,
        })
    }
}

/// An executed scenario: its identity, grid, and per-cell results in
/// deterministic cell order.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Scenario name.
    pub scenario: String,
    /// Scenario title.
    pub title: String,
    /// Scale factor the sweep ran at.
    pub scale: u64,
    /// Cell results, ordered by cell index.
    pub cells: Vec<CellResult>,
    /// Host wall-clock milliseconds: the sum of the cells' `wall_ms`.
    pub wall_ms: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Machine engine label, always `"serial"`. Kept for the `perfbench`
    /// harness, which builds result sets itself, and written with the
    /// timing metadata so result files keep their shape;
    /// [`ResultSet::canonical_json`] excludes it.
    pub engine: String,
}

impl ResultSet {
    /// Looks up one cell's result.
    pub fn get(
        &self,
        label: &str,
        threads: usize,
        scheme: commtm::Scheme,
        seed_index: usize,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.cell.label == label
                && c.cell.threads == threads
                && c.cell.scheme == scheme
                && c.cell.seed_index == seed_index
        })
    }

    /// The statistics of every seed replica of one (label, threads,
    /// scheme) point, in seed order; `None` if the point has no cells or
    /// any seed replica failed (a partial distribution would silently
    /// bias the aggregate).
    pub fn seed_stats(
        &self,
        label: &str,
        threads: usize,
        scheme: commtm::Scheme,
    ) -> Option<Vec<&CellStats>> {
        let stats: Option<Vec<&CellStats>> = self
            .cells
            .iter()
            .filter(|c| {
                c.cell.label == label && c.cell.threads == threads && c.cell.scheme == scheme
            })
            .map(|c| c.stats.as_ref())
            .collect();
        stats.filter(|s| !s.is_empty())
    }

    /// The raw per-seed values of one statistic for one (label, threads,
    /// scheme) point, in seed order; `None` under the same conditions as
    /// [`ResultSet::seed_stats`].
    pub fn seed_values(
        &self,
        label: &str,
        threads: usize,
        scheme: commtm::Scheme,
        f: impl Fn(&CellStats) -> f64,
    ) -> Option<Vec<f64>> {
        Some(
            self.seed_stats(label, threads, scheme)?
                .into_iter()
                .map(f)
                .collect(),
        )
    }

    /// Mean ± stddev of one statistic over seeds for one (label, threads,
    /// scheme) point; `None` under the same conditions as
    /// [`ResultSet::seed_values`].
    pub fn summary_stat(
        &self,
        label: &str,
        threads: usize,
        scheme: commtm::Scheme,
        f: impl Fn(&CellStats) -> f64,
    ) -> Option<Summary> {
        summarize(&self.seed_values(label, threads, scheme, f)?)
    }

    /// Mean total-cycles over seeds for one (label, threads, scheme)
    /// point; `None` if any seed replica failed.
    pub fn mean_cycles(&self, label: &str, threads: usize, scheme: commtm::Scheme) -> Option<f64> {
        self.summary_stat(label, threads, scheme, |s| s.total_cycles as f64)
            .map(|s| s.mean)
    }

    /// Distinct workload labels, in cell order.
    pub fn labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.cell.label.as_str()) {
                out.push(&c.cell.label);
            }
        }
        out
    }

    /// Distinct thread counts, in cell order.
    pub fn thread_counts(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.cell.threads) {
                out.push(c.cell.threads);
            }
        }
        out
    }

    /// Distinct schemes, in cell order.
    pub fn schemes(&self) -> Vec<commtm::Scheme> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !out.contains(&c.cell.scheme) {
                out.push(c.cell.scheme);
            }
        }
        out
    }

    /// Whether every cell completed.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.stats.is_some())
    }

    /// The JSON document, including timing metadata.
    pub fn to_json(&self) -> Json {
        self.json_impl(true)
    }

    /// The JSON document with every non-deterministic field removed: two
    /// runs of the same scenario produce byte-identical canonical JSON.
    pub fn canonical_json(&self) -> Json {
        self.json_impl(false)
    }

    fn json_impl(&self, timing: bool) -> Json {
        let cells: Vec<Json> = self.cells.iter().map(|c| c.to_json(timing)).collect();
        let mut pairs = vec![
            ("scenario".to_string(), Json::Str(self.scenario.clone())),
            ("title".to_string(), Json::Str(self.title.clone())),
            ("scale".to_string(), Json::U64(self.scale)),
        ];
        if timing {
            pairs.push(("wall_ms".to_string(), Json::U64(self.wall_ms)));
            pairs.push(("jobs".to_string(), Json::U64(self.jobs as u64)));
            if !self.engine.is_empty() {
                pairs.push(("engine".to_string(), Json::Str(self.engine.clone())));
            }
        }
        pairs.push(("cells".to_string(), Json::Arr(cells)));
        Json::Obj(pairs)
    }

    /// Parses a result set back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        let scenario = v
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("missing \"scenario\"")?
            .to_string();
        let title = v
            .get("title")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let scale = v.get("scale").and_then(Json::as_u64).unwrap_or(1);
        let wall_ms = v.get("wall_ms").and_then(Json::as_u64).unwrap_or(0);
        let jobs = v.get("jobs").and_then(Json::as_u64).unwrap_or(0) as usize;
        let engine = v
            .get("engine")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let mut cells = Vec::new();
        for (index, c) in v
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing \"cells\"")?
            .iter()
            .enumerate()
        {
            cells.push(CellResult::from_json(c, index)?);
        }
        Ok(ResultSet {
            scenario,
            title,
            scale,
            cells,
            wall_ms,
            jobs,
            engine,
        })
    }
}

/// One changed cell in a baseline comparison.
#[derive(Clone, Debug)]
pub struct CellDelta {
    /// The cell's identity string.
    pub key: String,
    /// Field that changed, old value, new value.
    pub field: &'static str,
    /// Baseline value.
    pub old: f64,
    /// Current value.
    pub new: f64,
}

/// The outcome of diffing a result set against a baseline.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Cells present in the baseline but not the current run.
    pub missing: Vec<String>,
    /// Cells present in the current run but not the baseline.
    pub extra: Vec<String>,
    /// Cells whose deterministic statistics moved beyond tolerance.
    pub changed: Vec<CellDelta>,
    /// Cells that failed in both sets, with different errors: identity
    /// string, baseline error, current error.
    pub errors: Vec<(String, String, String)>,
}

impl DiffReport {
    /// Whether the two sets agree (regression gate passes).
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty()
            && self.extra.is_empty()
            && self.changed.is_empty()
            && self.errors.is_empty()
    }

    /// A human-readable summary.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "baseline match: no differences\n".to_string();
        }
        let mut out = String::new();
        for m in &self.missing {
            out.push_str(&format!("missing (in baseline only): {m}\n"));
        }
        for e in &self.extra {
            out.push_str(&format!("extra (not in baseline): {e}\n"));
        }
        for c in &self.changed {
            let pct = if c.old != 0.0 {
                100.0 * (c.new - c.old) / c.old
            } else {
                f64::INFINITY
            };
            out.push_str(&format!(
                "changed: {} {}: {} -> {} ({:+.2}%)\n",
                c.key, c.field, c.old, c.new, pct
            ));
        }
        for (key, old, new) in &self.errors {
            out.push_str(&format!("changed: {key} error: {old:?} -> {new:?}\n"));
        }
        out
    }
}

/// Compares `current` against `baseline` with a relative tolerance on
/// every deterministic statistic (0.0 demands exact equality, which is
/// what the deterministic simulator should deliver for identical seeds).
pub fn diff(baseline: &ResultSet, current: &ResultSet, rel_tol: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let within = |old: f64, new: f64| {
        if old == new {
            return true;
        }
        let denom = old.abs().max(1.0);
        ((new - old).abs() / denom) <= rel_tol
    };
    for b in &baseline.cells {
        let key = b.key();
        let Some(c) = current.cells.iter().find(|c| c.key() == key) else {
            report.missing.push(key);
            continue;
        };
        let (Some(bs), Some(cs)) = (&b.stats, &c.stats) else {
            if b.stats.is_some() != c.stats.is_some() {
                report.changed.push(CellDelta {
                    key,
                    field: "ok",
                    old: b.stats.is_some() as u64 as f64,
                    new: c.stats.is_some() as u64 as f64,
                });
            } else if b.error != c.error {
                let error = |r: &CellResult| r.error.clone().unwrap_or_else(|| "unknown".into());
                report.errors.push((key, error(b), error(c)));
            }
            continue;
        };
        let fields: [(&'static str, f64, f64); 20] = [
            (
                "total_cycles",
                bs.total_cycles as f64,
                cs.total_cycles as f64,
            ),
            ("commits", bs.commits as f64, cs.commits as f64),
            ("aborts", bs.aborts as f64, cs.aborts as f64),
            (
                "nontx_cycles",
                bs.nontx_cycles as f64,
                cs.nontx_cycles as f64,
            ),
            (
                "committed_cycles",
                bs.committed_cycles as f64,
                cs.committed_cycles as f64,
            ),
            (
                "aborted_cycles",
                bs.aborted_cycles as f64,
                cs.aborted_cycles as f64,
            ),
            ("wasted_raw", bs.wasted[0] as f64, cs.wasted[0] as f64),
            ("wasted_war", bs.wasted[1] as f64, cs.wasted[1] as f64),
            ("wasted_gather", bs.wasted[2] as f64, cs.wasted[2] as f64),
            ("wasted_others", bs.wasted[3] as f64, cs.wasted[3] as f64),
            ("gets", bs.gets as f64, cs.gets as f64),
            ("getx", bs.getx as f64, cs.getx as f64),
            ("getu", bs.getu as f64, cs.getu as f64),
            ("gathers", bs.gathers as f64, cs.gathers as f64),
            ("reductions", bs.reductions as f64, cs.reductions as f64),
            ("splits", bs.splits as f64, cs.splits as f64),
            ("nacks_sent", bs.nacks_sent as f64, cs.nacks_sent as f64),
            ("total_gets", bs.total_gets() as f64, cs.total_gets() as f64),
            ("labeled_fraction", bs.labeled_fraction, cs.labeled_fraction),
            ("total_ops", bs.total_ops as f64, cs.total_ops as f64),
        ];
        for (field, old, new) in fields {
            if !within(old, new) {
                report.changed.push(CellDelta {
                    key: key.clone(),
                    field,
                    old,
                    new,
                });
            }
        }
    }
    for c in &current.cells {
        let key = c.key();
        if !baseline.cells.iter().any(|b| b.key() == key) {
            report.extra.push(key);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    fn sample_set() -> ResultSet {
        let cell = Cell {
            index: 0,
            workload_index: 0,
            workload: "counter".into(),
            label: "counter".into(),
            params: {
                let mut p = Params::new();
                p.set("total_incs", 60u64);
                p
            },
            threads: 4,
            scheme: Scheme::CommTm,
            seed_index: 0,
            seed: 0xC0FFEE,
        };
        let stats = CellStats {
            total_cycles: 1234,
            commits: 60,
            labeled_fraction: 0.5,
            wasted: [1, 2, 3, 4],
            ..CellStats::default()
        };
        ResultSet {
            scenario: "t".into(),
            title: "t".into(),
            scale: 1,
            cells: vec![CellResult {
                cell,
                stats: Some(stats),
                error: None,
                wall_ms: 99,
                trace: None,
            }],
            wall_ms: 100,
            jobs: 4,
            engine: "serial".into(),
        }
    }

    #[test]
    fn json_roundtrips() {
        let set = sample_set();
        let text = set.to_json().pretty();
        let back = ResultSet::from_json_str(&text).unwrap();
        assert_eq!(back.cells[0].stats, set.cells[0].stats);
        assert_eq!(back.cells[0].cell.params.get_u64("total_incs"), Some(60));
        assert_eq!(back.cells[0].wall_ms, 99);
        assert_eq!(back.scenario, "t");
    }

    #[test]
    fn canonical_json_excludes_timing() {
        let mut a = sample_set();
        let mut b = sample_set();
        a.wall_ms = 1;
        b.wall_ms = 100_000;
        a.cells[0].wall_ms = 5;
        b.cells[0].wall_ms = 777;
        assert_eq!(a.canonical_json().pretty(), b.canonical_json().pretty());
        assert_ne!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn diff_detects_changes_and_tolerates_within_bounds() {
        let a = sample_set();
        let mut b = sample_set();
        assert!(diff(&a, &b, 0.0).is_clean());
        b.cells[0].stats.as_mut().unwrap().total_cycles = 1236;
        let d = diff(&a, &b, 0.0);
        assert_eq!(d.changed.len(), 1);
        assert_eq!(d.changed[0].field, "total_cycles");
        assert!(
            diff(&a, &b, 0.01).is_clean(),
            "0.16% move is inside 1% tolerance"
        );
        // Every exported statistic is gated, not just the headline ones.
        let mut c = sample_set();
        c.cells[0].stats.as_mut().unwrap().nontx_cycles = 999_999;
        c.cells[0].stats.as_mut().unwrap().splits = 50;
        c.cells[0].stats.as_mut().unwrap().wasted[2] = 77;
        let d = diff(&a, &c, 0.0);
        let fields: Vec<&str> = d.changed.iter().map(|x| x.field).collect();
        assert!(fields.contains(&"nontx_cycles"), "{fields:?}");
        assert!(fields.contains(&"splits"), "{fields:?}");
        assert!(fields.contains(&"wasted_gather"), "{fields:?}");
        b.cells[0].cell.threads = 8;
        let d = diff(&a, &b, 0.0);
        assert_eq!(d.missing.len(), 1);
        assert_eq!(d.extra.len(), 1);
    }

    #[test]
    fn diff_catches_a_total_ops_change_alone() {
        let a = sample_set();
        let mut b = sample_set();
        b.cells[0].stats.as_mut().unwrap().total_ops += 1;
        let d = diff(&a, &b, 0.0);
        let fields: Vec<&str> = d.changed.iter().map(|x| x.field).collect();
        assert_eq!(fields, ["total_ops"]);
    }

    #[test]
    fn diff_reports_a_changed_failure_cause() {
        let mut a = sample_set();
        a.cells[0].stats = None;
        a.cells[0].error = Some("CycleLimit { core: 1, clock: 1005 }".into());
        let mut b = a.clone();
        assert!(diff(&a, &b, 0.0).is_clean());
        b.cells[0].error = Some("CycleLimit { core: 0, clock: 2047 }".into());
        // No tolerance forgives a different failure.
        let d = diff(&a, &b, 1.0);
        assert!(!d.is_clean());
        assert_eq!(
            d.render(),
            "changed: counter[counter] t=4 commtm seed=0xc0ffee error: \
             \"CycleLimit { core: 1, clock: 1005 }\" -> \"CycleLimit { core: 0, clock: 2047 }\"\n"
        );
    }

    #[test]
    fn malformed_stats_are_rejected_naming_the_field() {
        let text = sample_set().to_json().compact();
        for (from, to, want) in [
            ("[1,2,3,4]", "[1,2]", "\"wasted\" has 2 bucket(s), want 4"),
            (
                "[1,2,3,4]",
                "[1,2,3,4,5]",
                "\"wasted\" has 5 bucket(s), want 4",
            ),
            ("[1,2,3,4]", "[1,2,3,-4]", "non-integer \"wasted\" bucket"),
            (",\"total_ops\":0", "", "stats missing \"total_ops\""),
        ] {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text, "{from} is in the sample");
            let err = ResultSet::from_json_str(&edited).expect_err("malformed stats");
            assert!(err.contains(want), "{to}: {err}");
        }
    }

    #[test]
    fn summarize_handles_single_and_multi_seed() {
        // Degenerate single-seed case: stddev is 0, not NaN.
        let one = summarize(&[42.0]).unwrap();
        assert_eq!(
            one,
            Summary {
                mean: 42.0,
                stddev: 0.0,
                n: 1
            }
        );
        assert!(!one.stddev.is_nan());
        // Known sample stddev: mean 4, sample variance ((-2)^2+0+2^2)/2 = 4.
        let three = summarize(&[2.0, 4.0, 6.0]).unwrap();
        assert_eq!(three.mean, 4.0);
        assert_eq!(three.stddev, 2.0);
        assert_eq!(three.n, 3);
        // Identical replicas have zero spread.
        assert_eq!(summarize(&[7.0, 7.0, 7.0]).unwrap().stddev, 0.0);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn summary_stat_aggregates_over_seed_replicas() {
        let mut set = sample_set();
        // Add a second seed replica of the same grid point with different
        // cycle counts.
        let mut second = set.cells[0].clone();
        second.cell.seed_index = 1;
        second.cell.seed = 0x5EED;
        second.stats.as_mut().unwrap().total_cycles = 1334;
        set.cells.push(second);
        let s = set
            .summary_stat("counter", 4, Scheme::CommTm, |s| s.total_cycles as f64)
            .unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 1284.0);
        assert!(
            (s.stddev - 70.710678).abs() < 1e-5,
            "sample stddev of {{1234, 1334}}"
        );
        // A single-seed point reports zero spread.
        let one = set
            .summary_stat("counter", 4, Scheme::CommTm, |s| s.commits as f64)
            .map(|s| s.stddev);
        assert_eq!(one, Some(0.0));
        // A failed replica poisons the whole point rather than biasing it.
        set.cells[1].stats = None;
        assert!(set
            .summary_stat("counter", 4, Scheme::CommTm, |s| s.total_cycles as f64)
            .is_none());
        assert!(set
            .seed_values("missing", 4, Scheme::CommTm, |s| s.commits as f64)
            .is_none());
    }
}
