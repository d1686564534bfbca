//! The workload registry: maps workload names to [`Workload`]
//! implementations.
//!
//! A [`Registry`] is the single place that knows how to turn a name plus
//! typed parameters into a [`RunReport`] — the figure scenarios, the TOML
//! loader and the CLI all resolve workloads here. The [`global`] registry
//! holds the shipped set ([`commtm_workloads::builtins`]); custom drivers
//! extend their own registry with [`Registry::register`] and run it
//! through [`crate::exec::run_scenarios_in`].
//!
//! Workloads describe their parameter surface declaratively (see
//! [`commtm_workloads::ParamSchema`]): defaults resolve per scale and
//! thread count, and overrides type-check at [`Scenario::validate`] time
//! — before a single cell runs. Defaults reproduce the sizes the original
//! per-figure benchmarks used (`scale = 500` roughly corresponds to the
//! paper's full 10M-operation runs).

use std::sync::OnceLock;

use commtm::{RunReport, Trace};
use commtm_workloads::{BaseCfg, ParamValue, Params, Workload};

use crate::json::Json;
use crate::spec::{Cell, Scenario};

/// A set of registered workloads, looked up by name.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Box<dyn Workload>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry holding every shipped workload.
    pub fn with_builtins() -> Self {
        let mut r = Registry::new();
        for w in commtm_workloads::builtins() {
            r.register(w);
        }
        r
    }

    /// Registers a workload. Later registrations shadow earlier ones of
    /// the same name, so drivers can override a builtin.
    pub fn register(&mut self, workload: Box<dyn Workload>) -> &mut Self {
        self.entries.retain(|w| w.name() != workload.name());
        self.entries.push(workload);
        self
    }

    /// Looks a workload up by name.
    pub fn resolve(&self, name: &str) -> Option<&dyn Workload> {
        self.entries
            .iter()
            .find(|w| w.name() == name)
            .map(AsRef::as_ref)
    }

    /// All registered workloads, in registration order.
    pub fn workloads(&self) -> impl Iterator<Item = &dyn Workload> {
        self.entries.iter().map(AsRef::as_ref)
    }

    /// All registered workload names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|w| w.name()).collect()
    }

    /// Fully-resolved parameters for one cell: the workload's schema
    /// defaults at the given scale and thread count, overridden by the
    /// cell's (type-checked) explicit parameters.
    ///
    /// # Errors
    ///
    /// Fails if the workload name does not resolve or an override fails
    /// the schema check.
    pub fn resolved_params(&self, cell: &Cell, scale: u64) -> Result<Params, String> {
        let def = self
            .resolve(&cell.workload)
            .ok_or_else(|| format!("unknown workload {:?}", cell.workload))?;
        def.schema()
            .resolve(scale, cell.threads, &cell.params)
            .map_err(|e| format!("workload {:?}: {e}", cell.workload))
    }

    /// Runs one cell at the given scale and tuning: resolve, run, then
    /// check the workload's oracle. Returns the report and, when the
    /// tuning enabled tracing, the machine's event trace (`None`
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Fails if the workload name does not resolve or parameters fail the
    /// schema check. Simulation failures and oracle violations panic (the
    /// sweep executor catches panics per cell).
    pub fn run_cell(
        &self,
        cell: &Cell,
        scale: u64,
        tuning: commtm::Tuning,
    ) -> Result<(RunReport, Option<Trace>), String> {
        let def = self
            .resolve(&cell.workload)
            .ok_or_else(|| format!("unknown workload {:?}", cell.workload))?;
        let params = self.resolved_params(cell, scale)?;
        let base = BaseCfg::new(cell.threads, cell.scheme)
            .with_seed(cell.seed)
            .with_tuning(tuning);
        Ok(def.run_checked(base, &params))
    }

    /// The machine-readable schema dump behind `commtm-lab workloads
    /// --json`: every workload with kind, summary, and per-parameter
    /// type/default/doc, plus bounds and choices where declared. CI
    /// diffs this against a committed golden so parameter-surface
    /// changes are reviewed deliberately.
    pub fn schema_json(&self) -> Json {
        let workloads: Vec<Json> = self
            .workloads()
            .map(|w| {
                let params: Vec<Json> = w
                    .schema()
                    .specs()
                    .iter()
                    .map(|s| {
                        let mut pairs = vec![
                            ("name", Json::Str(s.name.to_string())),
                            ("type", Json::Str(s.ty.name().to_string())),
                            ("default", Json::Str(s.default.render())),
                            ("doc", Json::Str(s.doc.to_string())),
                        ];
                        if let Some(min) = s.min {
                            pairs.push(("min", Json::U64(min)));
                        }
                        if let Some(max) = s.max {
                            pairs.push(("max", Json::U64(max)));
                        }
                        if let Some(choices) = s.choices {
                            pairs.push((
                                "choices",
                                Json::Arr(
                                    choices
                                        .iter()
                                        .map(|c| Json::Str((*c).to_string()))
                                        .collect(),
                                ),
                            ));
                        }
                        Json::obj(pairs)
                    })
                    .collect();
                Json::obj(vec![
                    ("name", Json::Str(w.name().to_string())),
                    ("kind", Json::Str(w.kind().name().to_string())),
                    ("summary", Json::Str(w.summary().to_string())),
                    ("params", Json::Arr(params)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("generator", Json::Str("commtm-lab workloads --json".into())),
            ("workloads", Json::Arr(workloads)),
        ])
    }
}

/// The process-wide registry of shipped workloads.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::with_builtins)
}

/// Looks a workload up in the [`global`] registry.
pub fn resolve(name: &str) -> Option<&'static dyn Workload> {
    global().resolve(name)
}

/// All workload names in the [`global`] registry.
pub fn names() -> Vec<&'static str> {
    global().entries.iter().map(|w| w.name()).collect()
}

/// Applies one `key=value` CLI parameter override to every workload spec
/// in `scenario` whose schema declares `key`, parsing `value` per the
/// declared type (so `--param mix=audit-heavy` and `--param gather=false`
/// both work without quoting games).
///
/// # Errors
///
/// Fails when the argument is not `key=value`, when no swept workload
/// declares the parameter (listing each workload's valid parameters),
/// when the value does not parse as the declared type, or when the
/// override would flatten specs that are *deliberately differentiated*
/// on this parameter (two or more specs carrying distinct explicit
/// values) — silently running identical configurations under distinct
/// series labels would mislabel the figure.
pub fn apply_param_override(
    registry: &Registry,
    scenario: &mut Scenario,
    kv: &str,
) -> Result<(), String> {
    let (key, raw) = kv
        .split_once('=')
        .ok_or_else(|| format!("--param wants key=value, got {kv:?}"))?;
    let (key, raw) = (key.trim(), raw.trim());
    let explicit: Vec<&ParamValue> = scenario
        .workloads
        .iter()
        .filter(|s| {
            registry
                .resolve(&s.workload)
                .is_some_and(|d| d.schema().spec(key).is_some())
        })
        .filter_map(|s| s.params.get(key))
        .collect();
    if explicit.len() >= 2 && explicit.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "--param {key}: the scenario's workload specs carry distinct explicit \
             values for {key:?} ({}); overriding all of them would run identical \
             configurations under different labels — edit the scenario instead",
            explicit
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let mut applied = false;
    for spec in &mut scenario.workloads {
        let Some(def) = registry.resolve(&spec.workload) else {
            continue; // validate() reports unknown workloads with context
        };
        let schema = def.schema();
        let Some(pspec) = schema.spec(key) else {
            continue;
        };
        let value = parse_cli_value(pspec.ty, raw).map_err(|e| {
            format!(
                "--param {key}: {e} (workload {:?} declares {key} as {})",
                spec.workload,
                pspec.ty.name()
            )
        })?;
        // Route through the schema so choice restrictions apply here, not
        // mid-sweep.
        let coerced = commtm_workloads::ParamSchema::coerce(pspec, &value)
            .map_err(|e| format!("--param {key}: {e}"))?;
        spec.params.set(key, coerced);
        applied = true;
    }
    if !applied {
        let mut msg = format!("--param {key}: no swept workload declares {key:?};");
        for spec in &scenario.workloads {
            if let Some(def) = registry.resolve(&spec.workload) {
                msg.push_str(&format!(
                    "\n  {} accepts: {}",
                    spec.workload,
                    def.schema().names().join(", ")
                ));
            }
        }
        return Err(msg);
    }
    Ok(())
}

/// Parses a CLI string as a typed parameter value.
fn parse_cli_value(ty: commtm_workloads::ParamType, raw: &str) -> Result<ParamValue, String> {
    use commtm_workloads::ParamType;
    match ty {
        ParamType::U64 => raw
            .parse::<u64>()
            .map(ParamValue::U64)
            .map_err(|_| format!("{raw:?} is not a u64")),
        ParamType::Bool => match raw {
            "true" | "1" => Ok(ParamValue::Bool(true)),
            "false" | "0" => Ok(ParamValue::Bool(false)),
            _ => Err(format!("{raw:?} is not a bool (true/false/1/0)")),
        },
        ParamType::Str => Ok(ParamValue::Str(raw.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scenario, WorkloadSpec};
    use commtm_workloads::WorkloadKind;

    /// Satellite requirement: every micro and app is resolvable by name
    /// with a non-empty schema.
    #[test]
    fn every_workload_resolves_by_name_with_a_schema() {
        let micros = ["counter", "refcount", "list", "oput", "topk", "bank"];
        let apps = ["boruvka", "vacation", "kmeans", "genome", "ssca2"];
        for name in micros {
            let def = resolve(name).unwrap_or_else(|| panic!("micro {name} must resolve"));
            assert_eq!(
                def.kind(),
                WorkloadKind::Micro,
                "{name} registered as micro"
            );
            assert!(!def.schema().specs().is_empty(), "{name} declares params");
        }
        for name in apps {
            let def = resolve(name).unwrap_or_else(|| panic!("app {name} must resolve"));
            assert_eq!(def.kind(), WorkloadKind::App, "{name} registered as app");
            assert!(!def.schema().specs().is_empty(), "{name} declares params");
        }
        assert_eq!(
            names().len(),
            micros.len() + apps.len(),
            "registry is exactly these eleven"
        );
        assert!(resolve("not-a-workload").is_none());
    }

    #[test]
    fn defaults_scale_with_the_scale_factor() {
        let counter = resolve("counter").unwrap();
        let d1 = counter.schema().resolve(1, 4, &Params::new()).unwrap();
        let d5 = counter.schema().resolve(5, 4, &Params::new()).unwrap();
        assert_eq!(d5.u64("total_incs"), 5 * d1.u64("total_incs"));
    }

    #[test]
    fn run_cell_executes_and_overrides_params() {
        let scn = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 60u64))
            .threads(&[3])
            .seeds(&[42]);
        let cells = scn.cells();
        let (report, trace) = global().run_cell(&cells[0], 1, Default::default()).unwrap();
        // 60 increments despite the scaled default of 20_000.
        assert_eq!(report.commits(), 60);
        assert!(trace.is_none(), "no trace unless the tuning asks for one");
        let (report2, _) = global().run_cell(&cells[1], 1, Default::default()).unwrap();
        assert_eq!(report2.commits(), 60);
    }

    #[test]
    fn bank_runs_with_a_string_mix_param() {
        let scn = Scenario::new("t", "t")
            .workload(
                WorkloadSpec::named("bank")
                    .param("total_ops", 80u64)
                    .param("mix", "audit-heavy"),
            )
            .threads(&[2])
            .seeds(&[7]);
        scn.validate().unwrap();
        let (report, _) = global()
            .run_cell(&scn.cells()[0], 1, Default::default())
            .unwrap();
        // 80 transfer/audit ops, plus the balance-seeding transactions.
        assert!(report.commits() >= 80);
    }

    #[test]
    fn cli_param_overrides_are_typed_and_scoped() {
        let reg = global();
        let mut scn = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("bank"))
            .workload(WorkloadSpec::named("counter"));
        // A param only bank declares: applied to bank, counter untouched.
        apply_param_override(reg, &mut scn, "mix=transfer-heavy").unwrap();
        assert_eq!(
            scn.workloads[0].params.get("mix").and_then(|v| v.as_str()),
            Some("transfer-heavy")
        );
        assert!(scn.workloads[1].params.is_empty());
        // Typed parsing: u64 params reject non-numbers.
        let err = apply_param_override(reg, &mut scn, "total_incs=lots").unwrap_err();
        assert!(err.contains("not a u64"), "{err}");
        // Choice restrictions fail at override time, not mid-sweep.
        let err = apply_param_override(reg, &mut scn, "mix=bogus").unwrap_err();
        assert!(err.contains("must be one of"), "{err}");
        // Unknown keys list each workload's valid params.
        let err = apply_param_override(reg, &mut scn, "nope=1").unwrap_err();
        assert!(err.contains("bank accepts:"), "{err}");
        assert!(err.contains("counter accepts: total_incs"), "{err}");
        // Malformed argument.
        assert!(apply_param_override(reg, &mut scn, "justakey").is_err());
    }

    #[test]
    fn float_params_are_rejected_naming_the_parameter() {
        // No workload declares a float parameter: a float from TOML or
        // `--param` fails before any cell runs, naming the parameter.
        let toml = "name = \"x\"\n[[workload]]\nname = \"counter\"\ntotal_incs = 1.5\n";
        let err = crate::toml::scenario_from_toml(toml).unwrap_err();
        assert!(err.contains("\"total_incs\""), "{err}");
        let mut scn = Scenario::new("t", "t").workload(WorkloadSpec::named("counter"));
        let err = apply_param_override(global(), &mut scn, "total_incs=1.5").unwrap_err();
        assert!(err.contains("--param total_incs:"), "{err}");
        assert!(scn.workloads[0].params.is_empty());
    }

    #[test]
    fn cli_param_overrides_refuse_to_flatten_differentiated_specs() {
        let reg = global();
        // bank.toml-shaped: three specs deliberately distinct on `mix`.
        let mut scn = Scenario::new("t", "t")
            .workload(
                WorkloadSpec::named("bank")
                    .label("a")
                    .param("mix", "transfer-heavy"),
            )
            .workload(
                WorkloadSpec::named("bank")
                    .label("b")
                    .param("mix", "audit-heavy"),
            );
        let err = apply_param_override(reg, &mut scn, "mix=mixed").unwrap_err();
        assert!(err.contains("distinct explicit values"), "{err}");
        // A parameter the specs do NOT differ on still overrides both.
        apply_param_override(reg, &mut scn, "total_ops=500").unwrap();
        assert!(scn
            .workloads
            .iter()
            .all(|w| w.params.get_u64("total_ops") == Some(500)));
        // Specs that agree explicitly may be overridden together too.
        let mut scn = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("bank").label("a").param("mix", "mixed"))
            .workload(WorkloadSpec::named("bank").label("b").param("mix", "mixed"));
        apply_param_override(reg, &mut scn, "mix=audit-heavy").unwrap();
        assert!(scn
            .workloads
            .iter()
            .all(|w| w.params.get("mix").and_then(|v| v.as_str()) == Some("audit-heavy")));
    }

    #[test]
    fn registries_are_extensible_and_shadowable() {
        use commtm_workloads::micro::counter::Counter;
        struct Twice;
        impl Workload for Twice {
            fn name(&self) -> &'static str {
                "counter" // shadows the builtin
            }
            fn kind(&self) -> WorkloadKind {
                WorkloadKind::Micro
            }
            fn summary(&self) -> &'static str {
                "test shadow"
            }
            fn schema(&self) -> commtm_workloads::ParamSchema {
                commtm_workloads::ParamSchema::new().u64("total_incs", 10, "n")
            }
            fn run(&self, base: BaseCfg, params: &Params) -> commtm_workloads::RunOutcome {
                Counter.run(base, &doubled(base.threads, params))
            }
            fn oracle(
                &self,
                base: &BaseCfg,
                params: &Params,
                run: &mut commtm_workloads::RunOutcome,
            ) {
                Counter.oracle(base, &doubled(base.threads, params), run);
            }
        }
        /// The builtin counter's parameters at twice `params`' increments.
        fn doubled(threads: usize, params: &Params) -> Params {
            let over = Params::from_iter([("total_incs", 2 * params.u64("total_incs"))]);
            Counter
                .schema()
                .resolve(1, threads, &over)
                .expect("overrides fit the schema")
        }
        let mut reg = Registry::with_builtins();
        reg.register(Box::new(Twice));
        assert_eq!(reg.names().len(), global().names().len(), "shadow, not add");
        let scn = Scenario::new("t", "t")
            .workload(WorkloadSpec::named("counter").param("total_incs", 30u64))
            .threads(&[2])
            .seeds(&[1]);
        let (report, _) = reg
            .run_cell(&scn.cells()[0], 1, Default::default())
            .unwrap();
        assert_eq!(report.commits(), 60, "the shadowing workload ran");
    }

    #[test]
    fn schema_json_names_every_workload_and_param_type() {
        let dump = global().schema_json();
        let workloads = dump.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), names().len());
        let bank = workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some("bank"))
            .expect("bank in dump");
        let params = bank.get("params").unwrap().as_arr().unwrap();
        let mix = params
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some("mix"))
            .expect("mix param");
        assert_eq!(mix.get("type").and_then(Json::as_str), Some("string"));
        assert!(mix.get("choices").is_some(), "mix lists its named values");
        let accounts = params
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some("accounts"))
            .expect("accounts param");
        assert_eq!(accounts.get("min").and_then(Json::as_u64), Some(2));
        assert!(accounts.get("max").is_none(), "accounts has no upper bound");
    }
}
