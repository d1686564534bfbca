//! Typed workload parameters and the declarative parameter schema.
//!
//! A workload declares its parameter surface as a [`ParamSchema`]: one
//! [`ParamSpec`] per parameter with a type, a default (possibly scale- or
//! thread-dependent), and a one-line doc string. Scenario layers resolve
//! overrides against the schema *before* any cell runs, so an unknown
//! name or an ill-typed value fails at validation time with a
//! schema-derived message — never as a panic in the middle of a sweep.

use std::fmt;

/// A typed parameter value: integer sizes, switches, and named mixes.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// A non-negative integer (sizes, counts, percentages).
    U64(u64),
    /// A boolean switch.
    Bool(bool),
    /// A string (named mixes, variant selectors).
    Str(String),
}

impl ParamValue {
    /// The value's [`ParamType`].
    pub fn ty(&self) -> ParamType {
        match self {
            ParamValue::U64(_) => ParamType::U64,
            ParamValue::Bool(_) => ParamType::Bool,
            ParamValue::Str(_) => ParamType::Str,
        }
    }

    /// The value as a u64, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ParamValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::U64(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}

impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// The declared type of a parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamType {
    /// Non-negative integer.
    U64,
    /// Boolean switch (accepts `0`/`1` integers for TOML back-compat).
    Bool,
    /// String.
    Str,
}

impl ParamType {
    /// The spelling used in schema dumps and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ParamType::U64 => "u64",
            ParamType::Bool => "bool",
            ParamType::Str => "string",
        }
    }
}

/// Named typed parameters for one workload.
///
/// Later entries shadow earlier ones, so overrides are "set wins".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Params(Vec<(String, ParamValue)>);

impl Params {
    /// An empty parameter set.
    pub fn new() -> Self {
        Params(Vec::new())
    }

    /// Sets (or shadows) a parameter.
    pub fn set(&mut self, name: &str, value: impl Into<ParamValue>) -> &mut Self {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_string(), value.into()));
        self
    }

    /// Looks a parameter up.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks a u64 parameter up.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        self.get(name).and_then(ParamValue::as_u64)
    }

    /// A required u64 parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is absent or not a u64. Workload runners
    /// only see parameter sets already resolved against their schema
    /// (see [`crate::ParamSchema::resolve`]), which makes this
    /// unreachable for declared parameters — reaching it means the
    /// workload read a name its schema does not declare.
    pub fn u64(&self, name: &str) -> u64 {
        self.get_u64(name)
            .unwrap_or_else(|| panic!("workload read undeclared or non-u64 parameter {name:?}"))
    }

    /// A required bool parameter.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Params::u64`].
    pub fn flag(&self, name: &str) -> bool {
        self.get(name)
            .and_then(ParamValue::as_bool)
            .unwrap_or_else(|| panic!("workload read undeclared or non-bool parameter {name:?}"))
    }

    /// A required string parameter.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Params::u64`].
    pub fn text(&self, name: &str) -> &str {
        self.get(name)
            .and_then(ParamValue::as_str)
            .unwrap_or_else(|| panic!("workload read undeclared or non-string parameter {name:?}"))
    }

    /// Iterates parameters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Whether no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Merges `overrides` on top of `self` (overrides win).
    pub fn overridden_by(&self, overrides: &Params) -> Params {
        let mut out = self.clone();
        for (n, v) in overrides.iter() {
            out.set(n, v.clone());
        }
        out
    }
}

impl<V: Into<ParamValue>> FromIterator<(&'static str, V)> for Params {
    fn from_iter<I: IntoIterator<Item = (&'static str, V)>>(iter: I) -> Self {
        let mut p = Params::new();
        for (n, v) in iter {
            p.set(n, v);
        }
        p
    }
}

/// How a parameter's default derives from the sweep's scale factor and
/// thread count.
#[derive(Clone, Debug)]
pub enum ParamDefault {
    /// A fixed value, independent of scale and threads.
    Fixed(ParamValue),
    /// `base × scale` (operation counts; `scale = 500` ≈ the paper's
    /// full 10M-operation runs).
    PerScale(u64),
    /// `base × threads` (per-thread footprints, e.g. warm-start
    /// populations).
    PerThread(u64),
    /// An arbitrary function of (scale, threads) — the escape hatch for
    /// defaults that are neither fixed nor a plain multiple.
    Computed(fn(scale: u64, threads: usize) -> ParamValue),
}

impl ParamDefault {
    /// The default value at a given scale and thread count.
    pub fn resolve(&self, scale: u64, threads: usize) -> ParamValue {
        match self {
            ParamDefault::Fixed(v) => v.clone(),
            ParamDefault::PerScale(base) => ParamValue::U64(base * scale),
            ParamDefault::PerThread(base) => ParamValue::U64(base * threads as u64),
            ParamDefault::Computed(f) => f(scale, threads),
        }
    }

    /// A short human-readable rendering (`20000×scale`, `48×threads`,
    /// `"mixed"`, `f(scale, threads)`).
    pub fn render(&self) -> String {
        match self {
            ParamDefault::Fixed(v) => v.to_string(),
            ParamDefault::PerScale(base) => format!("{base}×scale"),
            ParamDefault::PerThread(base) => format!("{base}×threads"),
            ParamDefault::Computed(_) => "f(scale, threads)".to_string(),
        }
    }
}

/// One declared parameter: name, type, default, and a one-line doc.
#[derive(Clone, Debug)]
pub struct ParamSpec {
    /// Parameter name as spelled in TOML and `--param` overrides.
    pub name: &'static str,
    /// Declared type; overrides must coerce to it.
    pub ty: ParamType,
    /// Default at a given scale and thread count.
    pub default: ParamDefault,
    /// One-line description shown by `commtm-lab workloads`.
    pub doc: &'static str,
    /// For string parameters: the closed set of accepted values (named
    /// mixes). `None` accepts any string.
    pub choices: Option<&'static [&'static str]>,
    /// For u64 parameters: the smallest accepted value.
    pub min: Option<u64>,
    /// For u64 parameters: the largest accepted value.
    pub max: Option<u64>,
}

/// A workload's declared parameter surface, in declaration order.
#[derive(Clone, Debug, Default)]
pub struct ParamSchema(Vec<ParamSpec>);

impl ParamSchema {
    /// An empty schema.
    pub fn new() -> Self {
        ParamSchema(Vec::new())
    }

    fn push(
        mut self,
        name: &'static str,
        ty: ParamType,
        default: ParamDefault,
        doc: &'static str,
    ) -> Self {
        debug_assert!(
            !self.0.iter().any(|s| s.name == name),
            "duplicate parameter {name:?}"
        );
        self.0.push(ParamSpec {
            name,
            ty,
            default,
            doc,
            choices: None,
            min: None,
            max: None,
        });
        self
    }

    /// The most recently declared parameter.
    fn last(&mut self) -> &mut ParamSpec {
        self.0.last_mut().expect("a declared parameter")
    }

    /// Declares a fixed-default u64 parameter.
    pub fn u64(self, name: &'static str, default: u64, doc: &'static str) -> Self {
        let default = ParamDefault::Fixed(ParamValue::U64(default));
        self.push(name, ParamType::U64, default, doc)
    }

    /// Declares a u64 parameter whose default is `base × scale`.
    pub fn u64_per_scale(self, name: &'static str, base: u64, doc: &'static str) -> Self {
        self.push(name, ParamType::U64, ParamDefault::PerScale(base), doc)
    }

    /// Declares a u64 parameter whose default is `base × threads`.
    pub fn u64_per_thread(self, name: &'static str, base: u64, doc: &'static str) -> Self {
        self.push(name, ParamType::U64, ParamDefault::PerThread(base), doc)
    }

    /// Declares a u64 parameter with a computed default.
    pub fn u64_computed(
        self,
        name: &'static str,
        default: fn(u64, usize) -> ParamValue,
        doc: &'static str,
    ) -> Self {
        self.push(name, ParamType::U64, ParamDefault::Computed(default), doc)
    }

    /// Declares a bool parameter.
    pub fn flag(self, name: &'static str, default: bool, doc: &'static str) -> Self {
        let default = ParamDefault::Fixed(ParamValue::Bool(default));
        self.push(name, ParamType::Bool, default, doc)
    }

    /// Declares a string parameter.
    pub fn text(self, name: &'static str, default: &'static str, doc: &'static str) -> Self {
        let default = ParamDefault::Fixed(ParamValue::Str(default.to_string()));
        self.push(name, ParamType::Str, default, doc)
    }

    /// Declares a string parameter restricted to a closed set of named
    /// values (e.g. a workload mix). Values outside the set are rejected
    /// at validation time.
    pub fn text_choices(
        self,
        name: &'static str,
        default: &'static str,
        choices: &'static [&'static str],
        doc: &'static str,
    ) -> Self {
        debug_assert!(choices.contains(&default), "default must be a choice");
        let mut schema = self.text(name, default, doc);
        schema.last().choices = Some(choices);
        schema
    }

    /// Bounds the last declared parameter, a u64, from below: smaller
    /// values are rejected at validation time.
    pub fn at_least(mut self, min: u64) -> Self {
        let spec = self.last();
        debug_assert!(spec.ty == ParamType::U64, "only u64 parameters take bounds");
        spec.min = Some(min);
        self
    }

    /// Bounds the last declared parameter, a u64, from above: larger
    /// values are rejected at validation time.
    pub fn at_most(mut self, max: u64) -> Self {
        let spec = self.last();
        debug_assert!(spec.ty == ParamType::U64, "only u64 parameters take bounds");
        spec.max = Some(max);
        self
    }

    /// The declared parameters, in declaration order.
    pub fn specs(&self) -> &[ParamSpec] {
        &self.0
    }

    /// Looks a declared parameter up by name.
    pub fn spec(&self, name: &str) -> Option<&ParamSpec> {
        self.0.iter().find(|s| s.name == name)
    }

    /// Declared parameter names, in declaration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|s| s.name).collect()
    }

    /// Coerces `value` to `spec`'s declared type.
    ///
    /// The one coercion is deliberately narrow: `0`/`1` coerce to bool
    /// (existing scenarios spell switches like `gather = 0`). Everything
    /// else is a type error. A u64 outside the declared bounds is an
    /// error too.
    ///
    /// # Errors
    ///
    /// Returns a message naming the parameter, the declared type or
    /// bound, and the offending value.
    pub fn coerce(spec: &ParamSpec, value: &ParamValue) -> Result<ParamValue, String> {
        let ok = match (spec.ty, value) {
            (ParamType::U64, ParamValue::U64(_))
            | (ParamType::Bool, ParamValue::Bool(_))
            | (ParamType::Str, ParamValue::Str(_)) => value.clone(),
            (ParamType::Bool, ParamValue::U64(v @ (0 | 1))) => ParamValue::Bool(*v == 1),
            _ => {
                return Err(format!(
                    "parameter {:?} must be {} (got {})",
                    spec.name,
                    spec.ty.name(),
                    value
                ))
            }
        };
        if let ParamValue::U64(v) = ok {
            if let Some(min) = spec.min.filter(|&min| v < min) {
                return Err(format!(
                    "parameter {:?} must be at least {min} (got {v})",
                    spec.name
                ));
            }
            if let Some(max) = spec.max.filter(|&max| v > max) {
                return Err(format!(
                    "parameter {:?} must be at most {max} (got {v})",
                    spec.name
                ));
            }
        }
        if let (Some(choices), ParamValue::Str(s)) = (spec.choices, &ok) {
            if !choices.contains(&s.as_str()) {
                return Err(format!(
                    "parameter {:?} must be one of: {} (got {:?})",
                    spec.name,
                    choices.join(", "),
                    s
                ));
            }
        }
        Ok(ok)
    }

    /// Checks `overrides` against the schema: every name must be
    /// declared and every value must coerce to its declared type.
    ///
    /// # Errors
    ///
    /// Unknown names are reported with the nearest declared name (typo
    /// repair) and the full declared list; type mismatches with the
    /// declared type.
    pub fn check(&self, overrides: &Params) -> Result<(), String> {
        for (name, value) in overrides.iter() {
            let Some(spec) = self.spec(name) else {
                let mut msg = format!("no parameter {name:?}");
                if let Some(near) = nearest(name, &self.names()) {
                    msg.push_str(&format!(" (did you mean {near:?}?)"));
                }
                msg.push_str(&format!("; declared: {}", self.names().join(", ")));
                return Err(msg);
            };
            Self::coerce(spec, value)?;
        }
        Ok(())
    }

    /// Fully resolves a parameter set: schema defaults at the given scale
    /// and thread count, overridden by `overrides` (coerced to their
    /// declared types).
    ///
    /// # Errors
    ///
    /// Returns the first [`ParamSchema::check`] error.
    pub fn resolve(
        &self,
        scale: u64,
        threads: usize,
        overrides: &Params,
    ) -> Result<Params, String> {
        self.check(overrides)?;
        let mut out = Params::new();
        for spec in &self.0 {
            let value = match overrides.get(spec.name) {
                Some(v) => Self::coerce(spec, v)?,
                None => spec.default.resolve(scale, threads),
            };
            out.set(spec.name, value);
        }
        Ok(out)
    }
}

/// The declared name closest to `name` by edit distance, if any is close
/// enough to plausibly be a typo (distance ≤ half the name's length).
pub fn nearest<'a>(name: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let best = candidates
        .iter()
        .map(|c| (edit_distance(name, c), *c))
        .min_by_key(|&(d, _)| d)?;
    (best.0 <= name.len().max(3) / 2 + 1).then_some(best.1)
}

/// Classic Levenshtein distance (small strings; O(n·m) is fine).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale("total_ops", 8_000, "total operations")
            .flag("gather", true, "issue gather requests")
            .text("mix", "mixed", "operation mix")
            .u64("objects", 16, "reference-counted objects")
            .u64_per_thread("warm_start", 48, "pre-populated elements")
    }

    #[test]
    fn defaults_resolve_with_scale_and_threads() {
        let p = schema().resolve(3, 4, &Params::new()).unwrap();
        assert_eq!(p.u64("total_ops"), 24_000);
        assert!(p.flag("gather"));
        assert_eq!(p.text("mix"), "mixed");
        assert_eq!(p.u64("objects"), 16);
        assert_eq!(p.u64("warm_start"), 192);
    }

    #[test]
    fn overrides_win_and_coerce() {
        let mut over = Params::new();
        over.set("gather", 0u64); // u64 0 coerces to bool false
        over.set("objects", 2u64);
        over.set("mix", "audit-heavy");
        let p = schema().resolve(1, 1, &over).unwrap();
        assert!(!p.flag("gather"));
        assert_eq!(p.u64("objects"), 2);
        assert_eq!(p.text("mix"), "audit-heavy");
    }

    #[test]
    fn bounds_reject_out_of_range_values_naming_the_parameter() {
        let bounded = ParamSchema::new()
            .u64("accounts", 16, "accounts")
            .at_least(2)
            .u64("d", 4, "dimensions")
            .at_most(16);
        for (name, value, msg) in [
            (
                "accounts",
                1,
                "parameter \"accounts\" must be at least 2 (got 1)",
            ),
            ("d", 17, "parameter \"d\" must be at most 16 (got 17)"),
        ] {
            let mut over = Params::new();
            over.set(name, value);
            assert_eq!(bounded.check(&over).unwrap_err(), msg);
        }
        let mut over = Params::new();
        over.set("accounts", 2u64);
        over.set("d", 16u64);
        let p = bounded.resolve(1, 1, &over).unwrap();
        assert_eq!((p.u64("accounts"), p.u64("d")), (2, 16));
    }

    #[test]
    fn unknown_names_suggest_the_nearest_param() {
        let mut over = Params::new();
        over.set("total_op", 5u64);
        let err = schema().check(&over).unwrap_err();
        assert!(err.contains("no parameter \"total_op\""), "{err}");
        assert!(err.contains("did you mean \"total_ops\"?"), "{err}");
        assert!(err.contains("declared: total_ops"), "{err}");
        // A name nothing like any declared one gets the list, no guess.
        let mut over = Params::new();
        over.set("zzzzzzzzzzzz", 5u64);
        let err = schema().check(&over).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn type_errors_name_the_declared_type() {
        let mut over = Params::new();
        over.set("total_ops", "lots");
        let err = schema().check(&over).unwrap_err();
        assert!(err.contains("\"total_ops\" must be u64"), "{err}");
        let mut over = Params::new();
        over.set("gather", 2u64); // only 0/1 coerce to bool
        assert!(schema().check(&over).is_err());
        let mut over = Params::new();
        over.set("mix", 3u64);
        let err = schema().check(&over).unwrap_err();
        assert!(err.contains("must be string"), "{err}");
    }

    #[test]
    fn params_shadow_and_merge() {
        let mut base = Params::new();
        base.set("k", 100u64).set("n", 5u64);
        let mut over = Params::new();
        over.set("k", 7u64);
        let merged = base.overridden_by(&over);
        assert_eq!(merged.get_u64("k"), Some(7));
        assert_eq!(merged.get_u64("n"), Some(5));
        assert_eq!(merged.get("missing"), None);
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("total_inc", "total_incs"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(
            nearest("total_inc", &["total_incs", "k"]),
            Some("total_incs")
        );
    }

    #[test]
    fn display_and_render_are_stable() {
        assert_eq!(ParamValue::U64(7).to_string(), "7");
        assert_eq!(ParamValue::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(ParamDefault::PerScale(100).render(), "100×scale");
        assert_eq!(ParamDefault::PerThread(2).render(), "2×threads");
    }
}
