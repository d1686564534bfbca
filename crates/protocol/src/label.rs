//! User-defined labels: identity values, reduction handlers, splitters.
//!
//! The paper's programming interface (Sec. III-A) asks the programmer to
//! (1) allocate a label per family of commutative operations, (2) give it an
//! identity value used to initialize fresh U-state copies, and (3) provide a
//! *reduction handler* that merges two partial lines. Gather requests
//! (Sec. IV) additionally take a *splitter* that donates part of a local
//! line to a requester.

use std::fmt;
use std::sync::Arc;

use commtm_mem::{Addr, LabelId, LineData, MAX_LABELS};

/// Memory access interface available to reduction handlers and splitters.
///
/// Handlers run non-speculatively on the shadow thread (Sec. III-B4); they
/// may read and write ordinary data (e.g. to stitch linked-list nodes
/// together or merge heaps), and those accesses are coherent and charged
/// for latency.
///
/// # Panics
///
/// Implementations panic if a handler touches a line in reducible state:
/// the paper forbids reduction handlers from triggering further reductions
/// (deadlock avoidance, Sec. III-B4), and this reproduction enforces the
/// rule at run time.
pub trait ReduceOps {
    /// Reads the word at a word-aligned address.
    fn read(&mut self, addr: Addr) -> u64;
    /// Writes the word at a word-aligned address.
    fn write(&mut self, addr: Addr, value: u64);
}

/// A reduction handler: merges the partial line `src` into `dst`.
///
/// Handlers must be commutative and associative over the label's data
/// semantics, must treat identity-valued elements as no-ops, and must not
/// touch reducible-state data through the [`ReduceOps`] interface.
pub type ReduceFn = Arc<dyn Fn(&mut dyn ReduceOps, &mut LineData, &LineData) + Send + Sync>;

/// A splitter (Sec. IV): donates part of `local` into `out`.
///
/// `out` starts as the label's identity value. `num_sharers` is the number
/// of U-state sharers of the line, which splitters typically use to
/// rebalance (the paper's bounded counter donates `ceil(value/numSharers)`).
pub type SplitFn =
    Arc<dyn Fn(&mut dyn ReduceOps, &mut LineData, &mut LineData, usize) + Send + Sync>;

/// A registered label: name, identity value, reduction handler, optional
/// splitter.
///
/// Build with [`LabelDef::new`] and register via [`LabelTable::register`].
///
/// # Example
///
/// ```
/// use commtm_protocol::{LabelDef, LabelTable};
/// use commtm_mem::LineData;
///
/// let mut table = LabelTable::new();
/// let add = table
///     .register(LabelDef::new("ADD", LineData::zeroed(), |_, dst, src| {
///         for i in 0..8 {
///             dst[i] = dst[i].wrapping_add(src[i]);
///         }
///     }))
///     .unwrap();
/// assert_eq!(table.def(add).name(), "ADD");
/// ```
#[derive(Clone)]
pub struct LabelDef {
    name: String,
    identity: LineData,
    reduce: ReduceFn,
    split: Option<SplitFn>,
}

impl LabelDef {
    /// Creates a label definition with the given identity and reduction
    /// handler.
    pub fn new(
        name: impl Into<String>,
        identity: LineData,
        reduce: impl Fn(&mut dyn ReduceOps, &mut LineData, &LineData) + Send + Sync + 'static,
    ) -> Self {
        LabelDef {
            name: name.into(),
            identity,
            reduce: Arc::new(reduce),
            split: None,
        }
    }

    /// Adds a splitter, enabling gather requests on this label.
    pub fn with_split(
        mut self,
        split: impl Fn(&mut dyn ReduceOps, &mut LineData, &mut LineData, usize) + Send + Sync + 'static,
    ) -> Self {
        self.split = Some(Arc::new(split));
        self
    }

    /// The label's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The identity value used to initialize fresh U-state copies.
    pub fn identity(&self) -> LineData {
        self.identity
    }

    /// The reduction handler.
    pub fn reduce(&self) -> ReduceFn {
        Arc::clone(&self.reduce)
    }

    /// The splitter, if gather requests are supported.
    pub fn split(&self) -> Option<SplitFn> {
        self.split.clone()
    }

    /// Whether the label has a splitter (without cloning it).
    pub fn has_split(&self) -> bool {
        self.split.is_some()
    }
}

impl fmt::Debug for LabelDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelDef")
            .field("name", &self.name)
            .field("identity", &self.identity)
            .field("has_split", &self.split.is_some())
            .finish()
    }
}

/// Error returned when registering more labels than the architecture
/// supports (the paper's hardware has 8; Sec. III-D discusses
/// link-time virtualization for larger programs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterLabelError;

impl fmt::Display for RegisterLabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "architecture supports at most {MAX_LABELS} labels")
    }
}

impl std::error::Error for RegisterLabelError {}

/// The set of registered labels.
#[derive(Clone, Debug, Default)]
pub struct LabelTable {
    defs: Vec<LabelDef>,
}

impl LabelTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a label, returning its hardware id.
    ///
    /// # Errors
    ///
    /// Fails if [`MAX_LABELS`] labels are already registered.
    pub fn register(&mut self, def: LabelDef) -> Result<LabelId, RegisterLabelError> {
        if self.defs.len() >= MAX_LABELS {
            return Err(RegisterLabelError);
        }
        self.defs.push(def);
        Ok(LabelId::new(self.defs.len() - 1))
    }

    /// Returns a label's definition.
    ///
    /// # Panics
    ///
    /// Panics if the label was never registered.
    pub fn def(&self, label: LabelId) -> &LabelDef {
        &self.defs[label.index()]
    }

    /// Number of registered labels.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no labels are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_def(name: &str) -> LabelDef {
        LabelDef::new(name, LineData::zeroed(), |_, dst, src| {
            for i in 0..8 {
                dst[i] = dst[i].wrapping_add(src[i]);
            }
        })
    }

    #[test]
    fn register_and_lookup() {
        let mut t = LabelTable::new();
        let a = t.register(add_def("ADD")).unwrap();
        let b = t.register(add_def("MIN")).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.def(a).name(), "ADD");
        assert_eq!(t.def(b).name(), "MIN");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn label_limit_enforced() {
        let mut t = LabelTable::new();
        for i in 0..MAX_LABELS {
            t.register(add_def(&format!("L{i}"))).unwrap();
        }
        assert_eq!(t.register(add_def("overflow")), Err(RegisterLabelError));
    }

    #[test]
    fn splitter_presence() {
        let plain = add_def("ADD");
        assert!(plain.split().is_none());
        let with = add_def("ADD").with_split(|_, _, _, _| {});
        assert!(with.split().is_some());
    }

    struct NopOps;
    impl ReduceOps for NopOps {
        fn read(&mut self, _: Addr) -> u64 {
            0
        }
        fn write(&mut self, _: Addr, _: u64) {}
    }

    #[test]
    fn reduce_handler_runs() {
        let def = add_def("ADD");
        let mut dst = LineData::splat(1);
        let src = LineData::splat(2);
        (def.reduce())(&mut NopOps, &mut dst, &src);
        assert_eq!(dst, LineData::splat(3));
    }
}
