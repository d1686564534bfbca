//! Directory state kept per L3 line (in-cache directory, Table I).

use commtm_mem::{CoreId, LabelId, SharerSet};

/// The directory's view of one line's private copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DirState {
    /// No private copies; the L3 (or memory) copy is the only one.
    #[default]
    Uncached,
    /// One or more read-only copies.
    Shared(SharerSet),
    /// One exclusive (E or M) copy.
    Exclusive(CoreId),
    /// One or more user-defined reducible copies, all with the same label
    /// (the paper's `ShU` directory state, Figs. 4 and 7).
    Reducible(LabelId, SharerSet),
}

impl DirState {
    /// All cores holding a private copy.
    pub fn sharers(&self) -> SharerSet {
        match *self {
            DirState::Uncached => SharerSet::empty(),
            DirState::Shared(s) => s,
            DirState::Exclusive(o) => SharerSet::single(o),
            DirState::Reducible(_, s) => s,
        }
    }

    /// Whether `core` holds a private copy.
    pub fn has_sharer(&self, core: CoreId) -> bool {
        self.sharers().contains(core)
    }

    /// Whether the line has no private copies.
    pub fn is_uncached(&self) -> bool {
        matches!(self, DirState::Uncached)
    }

    /// `Shared(s)`, or `Uncached` once `s` is empty.
    pub fn shared_or_uncached(s: SharerSet) -> Self {
        if s.is_empty() {
            DirState::Uncached
        } else {
            DirState::Shared(s)
        }
    }
}

/// Per-line L3 metadata: the directory entry plus a dirty bit relative to
/// main memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L3Meta {
    /// Directory entry for the line.
    pub dir: DirState,
    /// L3 copy is newer than main memory.
    pub dirty: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharers_per_state() {
        assert!(DirState::Uncached.sharers().is_empty());
        let o = CoreId::new(3);
        assert_eq!(DirState::Exclusive(o).sharers().sole_member(), Some(o));
        let s: SharerSet = [1, 2].into_iter().map(CoreId::new).collect();
        assert_eq!(DirState::Shared(s).sharers().len(), 2);
        assert!(DirState::Reducible(LabelId::new(0), s).has_sharer(CoreId::new(1)));
        assert!(!DirState::Reducible(LabelId::new(0), s).has_sharer(CoreId::new(9)));
    }

    #[test]
    fn default_is_uncached() {
        assert!(L3Meta::default().dir.is_uncached());
        assert!(!L3Meta::default().dirty);
    }
}
