//! Request, conflict, and transaction-visibility types shared between the
//! protocol engine and the HTM layer.

use std::fmt;

use commtm_cache::SpecBits;
use commtm_mem::{CoreId, LabelId};

/// One memory operation issued by a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOp {
    /// Conventional load.
    Load,
    /// Conventional store of a word value.
    Store(u64),
    /// Labeled load (`load[L]`, Sec. III-A).
    LoadL(LabelId),
    /// Labeled store (`store[L]`).
    StoreL(LabelId, u64),
    /// Gather request (`load_gather[L]`, Sec. IV).
    Gather(LabelId),
}

impl MemOp {
    /// The label carried by the operation, if any.
    pub fn label(&self) -> Option<LabelId> {
        match *self {
            MemOp::LoadL(l) | MemOp::StoreL(l, _) | MemOp::Gather(l) => Some(l),
            MemOp::Load | MemOp::Store(_) => None,
        }
    }

    /// Whether the operation is a labeled access (including gathers).
    pub fn is_labeled(&self) -> bool {
        self.label().is_some()
    }

    /// Whether the operation writes data.
    pub fn is_store(&self) -> bool {
        matches!(self, MemOp::Store(_) | MemOp::StoreL(..))
    }
}

/// Coarse classification of a request for conflict bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqClass {
    /// Conventional read (GETS).
    PlainRead,
    /// Conventional write (GETX).
    PlainWrite,
    /// Labeled access (GETU).
    Labeled,
    /// Split request on behalf of a gather.
    Split,
    /// Inclusion-driven recall (LLC eviction) or other non-request cause.
    Recall,
}

/// Why a transaction aborted. Mirrors the paper's Fig. 18 taxonomy via
/// [`AbortKind::bucket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortKind {
    /// A read requested data this transaction wrote (or updated with
    /// labeled operations).
    ReadAfterWrite,
    /// A write requested data this transaction read.
    WriteAfterRead,
    /// A write requested data this transaction wrote.
    WriteAfterWrite,
    /// A gather's split request hit data this transaction accessed with
    /// labeled operations.
    GatherAfterLabeled,
    /// A labeled request with a different label forced a reduction of data
    /// this transaction touched.
    CrossLabel,
    /// The transaction issued an unlabeled access to data it had itself
    /// speculatively modified with labeled operations (Sec. III-B4); it
    /// restarts with labels demoted.
    SelfDemote,
    /// Speculatively-accessed data was evicted from the private hierarchy.
    Eviction,
    /// The inclusive L3 evicted a line the transaction had accessed.
    LlcEviction,
    /// A U-state eviction forwarded data onto a line the transaction
    /// touched (Sec. III-B5).
    UEvictionForward,
}

/// The paper's Fig. 18 wasted-cycle buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WasteBucket {
    /// "Read after Write" dependency violations.
    ReadAfterWrite,
    /// "Write after Read" dependency violations.
    WriteAfterRead,
    /// "Gather after Labeled access" conflicts.
    GatherAfterLabeled,
    /// Everything else (WaW, cross-label reductions, evictions, demotions).
    Others,
}

impl WasteBucket {
    /// All buckets, in the paper's legend order.
    pub const ALL: [WasteBucket; 4] = [
        WasteBucket::ReadAfterWrite,
        WasteBucket::WriteAfterRead,
        WasteBucket::GatherAfterLabeled,
        WasteBucket::Others,
    ];

    /// Display name matching the paper's Fig. 18 legend.
    pub fn name(self) -> &'static str {
        match self {
            WasteBucket::ReadAfterWrite => "Read after Write",
            WasteBucket::WriteAfterRead => "Write after Read",
            WasteBucket::GatherAfterLabeled => "Gather after Labeled access",
            WasteBucket::Others => "Others",
        }
    }
}

impl AbortKind {
    /// Maps the detailed cause to the paper's Fig. 18 bucket.
    pub fn bucket(self) -> WasteBucket {
        match self {
            AbortKind::ReadAfterWrite => WasteBucket::ReadAfterWrite,
            AbortKind::WriteAfterRead => WasteBucket::WriteAfterRead,
            AbortKind::GatherAfterLabeled => WasteBucket::GatherAfterLabeled,
            AbortKind::WriteAfterWrite
            | AbortKind::CrossLabel
            | AbortKind::SelfDemote
            | AbortKind::Eviction
            | AbortKind::LlcEviction
            | AbortKind::UEvictionForward => WasteBucket::Others,
        }
    }
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Classifies a conflict between a request and the victim's speculative
/// footprint on the conflicting line. The same classification is charged to
/// whichever side ends up aborting (victim on comply, requester on NACK),
/// matching how the paper attributes wasted cycles to dependency types.
pub fn classify_conflict(req: ReqClass, victim: SpecBits) -> AbortKind {
    match req {
        ReqClass::PlainRead => AbortKind::ReadAfterWrite,
        ReqClass::PlainWrite => {
            if victim.written || victim.labeled {
                AbortKind::WriteAfterWrite
            } else {
                AbortKind::WriteAfterRead
            }
        }
        ReqClass::Labeled => {
            if victim.labeled {
                AbortKind::CrossLabel
            } else {
                // A commutative update acts as a write against plain
                // footprints.
                if victim.written {
                    AbortKind::WriteAfterWrite
                } else {
                    AbortKind::WriteAfterRead
                }
            }
        }
        ReqClass::Split => AbortKind::GatherAfterLabeled,
        ReqClass::Recall => AbortKind::LlcEviction,
    }
}

/// Outcome of timestamp arbitration for a conflicting request
/// (Sec. III-B3: the earlier transaction wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arbitration {
    /// The victim honors the request and aborts.
    VictimAborts,
    /// The victim NACKs; the requester must abort.
    Nack,
}

/// Decides a conflict by timestamp. `req_ts` is `None` for non-speculative
/// requests (plain blocks, reduction handlers, evictions), which cannot be
/// NACKed and therefore always win.
pub fn arbitrate(req_ts: Option<u64>, victim_ts: u64) -> Arbitration {
    match req_ts {
        None => Arbitration::VictimAborts,
        Some(ts) if ts < victim_ts => Arbitration::VictimAborts,
        Some(_) => Arbitration::Nack,
    }
}

/// A protocol-side event the HTM layer must react to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoEvent {
    /// A victim core's transaction was aborted (its cache state has already
    /// been rolled back and it is no longer [`crate::MemSystem::in_tx`]).
    Aborted {
        /// The aborted core.
        core: CoreId,
        /// Why it aborted.
        cause: AbortKind,
    },
}

/// The result of one [`crate::MemSystem::access`]. Victim aborts are not
/// part of it: they queue in the memory system until the driver takes them
/// with [`crate::MemSystem::next_event`].
#[derive(Clone, Copy, Debug)]
pub struct AccessOutcome {
    /// The value loaded (stores echo the stored value; a NACKed requester
    /// gets an unspecified value and must retry after aborting).
    pub value: u64,
    /// Cycles the access took beyond the 1-cycle issue cost.
    pub latency: u64,
    /// If set, the *requesting* transaction must abort with this cause
    /// (NACKed request, self-demotion, or own-footprint eviction). Its
    /// cache state has already been rolled back and its transaction ended.
    pub self_abort: Option<AbortKind>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(read: bool, written: bool, labeled: bool) -> SpecBits {
        SpecBits {
            read,
            written,
            labeled,
            label: None,
            dirty_data: written || labeled,
        }
    }

    #[test]
    fn classification_matches_fig18_legend() {
        assert_eq!(
            classify_conflict(ReqClass::PlainRead, bits(false, true, false)),
            AbortKind::ReadAfterWrite
        );
        assert_eq!(
            classify_conflict(ReqClass::PlainRead, bits(false, false, true)),
            AbortKind::ReadAfterWrite
        );
        assert_eq!(
            classify_conflict(ReqClass::PlainWrite, bits(true, false, false)),
            AbortKind::WriteAfterRead
        );
        assert_eq!(
            classify_conflict(ReqClass::PlainWrite, bits(false, true, false)),
            AbortKind::WriteAfterWrite
        );
        assert_eq!(
            classify_conflict(ReqClass::Split, bits(false, false, true)),
            AbortKind::GatherAfterLabeled
        );
        assert_eq!(
            classify_conflict(ReqClass::Labeled, bits(true, false, false)),
            AbortKind::WriteAfterRead
        );
        assert_eq!(
            classify_conflict(ReqClass::Labeled, bits(false, false, true)),
            AbortKind::CrossLabel
        );
    }

    #[test]
    fn buckets_cover_all_kinds() {
        for k in [
            AbortKind::ReadAfterWrite,
            AbortKind::WriteAfterRead,
            AbortKind::WriteAfterWrite,
            AbortKind::GatherAfterLabeled,
            AbortKind::CrossLabel,
            AbortKind::SelfDemote,
            AbortKind::Eviction,
            AbortKind::LlcEviction,
            AbortKind::UEvictionForward,
        ] {
            assert!(WasteBucket::ALL.contains(&k.bucket()));
        }
    }

    #[test]
    fn arbitration_earlier_wins() {
        // Older (smaller ts) requester beats younger victim.
        assert_eq!(arbitrate(Some(3), 7), Arbitration::VictimAborts);
        // Younger requester is NACKed.
        assert_eq!(arbitrate(Some(9), 7), Arbitration::Nack);
        // Equal timestamps cannot happen between distinct transactions;
        // treat as NACK (requester yields).
        assert_eq!(arbitrate(Some(7), 7), Arbitration::Nack);
        // Non-speculative requests cannot be NACKed.
        assert_eq!(arbitrate(None, 0), Arbitration::VictimAborts);
    }

    #[test]
    fn memop_accessors() {
        let l = LabelId::new(1);
        assert_eq!(MemOp::LoadL(l).label(), Some(l));
        assert!(MemOp::StoreL(l, 5).is_store());
        assert!(MemOp::Gather(l).is_labeled());
        assert!(!MemOp::Load.is_labeled());
        assert!(MemOp::Store(1).is_store());
    }
}
