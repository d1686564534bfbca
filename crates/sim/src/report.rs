//! Aggregated run statistics, shaped for the paper's figures.

use commtm_htm::CoreStats;
use commtm_protocol::{CoreProtoStats, ProbeCounts, ProtoStats, WasteBucket};

/// The Fig. 17 cycle breakdown: every core cycle is non-transactional,
/// transactional-committed, or transactional-aborted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Non-transactional cycles.
    pub nontx: u64,
    /// Useful (committed) transactional cycles.
    pub committed: u64,
    /// Wasted (aborted) transactional cycles, including backoff.
    pub aborted: u64,
}

impl CycleBreakdown {
    /// Sum of all classes.
    pub fn total(&self) -> u64 {
        self.nontx + self.committed + self.aborted
    }
}

/// The result of one simulation run.
///
/// Derives `Eq` so that determinism can be asserted directly: two runs of
/// the same seeded configuration must produce identical reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Makespan: the cycle at which the last core finished its program.
    pub total_cycles: u64,
    /// Per-core engine statistics.
    pub per_core: Vec<CoreStats>,
    /// Protocol statistics (traffic, misses, reductions).
    pub proto: ProtoStats,
    /// Cache probes per level over the run: host work, not a simulated
    /// quantity, so no figure or results file shows it.
    pub probes: ProbeCounts,
}

impl RunReport {
    pub(crate) fn new(
        total_cycles: u64,
        per_core: Vec<CoreStats>,
        proto: ProtoStats,
        probes: ProbeCounts,
    ) -> Self {
        RunReport {
            total_cycles,
            per_core,
            proto,
            probes,
        }
    }

    /// Engine statistics summed over all cores.
    pub fn core_totals(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for c in &self.per_core {
            t.merge(c);
        }
        t
    }

    /// Protocol statistics summed over all cores.
    pub fn proto_totals(&self) -> CoreProtoStats {
        self.proto.total()
    }

    /// The Fig. 17 breakdown, summed over all cores.
    pub fn cycle_breakdown(&self) -> CycleBreakdown {
        let t = self.core_totals();
        CycleBreakdown {
            nontx: t.nontx_cycles,
            committed: t.committed_cycles,
            aborted: t.aborted_cycles,
        }
    }

    /// The Fig. 18 wasted-cycle breakdown, summed over all cores, in
    /// [`WasteBucket::ALL`] order.
    pub fn wasted_breakdown(&self) -> [(WasteBucket, u64); 4] {
        let t = self.core_totals();
        let mut out = [(WasteBucket::Others, 0u64); 4];
        for (i, b) in WasteBucket::ALL.iter().enumerate() {
            out[i] = (*b, t.wasted_by_bucket[i]);
        }
        out
    }

    /// Total committed transactions.
    pub fn commits(&self) -> u64 {
        self.core_totals().commits
    }

    /// Total aborted transaction attempts.
    pub fn aborts(&self) -> u64 {
        self.core_totals().aborts
    }

    /// Fraction of issued program operations that were labeled (the
    /// paper's Sec. VII labeled-instruction metric, computed over memory
    /// operations).
    pub fn labeled_fraction(&self) -> f64 {
        let t = self.core_totals();
        let all = (t.plain_ops + t.labeled_ops) as f64;
        if all == 0.0 {
            0.0
        } else {
            t.labeled_ops as f64 / all
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = CycleBreakdown {
            nontx: 1,
            committed: 2,
            aborted: 3,
        };
        assert_eq!(b.total(), 6);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = RunReport::new(0, Vec::new(), ProtoStats::new(0), ProbeCounts::default());
        assert_eq!(r.commits(), 0);
        assert_eq!(r.labeled_fraction(), 0.0);
        assert_eq!(r.cycle_breakdown().total(), 0);
    }
}
