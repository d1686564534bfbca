//! Engine-side per-core statistics (the paper's Fig. 17/18 taxonomies).

use commtm_protocol::WasteBucket;

/// Per-core execution statistics.
///
/// Cycle classes partition a core's time exactly as the paper's Fig. 17:
/// non-transactional, transactional-committed (useful), and
/// transactional-aborted (wasted, including backoff). Wasted cycles are
/// further attributed to Fig. 18's dependency buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Cycles outside transactions (including control blocks).
    pub nontx_cycles: u64,
    /// Cycles in transaction attempts that committed.
    pub committed_cycles: u64,
    /// Cycles in transaction attempts that aborted, plus backoff.
    pub aborted_cycles: u64,
    /// The backoff portion of `aborted_cycles`.
    pub backoff_cycles: u64,
    /// Wasted cycles per Fig. 18 bucket (indexed by
    /// [`WasteBucket::ALL`] order).
    pub wasted_by_bucket: [u64; 4],
    /// Abort counts per Fig. 18 bucket.
    pub aborts_by_bucket: [u64; 4],
    /// Conventional memory operations issued by the program.
    pub plain_ops: u64,
    /// Labeled memory operations issued by the program (loads, stores and
    /// gathers), counted before any demotion — this is the paper's
    /// "fraction of labeled instructions" numerator.
    pub labeled_ops: u64,
    /// Gather requests issued by the program (subset of `labeled_ops`).
    pub gather_ops: u64,
    /// Scheduler steps the core ran ([`crate::CoreExec::step`] calls on an
    /// unfinished program). Host work only; it costs no simulated cycles.
    pub steps: u64,
    /// Block passes: closure runs. A pass re-runs its block from the top
    /// and performs new operations while its core stays the scheduler's
    /// minimum. Host work only; it costs no simulated cycles.
    pub passes: u64,
    /// Replay log entries read back by block passes: each pass replays
    /// every logged operation and random draw before its first new
    /// operation. Host work only; it costs no simulated cycles.
    pub replayed_entries: u64,
    /// The core's clock when its program finished (0 if still running).
    pub finish_cycle: u64,
}

impl CoreStats {
    /// Total cycles attributed to this core.
    pub fn total_cycles(&self) -> u64 {
        self.nontx_cycles + self.committed_cycles + self.aborted_cycles
    }

    /// Index of a bucket in the `*_by_bucket` arrays.
    pub fn bucket_index(bucket: WasteBucket) -> usize {
        WasteBucket::ALL
            .iter()
            .position(|b| *b == bucket)
            .expect("bucket in ALL")
    }

    /// Adds another core's counters into this one (aggregation).
    pub fn merge(&mut self, other: &CoreStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.nontx_cycles += other.nontx_cycles;
        self.committed_cycles += other.committed_cycles;
        self.aborted_cycles += other.aborted_cycles;
        self.backoff_cycles += other.backoff_cycles;
        for i in 0..4 {
            self.wasted_by_bucket[i] += other.wasted_by_bucket[i];
            self.aborts_by_bucket[i] += other.aborts_by_bucket[i];
        }
        self.plain_ops += other.plain_ops;
        self.labeled_ops += other.labeled_ops;
        self.gather_ops += other.gather_ops;
        self.steps += other.steps;
        self.passes += other.passes;
        self.replayed_entries += other.replayed_entries;
        self.finish_cycle = self.finish_cycle.max(other.finish_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_stable() {
        assert_eq!(CoreStats::bucket_index(WasteBucket::ReadAfterWrite), 0);
        assert_eq!(CoreStats::bucket_index(WasteBucket::WriteAfterRead), 1);
        assert_eq!(CoreStats::bucket_index(WasteBucket::GatherAfterLabeled), 2);
        assert_eq!(CoreStats::bucket_index(WasteBucket::Others), 3);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = CoreStats {
            commits: 1,
            nontx_cycles: 10,
            finish_cycle: 5,
            ..Default::default()
        };
        let b = CoreStats {
            commits: 2,
            nontx_cycles: 20,
            finish_cycle: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 3);
        assert_eq!(a.nontx_cycles, 30);
        assert_eq!(a.finish_cycle, 9);
        assert_eq!(a.total_cycles(), 30);
    }
}
