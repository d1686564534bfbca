//! Protocol-level statistics (traffic, misses, reductions).

use commtm_mem::CoreId;

/// Per-core protocol counters.
///
/// `gets`/`getx`/`getu` count directory requests issued from the core's
/// private L2 to the L3, which is exactly the traffic the paper's Fig. 19
/// breaks down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreProtoStats {
    /// GETS (conventional read) requests to the directory.
    pub gets: u64,
    /// GETX (conventional write) requests to the directory.
    pub getx: u64,
    /// GETU (labeled) requests to the directory.
    pub getu: u64,
    /// Gather requests to the directory.
    pub gathers: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses (L2 or beyond).
    pub l1_misses: u64,
    /// L2 hits (on L1 misses).
    pub l2_hits: u64,
    /// L2 misses (directory requests).
    pub l2_misses: u64,
    /// Full reductions performed at this core.
    pub reductions: u64,
    /// Forwarded lines merged in reductions at this core.
    pub lines_reduced: u64,
    /// Splits executed at this core on behalf of others' gathers.
    pub splits: u64,
    /// NACKs this core sent (it defended its transaction).
    pub nacks_sent: u64,
    /// NACKs this core received (its request lost arbitration).
    pub nacks_received: u64,
    /// Invalidations received.
    pub invalidations: u64,
    /// Dirty writebacks from the private hierarchy to the L3.
    pub writebacks: u64,
    /// U-state evictions forwarded to a co-sharer (Sec. III-B5).
    pub u_evict_forwards: u64,
}

impl CoreProtoStats {
    /// Total directory GET requests (the Fig. 19 total).
    pub fn total_gets(&self) -> u64 {
        self.gets + self.getx + self.getu
    }
}

/// Tag-matching cache probes per level, summed over the machine's arrays:
/// a deterministic count of the work behind every access, which the
/// hit/miss counters do not show.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Probes of the private L1s.
    pub l1: u64,
    /// Probes of the private L2s.
    pub l2: u64,
    /// Probes of the L3 banks.
    pub l3: u64,
}

/// Protocol statistics for the whole machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtoStats {
    cores: Vec<CoreProtoStats>,
}

impl ProtoStats {
    /// Creates zeroed statistics for `cores` cores.
    pub fn new(cores: usize) -> Self {
        ProtoStats {
            cores: vec![CoreProtoStats::default(); cores],
        }
    }

    /// Mutable access to one core's counters.
    pub fn core_mut(&mut self, core: CoreId) -> &mut CoreProtoStats {
        &mut self.cores[core.index()]
    }

    /// One core's counters.
    pub fn core(&self, core: CoreId) -> &CoreProtoStats {
        &self.cores[core.index()]
    }

    /// Sum over all cores.
    pub fn total(&self) -> CoreProtoStats {
        let mut t = CoreProtoStats::default();
        for c in &self.cores {
            t.gets += c.gets;
            t.getx += c.getx;
            t.getu += c.getu;
            t.gathers += c.gathers;
            t.l1_hits += c.l1_hits;
            t.l1_misses += c.l1_misses;
            t.l2_hits += c.l2_hits;
            t.l2_misses += c.l2_misses;
            t.reductions += c.reductions;
            t.lines_reduced += c.lines_reduced;
            t.splits += c.splits;
            t.nacks_sent += c.nacks_sent;
            t.nacks_received += c.nacks_received;
            t.invalidations += c.invalidations;
            t.writebacks += c.writebacks;
            t.u_evict_forwards += c.u_evict_forwards;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_cores() {
        let mut s = ProtoStats::new(2);
        s.core_mut(CoreId::new(0)).gets = 3;
        s.core_mut(CoreId::new(1)).gets = 4;
        s.core_mut(CoreId::new(1)).getu = 2;
        let t = s.total();
        assert_eq!(t.gets, 7);
        assert_eq!(t.total_gets(), 9);
    }
}
