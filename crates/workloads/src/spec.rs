//! Common workload configuration.

use commtm::{MachineBuilder, Scheme, Tuning};

/// Parameters shared by every workload: thread count, scheme, seed, and
/// optional machine-parameter overrides.
#[derive(Clone, Copy, Debug)]
pub struct BaseCfg {
    /// Number of threads (= active cores, 1–128).
    pub threads: usize,
    /// Conflict-detection scheme.
    pub scheme: Scheme,
    /// Deterministic seed.
    pub seed: u64,
    /// Machine-parameter overrides (latencies, backoff, cycle limit); the
    /// defaults leave the paper's Table I configuration untouched.
    pub tuning: Tuning,
}

impl BaseCfg {
    /// A config for `threads` threads under `scheme` with the default
    /// seed.
    pub fn new(threads: usize, scheme: Scheme) -> Self {
        BaseCfg {
            threads,
            scheme,
            seed: 0xC0FFEE,
            tuning: Tuning::default(),
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides machine parameters.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Starts a [`MachineBuilder`] for this config (threads, scheme, seed,
    /// tuning applied). Every workload constructs its machine through this
    /// so that experiment sweeps can perturb the machine uniformly.
    pub fn builder(&self) -> MachineBuilder {
        let mut b = MachineBuilder::new(self.threads, self.scheme).seed(self.seed);
        b.config_mut().apply_tuning(&self.tuning);
        b
    }

    /// Splits `total` work items across threads; thread `t` receives the
    /// remainder-adjusted share (shares differ by at most one).
    pub fn share(&self, total: u64, t: usize) -> u64 {
        let n = self.threads as u64;
        let base = total / n;
        let extra = total % n;
        base + u64::from((t as u64) < extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_total() {
        let cfg = BaseCfg::new(7, Scheme::CommTm);
        let total = 1000u64;
        let sum: u64 = (0..7).map(|t| cfg.share(total, t)).sum();
        assert_eq!(sum, total);
        // Shares are balanced.
        let shares: Vec<u64> = (0..7).map(|t| cfg.share(total, t)).collect();
        assert!(shares.iter().max().unwrap() - shares.iter().min().unwrap() <= 1);
    }

    #[test]
    fn builder_applies_tuning() {
        let tuning = Tuning {
            mem_latency: Some(999),
            max_cycles: Some(123),
            ..Tuning::default()
        };
        let cfg = BaseCfg::new(2, Scheme::Baseline).with_tuning(tuning);
        let m = cfg.builder().build();
        assert_eq!(m.config().proto.mem_latency, 999);
        assert_eq!(m.config().max_cycles, 123);
        assert_eq!(m.config().threads, 2);
    }
}
