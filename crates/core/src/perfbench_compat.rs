//! The machine-engine surface the `perfbench` harness still compiles
//! against. Every machine runs on the serial scheduler, so these items
//! carry no information; they go when the harness stops naming them.

/// Exists only for the `perfbench` harness, which reads these fields into
/// its `epoch_*` metrics. Every value is zero: there is no parallel
/// machine engine whose phases could be accounted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnginePhases {
    /// Always zero.
    pub attempts: u64,
    /// Always zero.
    pub commits: u64,
    /// Always zero.
    pub fallbacks: u64,
    /// Always zero.
    pub parks: u64,
    /// Always zero.
    pub spec_ms: f64,
    /// Always zero.
    pub clone_ms: f64,
    /// Always zero.
    pub validate_ms: f64,
    /// Always zero.
    pub replay_ms: f64,
    /// Always zero.
    pub serial_ms: f64,
    /// Always zero.
    pub sync_ms: f64,
}

impl EnginePhases {
    /// Exists only for the `perfbench` harness: adds `other`'s fields into
    /// `self`.
    pub fn accumulate(&mut self, other: &EnginePhases) {
        self.attempts += other.attempts;
        self.commits += other.commits;
        self.fallbacks += other.fallbacks;
        self.parks += other.parks;
        self.spec_ms += other.spec_ms;
        self.clone_ms += other.clone_ms;
        self.validate_ms += other.validate_ms;
        self.replay_ms += other.replay_ms;
        self.serial_ms += other.serial_ms;
        self.sync_ms += other.sync_ms;
    }
}

/// Exists only for the `perfbench` harness: always `None`, because no run
/// has engine phases to report.
pub fn take_engine_phases() -> Option<EnginePhases> {
    None
}
