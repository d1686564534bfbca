//! Machine assembly and simulation driver.
//!
//! [`Machine`] ties the stack together: the MESI+U protocol engine
//! (`commtm-protocol`), the per-core HTM engines (`commtm-htm`), and the
//! per-thread programs (`commtm-tx`). Its scheduler is a deterministic
//! discrete-event loop: the core with the minimum local clock steps next
//! (ties break by core id), and a step performs new memory operations
//! while its core stays that minimum. See docs/ARCHITECTURE.md.
//!
//! # Example
//!
//! ```
//! use commtm_sim::{Machine, MachineConfig, Scheme};
//! use commtm_protocol::LabelTable;
//! use commtm_tx::Program;
//!
//! let cfg = MachineConfig::new(2, Scheme::CommTm);
//! let mut machine = Machine::new(cfg, LabelTable::new());
//! let flag = machine.heap_mut().alloc_words(1);
//! for t in 0..2 {
//!     let mut b = Program::builder();
//!     b.tx(move |c| {
//!         let v = c.load(flag);
//!         c.store(flag, v + 1);
//!     });
//!     machine.set_program(t, b.build(), ());
//! }
//! let report = machine.run().unwrap();
//! assert_eq!(machine.read_word(flag), 2);
//! assert!(report.total_cycles > 0);
//! ```

mod machine;
mod report;
mod tree;

pub use commtm_htm::{CoreStats, HtmConfig, Scheme};
pub use commtm_protocol::ProtoConfig;
pub use machine::{Machine, MachineConfig, SimError, Tuning};
pub use report::{CycleBreakdown, RunReport};
