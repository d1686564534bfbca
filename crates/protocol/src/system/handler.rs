//! Execution of user-defined reduction handlers and splitters.
//!
//! Handlers run on the requesting core's shadow thread (Sec. III-B4): they
//! are non-speculative, their memory accesses are coherent and charged for
//! latency, their cache fills use the reserved way, and they must never
//! touch reducible-state data (enforced with a panic).

use commtm_mem::{Addr, CoreId, LabelId, LineData};

use crate::label::ReduceOps;
use crate::types::MemOp;

use super::{Acc, MemSystem};

/// [`ReduceOps`] implementation backed by the full protocol engine.
struct HandlerOps<'a, 'b> {
    sys: &'a mut MemSystem,
    core: CoreId,
    acc: &'a mut Acc,
    _marker: std::marker::PhantomData<&'b ()>,
}

impl ReduceOps for HandlerOps<'_, '_> {
    fn read(&mut self, addr: Addr) -> u64 {
        self.sys.do_op(self.core, MemOp::Load, addr, self.acc, true)
    }

    fn write(&mut self, addr: Addr, value: u64) {
        self.sys
            .do_op(self.core, MemOp::Store(value), addr, self.acc, true);
    }
}

impl MemSystem {
    /// Runs the label's reduction handler at `core`, merging `src` into
    /// `dst`. Handler memory traffic accumulates into `acc`.
    pub(crate) fn run_reduce(
        &mut self,
        core: CoreId,
        label: LabelId,
        dst: &mut LineData,
        src: &LineData,
        acc: &mut Acc,
    ) {
        let f = self.labels.def(label).reduce();
        let mut ops = HandlerOps {
            sys: self,
            core,
            acc,
            _marker: Default::default(),
        };
        f(&mut ops, dst, src);
    }

    /// Runs the label's splitter at `core`, donating part of `local` into
    /// `out` (which starts as the identity value).
    ///
    /// # Panics
    ///
    /// Panics if the label has no splitter.
    pub(crate) fn run_split(
        &mut self,
        core: CoreId,
        label: LabelId,
        local: &mut LineData,
        out: &mut LineData,
        num_sharers: usize,
        acc: &mut Acc,
    ) {
        let f =
            self.labels.def(label).split().unwrap_or_else(|| {
                panic!("label '{}' has no splitter", self.labels.def(label).name())
            });
        let mut ops = HandlerOps {
            sys: self,
            core,
            acc,
            _marker: Default::default(),
        };
        f(&mut ops, local, out, num_sharers);
    }
}
