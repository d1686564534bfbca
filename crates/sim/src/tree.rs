//! The scheduler's winner tree: the `(clock, core)` keys of the cores
//! waiting to run, with the smallest key at the root.

use std::hint::select_unpredictable;

/// A tournament over the scheduling keys of every live core but the one
/// running.
///
/// The leaves are slots, padded to a power of two with a key that loses
/// every match; every inner node holds the smaller key of its two
/// children, so the root holds the smallest key: the runner-up while a
/// core runs, and the next core to run when it stops. A key change
/// replays the matches on one leaf-to-root path, found through the
/// per-core slot index. When the running core yields, its key takes the
/// slot of the core that runs next, so a hand-over replays one path.
/// Keys compare as exact `(clock, core)` pairs, so ties on the clock go
/// to the lower core.
#[derive(Clone, Debug)]
pub(crate) struct WinnerTree {
    /// Heap-ordered nodes: `nodes[1]` is the root, the children of node
    /// `i` are `2i` and `2i + 1`, and slot `s`'s leaf is `slots + s`.
    /// `nodes[0]` is unused.
    nodes: Vec<Key>,
    slots: usize,
    /// Each core's slot; [`NO_SLOT`] while it runs and once it finished.
    slot_of: Vec<usize>,
}

/// The slot of a core that is not in the tree.
const NO_SLOT: usize = usize::MAX;

/// A `(clock, core)` scheduling key. Keys order as pairs: by clock, then
/// by core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    clock: u64,
    core: usize,
}

/// The key of an empty slot. It loses every match, and no live key equals
/// it (a core index is never `usize::MAX`).
const EMPTY: Key = Key {
    clock: u64::MAX,
    core: usize::MAX,
};

/// The smaller of two keys. Which one wins is data-dependent and
/// unpredictable, so the comparison avoids short-circuit branches and each
/// field is picked by a conditional move.
fn play(a: Key, b: Key) -> Key {
    let a_wins = (a.clock < b.clock) | ((a.clock == b.clock) & (a.core < b.core));
    Key {
        clock: select_unpredictable(a_wins, a.clock, b.clock),
        core: select_unpredictable(a_wins, a.core, b.core),
    }
}

impl WinnerTree {
    /// Builds the tree over `clocks`, one entry per core in core order;
    /// `None` leaves that core out.
    pub(crate) fn new(clocks: impl ExactSizeIterator<Item = Option<u64>>) -> Self {
        let cores = clocks.len();
        let slots = cores.next_power_of_two();
        let mut nodes = vec![EMPTY; 2 * slots];
        let mut slot_of = vec![NO_SLOT; cores];
        for (core, clock) in clocks.enumerate() {
            if let Some(clock) = clock {
                nodes[slots + core] = Key { clock, core };
                slot_of[core] = core;
            }
        }
        for i in (1..slots).rev() {
            nodes[i] = play(nodes[2 * i], nodes[2 * i + 1]);
        }
        WinnerTree {
            nodes,
            slots,
            slot_of,
        }
    }

    /// The smallest key in the tree, or `None` if it is empty.
    pub(crate) fn min(&self) -> Option<(u64, usize)> {
        let min = self.nodes[1];
        (min != EMPTY).then_some((min.clock, min.core))
    }

    /// Takes the core with the smallest key out of the tree and returns
    /// its key: the core that runs next after the running one finished.
    pub(crate) fn take_min(&mut self) -> Option<(u64, usize)> {
        let min = self.min()?;
        let slot = std::mem::replace(&mut self.slot_of[min.1], NO_SLOT);
        self.replay(slot, EMPTY);
        Some(min)
    }

    /// Puts the running `core`, now at `clock`, in the place of the core
    /// with the smallest key, and returns that key: the core that runs
    /// next. The caller has checked that `(clock, core)` orders after it.
    pub(crate) fn replace_min(&mut self, core: usize, clock: u64) -> (u64, usize) {
        let min = self.min().expect("a core to hand over to");
        let slot = std::mem::replace(&mut self.slot_of[min.1], NO_SLOT);
        self.slot_of[core] = slot;
        self.replay(slot, Key { clock, core });
        min
    }

    /// Moves the key of `core`, which is in the tree, to `(clock, core)`.
    pub(crate) fn set(&mut self, core: usize, clock: u64) {
        self.replay(self.slot_of[core], Key { clock, core });
    }

    /// Writes a slot's leaf and replays every match above it. The path's
    /// result so far stays in registers: each match reads only the
    /// sibling.
    fn replay(&mut self, slot: usize, mut key: Key) {
        let mut i = self.slots + slot;
        self.nodes[i] = key;
        while i > 1 {
            key = play(key, self.nodes[i ^ 1]);
            i /= 2;
            self.nodes[i] = key;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    /// A `(clock, core)` key, if there is one.
    type MaybeKey = Option<(u64, usize)>;

    /// The smallest two keys of `keys` (`None` = finished): the first two
    /// pops of a freshly built `BinaryHeap`.
    fn model(keys: &[Option<u64>]) -> (MaybeKey, MaybeKey) {
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = keys
            .iter()
            .enumerate()
            .filter_map(|(core, clock)| clock.map(|c| Reverse((c, core))))
            .collect();
        let first = heap.pop().map(|Reverse(k)| k);
        let second = heap.pop().map(|Reverse(k)| k);
        (first, second)
    }

    /// The tree as the scheduler drives it, next to a model: every live
    /// core's key, the running core's included.
    struct Harness {
        tree: WinnerTree,
        keys: Vec<Option<u64>>,
        running: MaybeKey,
    }

    impl Harness {
        fn new(clocks: &[u64]) -> Self {
            let keys: Vec<Option<u64>> = clocks.iter().map(|&c| Some(c)).collect();
            let mut tree = WinnerTree::new(keys.iter().copied());
            let running = tree.take_min();
            Harness {
                tree,
                keys,
                running,
            }
        }

        /// The running core's key and the runner-up must be the model's
        /// first two pops.
        fn check(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!((self.running, self.tree.min()), model(&self.keys));
            Ok(())
        }

        /// The running core's clock rises by `delta`; it yields if its
        /// key now orders after the runner-up's.
        fn advance(&mut self, delta: u64) {
            let Some((clock, core)) = self.running else {
                return;
            };
            let clock = clock + delta;
            self.keys[core] = Some(clock);
            self.running = Some((clock, core));
            if self.tree.min().is_some_and(|next| (clock, core) > next) {
                self.running = Some(self.tree.replace_min(core, clock));
            }
        }

        /// The running core finishes and leaves.
        fn finish(&mut self) {
            if let Some((_, core)) = self.running {
                self.keys[core] = None;
                self.running = self.tree.take_min();
            }
        }

        /// A waiting core's clock rises by `delta` (a victim's backoff).
        fn raise(&mut self, core: usize, delta: u64) {
            if self.running.is_some_and(|(_, r)| r == core) {
                return;
            }
            if let Some(clock) = self.keys[core] {
                self.keys[core] = Some(clock + delta);
                self.tree.set(core, clock + delta);
            }
        }
    }

    #[test]
    fn ties_go_to_the_lower_core_and_an_empty_tree_has_no_min() {
        let mut h = Harness::new(&[5, 5, 5]);
        assert_eq!((h.running, h.tree.min()), (Some((5, 0)), Some((5, 1))));
        // A tie with the runner-up does not hand over: core 0 still orders
        // first at clock 5, and core 1 first at clock 6.
        h.advance(0);
        assert_eq!(h.running, Some((5, 0)));
        h.advance(1);
        assert_eq!((h.running, h.tree.min()), (Some((5, 1)), Some((5, 2))));
        h.finish();
        h.finish();
        assert_eq!((h.running, h.tree.min()), (Some((6, 0)), None));
        h.finish();
        assert_eq!((h.running, h.tree.min()), (None, None));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Whatever the scheduler does — advancing the running core,
        /// finishing it, raising a waiting core's key — the running core
        /// and the runner-up are a `BinaryHeap` model's first two pops.
        /// Clocks move in small steps, so equal clocks, broken by core
        /// index, are common.
        #[test]
        fn running_core_and_runner_up_match_a_binary_heap(
            start in proptest::collection::vec(0u64..4, 1..20),
            ops in proptest::collection::vec((0u8..8, 0usize..20, 0u64..4), 0..160),
        ) {
            let mut h = Harness::new(&start);
            h.check()?;
            for (op, core, delta) in ops {
                match op {
                    0 => h.finish(),
                    1..=4 => h.advance(delta),
                    _ => h.raise(core % start.len(), delta),
                }
                h.check()?;
            }
        }
    }
}
