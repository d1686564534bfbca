//! Generic set-associative cache array with LRU and reserved-way fills.

use commtm_mem::{LineAddr, LineData};

use crate::geometry::CacheGeometry;

/// One resident cache line: tag, data, caller-defined metadata.
#[derive(Clone, Debug)]
pub struct Entry<M> {
    /// The line address this entry caches.
    pub tag: LineAddr,
    /// The cached data.
    pub data: LineData,
    /// Level-specific metadata (state, spec bits, directory info...).
    pub meta: M,
    lru: u64,
}

/// How a fill is classified for the paper's reserved-way policy
/// (Sec. III-B4): one way per set is reserved for data with permissions
/// other than U, and misses from reduction handlers always fill that way,
/// so handler misses can never evict reducible data (which would require a
/// nested reduction and could deadlock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionClass {
    /// Ordinary non-reducible data: may occupy any way.
    NonReducible,
    /// U-state data: must not occupy the reserved way.
    Reducible,
    /// A fill issued by a reduction handler or splitter: uses the reserved
    /// way only.
    Handler,
}

/// The result of a fill: the victim entry, if one had to be evicted.
#[derive(Debug)]
pub struct FillOutcome<M> {
    /// The evicted entry, for the caller to write back or abort on.
    pub victim: Option<Entry<M>>,
    /// The slot the new line landed in.
    pub slot: Slot,
}

/// A handle to a resident line, returned by [`CacheArray::lookup`] and
/// [`CacheArray::fill`].
///
/// A `Slot` names a (set, way) position, so repeated accesses through it
/// skip the tag-matching set scan — this is what makes the protocol's
/// probe-once discipline possible (one [`CacheArray::lookup`] per line per
/// operation, then index-based access).
///
/// A slot stays valid until the next [`CacheArray::fill`] or
/// [`CacheArray::remove`] on the array, either of which may vacate or
/// repopulate the position; the `entry`/`entry_mut`/`touch` accessors check
/// occupancy (and, in debug builds, callers are expected to re-`lookup`
/// after any structural change).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(usize);

/// A set-associative array with LRU replacement, generic over per-line
/// metadata.
///
/// # Example
///
/// ```
/// use commtm_cache::{CacheArray, CacheGeometry, EvictionClass};
/// use commtm_mem::{LineAddr, LineData};
///
/// let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(2, 2));
/// c.fill(LineAddr::new(4), LineData::zeroed(), 7, EvictionClass::NonReducible);
/// assert_eq!(c.get(LineAddr::new(4)).unwrap().meta, 7);
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<M> {
    geom: CacheGeometry,
    /// Entry storage, one lazily-allocated box per set: a paper-scale L3
    /// bank has 64K lines, and sweeps build one machine per grid cell, so
    /// eagerly zeroing every slot would put >100MB of memset on each
    /// cell's construction. Untouched sets stay `None`.
    sets: Vec<Option<Box<[Option<Entry<M>>]>>>,
    /// Tags duplicated in a dense side array ([`EMPTY_TAG`] when vacant):
    /// a w-way probe reads w consecutive words instead of w scattered
    /// `Entry` structs, so the per-operation tag scan touches one or two
    /// host cache lines. Invariant: `tags[set*ways + way]` mirrors
    /// `sets[set][way]`.
    tags: Vec<u64>,
    tick: u64,
    resident: usize,
}

/// Sentinel for a vacant slot in the tag side-array. Line addresses are
/// line *indices* (byte address / 64), so the top of the u64 range is
/// unreachable by construction.
const EMPTY_TAG: u64 = u64::MAX;

impl<M> CacheArray<M> {
    /// Creates an empty array with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let mut sets = Vec::new();
        sets.resize_with(geom.sets(), || None);
        CacheArray {
            geom,
            sets,
            tags: vec![EMPTY_TAG; geom.lines()],
            tick: 0,
            resident: 0,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Locates a resident line without updating recency: the single
    /// tag-matching probe of an operation. All further access goes through
    /// the returned [`Slot`] via [`CacheArray::entry`],
    /// [`CacheArray::entry_mut`], and [`CacheArray::touch`].
    pub fn lookup(&self, line: LineAddr) -> Option<Slot> {
        let (base, ways) = self.set_range(line);
        let raw = line.raw();
        self.tags[base..base + ways]
            .iter()
            .position(|&t| t == raw)
            .map(|w| Slot(base + w))
    }

    /// The entry at a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    pub fn entry(&self, slot: Slot) -> &Entry<M> {
        let ways = self.geom.ways();
        self.sets[slot.0 / ways]
            .as_ref()
            .expect("stale slot handle")[slot.0 % ways]
            .as_ref()
            .expect("stale slot handle")
    }

    /// The entry at a slot, mutably. Does not update recency; pair with
    /// [`CacheArray::touch`] where the access should refresh LRU order.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    pub fn entry_mut(&mut self, slot: Slot) -> &mut Entry<M> {
        let ways = self.geom.ways();
        self.sets[slot.0 / ways]
            .as_mut()
            .expect("stale slot handle")[slot.0 % ways]
            .as_mut()
            .expect("stale slot handle")
    }

    /// Marks the entry at a slot most-recently used (the recency side of
    /// what [`CacheArray::get`] does).
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    pub fn touch(&mut self, slot: Slot) {
        self.tick += 1;
        let tick = self.tick;
        self.entry_mut(slot).lru = tick;
    }

    /// The way index of a slot within its set.
    pub fn way_of_slot(&self, slot: Slot) -> usize {
        slot.0 % self.geom.ways()
    }

    /// Looks up a line without updating recency.
    pub fn peek(&self, line: LineAddr) -> Option<&Entry<M>> {
        self.lookup(line).map(|s| self.entry(s))
    }

    /// Looks up a line and marks it most-recently used.
    pub fn get(&mut self, line: LineAddr) -> Option<&mut Entry<M>> {
        match self.lookup(line) {
            Some(s) => {
                self.touch(s);
                Some(self.entry_mut(s))
            }
            None => None,
        }
    }

    /// Whether a line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lookup(line).is_some()
    }

    /// Inserts a line, evicting a victim if the set is full.
    ///
    /// Way 0 of every set is the *reserved way*: [`EvictionClass::Handler`]
    /// fills use only way 0, and [`EvictionClass::Reducible`] fills avoid
    /// it (unless the cache is direct-mapped, where reservation is
    /// meaningless and disabled).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already resident.
    pub fn fill(
        &mut self,
        line: LineAddr,
        data: LineData,
        meta: M,
        class: EvictionClass,
    ) -> FillOutcome<M> {
        debug_assert!(!self.contains(line), "fill of resident line {line}");
        self.tick += 1;
        let tick = self.tick;
        let (base, ways) = self.set_range(line);
        let (lo, hi) = match class {
            EvictionClass::Handler if ways > 1 => (0usize, 1usize),
            EvictionClass::Reducible if ways > 1 => (1usize, ways),
            _ => (0usize, ways),
        };

        // Prefer an invalid slot in the allowed range.
        let range = self.sets[base / ways].get_or_insert_with(|| {
            let mut v = Vec::new();
            v.resize_with(ways, || None);
            v.into_boxed_slice()
        });
        let mut victim_way = None;
        let mut oldest = u64::MAX;
        for (w, slot) in range.iter().enumerate().take(hi).skip(lo) {
            match slot {
                None => {
                    victim_way = Some(w);
                    break;
                }
                Some(e) if e.lru < oldest => {
                    oldest = e.lru;
                    victim_way = Some(w);
                }
                Some(_) => {}
            }
        }
        let way = victim_way.expect("eviction range is never empty");
        let victim = range[way].take();
        range[way] = Some(Entry {
            tag: line,
            data,
            meta,
            lru: tick,
        });
        debug_assert_ne!(
            line.raw(),
            EMPTY_TAG,
            "line index collides with the vacant sentinel"
        );
        self.tags[base + way] = line.raw();
        if victim.is_none() {
            self.resident += 1;
        }
        FillOutcome {
            victim,
            slot: Slot(base + way),
        }
    }

    /// Removes a line, returning its entry.
    pub fn remove(&mut self, line: LineAddr) -> Option<Entry<M>> {
        let slot = self.lookup(line)?;
        Some(self.remove_slot(slot))
    }

    /// Removes the entry at a slot, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    pub fn remove_slot(&mut self, slot: Slot) -> Entry<M> {
        let ways = self.geom.ways();
        let e = self.sets[slot.0 / ways]
            .as_mut()
            .expect("stale slot handle")[slot.0 % ways]
            .take()
            .expect("stale slot handle");
        self.tags[slot.0] = EMPTY_TAG;
        self.resident -= 1;
        e
    }

    /// Iterates all resident entries (for invariant checks and recalls).
    pub fn iter(&self) -> impl Iterator<Item = &Entry<M>> {
        self.sets
            .iter()
            .flatten()
            .flat_map(|set| set.iter())
            .flatten()
    }

    /// Iterates all resident entries mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Entry<M>> {
        self.sets
            .iter_mut()
            .flatten()
            .flat_map(|set| set.iter_mut())
            .flatten()
    }

    /// Number of resident lines. O(1): maintained on fill and remove.
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.iter().count(),
            "resident-line counter out of sync"
        );
        self.resident
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The way index a resident line occupies (for tests).
    pub fn way_of(&self, line: LineAddr) -> Option<usize> {
        self.lookup(line).map(|s| self.way_of_slot(s))
    }

    /// The set index a line maps to (geometry passthrough).
    pub fn set_of(&self, line: LineAddr) -> usize {
        self.geom.set_of(line)
    }

    fn set_range(&self, line: LineAddr) -> (usize, usize) {
        let ways = self.geom.ways();
        (self.geom.set_of(line) * ways, ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(set: u64, alias: u64, sets: u64) -> LineAddr {
        LineAddr::new(set + alias * sets)
    }

    #[test]
    fn fill_and_get() {
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(4, 2));
        let a = LineAddr::new(1);
        assert!(c
            .fill(a, LineData::splat(9), (), EvictionClass::NonReducible)
            .victim
            .is_none());
        assert_eq!(c.get(a).unwrap().data, LineData::splat(9));
        assert!(c.contains(a));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1, 2));
        let (a, b, d) = (LineAddr::new(0), LineAddr::new(1), LineAddr::new(2));
        c.fill(a, LineData::zeroed(), 0, EvictionClass::NonReducible);
        c.fill(b, LineData::zeroed(), 1, EvictionClass::NonReducible);
        c.get(a); // a is now most recent; b is LRU
        let out = c.fill(d, LineData::zeroed(), 2, EvictionClass::NonReducible);
        assert_eq!(out.victim.unwrap().tag, b);
        assert!(c.contains(a) && c.contains(d));
    }

    #[test]
    fn handler_fills_use_reserved_way_only() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1, 4));
        for i in 0..4 {
            c.fill(
                LineAddr::new(i),
                LineData::zeroed(),
                i as u32,
                EvictionClass::NonReducible,
            );
        }
        let h = LineAddr::new(10);
        c.fill(h, LineData::zeroed(), 99, EvictionClass::Handler);
        assert_eq!(c.way_of(h), Some(0));
    }

    #[test]
    fn reducible_fills_avoid_reserved_way() {
        let mut c: CacheArray<u32> = CacheArray::new(CacheGeometry::new(1, 4));
        for i in 0..8 {
            c.fill(
                LineAddr::new(i),
                LineData::zeroed(),
                0,
                EvictionClass::Reducible,
            );
            if i >= 4 {
                // Set stays at 3 resident reducible lines + empty way 0.
                assert_ne!(c.way_of(LineAddr::new(i)), Some(0));
            }
        }
        // Way 0 was never allocated by reducible fills.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn direct_mapped_disables_reservation() {
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(2, 1));
        let a = LineAddr::new(0);
        c.fill(a, LineData::zeroed(), (), EvictionClass::Reducible);
        assert_eq!(c.way_of(a), Some(0));
    }

    #[test]
    fn remove_returns_entry() {
        let mut c: CacheArray<u8> = CacheArray::new(CacheGeometry::new(2, 2));
        let a = LineAddr::new(3);
        c.fill(a, LineData::splat(1), 5, EvictionClass::NonReducible);
        let e = c.remove(a).unwrap();
        assert_eq!(e.meta, 5);
        assert!(!c.contains(a));
        assert!(c.remove(a).is_none());
    }

    /// One step of the model-equivalence trace: mirrors a [`CacheArray`]
    /// mutation against a naive map model.
    #[derive(Clone, Copy, Debug)]
    enum TraceOp {
        Fill(u64),
        Get(u64),
        Remove(u64),
        Touch(u64),
    }

    fn trace_op(raw: u64) -> TraceOp {
        let line = raw >> 2;
        match raw & 3 {
            0 => TraceOp::Fill(line),
            1 => TraceOp::Get(line),
            2 => TraceOp::Remove(line),
            _ => TraceOp::Touch(line),
        }
    }

    proptest! {
        /// The probe-once API (`lookup`/`entry`/`entry_mut`/`touch`/
        /// `remove_slot`) is observably equivalent to the scan-based one
        /// (`peek`/`get`/`contains`/`remove`): random fill/get/remove
        /// traces are replayed against a naive map model, and after every
        /// step both APIs must agree with the model and with each other.
        #[test]
        fn probe_once_matches_scan_model(raws in proptest::collection::vec(0u64..256, 1..300)) {
            let sets = 4u64;
            let mut c: CacheArray<u64> = CacheArray::new(CacheGeometry::new(sets as usize, 2));
            let mut model: std::collections::HashMap<LineAddr, u64> =
                std::collections::HashMap::new();
            for (i, raw) in raws.into_iter().enumerate() {
                let meta = i as u64;
                match trace_op(raw) {
                    TraceOp::Fill(l) => {
                        let l = line(l % sets, l / sets, sets);
                        if !c.contains(l) {
                            let out = c.fill(l, LineData::zeroed(), meta, EvictionClass::NonReducible);
                            if let Some(v) = out.victim {
                                prop_assert_eq!(model.remove(&v.tag), Some(v.meta));
                            }
                            model.insert(l, meta);
                            // The fill's slot handle points at the new entry.
                            prop_assert_eq!(c.entry(out.slot).tag, l);
                            prop_assert_eq!(c.lookup(l), Some(out.slot));
                        }
                    }
                    TraceOp::Get(l) => {
                        let l = line(l % sets, l / sets, sets);
                        let slot = c.lookup(l);
                        prop_assert_eq!(slot.is_some(), model.contains_key(&l));
                        if let Some(s) = slot {
                            let by_slot = (c.entry(s).tag, c.entry(s).meta);
                            let by_peek = c.peek(l).map(|e| (e.tag, e.meta)).unwrap();
                            prop_assert_eq!(by_slot, by_peek);
                            prop_assert_eq!(by_slot.1, model[&l]);
                            prop_assert_eq!(c.way_of_slot(s), c.way_of(l).unwrap());
                        } else {
                            prop_assert!(c.peek(l).is_none());
                            prop_assert!(c.get(l).is_none());
                        }
                    }
                    TraceOp::Remove(l) => {
                        let l = line(l % sets, l / sets, sets);
                        let via_slot = (raw / 4) % 2 == 0;
                        let removed = if via_slot {
                            c.lookup(l).map(|s| c.remove_slot(s))
                        } else {
                            c.remove(l)
                        };
                        prop_assert_eq!(removed.map(|e| e.meta), model.remove(&l));
                        prop_assert!(!c.contains(l));
                    }
                    TraceOp::Touch(l) => {
                        let l = line(l % sets, l / sets, sets);
                        // touch + entry_mut must be get, observably.
                        if let Some(s) = c.lookup(l) {
                            c.touch(s);
                            c.entry_mut(s).meta = meta;
                            model.insert(l, meta);
                            prop_assert_eq!(c.get(l).map(|e| e.meta), Some(meta));
                        }
                    }
                }
                prop_assert_eq!(c.len(), model.len());
            }
            // Final state: every modelled line resident, nothing extra.
            for (&l, &m) in &model {
                prop_assert_eq!(c.peek(l).map(|e| e.meta), Some(m));
            }
            prop_assert_eq!(c.iter().count(), model.len());
        }

        /// A cache never holds more lines than its capacity, never holds
        /// duplicates, and every fill of a missing line lands.
        #[test]
        fn capacity_and_uniqueness(ops in proptest::collection::vec(0u64..64, 1..200)) {
            let sets = 4u64;
            let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(sets as usize, 2));
            for op in ops {
                let l = line(op % sets, op / sets, sets);
                if !c.contains(l) {
                    c.fill(l, LineData::zeroed(), (), EvictionClass::NonReducible);
                }
                prop_assert!(c.contains(l));
            }
            prop_assert!(c.len() <= c.geometry().lines());
            let mut tags: Vec<_> = c.iter().map(|e| e.tag).collect();
            tags.sort();
            tags.dedup();
            prop_assert_eq!(tags.len(), c.len());
        }
    }
}
