//! Generic set-associative cache array with LRU and reserved-way fills.

use std::cell::Cell;

use commtm_mem::{LineAddr, LineData};

use crate::geometry::CacheGeometry;

/// One resident cache line: tag, data, caller-defined metadata.
#[derive(Clone, Copy, Debug)]
pub struct Entry<M> {
    /// The line address this entry caches.
    pub tag: LineAddr,
    /// The cached data.
    pub data: LineData,
    /// Level-specific metadata (state, spec bits, directory info...).
    pub meta: M,
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
/// A `Slot` names one way of one set: `(block - 1) * ways + way`, an index
/// into the array's dense per-way arrays (tag, LRU stamp, pool index).
/// Repeated accesses through it skip the tag-matching set scan — this is
/// what makes the protocol's probe-once discipline possible (one
/// [`CacheArray::lookup`] per line per operation, then index-based access).
///
/// A slot stays valid until the next [`CacheArray::fill`] or
/// [`CacheArray::remove`] on the array, either of which may vacate or
/// repopulate the way; both advance the array's structure epoch.
/// The `entry`/`entry_mut`/`touch_mut`/`remove_slot`/`discard_slot` accessors
/// panic on a slot whose way has been vacated, even once the line's pooled
/// entry has been reused by another set. A caller that keeps a slot across
/// code that may fill or remove keeps it as a [`Held`] and gets it back
/// through [`CacheArray::reach`], which probes again only if the epoch
/// moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(usize);

/// The result of one probe (a slot, or `None` for a miss) together with
/// the array's structure epoch at the time: still exact while the epoch is
/// unchanged, since only fills and removes move lines between slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Held {
    slot: Option<Slot>,
    epoch: u64,
}

impl Held {
    /// No probe made yet: the first [`CacheArray::reach`] probes. (No
    /// array reaches this epoch: it would take 2^64 fills and removes.)
    pub const UNPROBED: Held = Held {
        slot: None,
        epoch: u64::MAX,
    };
}

/// A set-associative array with LRU replacement, generic over per-line
/// metadata.
///
/// Line storage grows with the lines resident, not with the sets filled:
/// each set that has been filled owns a block of `ways` slots in three
/// dense per-way arrays (tag, LRU stamp, pool index, 20 bytes a way), and
/// each resident line owns one [`Entry`] in a pool whose freed entries are
/// reused by later fills in any set.
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
    /// Per set, the 1-based number of the block holding its ways, or 0
    /// while the set has never been filled. This is the only per-set
    /// state, so building an array writes one word per set: a paper-scale
    /// L3 bank has 64K lines, and sweeps build one machine per grid cell.
    blocks: Vec<u32>,
    /// Per slot, the tag of the resident line, or [`EMPTY_TAG`] when the
    /// way is vacant: the only occupancy record. A w-way probe reads w
    /// consecutive words and never touches an `Entry`.
    tags: Vec<u64>,
    /// Per slot, the LRU stamp of the resident line (stale when vacant).
    lru: Vec<u64>,
    /// Per slot, the pool index of the resident line (stale when vacant).
    lines: Vec<u32>,
    /// The line pool: `CHUNK_LINES` entries to a chunk. A chunk is
    /// allocated when its first entry is handed out and never grows past
    /// its reserved capacity, so a pooled line never moves.
    pool: Vec<Chunk<M>>,
    /// Pool indices freed by removals, reused last-in first-out.
    free: Vec<u32>,
    tick: u64,
    resident: usize,
    /// Structure epoch: advanced by every fill and every remove, the only
    /// operations that change which line a slot holds.
    epoch: u64,
    /// Tag-matching probes ([`CacheArray::lookup`] and everything built
    /// on it) since the array was built: a deterministic work counter.
    probes: Cell<u64>,
}

/// One fixed-size piece of the line pool.
#[derive(Debug)]
struct Chunk<M>(Vec<Entry<M>>);

/// A derived clone would trim the chunk to its length, so the clone's
/// next fill would reallocate (and move) its last chunk.
impl<M: Clone> Clone for Chunk<M> {
    fn clone(&self) -> Self {
        let mut entries = Vec::with_capacity(CHUNK_LINES);
        entries.extend_from_slice(&self.0);
        Chunk(entries)
    }
}

/// log2 of the pool entries per chunk. Growing the pool opens a chunk and
/// copies no line; an array's last chunk is partly empty, so larger
/// chunks cost peak memory.
const CHUNK_LINES_LOG2: u32 = 6;
const CHUNK_LINES: usize = 1 << CHUNK_LINES_LOG2;

/// Sentinel for a vacant slot in the tag array. Line addresses are line
/// *indices* (byte address / 64), so the top of the u64 range is
/// unreachable by construction.
const EMPTY_TAG: u64 = u64::MAX;

impl<M: Copy> CacheArray<M> {
    /// Creates an empty array with the given geometry. Allocates one word
    /// per set and no line storage.
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(
            u32::try_from(geom.lines()).is_ok(),
            "line count must fit in 32 bits"
        );
        CacheArray {
            geom,
            blocks: vec![0; geom.sets()],
            tags: Vec::new(),
            lru: Vec::new(),
            lines: Vec::new(),
            pool: Vec::new(),
            free: Vec::new(),
            tick: 0,
            resident: 0,
            epoch: 0,
            probes: Cell::new(0),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Slots allocated so far: `ways` per set that has ever been filled.
    /// For tests and diagnostics (a fresh array reports 0).
    pub fn allocated_slots(&self) -> usize {
        self.tags.len()
    }

    /// Pool entries allocated so far: the most lines ever resident at
    /// once, since a fill reuses a freed entry before it grows the pool.
    /// For tests and diagnostics (a fresh array reports 0).
    pub fn pooled_lines(&self) -> usize {
        self.resident + self.free.len()
    }

    /// Tag-matching probes made so far: every [`CacheArray::lookup`],
    /// including those behind `peek`, `get`, `contains` and `remove`, and
    /// the probes of [`CacheArray::reach`].
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Pins a probe result (a slot, or `None` for a miss) to the current
    /// epoch, for [`CacheArray::reach`].
    #[inline]
    pub fn hold(&self, slot: Option<Slot>) -> Held {
        Held {
            slot,
            epoch: self.epoch,
        }
    }

    /// The slot of `line` from an earlier probe of it: the held result
    /// while no fill or remove has run since, else (or when `held` is
    /// [`Held::UNPROBED`]) a fresh [`CacheArray::lookup`], which `held`
    /// then keeps.
    #[inline]
    pub fn reach(&self, held: &mut Held, line: LineAddr) -> Option<Slot> {
        if held.epoch == self.epoch {
            debug_assert_eq!(held.slot, self.find(line), "held slot of {line} moved");
        } else {
            *held = self.hold(self.lookup(line));
        }
        held.slot
    }

    /// Locates a resident line without updating recency: the single
    /// tag-matching probe of an operation. All further access goes through
    /// the returned [`Slot`] via [`CacheArray::entry`],
    /// [`CacheArray::entry_mut`] and [`CacheArray::touch_mut`].
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<Slot> {
        self.probes.set(self.probes.get() + 1);
        self.find(line)
    }

    /// [`CacheArray::lookup`] without counting the probe, for assertions.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<Slot> {
        let block = self.blocks[self.geom.set_of(line)];
        if block == 0 {
            return None;
        }
        let base = self.block_base(block);
        let raw = line.raw();
        self.tags[base..base + self.geom.ways()]
            .iter()
            .position(|&t| t == raw)
            .map(|w| Slot(base + w))
    }

    /// The entry at a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    #[inline]
    pub fn entry(&self, slot: Slot) -> &Entry<M> {
        let i = self.pool_index(slot);
        &self.pool[i >> CHUNK_LINES_LOG2].0[i & (CHUNK_LINES - 1)]
    }

    /// The entry at a slot, mutably. Does not update recency; use
    /// [`CacheArray::touch_mut`] where the access should refresh LRU order.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    #[inline]
    pub fn entry_mut(&mut self, slot: Slot) -> &mut Entry<M> {
        let i = self.pool_index(slot);
        &mut self.pool[i >> CHUNK_LINES_LOG2].0[i & (CHUNK_LINES - 1)]
    }

    /// The entry at a slot, mutably, marked most-recently used (what
    /// [`CacheArray::get`] does, without the probe).
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    #[inline]
    pub fn touch_mut(&mut self, slot: Slot) -> &mut Entry<M> {
        let i = self.pool_index(slot);
        self.tick += 1;
        self.lru[slot.0] = self.tick;
        &mut self.pool[i >> CHUNK_LINES_LOG2].0[i & (CHUNK_LINES - 1)]
    }

    /// The way index of a slot within its set.
    #[inline]
    pub fn way_of_slot(&self, slot: Slot) -> usize {
        slot.0 % self.geom.ways()
    }

    /// Looks up a line without updating recency.
    pub fn peek(&self, line: LineAddr) -> Option<&Entry<M>> {
        self.lookup(line).map(|s| self.entry(s))
    }

    /// [`CacheArray::peek`] for audits and diagnostics: the probe is not
    /// counted in [`CacheArray::probes`], so checking a run does not change
    /// its work counters.
    pub fn inspect(&self, line: LineAddr) -> Option<&Entry<M>> {
        self.find(line).map(|s| self.entry(s))
    }

    /// Looks up a line and marks it most-recently used.
    pub fn get(&mut self, line: LineAddr) -> Option<&mut Entry<M>> {
        match self.lookup(line) {
            Some(s) => Some(self.touch_mut(s)),
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
        debug_assert!(self.find(line).is_none(), "fill of resident line {line}");
        debug_assert_ne!(
            line.raw(),
            EMPTY_TAG,
            "line index collides with the vacant sentinel"
        );
        self.tick += 1;
        self.epoch += 1;
        let ways = self.geom.ways();
        let set = self.geom.set_of(line);
        let base = match self.blocks[set] {
            0 => self.new_block(set),
            block => self.block_base(block),
        };
        let (lo, hi) = match class {
            EvictionClass::Handler if ways > 1 => (0usize, 1usize),
            EvictionClass::Reducible if ways > 1 => (1usize, ways),
            _ => (0usize, ways),
        };

        // The first vacant way in the allowed range, else the least
        // recently used one.
        let range = base + lo..base + hi;
        let vacant = self.tags[range.clone()]
            .iter()
            .position(|&t| t == EMPTY_TAG);
        let slot = match vacant {
            Some(w) => range.start + w,
            None => range
                .min_by_key(|&s| self.lru[s])
                .expect("eviction range is never empty"),
        };
        let entry = Entry {
            tag: line,
            data,
            meta,
        };
        let victim = if self.tags[slot] == EMPTY_TAG {
            let index = self.pool_push(entry);
            self.lines[slot] = index;
            self.resident += 1;
            None
        } else {
            Some(std::mem::replace(self.entry_mut(Slot(slot)), entry))
        };
        self.tags[slot] = line.raw();
        self.lru[slot] = self.tick;
        FillOutcome {
            victim,
            slot: Slot(slot),
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
        let e = *self.entry(slot);
        self.discard_slot(slot);
        e
    }

    /// Removes the entry at a slot without copying it out.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been vacated since the lookup.
    #[inline]
    pub fn discard_slot(&mut self, slot: Slot) {
        let i = self.pool_index(slot);
        self.free.push(i as u32);
        self.tags[slot.0] = EMPTY_TAG;
        self.resident -= 1;
        self.epoch += 1;
    }

    /// Iterates all resident entries in (set, way) order (for invariant
    /// checks and recalls).
    pub fn iter(&self) -> impl Iterator<Item = &Entry<M>> {
        let ways = self.geom.ways();
        self.blocks
            .iter()
            .filter(|&&block| block != 0)
            .flat_map(move |&block| {
                let base = self.block_base(block);
                base..base + ways
            })
            .filter(|&s| self.tags[s] != EMPTY_TAG)
            .map(|s| self.entry(Slot(s)))
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

    /// The way index a resident line occupies (for tests and audits; not
    /// counted in [`CacheArray::probes`]).
    pub fn way_of(&self, line: LineAddr) -> Option<usize> {
        self.find(line).map(|s| self.way_of_slot(s))
    }

    /// The set index a line maps to (geometry passthrough).
    pub fn set_of(&self, line: LineAddr) -> usize {
        self.geom.set_of(line)
    }

    /// The slot of way 0 of a (1-based) block.
    #[inline]
    fn block_base(&self, block: u32) -> usize {
        (block as usize - 1) * self.geom.ways()
    }

    /// Hands the next block to `set` and returns its base slot.
    fn new_block(&mut self, set: usize) -> usize {
        let base = self.tags.len();
        let end = base + self.geom.ways();
        self.tags.resize(end, EMPTY_TAG);
        self.lru.resize(end, 0);
        self.lines.resize(end, 0);
        self.blocks[set] = (end / self.geom.ways()) as u32;
        base
    }

    /// The pool index of the line at a slot. The tag check is the stale
    /// handle check: the pool entry itself may since have been reused by
    /// another set.
    #[inline]
    fn pool_index(&self, slot: Slot) -> usize {
        assert_ne!(self.tags[slot.0], EMPTY_TAG, "stale slot handle");
        self.lines[slot.0] as usize
    }

    /// Stores an entry in the most recently freed pool index, or else at
    /// the end of the pool (opening a chunk if the last one is full), and
    /// returns its index.
    fn pool_push(&mut self, entry: Entry<M>) -> u32 {
        if let Some(i) = self.free.pop() {
            self.pool[i as usize >> CHUNK_LINES_LOG2].0[i as usize & (CHUNK_LINES - 1)] = entry;
            return i;
        }
        let i = self.pooled_lines();
        if i & (CHUNK_LINES - 1) == 0 {
            self.pool.push(Chunk(Vec::with_capacity(CHUNK_LINES)));
        }
        let chunk = self.pool.last_mut().expect("a chunk was just ensured");
        chunk.0.push(entry);
        i as u32
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

    /// Line storage is one pooled entry per resident line: on a Table I
    /// L3 bank's geometry, one line in each of N sets pools N entries (not
    /// 16·N), and a fill after a remove reuses the freed entry whatever
    /// set it lands in.
    #[test]
    fn pool_holds_one_entry_per_resident_line() {
        let (sets, ways) = (4096u64, 16);
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(sets as usize, ways));
        assert_eq!((c.allocated_slots(), c.pooled_lines()), (0, 0));
        let n = 300;
        for set in 0..n {
            let l = line(set * 13 % sets, 0, sets);
            c.fill(l, LineData::zeroed(), (), EvictionClass::NonReducible);
        }
        assert_eq!(c.pooled_lines(), n as usize);
        assert_eq!(c.allocated_slots(), n as usize * ways);
        // A second line in a filled set pools one more entry, no slots.
        c.fill(
            line(0, 1, sets),
            LineData::zeroed(),
            (),
            EvictionClass::NonReducible,
        );
        assert_eq!(c.pooled_lines(), n as usize + 1);
        assert_eq!(c.allocated_slots(), n as usize * ways);
        // Remove then fill in a fresh set: the freed entry is reused.
        c.remove(line(0, 1, sets)).unwrap();
        c.remove(line(13, 0, sets)).unwrap();
        for l in [line(4000, 0, sets), line(4001, 0, sets)] {
            c.fill(l, LineData::zeroed(), (), EvictionClass::NonReducible);
            assert_eq!(c.pooled_lines(), n as usize + 1, "after filling {l}");
        }
        assert_eq!(c.len(), n as usize + 1);
    }

    /// Whether `f` panics.
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    /// A `Slot` kept across `remove_slot` is refused by every slot
    /// accessor, also once its freed pool entry holds another set's line:
    /// the check is on the slot's tag, not on the pool entry.
    #[test]
    fn stale_slot_handles_panic_even_after_the_entry_is_reused() {
        let sets = 64u64;
        let mut c: CacheArray<u64> = CacheArray::new(CacheGeometry::new(sets as usize, 4));
        let a = line(5, 0, sets);
        let slot = c
            .fill(a, LineData::zeroed(), 1, EvictionClass::NonReducible)
            .slot;
        let assert_stale = |c: &mut CacheArray<u64>| {
            assert!(panics(|| {
                c.entry(slot);
            }));
            assert!(panics(|| {
                c.entry_mut(slot);
            }));
            assert!(panics(|| {
                c.touch_mut(slot);
            }));
            assert!(panics(|| {
                c.remove_slot(slot);
            }));
            assert!(panics(|| c.discard_slot(slot)));
        };
        c.remove_slot(slot);
        assert_stale(&mut c);
        let b = line(9, 0, sets);
        c.fill(b, LineData::splat(2), 2, EvictionClass::NonReducible);
        assert_eq!(c.pooled_lines(), 1, "b took a's freed entry");
        assert_stale(&mut c);
        assert_eq!(c.peek(b).map(|e| (e.tag, e.meta)), Some((b, 2)));
        assert_eq!(c.len(), 1);
    }

    /// A held probe result is reused, without a probe, while the epoch
    /// stands; a fill or a remove anywhere in the array moves the epoch, and
    /// the next `reach` probes again. Audits (`inspect`, `way_of`) are not
    /// counted.
    #[test]
    fn held_slots_are_reused_until_the_structure_changes() {
        let sets = 8u64;
        let mut c: CacheArray<u64> = CacheArray::new(CacheGeometry::new(sets as usize, 2));
        let (a, b) = (line(1, 0, sets), line(2, 0, sets));
        let slot = c
            .fill(a, LineData::zeroed(), 1, EvictionClass::NonReducible)
            .slot;
        assert_eq!(c.probes(), 0);
        let mut held = Held::UNPROBED;
        assert_eq!(c.reach(&mut held, a), Some(slot));
        assert_eq!(c.probes(), 1);
        c.touch_mut(slot).meta = 2;
        assert_eq!(c.reach(&mut held, a), Some(slot), "a touch moves no line");
        assert_eq!(c.probes(), 1);
        // A miss is held too.
        let mut missing = Held::UNPROBED;
        assert_eq!(c.reach(&mut missing, b), None);
        assert_eq!(c.reach(&mut missing, b), None);
        assert_eq!(c.probes(), 2);
        // A fill in another set moves the epoch: both probe again.
        c.fill(b, LineData::zeroed(), 3, EvictionClass::NonReducible);
        assert_eq!(c.reach(&mut held, a), Some(slot));
        assert!(c.reach(&mut missing, b).is_some());
        assert_eq!(c.probes(), 4);
        // So does a remove; a removed line's held slot reads as a miss.
        c.discard_slot(slot);
        assert_eq!(c.reach(&mut held, a), None);
        assert_eq!(c.probes(), 5);
        assert!(c.inspect(b).is_some() && c.way_of(b).is_some());
        assert_eq!(c.probes(), 5);
    }

    /// Opening new pool chunks (in the array or in a clone of it) never
    /// moves a resident line.
    #[test]
    fn growth_never_moves_a_line() {
        let sets = 256u64;
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(sets as usize, 12));
        let a = line(5, 0, sets);
        c.fill(a, LineData::zeroed(), (), EvictionClass::NonReducible);
        let mut copy = c.clone();
        let before = (
            c.peek(a).unwrap() as *const Entry<()>,
            copy.peek(a).unwrap() as *const Entry<()>,
        );
        for set in 6..sets {
            for arr in [&mut c, &mut copy] {
                let l = line(set, 0, sets);
                arr.fill(l, LineData::zeroed(), (), EvictionClass::NonReducible);
            }
        }
        assert!(c.pool.len() > 2 && copy.pool.len() > 2);
        let after = (
            c.peek(a).unwrap() as *const Entry<()>,
            copy.peek(a).unwrap() as *const Entry<()>,
        );
        assert_eq!(before, after);
    }

    /// `iter()` is set-major whatever order the sets were first filled in,
    /// so `check_invariants` reports the same first violation as it would
    /// with a dense array.
    #[test]
    fn iter_is_set_major_whatever_the_fill_order() {
        let sets = 64u64;
        let mut c: CacheArray<u64> = CacheArray::new(CacheGeometry::new(sets as usize, 12));
        // Last set first: block numbers and pool indices run against set
        // order, across pool chunks.
        for set in (0..sets).rev() {
            for alias in 0..2 {
                let l = line(set, alias, sets);
                c.fill(l, LineData::zeroed(), l.raw(), EvictionClass::NonReducible);
            }
        }
        assert!(c.pool.len() > 1);
        let seen: Vec<u64> = c.iter().map(|e| e.meta).collect();
        let expected: Vec<u64> = (0..sets)
            .flat_map(|set| (0..2).map(move |alias| line(set, alias, sets).raw()))
            .collect();
        assert_eq!(seen, expected);
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

    /// Replays a fill/get/remove/touch trace against a naive map model.
    /// After every step the probe-once API (`lookup`/`entry`/`entry_mut`/
    /// `touch_mut`/`remove_slot`/`discard_slot`) and the
    /// scan-based one (`peek`/`get`/`contains`/`remove`) must agree with
    /// the model and with each other;
    /// at the end `iter()` must yield exactly the model's lines, in
    /// (set, way) order. Returns the array for shape checks.
    fn check_against_model(
        geom: CacheGeometry,
        trace: impl IntoIterator<Item = (TraceOp, EvictionClass)>,
    ) -> Result<CacheArray<u64>, TestCaseError> {
        let mut c: CacheArray<u64> = CacheArray::new(geom);
        let mut model: std::collections::HashMap<LineAddr, u64> = std::collections::HashMap::new();
        for (i, (op, class)) in trace.into_iter().enumerate() {
            let meta = i as u64;
            match op {
                TraceOp::Fill(l) => {
                    let l = LineAddr::new(l);
                    if !c.contains(l) {
                        let out = c.fill(l, LineData::zeroed(), meta, class);
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
                    let l = LineAddr::new(l);
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
                    let way = l % 3;
                    let l = LineAddr::new(l);
                    let expected = model.remove(&l);
                    match way {
                        0 => {
                            let removed = c.lookup(l).map(|s| c.remove_slot(s));
                            prop_assert_eq!(removed.map(|e| e.meta), expected);
                        }
                        1 => {
                            let removed = c.remove(l);
                            prop_assert_eq!(removed.map(|e| e.meta), expected);
                        }
                        _ => {
                            let slot = c.lookup(l);
                            prop_assert_eq!(slot.is_some(), expected.is_some());
                            if let Some(s) = slot {
                                c.discard_slot(s);
                            }
                        }
                    }
                    prop_assert!(!c.contains(l));
                }
                TraceOp::Touch(l) => {
                    let l = LineAddr::new(l);
                    // touch_mut must be get, observably.
                    if let Some(s) = c.lookup(l) {
                        c.touch_mut(s).meta = meta;
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
        let order: Vec<(usize, usize)> = c
            .iter()
            .map(|e| (c.set_of(e.tag), c.way_of(e.tag).unwrap()))
            .collect();
        prop_assert_eq!(order.len(), model.len());
        prop_assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "iter() left (set, way) order: {order:?}"
        );
        Ok(c)
    }

    proptest! {
        /// The probe-once API is observably equivalent to the scan-based
        /// one on a small array (see [`check_against_model`]).
        #[test]
        fn probe_once_matches_scan_model(raws in proptest::collection::vec(0u64..256, 1..300)) {
            let trace = raws.into_iter().map(|r| (trace_op(r), EvictionClass::NonReducible));
            check_against_model(CacheGeometry::new(4, 2), trace)?;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The same model equivalence on arrays spanning several pool
        /// chunks, with associativities that do not divide a chunk (12 and
        /// 3 ways) or exceed one (257 ways), and all three fill classes so
        /// reserved-way evictions happen in every chunk.
        #[test]
        fn probe_once_matches_scan_model_across_chunks(
            shape in 0usize..3,
            steps in proptest::collection::vec((0u64..4096, 0u8..4), 400..800),
        ) {
            let geom = [
                CacheGeometry::new(64, 12),
                CacheGeometry::new(256, 3),
                CacheGeometry::new(8, 257),
            ][shape];
            let trace = steps.into_iter().map(|(r, class)| {
                let class = match class {
                    0 => EvictionClass::Reducible,
                    1 => EvictionClass::Handler,
                    _ => EvictionClass::NonReducible,
                };
                (trace_op(r), class)
            });
            let c = check_against_model(geom, trace)?;
            prop_assert!(c.pool.len() > 1, "trace stayed in one pool chunk");
        }
    }
}
