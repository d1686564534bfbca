//! Mesh network-on-chip latency model.
//!
//! The paper's chip (Table I) is a 16-tile, 128-core system connected by a
//! 4×4 mesh with 2-cycle routers and 1-cycle 256-bit links. Each tile holds
//! 8 cores and one bank of the shared L3. This crate models that topology as
//! a contention-free latency function: a message between two tiles pays
//! `hops × (router_delay + link_delay)` cycles, with XY (dimension-ordered)
//! routing determining the hop count.
//!
//! Contention is not modeled (see "Modeling departures" in
//! docs/ARCHITECTURE.md); the paper's protocol-level traffic reductions
//! are measured as message counts (Fig. 19), which this model reports
//! exactly.
//!
//! # Example
//!
//! ```
//! use commtm_noc::Mesh;
//! use commtm_mem::CoreId;
//!
//! let mesh = Mesh::paper(); // 4x4, 8 cores/tile, 2-cycle routers, 1-cycle links
//! let lat = mesh.core_to_bank(CoreId::new(0), 15);
//! assert_eq!(lat, mesh.bank_to_core(15, CoreId::new(0)));
//! ```

use std::borrow::Cow;

use commtm_mem::{CoreId, LineAddr, MAX_CORES};

/// A tile coordinate in the mesh.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Tile {
    x: u32,
    y: u32,
}

impl Tile {
    /// The next tile in index order on a `cols` × `rows` mesh, wrapping
    /// from the last tile to the first.
    const fn next(self, cols: u32, rows: u32) -> Tile {
        if self.x + 1 < cols {
            Tile {
                x: self.x + 1,
                y: self.y,
            }
        } else if self.y + 1 < rows {
            Tile {
                x: 0,
                y: self.y + 1,
            }
        } else {
            Tile { x: 0, y: 0 }
        }
    }

    /// Manhattan distance to another tile (the XY-routing hop count).
    #[inline]
    pub fn hops_to(self, other: Tile) -> u64 {
        (self.x.abs_diff(other.x) + self.y.abs_diff(other.y)) as u64
    }
}

/// Configuration and latency model for the on-chip mesh.
///
/// Construct with [`Mesh::paper`] for the paper's Table I parameters or
/// [`Mesh::new`] for custom topologies (used by the small test configs).
///
/// Every directory flow asks for several latencies, so the tile of each
/// core and of each of the first 16 banks is looked up in a table (144
/// entries) instead of being derived with divisions on every call.
/// [`Mesh::paper`]'s table is built at compile time and borrowed, so
/// building a machine builds, allocates and copies no table.
#[derive(Clone, Debug)]
pub struct Mesh {
    cols: u32,
    rows: u32,
    router_delay: u64,
    link_delay: u64,
    /// The tile of every core index a [`CoreId`] can hold, then of each
    /// bank below [`TABLE_BANKS`].
    tiles: Cow<'static, [Tile]>,
}

/// Banks whose tiles [`Mesh`] looks up in its table: one per tile of the
/// paper's mesh. Higher banks derive their tile.
const TABLE_BANKS: usize = 16;

/// Entries in a mesh's tile table.
const TABLE_LEN: usize = MAX_CORES + TABLE_BANKS;

/// The tile table of a `cols` × `rows` mesh with `cores_per_tile` cores
/// per tile. It walks the tiles in index order (x runs fastest), wrapping
/// past the last one: cores take them `cores_per_tile` at a time, banks
/// one at a time. No entry costs a division.
const fn tile_table(cols: u32, rows: u32, cores_per_tile: u32) -> [Tile; TABLE_LEN] {
    let origin = Tile { x: 0, y: 0 };
    let mut table = [origin; TABLE_LEN];
    let mut tile = origin;
    let mut left = cores_per_tile;
    let mut i = 0;
    while i < MAX_CORES {
        table[i] = tile;
        i += 1;
        left -= 1;
        if left == 0 {
            tile = tile.next(cols, rows);
            left = cores_per_tile;
        }
    }
    let mut tile = origin;
    while i < TABLE_LEN {
        table[i] = tile;
        tile = tile.next(cols, rows);
        i += 1;
    }
    table
}

impl Mesh {
    /// Creates a mesh with the given geometry and per-hop delays.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        cols: u32,
        rows: u32,
        cores_per_tile: u32,
        router_delay: u64,
        link_delay: u64,
    ) -> Self {
        assert!(
            cols > 0 && rows > 0 && cores_per_tile > 0,
            "mesh dimensions must be non-zero"
        );
        Mesh {
            cols,
            rows,
            router_delay,
            link_delay,
            tiles: Cow::Owned(tile_table(cols, rows, cores_per_tile).to_vec()),
        }
    }

    /// The paper's configuration: 4×4 mesh, 8 cores/tile, 2-cycle routers,
    /// 1-cycle links (Table I).
    pub fn paper() -> Self {
        static TILES: [Tile; TABLE_LEN] = tile_table(4, 4, 8);
        Mesh {
            cols: 4,
            rows: 4,
            router_delay: 2,
            link_delay: 1,
            tiles: Cow::Borrowed(&TILES),
        }
    }

    /// Number of tiles in the mesh.
    pub fn tiles(&self) -> u32 {
        self.cols * self.rows
    }

    /// The tile that hosts `core`.
    #[inline]
    pub fn core_tile(&self, core: CoreId) -> Tile {
        self.tiles[core.index()]
    }

    /// The tile that hosts L3 `bank`.
    ///
    /// Banks map one per tile; bank indices beyond the tile count wrap.
    #[inline]
    pub fn bank_tile(&self, bank: usize) -> Tile {
        match self.tiles.get(MAX_CORES + bank) {
            Some(&tile) => tile,
            None => self.tile(bank as u32 % self.tiles()),
        }
    }

    /// The L3 bank responsible for a line (address-interleaved across
    /// `num_banks`).
    pub fn bank_of(&self, line: LineAddr, num_banks: usize) -> usize {
        // Multiplicative hash so that strided allocations spread over banks.
        let h = line.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % num_banks as u64) as usize
    }

    /// One-way latency between two tiles.
    #[inline]
    pub fn tile_latency(&self, a: Tile, b: Tile) -> u64 {
        a.hops_to(b) * (self.router_delay + self.link_delay)
    }

    /// One-way latency from a core's tile to an L3 bank's tile.
    #[inline]
    pub fn core_to_bank(&self, core: CoreId, bank: usize) -> u64 {
        self.tile_latency(self.core_tile(core), self.bank_tile(bank))
    }

    /// One-way latency from an L3 bank's tile to a core's tile.
    #[inline]
    pub fn bank_to_core(&self, bank: usize, core: CoreId) -> u64 {
        self.core_to_bank(core, bank)
    }

    /// One-way latency between two cores' tiles (used for forwarded data,
    /// e.g. reduction forwards on the dedicated virtual network).
    #[inline]
    pub fn core_to_core(&self, a: CoreId, b: CoreId) -> u64 {
        self.tile_latency(self.core_tile(a), self.core_tile(b))
    }

    /// Worst-case one-way tile latency (used in tests as a sanity bound).
    pub fn max_latency(&self) -> u64 {
        ((self.cols - 1) + (self.rows - 1)) as u64 * (self.router_delay + self.link_delay)
    }

    fn tile(&self, index: u32) -> Tile {
        let index = index % self.tiles();
        Tile {
            x: index % self.cols,
            y: index / self.cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_geometry() {
        let m = Mesh::paper();
        assert_eq!(m.tiles(), 16);
        // 128 cores, 8 per tile: core 0 and core 7 share a tile.
        assert_eq!(m.core_tile(CoreId::new(0)), m.core_tile(CoreId::new(7)));
        assert_ne!(m.core_tile(CoreId::new(0)), m.core_tile(CoreId::new(8)));
    }

    #[test]
    fn same_tile_is_free() {
        let m = Mesh::paper();
        assert_eq!(m.core_to_bank(CoreId::new(0), 0), 0);
        assert_eq!(m.core_to_core(CoreId::new(1), CoreId::new(2)), 0);
    }

    #[test]
    fn corner_to_corner_latency() {
        let m = Mesh::paper();
        // Tile 0 (0,0) to tile 15 (3,3): 6 hops at 3 cycles/hop.
        assert_eq!(m.core_to_bank(CoreId::new(0), 15), 18);
        assert_eq!(m.max_latency(), 18);
    }

    #[test]
    fn banks_cover_range() {
        let m = Mesh::paper();
        let mut seen = [false; 16];
        for i in 0..4096u64 {
            seen[m.bank_of(LineAddr::new(i), 16)] = true;
        }
        assert!(seen.iter().all(|&b| b), "bank hash should touch every bank");
    }

    /// The tile tables give what the division formula gives, for every
    /// core and bank (including banks that wrap) of the paper's mesh and
    /// of the small meshes the tiny test configs build.
    #[test]
    fn tile_tables_match_the_division_formula() {
        let formula = |cols: u32, tiles: u32, index: u32| {
            let t = index % tiles;
            Tile {
                x: t % cols,
                y: t / cols,
            }
        };
        let mut meshes = vec![(Mesh::paper(), 8)];
        meshes.extend((1..=16u32).map(|cores| {
            let per_tile = cores.div_ceil(2);
            (Mesh::new(2, 1, per_tile, 2, 1), per_tile)
        }));
        for (m, per_tile) in meshes {
            let tiles = m.tiles();
            for core in 0..MAX_CORES {
                let expected = formula(m.cols, tiles, core as u32 / per_tile);
                assert_eq!(m.core_tile(CoreId::new(core)), expected, "core {core}");
            }
            for bank in 0..3 * tiles as usize {
                let expected = formula(m.cols, tiles, bank as u32 % tiles);
                assert_eq!(m.bank_tile(bank), expected, "bank {bank}");
            }
        }
    }

    proptest! {
        /// Latency is symmetric and satisfies the triangle inequality.
        #[test]
        fn latency_metric_properties(a in 0usize..128, b in 0usize..128, c in 0usize..128) {
            let m = Mesh::paper();
            let (a, b, c) = (CoreId::new(a), CoreId::new(b), CoreId::new(c));
            prop_assert_eq!(m.core_to_core(a, b), m.core_to_core(b, a));
            prop_assert!(m.core_to_core(a, c) <= m.core_to_core(a, b) + m.core_to_core(b, c));
        }

        /// Bank selection is stable and in range.
        #[test]
        fn bank_in_range(line in 0u64..1_000_000, banks in 1usize..32) {
            let m = Mesh::paper();
            let b = m.bank_of(LineAddr::new(line), banks);
            prop_assert!(b < banks);
            prop_assert_eq!(b, m.bank_of(LineAddr::new(line), banks));
        }
    }
}
