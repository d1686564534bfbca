//! Deterministic cell→shard assignment for multi-process grid farming.
//!
//! A shard is one of `n` independent processes (or machines) that each
//! own a disjoint slice of a grid. The assignment is a pure function of
//! the cell cost vector — longest-processing-time-first greedy
//! bin-packing, the same cost model the sweep executor uses for claim
//! order ([`crate::exec::estimated_cost_in`]) — so every shard process
//! derives the identical partition from the manifest alone, with no
//! coordination channel between them.

use std::fmt;

/// One slice of an `n`-way sharded run: shard `index` of `total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index, `< total`.
    pub index: usize,
    /// Total number of shards, ≥ 1.
    pub total: usize,
}

impl Shard {
    /// The trivial single-shard slice that owns every cell.
    pub const WHOLE: Shard = Shard { index: 0, total: 1 };

    /// Parses the CLI form `i/n` (e.g. `0/4`), with `0 <= i < n`.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("--shard expects i/n (e.g. 0/4), got {text:?}"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("--shard index must be an integer, got {i:?}"))?;
        let total: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("--shard count must be an integer, got {n:?}"))?;
        if total == 0 {
            return Err("--shard count must be >= 1".to_string());
        }
        if index >= total {
            return Err(format!(
                "--shard index {index} out of range for {total} shard(s) (indices are 0-based)"
            ));
        }
        Ok(Shard { index, total })
    }

    /// Whether this is the whole-grid (unsharded) slice.
    pub fn is_whole(&self) -> bool {
        self.total == 1
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// Assigns each cell (by position in `costs`) to one of `total` shards:
/// cells are visited longest-first (ties by index, matching
/// [`crate::exec::schedule_order_in`]'s stable sort) and each goes to the
/// currently least-loaded shard (ties to the lowest shard index). The
/// result is a total, disjoint, deterministic partition; with
/// `total >= 2` and enough cells every shard receives work, and shard
/// loads are balanced to within one longest cell.
pub fn assign(costs: &[u64], total: usize) -> Vec<usize> {
    let total = total.max(1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let mut load = vec![0u64; total];
    let mut shard_of = vec![0usize; costs.len()];
    for cell in order {
        let lightest = (0..total).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        shard_of[cell] = lightest;
        load[lightest] = load[lightest].saturating_add(costs[cell].max(1));
    }
    shard_of
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_and_rejects_invalid() {
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::WHOLE);
        assert_eq!(Shard::parse("2/4").unwrap(), Shard { index: 2, total: 4 });
        assert!(Shard::parse("4/4").is_err(), "index must be < total");
        assert!(Shard::parse("0/0").is_err(), "zero shards is meaningless");
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert_eq!(Shard { index: 2, total: 4 }.to_string(), "2/4");
    }

    #[test]
    fn assignment_is_a_disjoint_complete_partition() {
        let costs: Vec<u64> = (0..37).map(|i| (i * 7919 % 101) + 1).collect();
        for total in 1..=6 {
            let shard_of = assign(&costs, total);
            assert_eq!(shard_of.len(), costs.len(), "every cell assigned");
            assert!(shard_of.iter().all(|&s| s < total), "indices in range");
            // Disjoint + complete by construction: each cell appears in
            // exactly the one shard its entry names. Check coverage: the
            // union over shards of owned cells is 0..len with no overlap.
            let mut seen = vec![false; costs.len()];
            for shard in 0..total {
                for (cell, &s) in shard_of.iter().enumerate() {
                    if s == shard {
                        assert!(!seen[cell], "cell {cell} owned by two shards");
                        seen[cell] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&v| v), "some cell owned by no shard");
        }
    }

    #[test]
    fn assignment_is_deterministic_and_balanced() {
        let costs: Vec<u64> = (0..64).map(|i| (i * 31 % 17) * 100 + 1).collect();
        let a = assign(&costs, 4);
        let b = assign(&costs, 4);
        assert_eq!(a, b, "pure function of (costs, total)");
        let mut load = [0u64; 4];
        for (cell, &s) in a.iter().enumerate() {
            load[s] += costs[cell].max(1);
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        let longest = costs.iter().map(|&c| c.max(1)).max().unwrap();
        assert!(
            max - min <= longest,
            "LPT greedy balances to within one longest cell: {load:?}"
        );
        assert!(load.iter().all(|&l| l > 0), "every shard gets work");
    }

    #[test]
    fn single_shard_owns_everything() {
        let costs = [5, 1, 9];
        assert_eq!(assign(&costs, 1), vec![0, 0, 0]);
        // total = 0 is clamped, not a panic.
        assert_eq!(assign(&costs, 0), vec![0, 0, 0]);
    }
}
