//! Distribution helpers for vectors spread across all `p` ranks.
//!
//! CombBLAS distributes vectors over the whole process grid in balanced
//! blocks: rank `k` owns indices `[offsets[k], offsets[k+1])` where the
//! first `n mod p` ranks own one extra element. The matching primitives need
//! two queries: *who owns index i* (to route INVERT traffic) and *how many
//! frontier entries live on each rank* (to find the max-loaded rank for the
//! bulk-synchronous time model).

use mcm_sparse::{SpVec, Vidx};

/// Which of `parts` balanced blocks over `0..n` owns `idx`. O(1).
///
/// Equivalent to `mcm_sparse::triples::block_owner(&block_offsets(n, parts), idx)`
/// without materializing the offsets.
#[inline]
pub fn balanced_owner(n: usize, parts: usize, idx: usize) -> usize {
    debug_assert!(idx < n && parts > 0);
    let base = n / parts;
    let extra = n % parts;
    let big_span = (base + 1) * extra; // indices owned by the `extra` bigger blocks
    if idx < big_span {
        idx / (base + 1)
    } else {
        debug_assert!(base > 0);
        extra + (idx - big_span) / base
    }
}

/// Per-rank explicit-entry counts of a sparse vector distributed in balanced
/// blocks over `p` ranks. The maximum entry is the bottleneck rank's load.
///
/// The entries are sorted, so each rank's are one run: one partition point
/// per rank cut, O(p log nnz), instead of an owner division per entry.
pub fn per_rank_counts<T>(x: &SpVec<T>, p: usize) -> Vec<u64> {
    let (entries, base, extra) = (x.entries(), x.len() / p, x.len() % p);
    let mut counts = Vec::with_capacity(p);
    let mut lo = 0;
    for k in 1..=p {
        // Rank k starts at k · base plus one for each bigger block before it.
        let cut = k * base + k.min(extra);
        let hi = lo + entries[lo..].partition_point(|&(i, _)| (i as usize) < cut);
        counts.push((hi - lo) as u64);
        lo = hi;
    }
    counts
}

/// Per-rank counts of an arbitrary index multiset over `0..n` (e.g. the
/// *destination* ranks of INVERT traffic, where entry values become indices).
pub fn per_rank_index_counts(n: usize, p: usize, indices: impl Iterator<Item = Vidx>) -> Vec<u64> {
    let mut counts = vec![0u64; p];
    for i in indices {
        counts[balanced_owner(n, p, i as usize)] += 1;
    }
    counts
}

/// Maximum of a count vector (0 for empty).
#[inline]
pub fn max_count(counts: &[u64]) -> u64 {
    counts.iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::triples::{block_offsets, block_owner};

    #[test]
    fn balanced_owner_matches_block_offsets() {
        for (n, p) in [(10usize, 3usize), (9, 3), (17, 4), (100, 7), (5, 5), (8, 8)] {
            let off = block_offsets(n, p);
            for idx in 0..n {
                assert_eq!(
                    balanced_owner(n, p, idx),
                    block_owner(&off, idx),
                    "n={n} p={p} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn per_rank_counts_sum_to_nnz() {
        let x = SpVec::from_pairs(10, vec![(0, ()), (3, ()), (4, ()), (9, ())]);
        let c = per_rank_counts(&x, 3);
        // blocks: [0,4), [4,7), [7,10) → counts 2, 1, 1
        assert_eq!(c, vec![2, 1, 1]);
        assert_eq!(c.iter().sum::<u64>() as usize, x.nnz());
    }

    #[test]
    fn per_rank_counts_match_the_owner_division_per_entry() {
        // The partition-point cut against the division form it replaced,
        // over seeded sorted vectors: lengths below, at and above p (so
        // whole ranks are empty), densities from one entry to full.
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0xC077);
        for p in 1..=16usize {
            for n in [0usize, 1, p - 1, p, p + 1, 3 * p + 2, 100, 257] {
                for keep in [1u64, 2, 7, 50] {
                    let idx = (0..n as Vidx).filter(|_| rng.below(keep) == 0);
                    let x = SpVec::from_sorted_pairs(n, idx.map(|i| (i, ())).collect());
                    let mut want = vec![0u64; p];
                    for (i, _) in x.iter() {
                        want[balanced_owner(n, p, i as usize)] += 1;
                    }
                    assert_eq!(per_rank_counts(&x, p), want, "p={p} n={n} nnz={}", x.nnz());
                }
            }
        }
    }

    #[test]
    fn index_counts_route_by_value() {
        let dests = [0u32, 0, 9, 5];
        let c = per_rank_index_counts(10, 2, dests.iter().copied());
        // blocks: [0,5), [5,10) → counts 2, 2
        assert_eq!(c, vec![2, 2]);
    }

    #[test]
    fn max_count_handles_empty() {
        assert_eq!(max_count(&[]), 0);
        assert_eq!(max_count(&[1, 5, 2]), 5);
    }
}
