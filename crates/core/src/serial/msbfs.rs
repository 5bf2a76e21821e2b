//! Serial multi-source BFS matching: a direct transliteration of
//! Algorithm 1, in plain graph terms.
//!
//! This is the semantic reference for the matrix-algebraic MCM-DIST: both
//! run phases of level-synchronous searches from all unmatched columns,
//! keep alternating trees vertex-disjoint via first-touch ownership of rows,
//! collect at most one augmenting path per tree, and augment them all at the
//! end of the phase. The test suite cross-checks phase counts and
//! cardinalities between the two.

use crate::matching::Matching;
use mcm_sparse::{CscView, Vidx, NIL};

/// Statistics of one `ms_bfs_serial` run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsBfsStats {
    /// Number of phases executed (including the final empty one).
    pub phases: usize,
    /// Total level-synchronous iterations across phases.
    pub iterations: usize,
    /// Total augmenting paths applied.
    pub augmentations: usize,
}

/// Maximum matching by serial MS-BFS (Algorithm 1) on `a` (an owned `Csc`
/// or a borrowed [`CscView`]), warm-started from `init` when given.
pub fn ms_bfs_serial<'a>(
    a: impl Into<CscView<'a>>,
    init: Option<Matching>,
) -> (Matching, MsBfsStats) {
    let a = a.into();
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = init.unwrap_or_else(|| Matching::empty(n1, n2));
    let mut stats = MsBfsStats::default();

    // π_r: parent column of each visited row this phase; root_r: its tree.
    let mut parent_r = vec![NIL; n1];
    let mut root_r = vec![NIL; n1];
    // path_c[root] = end row of the augmenting path found for this tree.
    let mut path_c = vec![NIL; n2];
    // dead[root] = tree already yielded a path this phase (prune rule).
    let mut dead_root = vec![false; n2];

    loop {
        stats.phases += 1;
        parent_r.fill(NIL);
        root_r.fill(NIL);
        path_c.fill(NIL);
        dead_root.fill(false);

        // Initial column frontier: unmatched columns, each its own root.
        let mut frontier: Vec<(Vidx, Vidx)> =
            m.unmatched_cols().into_iter().map(|c| (c, c)).collect(); // (column, root)
        let mut found_any = false;

        while !frontier.is_empty() {
            stats.iterations += 1;
            let mut next: Vec<(Vidx, Vidx)> = Vec::new();
            for &(c, root) in &frontier {
                if dead_root[root as usize] {
                    continue; // pruned: this tree already has a path
                }
                for &r in a.col(c as usize) {
                    if parent_r[r as usize] != NIL {
                        continue; // row already claimed by some tree
                    }
                    if dead_root[root as usize] {
                        break;
                    }
                    parent_r[r as usize] = c;
                    root_r[r as usize] = root;
                    let mate = m.mate_r.get(r);
                    if mate == NIL {
                        // Augmenting path discovered: record and prune tree.
                        path_c[root as usize] = r;
                        dead_root[root as usize] = true;
                        found_any = true;
                    } else {
                        next.push((mate, root));
                    }
                }
            }
            frontier = next;
        }

        if !found_any {
            break;
        }

        // Augment every recorded path by walking parents/mates upward.
        for root in 0..n2 {
            let mut r = path_c[root];
            if r == NIL {
                continue;
            }
            stats.augmentations += 1;
            loop {
                let c = parent_r[r as usize];
                let next_r = m.mate_c.get(c);
                m.mate_r.set(r, c);
                m.mate_c.set(c, r);
                if next_r == NIL {
                    break; // reached the root column
                }
                r = next_r;
            }
        }
    }
    (m, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use mcm_sparse::Triples;

    #[test]
    fn finds_maximum_on_fig2() {
        let a = Triples::from_edges(
            4,
            5,
            vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
        )
        .to_csc();
        let (m, stats) = ms_bfs_serial(&a, None);
        m.validate(&a).unwrap();
        assert_eq!(m.cardinality(), 4);
        assert!(stats.phases >= 1);
        assert_eq!(stats.augmentations, 4);
    }

    #[test]
    fn agrees_with_hk_on_random_graphs() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(23);
        for trial in 0..40 {
            let n1 = 4 + (rng.next_u64() % 40) as usize;
            let n2 = 4 + (rng.next_u64() % 40) as usize;
            let edges = (rng.next_u64() % (3 * n1.max(n2) as u64)) as usize;
            let mut t = Triples::new(n1, n2);
            for _ in 0..edges {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            let a = t.to_csc();
            let (m, _) = ms_bfs_serial(&a, None);
            m.validate(&a).unwrap();
            assert_eq!(m.cardinality(), hopcroft_karp(&a, None).cardinality(), "trial {trial}");
        }
    }

    #[test]
    fn warm_start_reduces_phases() {
        let a = Triples::from_edges(4, 4, vec![(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2)])
            .to_csc();
        let mut init = Matching::empty(4, 4);
        for i in 0..4 {
            init.add(i, i);
        }
        let (m, stats) = ms_bfs_serial(&a, Some(init));
        assert_eq!(m.cardinality(), 4);
        // Perfect initial matching → a single (empty) phase.
        assert_eq!(stats.phases, 1);
        assert_eq!(stats.augmentations, 0);
    }

    #[test]
    fn empty_graph_terminates() {
        let a = Triples::new(3, 3).to_csc();
        let (m, stats) = ms_bfs_serial(&a, None);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(stats.phases, 1);
    }
}
