//! Hopcroft–Karp: the `O(m√n)` maximum bipartite matching oracle.
//!
//! Each phase runs one BFS from all unmatched columns to build the layered
//! alternating-level structure, then one pass of layered DFS to extract a
//! maximal set of vertex-disjoint shortest augmenting paths. The number of
//! phases is `O(√n)` [Hopcroft & Karp 1973]. This implementation is the
//! correctness oracle for every distributed run in the test suite.

use crate::matching::Matching;
use mcm_sparse::{CscView, Vidx, NIL};

const INF: u32 = u32::MAX;

/// Computes a maximum cardinality matching of the bipartite graph whose
/// column-to-row adjacency is `a` (an owned `Csc` or a borrowed
/// [`CscView`]), optionally warm-started from `init`.
///
/// # Example
///
/// ```
/// use mcm_core::serial::hopcroft_karp;
/// use mcm_sparse::Triples;
///
/// // The greedy trap: (r0,c0) blocks perfection; HK must augment.
/// let a = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc();
/// let m = hopcroft_karp(&a, None);
/// assert_eq!(m.cardinality(), 2);
/// ```
pub fn hopcroft_karp<'a>(a: impl Into<CscView<'a>>, init: Option<Matching>) -> Matching {
    let a = a.into();
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = init.unwrap_or_else(|| Matching::empty(n1, n2));
    debug_assert!(m.validate(a).is_ok());

    // dist[c] = BFS layer of column c; rows are implicit between layers.
    let mut dist = vec![INF; n2];
    let mut queue: Vec<Vidx> = Vec::with_capacity(n2);

    loop {
        // ---- BFS: layer columns by shortest alternating path length. ----
        queue.clear();
        for c in 0..n2 {
            if !m.col_matched(c as Vidx) {
                dist[c] = 0;
                queue.push(c as Vidx);
            } else {
                dist[c] = INF;
            }
        }
        let mut found_free_row = false;
        let mut head = 0;
        while head < queue.len() {
            let c = queue[head];
            head += 1;
            for &r in a.col(c as usize) {
                let mate = m.mate_r.get(r);
                if mate == NIL {
                    found_free_row = true;
                } else if dist[mate as usize] == INF {
                    dist[mate as usize] = dist[c as usize] + 1;
                    queue.push(mate);
                }
            }
        }
        if !found_free_row {
            break; // no augmenting path exists: matching is maximum
        }

        // ---- DFS along strictly increasing layers. -----------------------
        // `row_used` guards vertex-disjointness of the paths in this phase.
        let mut row_used = vec![false; n1];
        for c0 in 0..n2 {
            if !m.col_matched(c0 as Vidx) && dist[c0] == 0 {
                let _ = dfs(a, &mut m, &mut dist, &mut row_used, c0 as Vidx);
            }
        }
    }
    m
}

/// Layered DFS from column `c`; returns `true` when an augmenting path was
/// found and flipped.
fn dfs(a: CscView<'_>, m: &mut Matching, dist: &mut [u32], row_used: &mut [bool], c: Vidx) -> bool {
    for &r in a.col(c as usize) {
        if row_used[r as usize] {
            continue;
        }
        let mate = m.mate_r.get(r);
        let advance = if mate == NIL {
            true
        } else {
            dist[mate as usize] == dist[c as usize] + 1 && dfs(a, m, dist, row_used, mate)
        };
        if advance {
            row_used[r as usize] = true;
            m.mate_r.set(r, c);
            m.mate_c.set(c, r);
            return true;
        }
    }
    // Dead end: prune this column from the current phase.
    dist[c as usize] = INF;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::Triples;

    fn mcm(edges: Vec<(Vidx, Vidx)>, n1: usize, n2: usize) -> usize {
        let a = Triples::from_edges(n1, n2, edges).to_csc();
        let m = hopcroft_karp(&a, None);
        m.validate(&a).unwrap();
        m.cardinality()
    }

    #[test]
    fn perfect_matching_on_diagonal() {
        assert_eq!(mcm(vec![(0, 0), (1, 1), (2, 2)], 3, 3), 3);
    }

    #[test]
    fn needs_augmentation() {
        // Greedy matching (0,0) blocks the perfect matching; HK must augment.
        // Edges: r0-c0, r0-c1, r1-c0 → maximum = 2 via (r0,c1),(r1,c0).
        assert_eq!(mcm(vec![(0, 0), (0, 1), (1, 0)], 2, 2), 2);
    }

    #[test]
    fn deficient_graph() {
        // Two columns share the single row: maximum = 1 (König deficiency).
        assert_eq!(mcm(vec![(0, 0), (0, 1)], 1, 2), 1);
    }

    #[test]
    fn paper_fig2_graph_has_perfect_column_matching_deficiency() {
        // Fig 2: 4 rows, 5 columns, so at most 4 columns can be matched.
        let edges = vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)];
        assert_eq!(mcm(edges, 4, 5), 4);
    }

    #[test]
    fn empty_graph() {
        assert_eq!(mcm(vec![], 3, 3), 0);
    }

    #[test]
    fn warm_start_is_respected() {
        let a = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc();
        let mut init = Matching::empty(2, 2);
        init.add(0, 0); // suboptimal greedy start
        let m = hopcroft_karp(&a, Some(init));
        assert_eq!(m.cardinality(), 2);
        m.validate(&a).unwrap();
    }

    #[test]
    fn long_augmenting_chain() {
        // Path graph: c0-r0-c1-r1-c2-r2 ... matching must ripple down.
        // Edges: (ri, ci) and (ri, c_{i+1}).
        let k = 50;
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push((i as Vidx, i as Vidx));
            if i + 1 < k {
                edges.push((i as Vidx, (i + 1) as Vidx));
            }
        }
        assert_eq!(mcm(edges, k, k), k);
    }
}
