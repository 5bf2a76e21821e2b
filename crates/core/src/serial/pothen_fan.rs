//! The Pothen–Fan algorithm: multi-source DFS with lookahead.
//!
//! §II-A: *"specialized multi-source DFS (the Pothen-Fan algorithm) ...
//! shown to outperform the Hopcroft-Karp algorithm on most practical
//! graphs"*. Each phase runs one DFS from every unmatched column; the
//! *lookahead* mechanism first scans a column's adjacency for a still
//! unmatched row before descending, which prunes most of the search. Row
//! visit marks are phase-global, so the paths found within a phase are
//! vertex-disjoint. Phases repeat until one finds no augmenting path.

use crate::matching::Matching;
use mcm_sparse::{CscView, Vidx, NIL};

/// Computes a maximum cardinality matching by repeated multi-source DFS
/// with lookahead on `a` (an owned `Csc` or a borrowed [`CscView`]),
/// optionally warm-started from `init`.
pub fn pothen_fan<'a>(a: impl Into<CscView<'a>>, init: Option<Matching>) -> Matching {
    let a = a.into();
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = init.unwrap_or_else(|| Matching::empty(n1, n2));
    debug_assert!(m.validate(a).is_ok());

    // lookahead[c]: position in col(c) where the unmatched-row scan resumes
    // (amortizes the lookahead to O(deg) per column per run, as in the
    // original algorithm).
    let mut lookahead = vec![0usize; n2];
    let mut visited_row = vec![u32::MAX; n1]; // phase id when last visited
                                              // Explicit DFS stack of (column, adjacency cursor).
    let mut stack: Vec<(Vidx, usize)> = Vec::new();

    let mut phase: u32 = 0;
    loop {
        let mut augmented = false;
        for c0 in 0..n2 as Vidx {
            if m.col_matched(c0) {
                continue;
            }
            if dfs_lookahead(a, &mut m, &mut lookahead, &mut visited_row, &mut stack, c0, phase) {
                augmented = true;
            }
        }
        if !augmented {
            break;
        }
        phase += 1;
        // Lookahead cursors persist across phases in the classic formulation;
        // rows matched later are skipped by the mate check.
    }
    m
}

/// Iterative DFS from unmatched column `c0`. Returns `true` (and flips the
/// path) when an unmatched row is reached.
fn dfs_lookahead(
    a: CscView<'_>,
    m: &mut Matching,
    lookahead: &mut [usize],
    visited_row: &mut [u32],
    stack: &mut Vec<(Vidx, usize)>,
    c0: Vidx,
    phase: u32,
) -> bool {
    stack.clear();
    stack.push((c0, 0));

    while let Some(&mut (c, ref mut cursor)) = stack.last_mut() {
        let adj = a.col(c as usize);

        // --- Lookahead: is any neighbour of c still unmatched? ------------
        let mut found: Option<Vidx> = None;
        while lookahead[c as usize] < adj.len() {
            let r = adj[lookahead[c as usize]];
            lookahead[c as usize] += 1;
            if !m.row_matched(r) {
                found = Some(r);
                break;
            }
        }
        if let Some(r_free) = found {
            visited_row[r_free as usize] = phase;
            // Flip the path recorded on the stack: match each (column, row)
            // pair from the bottom up.
            let mut r = r_free;
            while let Some((c, _)) = stack.pop() {
                let prev = m.mate_c.get(c);
                m.mate_c.set(c, r);
                m.mate_r.set(r, c);
                if prev == NIL {
                    debug_assert!(stack.is_empty());
                    break;
                }
                r = prev;
            }
            return true;
        }

        // --- Regular DFS step: descend through a matched row. -------------
        let mut advanced = false;
        while *cursor < adj.len() {
            let r = adj[*cursor];
            *cursor += 1;
            if visited_row[r as usize] == phase {
                continue;
            }
            visited_row[r as usize] = phase;
            let mate = m.mate_r.get(r);
            debug_assert_ne!(mate, NIL, "lookahead must have caught free rows");
            stack.push((mate, 0));
            advanced = true;
            break;
        }
        if !advanced {
            stack.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use mcm_sparse::Triples;

    fn check(edges: Vec<(Vidx, Vidx)>, n1: usize, n2: usize) {
        let a = Triples::from_edges(n1, n2, edges).to_csc();
        let pf = pothen_fan(&a, None);
        pf.validate(&a).unwrap();
        let hk = hopcroft_karp(&a, None);
        assert_eq!(pf.cardinality(), hk.cardinality());
    }

    #[test]
    fn agrees_with_hk_on_small_graphs() {
        check(vec![(0, 0), (0, 1), (1, 0)], 2, 2);
        check(vec![(0, 0), (0, 1)], 1, 2);
        check(vec![], 3, 4);
        check(vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)], 4, 5);
    }

    #[test]
    fn agrees_with_hk_on_random_graphs() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(17);
        for trial in 0..30 {
            let n1 = 5 + (rng.next_u64() % 30) as usize;
            let n2 = 5 + (rng.next_u64() % 30) as usize;
            let m = (rng.next_u64() % (2 * (n1 * n2) as u64 / 3 + 1)) as usize;
            let mut t = Triples::new(n1, n2);
            for _ in 0..m {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            let a = t.to_csc();
            let pf = pothen_fan(&a, None);
            pf.validate(&a).unwrap();
            assert_eq!(pf.cardinality(), hopcroft_karp(&a, None).cardinality(), "trial {trial}");
        }
    }

    #[test]
    fn warm_start() {
        let a = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc();
        let mut init = Matching::empty(2, 2);
        init.add(0, 0);
        let m = pothen_fan(&a, Some(init));
        assert_eq!(m.cardinality(), 2);
    }
}
