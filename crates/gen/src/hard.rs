//! Adversarial matching instances.
//!
//! Structured worst cases used by the stress tests and the augmentation
//! benches: they maximize augmenting-path length, phase count, or
//! initializer failure — the regimes where the algorithms' asymptotic
//! differences actually show.

use mcm_sparse::{Triples, Vidx};

/// A single alternating chain of `k` columns and `k` rows:
/// `c0 — r0 — c1 — r1 — … — r_{k-1}`, where edge `(r_i, c_i)` and
/// `(r_i, c_{i+1})` exist. Greedy matching from column order takes
/// `(r_i, c_i)` everywhere and the final augmentation must ripple the whole
/// chain — the longest possible augmenting path for the size.
pub fn chain(k: usize) -> Triples {
    assert!(k >= 1);
    let mut t = Triples::with_capacity(k, k, 2 * k);
    for i in 0..k as Vidx {
        t.push(i, i);
        if (i as usize) + 1 < k {
            t.push(i, i + 1);
        }
    }
    t
}

/// `b` disjoint chains of length `k` each: many simultaneously long
/// vertex-disjoint augmenting paths — the stress case for the
/// level-parallel vs path-parallel augmentation trade-off.
pub fn parallel_chains(b: usize, k: usize) -> Triples {
    assert!(b >= 1 && k >= 1);
    let n = b * k;
    let mut t = Triples::with_capacity(n, n, 2 * n);
    for q in 0..b {
        let base = (q * k) as Vidx;
        for i in 0..k as Vidx {
            t.push(base + i, base + i);
            if (i as usize) + 1 < k {
                t.push(base + i, base + i + 1);
            }
        }
    }
    t
}

/// The "staircase" that defeats greedy order maximally: column `j` is
/// adjacent to rows `j` and `j-1` (a path graph), plus a pendant making the
/// greedy choice wrong at every step. Maximum matching is perfect; greedy
/// by column order achieves roughly half.
pub fn staircase(k: usize) -> Triples {
    assert!(k >= 2);
    // Path: r0 - c0, r0 - c1, r1 - c1, r1 - c2, ... zig-zag; perfect
    // matching pairs (r_i, c_i); greedy grabbing the first unmatched row
    // strands every other column.
    let mut t = Triples::with_capacity(k, k, 2 * k);
    for i in 0..k as Vidx {
        t.push(i, i);
        if i >= 1 {
            t.push(i - 1, i);
        }
    }
    t
}

/// A bipartite "crown": `n` columns, `n` rows, column `j` adjacent to every
/// row *except* `j`. For `n ≥ 2` a perfect matching exists (shift by one),
/// but the graph is dense and every vertex has the same degree — a fairness
/// stress for randomized semirings and a dense-frontier case for the BFS.
pub fn crown(n: usize) -> Triples {
    assert!(n >= 2);
    let mut t = Triples::with_capacity(n, n, n * (n - 1));
    for i in 0..n as Vidx {
        for j in 0..n as Vidx {
            if i != j {
                t.push(i, j);
            }
        }
    }
    t
}

/// A multi-hub star `K_{hubs, leaves}`: every leaf column is adjacent to
/// every hub row, all with the same (unit) value. The auction engine's
/// price-war worst case: every alternative is equally good, so fixed-ε
/// bidding raises one price by one ε per round — Θ(hubs/ε) rounds — while
/// ε-scaling resolves the war in coarse increments. `hubs = 1` is the
/// classic single-object star. Also a maximal degree-skew instance for
/// the portfolio selector when `leaves ≫ hubs`.
pub fn star(hubs: usize, leaves: usize) -> Triples {
    assert!(hubs >= 1 && leaves >= 1);
    let mut t = Triples::with_capacity(hubs, leaves, hubs * leaves);
    for r in 0..hubs as Vidx {
        for c in 0..leaves as Vidx {
            t.push(r, c);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::stats::MatrixStats;

    #[test]
    fn chain_shape() {
        let t = chain(5);
        let s = MatrixStats::from_triples(&t);
        assert_eq!(s.nnz, 9);
        assert_eq!(s.max_row_degree, 2);
    }

    #[test]
    fn parallel_chains_are_disjoint() {
        let t = parallel_chains(3, 4);
        assert_eq!(t.nrows(), 12);
        // No edge crosses a chain boundary.
        for &(r, c) in t.entries() {
            assert_eq!(r as usize / 4, c as usize / 4);
        }
    }

    #[test]
    fn staircase_is_a_path() {
        let t = staircase(6);
        let s = MatrixStats::from_triples(&t);
        assert!(s.max_row_degree <= 2);
        assert!(s.max_col_degree <= 2);
        assert_eq!(s.empty_rows, 0);
        assert_eq!(s.empty_cols, 0);
    }

    #[test]
    fn star_shape() {
        let t = star(4, 32);
        let s = MatrixStats::from_triples(&t);
        assert_eq!(s.nnz, 128);
        assert_eq!(s.max_row_degree, 32);
        assert_eq!(s.max_col_degree, 4);
        assert_eq!(s.empty_cols, 0);
    }

    #[test]
    fn crown_degrees() {
        let t = crown(5);
        let s = MatrixStats::from_triples(&t);
        assert_eq!(s.nnz, 20);
        assert_eq!(s.max_row_degree, 4);
        assert_eq!(s.avg_col_degree, 4.0);
    }
}
