//! König's theorem: a minimum vertex cover from a maximum matching.
//!
//! In bipartite graphs the minimum vertex cover has exactly the size of the
//! maximum matching (König, 1931), and one is extracted from the other by
//! the same alternating-reachability search the matching algorithms run.
//! The cover doubles as an independently checkable *optimality certificate*:
//! if a claimed matching yields a valid cover of equal size, the matching is
//! maximum — this is the LP-duality check `verify::assert_maximum` rests on
//! conceptually, and sparse solvers use the same sets for the
//! Dulmage–Mendelsohn decomposition ([`crate::dm`]).

use crate::matching::Matching;
use mcm_sparse::{Csc, CscView, Vidx, NIL};

/// A vertex cover of a bipartite graph: a set of rows and columns touching
/// every edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexCover {
    /// Covered (selected) row vertices.
    pub rows: Vec<Vidx>,
    /// Covered (selected) column vertices.
    pub cols: Vec<Vidx>,
}

impl VertexCover {
    /// Total size of the cover.
    pub fn size(&self) -> usize {
        self.rows.len() + self.cols.len()
    }

    /// `true` when every edge of `a` has at least one endpoint in the cover.
    pub fn covers(&self, a: &Csc) -> bool {
        let mut row_in = vec![false; a.nrows()];
        let mut col_in = vec![false; a.ncols()];
        for &r in &self.rows {
            row_in[r as usize] = true;
        }
        for &c in &self.cols {
            col_in[c as usize] = true;
        }
        a.iter().all(|(r, c)| row_in[r as usize] || col_in[c as usize])
    }
}

/// Rows/columns reachable from the unmatched columns by alternating paths
/// (column → any edge → row → matched edge → column …).
pub(crate) fn alternating_reach_from_cols(a: CscView<'_>, m: &Matching) -> (Vec<bool>, Vec<bool>) {
    let mut col_z = vec![false; a.ncols()];
    let mut row_z = vec![false; a.nrows()];
    let mut queue: Vec<Vidx> = Vec::new();
    for c in 0..a.ncols() {
        if !m.col_matched(c as Vidx) {
            col_z[c] = true;
            queue.push(c as Vidx);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let c = queue[head];
        head += 1;
        for &r in a.col(c as usize) {
            if row_z[r as usize] {
                continue;
            }
            row_z[r as usize] = true;
            let mate = m.mate_r.get(r);
            if mate != NIL && !col_z[mate as usize] {
                col_z[mate as usize] = true;
                queue.push(mate);
            }
        }
    }
    (row_z, col_z)
}

/// Extracts a minimum vertex cover from a **maximum** matching via König's
/// construction: with `Z` the vertices alternating-reachable from unmatched
/// columns, the cover is `(columns ∉ Z) ∪ (rows ∈ Z)`.
///
/// The result is only guaranteed to be a (minimum) cover when `m` is
/// maximum; `cover_certifies` reports whether the certificate closed.
///
/// # Example
///
/// ```
/// use mcm_core::cover::{cover_certifies, koenig_cover};
/// use mcm_core::serial::hopcroft_karp;
/// use mcm_sparse::Triples;
///
/// let a = Triples::from_edges(1, 3, vec![(0, 0), (0, 1), (0, 2)]).to_csc();
/// let m = hopcroft_karp(&a, None);
/// let cover = koenig_cover(&a, &m);
/// assert_eq!(cover.size(), m.cardinality()); // LP duality: both optimal
/// assert!(cover_certifies(&a, &m));
/// ```
pub fn koenig_cover(a: &Csc, m: &Matching) -> VertexCover {
    let (row_z, col_z) = alternating_reach_from_cols(a.view(), m);
    VertexCover {
        rows: (0..a.nrows() as Vidx).filter(|&r| row_z[r as usize]).collect(),
        cols: (0..a.ncols() as Vidx).filter(|&c| !col_z[c as usize]).collect(),
    }
}

/// `true` iff König's construction certifies `m` as maximum: the extracted
/// set is a valid cover **and** has exactly `|M|` vertices (LP duality —
/// any cover is ≥ any matching, so equality pins both as optimal).
pub fn cover_certifies(a: &Csc, m: &Matching) -> bool {
    let cover = koenig_cover(a, m);
    cover.covers(a) && cover.size() == m.cardinality()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use mcm_sparse::Triples;

    fn z_graph() -> Csc {
        Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc()
    }

    #[test]
    fn cover_of_maximum_matching_is_minimum() {
        let a = z_graph();
        let m = hopcroft_karp(&a, None);
        assert_eq!(m.cardinality(), 2);
        let cover = koenig_cover(&a, &m);
        assert!(cover.covers(&a));
        assert_eq!(cover.size(), 2);
        assert!(cover_certifies(&a, &m));
    }

    #[test]
    fn suboptimal_matching_fails_certification() {
        let a = z_graph();
        let mut m = Matching::empty(2, 2);
        m.add(0, 0); // maximal but not maximum
        assert!(!cover_certifies(&a, &m));
    }

    #[test]
    fn star_graph_cover_is_the_center() {
        // One row adjacent to three columns: cover = {row 0}.
        let a = Triples::from_edges(1, 3, vec![(0, 0), (0, 1), (0, 2)]).to_csc();
        let m = hopcroft_karp(&a, None);
        let cover = koenig_cover(&a, &m);
        assert!(cover.covers(&a));
        assert_eq!(cover.size(), 1);
        assert_eq!(cover.rows, vec![0]);
    }

    #[test]
    fn empty_graph_has_empty_cover() {
        let a = Triples::new(3, 3).to_csc();
        let m = Matching::empty(3, 3);
        let cover = koenig_cover(&a, &m);
        assert_eq!(cover.size(), 0);
        assert!(cover.covers(&a));
        assert!(cover_certifies(&a, &m));
    }

    #[test]
    fn certificate_on_random_graphs() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(808);
        for _ in 0..40 {
            let n1 = 3 + (rng.next_u64() % 20) as usize;
            let n2 = 3 + (rng.next_u64() % 20) as usize;
            let mut t = Triples::new(n1, n2);
            for _ in 0..2 * n1.max(n2) {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            let a = t.to_csc();
            let m = hopcroft_karp(&a, None);
            assert!(cover_certifies(&a, &m));
        }
    }
}
