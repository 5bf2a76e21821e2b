//! The matching itself: a pair of mate vectors.
//!
//! §III-B: *"We store the mates of row and column vertices in two dense
//! vectors `mate_r` and `mate_c`. If the i-th row vertex is matched to the
//! j-th column vertex, then `mate_r[i] = j` and `mate_c[j] = i` (-1 denotes
//! unmatched vertices)."*

use mcm_sparse::{CscView, DenseVec, Vidx, NIL};

/// A (partial) matching of an `n1 × n2` bipartite graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    /// `mate_r[i]` = column matched to row `i`, or `NIL`.
    pub mate_r: DenseVec,
    /// `mate_c[j]` = row matched to column `j`, or `NIL`.
    pub mate_c: DenseVec,
}

impl Matching {
    /// The empty matching of an `n1 × n2` graph.
    pub fn empty(n1: usize, n2: usize) -> Self {
        Self { mate_r: DenseVec::nil(n1), mate_c: DenseVec::nil(n2) }
    }

    /// Number of row vertices.
    #[inline]
    pub fn n1(&self) -> usize {
        self.mate_r.len()
    }

    /// Number of column vertices.
    #[inline]
    pub fn n2(&self) -> usize {
        self.mate_c.len()
    }

    /// Number of matched edges `|M|`.
    pub fn cardinality(&self) -> usize {
        self.mate_c.count_set()
    }

    /// Adds the edge `(r, c)` to the matching.
    ///
    /// # Panics
    /// Debug-panics if either endpoint is already matched.
    #[inline]
    pub fn add(&mut self, r: Vidx, c: Vidx) {
        debug_assert!(!self.mate_r.is_set(r), "row {r} already matched");
        debug_assert!(!self.mate_c.is_set(c), "col {c} already matched");
        self.mate_r.set(r, c);
        self.mate_c.set(c, r);
    }

    /// `true` when row `r` is matched.
    #[inline]
    pub fn row_matched(&self, r: Vidx) -> bool {
        self.mate_r.is_set(r)
    }

    /// `true` when column `c` is matched.
    #[inline]
    pub fn col_matched(&self, c: Vidx) -> bool {
        self.mate_c.is_set(c)
    }

    /// Unmatched column vertices (the phase seeds of Algorithm 2).
    pub fn unmatched_cols(&self) -> Vec<Vidx> {
        self.mate_c.nil_indices()
    }

    /// Unmatched row vertices.
    pub fn unmatched_rows(&self) -> Vec<Vidx> {
        self.mate_r.nil_indices()
    }

    /// Checks internal consistency and that every matched edge exists in
    /// `a` (an owned [`Csc`](mcm_sparse::Csc) or a borrowed [`CscView`]);
    /// returns a description of the first violation.
    pub fn validate<'a>(&self, a: impl Into<CscView<'a>>) -> Result<(), String> {
        let a = a.into();
        let (nrows, ncols) = (a.nrows(), a.ncols());
        if self.n1() != nrows || self.n2() != ncols {
            return Err(format!(
                "dimension mismatch: matching {}x{}, matrix {}x{}",
                self.n1(),
                self.n2(),
                nrows,
                ncols
            ));
        }
        for j in 0..self.n2() {
            let r = self.mate_c.get(j as Vidx);
            if r == NIL {
                continue;
            }
            if (r as usize) >= self.n1() {
                return Err(format!("mate_c[{j}] = {r} out of range"));
            }
            if self.mate_r.get(r) != j as Vidx {
                return Err(format!(
                    "inconsistent mates: mate_c[{j}] = {r} but mate_r[{r}] = {}",
                    self.mate_r.get(r)
                ));
            }
            if !a.contains(r, j) {
                return Err(format!("matched edge ({r}, {j}) is not in the graph"));
            }
        }
        for i in 0..self.n1() {
            let c = self.mate_r.get(i as Vidx);
            if c == NIL {
                continue;
            }
            if (c as usize) >= self.n2() || self.mate_c.get(c) != i as Vidx {
                return Err(format!("inconsistent mates: mate_r[{i}] = {c}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::{Csc, Triples};

    fn graph() -> Csc {
        Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 1)]).to_csc()
    }

    #[test]
    fn add_and_cardinality() {
        let mut m = Matching::empty(2, 2);
        assert_eq!(m.cardinality(), 0);
        m.add(0, 1);
        assert_eq!(m.cardinality(), 1);
        assert!(m.row_matched(0));
        assert!(m.col_matched(1));
        assert_eq!(m.unmatched_cols(), vec![0]);
        assert_eq!(m.unmatched_rows(), vec![1]);
    }

    #[test]
    fn validate_accepts_good_matching() {
        let mut m = Matching::empty(2, 2);
        m.add(0, 0);
        m.add(1, 1);
        assert!(m.validate(&graph()).is_ok());
    }

    #[test]
    fn validate_rejects_nonedge() {
        let mut m = Matching::empty(2, 2);
        m.mate_r.set(1, 0);
        m.mate_c.set(0, 1);
        // (1, 0) is not an edge of `graph`.
        assert!(m.validate(&graph()).is_err());
    }

    #[test]
    fn validate_rejects_inconsistency() {
        let mut m = Matching::empty(2, 2);
        m.mate_c.set(0, 0); // mate_r[0] still NIL
        assert!(m.validate(&graph()).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn double_match_panics_in_debug() {
        let mut m = Matching::empty(2, 2);
        m.add(0, 0);
        m.add(0, 1);
    }
}
