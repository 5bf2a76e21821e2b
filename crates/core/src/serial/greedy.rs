//! Serial greedy maximal matching.
//!
//! Scans columns in index order and matches each to its first unmatched row
//! neighbour — `O(m)`, approximation ratio ≥ 1/2 (§II-A, flavour (a)).

use crate::matching::Matching;
use mcm_sparse::{CscView, Vidx};

/// Greedy maximal matching by column order.
pub fn greedy_serial<'a>(a: impl Into<CscView<'a>>) -> Matching {
    let a = a.into();
    let mut m = Matching::empty(a.nrows(), a.ncols());
    for c in 0..a.ncols() {
        for &r in a.col(c) {
            if !m.row_matched(r) {
                m.add(r, c as Vidx);
                break;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal;
    use mcm_sparse::Triples;

    #[test]
    fn matches_diagonal() {
        let a = Triples::from_edges(3, 3, vec![(0, 0), (1, 1), (2, 2)]).to_csc();
        let m = greedy_serial(&a);
        assert_eq!(m.cardinality(), 3);
        m.validate(&a).unwrap();
    }

    #[test]
    fn result_is_maximal() {
        let a =
            Triples::from_edges(4, 4, vec![(0, 0), (0, 1), (1, 0), (2, 2), (3, 2), (3, 3), (1, 3)])
                .to_csc();
        let m = greedy_serial(&a);
        m.validate(&a).unwrap();
        assert!(is_maximal(&a, &m));
    }

    #[test]
    fn can_be_suboptimal() {
        // Greedy takes (r0, c0), blocking the perfect matching.
        let a = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc();
        let m = greedy_serial(&a);
        assert_eq!(m.cardinality(), 1);
    }
}
