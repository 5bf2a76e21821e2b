//! Coarse Dulmage–Mendelsohn decomposition.
//!
//! The paper's motivating application (§I) is preprocessing for distributed
//! sparse solvers; the canonical consumer of a bipartite maximum matching in
//! that world is the Dulmage–Mendelsohn decomposition, which permutes any
//! rectangular sparse matrix into block triangular form
//!
//! ```text
//!        HC        SC        VC
//!   HR [ A_h        *         *  ]   horizontal: underdetermined rows
//!   SR [  0        A_s        *  ]   square:     perfectly matchable
//!   VR [  0         0        A_v ]   vertical:   overdetermined rows
//! ```
//!
//! computed from a maximum matching by two alternating-reachability sweeps:
//! the *horizontal* part is everything alternating-reachable from unmatched
//! **columns**, the *vertical* part everything reachable from unmatched
//! **rows**, and the *square* part the rest (where the matching is perfect).

use crate::cover::alternating_reach_from_cols;
use crate::matching::Matching;
use mcm_sparse::{Csc, CscView, Vidx, NIL};

/// Which coarse block a vertex belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmBlock {
    /// Underdetermined part (more columns than rows).
    Horizontal,
    /// Perfectly matched part.
    Square,
    /// Overdetermined part (more rows than columns).
    Vertical,
}

/// The coarse Dulmage–Mendelsohn decomposition of an `n1 × n2` matrix.
#[derive(Clone, Debug)]
pub struct DmDecomposition {
    /// Block of each row vertex.
    pub row_block: Vec<DmBlock>,
    /// Block of each column vertex.
    pub col_block: Vec<DmBlock>,
}

impl DmDecomposition {
    /// Rows in `block`.
    pub fn rows_in(&self, block: DmBlock) -> Vec<Vidx> {
        self.row_block
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == block).then_some(i as Vidx))
            .collect()
    }

    /// Columns in `block`.
    pub fn cols_in(&self, block: DmBlock) -> Vec<Vidx> {
        self.col_block
            .iter()
            .enumerate()
            .filter_map(|(j, &b)| (b == block).then_some(j as Vidx))
            .collect()
    }

    /// `true` when the matrix is structurally nonsingular: square and with
    /// an empty horizontal and vertical part.
    pub fn is_structurally_nonsingular(&self) -> bool {
        self.row_block.iter().all(|&b| b == DmBlock::Square)
            && self.col_block.iter().all(|&b| b == DmBlock::Square)
    }
}

/// Rows/columns alternating-reachable from the unmatched **rows**
/// (row → any edge → column → matched edge → row …).
fn alternating_reach_from_rows(a: CscView<'_>, at: &Csc, m: &Matching) -> (Vec<bool>, Vec<bool>) {
    debug_assert_eq!(at.nrows(), a.ncols());
    let mut row_z = vec![false; a.nrows()];
    let mut col_z = vec![false; a.ncols()];
    let mut queue: Vec<Vidx> = Vec::new();
    for r in 0..a.nrows() {
        if !m.row_matched(r as Vidx) {
            row_z[r] = true;
            queue.push(r as Vidx);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let r = queue[head];
        head += 1;
        for &c in at.col(r as usize) {
            if col_z[c as usize] {
                continue;
            }
            col_z[c as usize] = true;
            let mate = m.mate_c.get(c);
            if mate != NIL && !row_z[mate as usize] {
                row_z[mate as usize] = true;
                queue.push(mate);
            }
        }
    }
    (row_z, col_z)
}

/// Computes the coarse DM decomposition of `a` (an owned `Csc` or a
/// borrowed [`CscView`]) from a **maximum** matching.
///
/// # Panics
/// Debug-panics when `m` is not a valid matching of `a` (the decomposition
/// is only meaningful for maximum matchings; with a non-maximum one the
/// horizontal and vertical parts would intersect).
///
/// # Example
///
/// ```
/// use mcm_core::dm::{dulmage_mendelsohn, DmBlock};
/// use mcm_core::serial::hopcroft_karp;
/// use mcm_sparse::Triples;
///
/// // A wide 1x3 block is underdetermined: everything lands in Horizontal.
/// let a = Triples::from_edges(1, 3, vec![(0, 0), (0, 1), (0, 2)]).to_csc();
/// let m = hopcroft_karp(&a, None);
/// let dm = dulmage_mendelsohn(&a, &m);
/// assert_eq!(dm.row_block[0], DmBlock::Horizontal);
/// assert!(!dm.is_structurally_nonsingular());
/// ```
pub fn dulmage_mendelsohn<'a>(a: impl Into<CscView<'a>>, m: &Matching) -> DmDecomposition {
    let a = a.into();
    debug_assert!(m.validate(a).is_ok());
    let at = a.transpose();
    let (h_rows, h_cols) = alternating_reach_from_cols(a, m);
    let (v_rows, v_cols) = alternating_reach_from_rows(a, &at, m);

    let row_block = (0..a.nrows())
        .map(|r| {
            debug_assert!(
                !(h_rows[r] && v_rows[r]),
                "horizontal and vertical parts intersect: matching not maximum"
            );
            if h_rows[r] {
                DmBlock::Horizontal
            } else if v_rows[r] {
                DmBlock::Vertical
            } else {
                DmBlock::Square
            }
        })
        .collect();
    let col_block = (0..a.ncols())
        .map(|c| {
            if h_cols[c] {
                DmBlock::Horizontal
            } else if v_cols[c] {
                DmBlock::Vertical
            } else {
                DmBlock::Square
            }
        })
        .collect();
    DmDecomposition { row_block, col_block }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use mcm_sparse::Triples;

    fn decompose(t: &Triples) -> (Csc, Matching, DmDecomposition) {
        let a = t.to_csc();
        let m = hopcroft_karp(&a, None);
        let dm = dulmage_mendelsohn(&a, &m);
        (a, m, dm)
    }

    #[test]
    fn perfect_matching_is_all_square() {
        let t = Triples::from_edges(3, 3, vec![(0, 0), (1, 1), (2, 2), (0, 1)]);
        let (_, _, dm) = decompose(&t);
        assert!(dm.is_structurally_nonsingular());
    }

    #[test]
    fn wide_matrix_is_horizontal() {
        // 1 row, 3 columns, all adjacent: underdetermined.
        let t = Triples::from_edges(1, 3, vec![(0, 0), (0, 1), (0, 2)]);
        let (_, _, dm) = decompose(&t);
        assert_eq!(dm.row_block, vec![DmBlock::Horizontal]);
        assert!(dm.col_block.iter().all(|&b| b == DmBlock::Horizontal));
    }

    #[test]
    fn tall_matrix_is_vertical() {
        let t = Triples::from_edges(3, 1, vec![(0, 0), (1, 0), (2, 0)]);
        let (_, _, dm) = decompose(&t);
        assert_eq!(dm.col_block, vec![DmBlock::Vertical]);
        assert!(dm.row_block.iter().all(|&b| b == DmBlock::Vertical));
    }

    #[test]
    fn mixed_blocks() {
        // Horizontal island (r0; c0, c1), square island (r1-c2), vertical
        // island (r2, r3; c3).
        let t = Triples::from_edges(4, 4, vec![(0, 0), (0, 1), (1, 2), (2, 3), (3, 3)]);
        let (_, _, dm) = decompose(&t);
        assert_eq!(dm.row_block[0], DmBlock::Horizontal);
        assert_eq!(dm.row_block[1], DmBlock::Square);
        assert_eq!(dm.row_block[2], DmBlock::Vertical);
        assert_eq!(dm.row_block[3], DmBlock::Vertical);
        assert_eq!(dm.col_block[0], DmBlock::Horizontal);
        assert_eq!(dm.col_block[1], DmBlock::Horizontal);
        assert_eq!(dm.col_block[2], DmBlock::Square);
        assert_eq!(dm.col_block[3], DmBlock::Vertical);
    }

    /// The structural zero blocks of the block-triangular form.
    fn assert_block_triangular(a: &Csc, dm: &DmDecomposition) {
        for (r, c) in a.iter() {
            let rb = dm.row_block[r as usize];
            let cb = dm.col_block[c as usize];
            // A column in HC may only touch HR rows; a row in VR may only
            // touch VC columns; square rows may not touch horizontal cols.
            if cb == DmBlock::Horizontal {
                assert_eq!(rb, DmBlock::Horizontal, "edge ({r},{c}) breaks the zero block");
            }
            if rb == DmBlock::Vertical {
                assert_eq!(cb, DmBlock::Vertical, "edge ({r},{c}) breaks the zero block");
            }
        }
    }

    #[test]
    fn zero_blocks_hold_on_random_graphs() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(2121);
        for _ in 0..40 {
            let n1 = 3 + (rng.next_u64() % 25) as usize;
            let n2 = 3 + (rng.next_u64() % 25) as usize;
            let mut t = Triples::new(n1, n2);
            for _ in 0..2 * n1.max(n2) {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            let (a, m, dm) = decompose(&t);
            assert_block_triangular(&a, &dm);
            // The square part carries a perfect matching.
            let sr = dm.rows_in(DmBlock::Square);
            let sc = dm.cols_in(DmBlock::Square);
            assert_eq!(sr.len(), sc.len());
            for &r in &sr {
                let c = m.mate_r.get(r);
                assert!(dm.col_block[c as usize] == DmBlock::Square);
            }
        }
    }
}
