//! Semiring sparse-matrix × sparse-vector products (SpMSpV).
//!
//! Step 1 of every MS-BFS iteration explores the neighbours of the column
//! frontier with `f_r ← SpMV(A, f_c)` over a `(select2nd, ⊕)` semiring
//! (Fig. 1 / Fig. 2 of the paper). The kernels here are the *local* products
//! run on each process's submatrix; `mcm-bsp` composes them with the
//! expand/fold communication phases of the 2D distributed algorithm.
//!
//! The semiring addition `⊕` is one associative fold, `fold(&mut acc, inc)`,
//! at every layer: a selection (`minParent`, first arrival) overwrites
//! `acc` when `inc` wins, a counting semiring adds `inc` to it.
//!
//! All kernels report the number of traversed edges (`flops`) so the cost
//! model can charge `γ · flops / t` of modeled compute per rank.
//!
//! [`spmspv`] is a convenience wrapper that allocates a fresh
//! [`SpmvWorkspace`] and output vector per call, over any [`Columns`]
//! layout (DCSC, CSC or a relabeled view). Hot paths (the per-block,
//! per-iteration products inside `mcm-bsp::distmat`) should hold a
//! workspace and call its `*_into` methods instead, which reuse the sparse
//! accumulator and output allocations across calls — see
//! [`crate::workspace`] for the generation-stamped SPA design. Every block
//! runs one serial local product: the paper's per-process threads `t` are
//! a modeled quantity (the cost model divides compute by `t`), not a split
//! of the block's columns.
//!
//! The semiring multiply `mul(j, xj)` depends only on the column, so all
//! kernels evaluate it once per matched column and clone the value per
//! traversed edge (hence the `U: Copy` bound).

use crate::workspace::{Columns, SpmvWorkspace};
use crate::{SpVec, Vidx};

/// Result of a local SpMSpV: the output sparse vector plus the number of
/// traversed matrix nonzeros (the serial-complexity term
/// `Σ_{k ∈ IND(x)} nnz(A(:,k))` of Table I).
#[derive(Clone, Debug)]
pub struct SpmvOut<U> {
    /// `y = A ⊗ x` over the semiring.
    pub y: SpVec<U>,
    /// Number of `multiply`+`add` operations performed.
    pub flops: u64,
}

/// Local SpMSpV over a DCSC block, a CSC matrix or a relabeled view.
///
/// * `mul(j, xj)` is the semiring multiply for column `j` carrying frontier
///   value `xj` (for BFS: return `xj` with its parent rewritten to `j` —
///   `select2nd` plus parent bookkeeping).
/// * `fold(acc, inc)` is the semiring addition: it merges the incoming
///   candidate into the row's accumulator (a selection overwrites `acc`, a
///   counting semiring adds to it). It must be associative (see
///   [`crate::workspace`]).
///
/// Columns are processed in ascending index order and rows accumulate into a
/// sparse accumulator, so every row folds its candidates in ascending column
/// order and results are deterministic. On a DCSC block it runs in
/// `O(nnz(x) + nzc(A) + flops)` time thanks to a merge-join between the
/// sorted frontier and the sorted nonzero-column list; CSC and views index
/// their columns directly.
///
/// # Example
///
/// BFS step over the `(select2nd, min)` semiring: each reached row records
/// its smallest frontier neighbour.
///
/// ```
/// use mcm_sparse::{spmspv, Dcsc, SpVec, Triples};
///
/// let a = Dcsc::from_triples(&Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 1)]));
/// let frontier = SpVec::from_pairs(2, vec![(0, 0u32), (1, 1)]);
/// let out = spmspv(&a, &frontier, |j, _| j, |acc, inc| *acc = inc.min(*acc));
/// assert_eq!(out.y.entries(), &[(0, 0), (1, 1)]);
/// assert_eq!(out.flops, 3); // edges traversed
/// ```
pub fn spmspv<A: Columns, T, U: Copy>(
    a: &A,
    x: &SpVec<T>,
    mul: impl FnMut(Vidx, &T) -> U,
    fold: impl FnMut(&mut U, U),
) -> SpmvOut<U> {
    let mut ws = SpmvWorkspace::new();
    let mut y = SpVec::new(a.nrows());
    let flops = ws.spmspv_into(a, x, mul, fold, &mut y);
    SpmvOut { y, flops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dcsc, Triples};

    /// The paper's Fig. 2 matrix: rows r1..r4, cols c1..c5 (0-based here).
    /// Edges: r1-c1, r1-c3, r2-c1, r2-c2, r2-c4, r3-c3, r3-c5, r4-c4, r4-c5.
    fn fig2_matrix() -> Dcsc {
        Dcsc::from_triples(&Triples::from_edges(
            4,
            5,
            vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
        ))
    }

    #[test]
    fn fig2_spmv_min_parent() {
        // Frontier = unmatched columns {c1, c2, c5} = {0, 1, 4}, each carrying
        // (parent=self, root=self); semiring (select2nd, minParent).
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let min_parent = |acc: &mut (Vidx, Vidx), inc: (Vidx, Vidx)| {
            if inc.0 < acc.0 {
                *acc = inc
            }
        };
        let out = spmspv(&a, &x, |j, &(_, root)| (j, root), min_parent);
        // r1 reached from c1 only → (0,0); r2 from c1 and c2, minParent keeps c1;
        // r3 from c5 → (4,4); r4 from c5 → (4,4).
        assert_eq!(out.y.entries(), &[(0, (0, 0)), (1, (0, 0)), (2, (4, 4)), (3, (4, 4))]);
        // flops = deg(c1) + deg(c2) + deg(c5) = 2 + 1 + 2 = 5.
        assert_eq!(out.flops, 5);
    }

    #[test]
    fn csc_and_dcsc_agree() {
        let d = fig2_matrix();
        let c = d.to_csc();
        let x = SpVec::from_pairs(5, vec![(1, 10u32), (3, 30)]);
        let min = |a: &mut (Vidx, u32), b: (Vidx, u32)| *a = b.min(*a);
        let od = spmspv(&d, &x, |j, &v| (j, v), min);
        let oc = spmspv(&c, &x, |j, &v| (j, v), min);
        assert_eq!(od.y, oc.y);
        assert_eq!(od.flops, oc.flops);
    }

    #[test]
    fn empty_frontier_is_empty_result() {
        let a = fig2_matrix();
        let x: SpVec<u32> = SpVec::new(5);
        let out = spmspv(&a, &x, |j, &v| (j, v), |_: &mut (Vidx, u32), _| {});
        assert!(out.y.is_empty());
        assert_eq!(out.flops, 0);
    }

    #[test]
    fn counting_spmspv_counts() {
        // Counting semiring over a sparse frontier: how many frontier
        // columns touch each row?
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, ()), (1, ()), (4, ())]);
        let out = spmspv(&a, &x, |_, _| 1u32, |acc, inc| *acc += inc);
        // r1: c1 → 1; r2: c1,c2 → 2; r3: c5 → 1; r4: c5 → 1.
        assert_eq!(out.y.entries(), &[(0, 1), (1, 2), (2, 1), (3, 1)]);
        assert_eq!(out.flops, 5);
    }

    #[test]
    fn fold_sees_ascending_columns() {
        // First- and last-arrival folds: with ascending column processing,
        // the smallest column index arrives first and the largest last.
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, 0u32), (1, 1), (3, 3)]);
        let first = spmspv(&a, &x, |j, _| j, |_, _| {});
        let last = spmspv(&a, &x, |j, _| j, |acc, inc| *acc = inc);
        // r2 (row 1) is adjacent to c1, c2, c4: first arrival is c1 = 0,
        // last is c4 = 3.
        assert_eq!(first.y.get(1), Some(&0));
        assert_eq!(last.y.get(1), Some(&3));
    }
}
