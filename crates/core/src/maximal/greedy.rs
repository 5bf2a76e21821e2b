//! Distributed greedy maximal matching.
//!
//! Round structure (ref [21]'s greedy, in this crate's primitives):
//! every still-unmatched column proposes to all of its rows at once via one
//! semiring SpMSpV; each unmatched row keeps the minimum-index proposer;
//! an INVERT resolves rows proposing back to the same column (first row
//! wins); winners are committed. Repeats until no unmatched column can reach
//! an unmatched row — which is exactly maximality.

use crate::matching::Matching;
use crate::primitives::{invert, select};
use mcm_bsp::collectives::per_rank_counts;
use mcm_bsp::{Communicator, DistMatrix, Kernel, ReduceOp, SpmvPlan};
use mcm_sparse::{SpVec, Vidx, NIL};

/// Greedy distributed maximal matching over the column side.
pub fn greedy<C: Communicator>(comm: &mut C, a: &DistMatrix) -> Matching {
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = Matching::empty(n1, n2);
    // Per-rank workspaces reused across every proposal round.
    let mut plan: SpmvPlan<Vidx> = SpmvPlan::new();

    loop {
        // Frontier: all unmatched columns, proposing themselves.
        let f_c =
            SpVec::from_sorted_pairs(n2, m.unmatched_cols().into_iter().map(|c| (c, c)).collect());
        if f_c.is_empty() {
            break;
        }
        let total = comm.allreduce(Kernel::Init, &per_rank_counts(&f_c, comm.p()), ReduceOp::Sum);
        debug_assert_eq!(total as usize, f_c.nnz());

        // Each row receives its minimum proposing column.
        let cand_r = comm.spmspv(a, Kernel::Init, &mut plan, &f_c, |j, _| j, |acc, inc| inc < acc);
        // Only unmatched rows can accept.
        let cand_r = select(comm, Kernel::Init, &cand_r, &m.mate_r, |v| v == NIL);
        // Resolve column conflicts: each column keeps its first accepting row.
        let winners = invert(comm, Kernel::Init, &cand_r, n2);
        if winners.is_empty() {
            break; // no unmatched column reaches an unmatched row: maximal
        }
        for &(c, r) in winners.entries() {
            m.add(r, c);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal;
    use mcm_bsp::{DistCtx, MachineConfig};
    use mcm_sparse::Triples;

    fn run(t: &Triples, dim: usize) -> Matching {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let a = DistMatrix::from_triples(&ctx, t);
        let m = greedy(&mut ctx, &a);
        m.validate(&t.to_csc()).unwrap();
        m
    }

    #[test]
    fn produces_maximal_matching() {
        let t =
            Triples::from_edges(4, 4, vec![(0, 0), (0, 1), (1, 0), (2, 2), (3, 2), (3, 3), (1, 3)]);
        for dim in 1..=3 {
            let m = run(&t, dim);
            assert!(is_maximal(&t.to_csc(), &m), "grid {dim}");
        }
    }

    #[test]
    fn grid_independent_result() {
        // MinCombiner-based greedy is fully deterministic, so every grid
        // shape must produce the identical matching.
        let t = Triples::from_edges(
            5,
            5,
            vec![(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 3), (4, 3), (4, 4), (0, 4)],
        );
        let base = run(&t, 1);
        for dim in 2..=4 {
            assert_eq!(run(&t, dim), base, "grid {dim}");
        }
    }

    #[test]
    fn empty_graph() {
        let t = Triples::new(3, 3);
        let m = run(&t, 2);
        assert_eq!(m.cardinality(), 0);
    }

    #[test]
    fn perfect_on_diagonal() {
        let t = Triples::from_edges(4, 4, (0..4).map(|i| (i, i)).collect());
        assert_eq!(run(&t, 2).cardinality(), 4);
    }
}
