//! Distributed dynamic-mindegree maximal matching.
//!
//! Like greedy, but proposals flow from *rows* and each column keeps the
//! proposer with the smallest **current** degree — the number of unmatched
//! columns still adjacent to the row. Preferring endangered (low-degree)
//! rows preserves options for the future and empirically beats greedy's
//! approximation ratio while staying one SpMSpV-pair per round (ref [21];
//! §VI-A picks this as the default initializer).

use crate::matching::Matching;
use crate::primitives::{invert_by, select};
use mcm_bsp::collectives::per_rank_counts;
use mcm_bsp::{Communicator, DistMatrix, Kernel, ReduceOp, SpmvPlan};
use mcm_sparse::{SpVec, Vidx, NIL};

/// Distributed dynamic-mindegree maximal matching.
///
/// `a` is the `n1 × n2` matrix, `at` its transpose (rows propose along
/// `at`: columns of `at` are the rows of `a`).
pub fn dynamic_mindegree<C: Communicator>(
    comm: &mut C,
    a: &DistMatrix,
    at: &DistMatrix,
) -> Matching {
    let (n1, n2) = (a.nrows(), a.ncols());
    assert_eq!((at.nrows(), at.ncols()), (n2, n1), "at must be the transpose of a");
    let mut m = Matching::empty(n1, n2);
    // Per-rank workspaces: one plan per (matrix, value-type) pair, reused
    // across every degree-count and proposal round.
    let mut deg_plan: SpmvPlan<u32> = SpmvPlan::new();
    let mut cand_plan: SpmvPlan<(Vidx, u32)> = SpmvPlan::new();

    // Current degree of each row = # adjacent unmatched columns. The initial
    // value is the static row degree (one counting SpMSpV over all columns).
    let all_cols = SpVec::from_sorted_pairs(n2, (0..n2 as Vidx).map(|c| (c, ())).collect());
    let deg0 = comm.spmspv_monoid(
        a,
        Kernel::Init,
        &mut deg_plan,
        &all_cols,
        |_, _| 1u32,
        |acc, inc| *acc += inc,
    );
    let mut deg_r = vec![0u32; n1];
    for (i, &d) in deg0.iter() {
        deg_r[i as usize] = d;
    }

    loop {
        // Frontier: unmatched rows proposing with their current degree.
        let f_r = SpVec::from_sorted_pairs(
            n1,
            m.unmatched_rows().into_iter().map(|r| (r, (r, deg_r[r as usize]))).collect(),
        );
        if f_r.is_empty() {
            break;
        }
        let total = comm.allreduce(Kernel::Init, &per_rank_counts(&f_r, comm.p()), ReduceOp::Sum);
        debug_assert_eq!(total as usize, f_r.nnz());

        // Each column keeps the (degree, index)-minimal unmatched row.
        let cand_c = comm.spmspv_monoid(
            at,
            Kernel::Init,
            &mut cand_plan,
            &f_r,
            |_, &(r, d)| (r, d),
            |acc: &mut (Vidx, u32), inc| {
                // `(degree, row)` order, compared as one u64 key.
                let key = |&(r, d): &(Vidx, u32)| (u64::from(d) << 32) | u64::from(r);
                if key(&inc) < key(acc) {
                    *acc = inc;
                }
            },
        );
        // Only unmatched columns can accept.
        let cand_c = select(comm, Kernel::Init, &cand_c, &m.mate_c, |v| v == NIL);
        // Resolve row conflicts: each row keeps its first accepting column.
        let winners = invert_by(comm, Kernel::Init, &cand_c, n1, |&(r, _)| r, |c, _| c);
        if winners.is_empty() {
            break; // maximal
        }
        // Commit matches and decrement the degrees of rows that lost a
        // still-unmatched neighbour (one counting SpMSpV over new columns).
        let mut new_cols: Vec<(Vidx, ())> = Vec::with_capacity(winners.nnz());
        for &(r, c) in winners.entries() {
            m.add(r, c);
            new_cols.push((c, ()));
        }
        new_cols.sort_unstable_by_key(|&(c, _)| c);
        let new_cols = SpVec::from_sorted_pairs(n2, new_cols);
        let dec = comm.spmspv_monoid(
            a,
            Kernel::Init,
            &mut deg_plan,
            &new_cols,
            |_, _| 1u32,
            |acc, inc| *acc += inc,
        );
        for (i, &d) in dec.iter() {
            deg_r[i as usize] = deg_r[i as usize].saturating_sub(d);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximal::greedy;
    use crate::verify::is_maximal;
    use mcm_bsp::{DistCtx, MachineConfig};
    use mcm_sparse::Triples;

    fn run(t: &Triples, dim: usize) -> Matching {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let a = DistMatrix::from_triples(&ctx, t);
        let at = DistMatrix::from_triples(&ctx, &t.transposed());
        let m = dynamic_mindegree(&mut ctx, &a, &at);
        m.validate(&t.to_csc()).unwrap();
        m
    }

    #[test]
    fn produces_maximal_matching_on_all_grids() {
        let t = Triples::from_edges(
            5,
            5,
            vec![(0, 0), (0, 1), (1, 0), (2, 2), (3, 2), (3, 3), (1, 3), (4, 4), (0, 4)],
        );
        for dim in 1..=3 {
            let m = run(&t, dim);
            assert!(is_maximal(&t.to_csc(), &m), "grid {dim}");
        }
    }

    #[test]
    fn grid_independent_result() {
        let t = Triples::from_edges(
            6,
            6,
            vec![(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 3), (4, 3), (4, 4), (5, 5), (0, 5)],
        );
        let base = run(&t, 1);
        for dim in 2..=3 {
            assert_eq!(run(&t, dim), base, "grid {dim}");
        }
    }

    #[test]
    fn mindegree_rescues_the_pendant_row() {
        // r0 has degree 2 (c0, c1); r1 has degree 1 (c0 only). A degree-
        // oblivious choice can give c0 to r0 and strand r1; mindegree must
        // match r1 first and reach cardinality 2.
        let t = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let m = run(&t, 1);
        assert_eq!(m.cardinality(), 2);
    }

    #[test]
    fn at_least_as_good_as_greedy_in_aggregate() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(99);
        let (mut md_total, mut gr_total) = (0usize, 0usize);
        for _ in 0..15 {
            let n = 30;
            let mut t = Triples::new(n, n);
            for _ in 0..2 * n {
                t.push(rng.below(n as u64) as Vidx, rng.below(n as u64) as Vidx);
            }
            let mut ctx = DistCtx::serial();
            let a = DistMatrix::from_triples(&ctx, &t);
            let at = DistMatrix::from_triples(&ctx, &t.transposed());
            md_total += dynamic_mindegree(&mut ctx, &a, &at).cardinality();
            gr_total += greedy(&mut ctx, &a).cardinality();
        }
        assert!(md_total >= gr_total, "mindegree {md_total} vs greedy {gr_total}");
    }
}
