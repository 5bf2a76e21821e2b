//! Distributed Karp–Sipser maximal matching.
//!
//! The degree-1 rule — match a degree-1 column to its unique unmatched row
//! *before* anything else — is provably safe (some maximum matching contains
//! that edge) and gives Karp–Sipser its high approximation ratio. On
//! distributed memory, however, the rule forces a *cascade*: every committed
//! match can create new degree-1 vertices, each cascade step is a full
//! bulk-synchronous round (SpMSpV + INVERT + counting SpMSpV for degree
//! updates), and rounds with few degree-1 vertices run almost empty. That
//! synchronization tax is exactly why §VI-A finds Karp–Sipser "much slower
//! than greedy and dynamic mindegree" at scale even though its matchings are
//! slightly larger.

use crate::matching::Matching;
use crate::primitives::{invert_by, select};
use mcm_bsp::collectives::per_rank_counts;
use mcm_bsp::{Communicator, DistMatrix, Kernel, ReduceOp, SpmvPlan};
use mcm_sparse::{SpVec, Vidx, NIL};

/// A strong 64-bit mix for the random-phase proposal order.
#[inline]
fn mix(seed: u64, v: Vidx) -> u64 {
    let mut z = seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

/// Distributed Karp–Sipser: degree-1 columns first, random fallback rounds.
pub fn karp_sipser<C: Communicator>(
    comm: &mut C,
    a: &DistMatrix,
    at: &DistMatrix,
    seed: u64,
) -> Matching {
    let (n1, n2) = (a.nrows(), a.ncols());
    assert_eq!((at.nrows(), at.ncols()), (n2, n1), "at must be the transpose of a");
    let mut m = Matching::empty(n1, n2);
    // Per-rank workspaces reused across the cascade rounds.
    let mut count_plan: SpmvPlan<u32> = SpmvPlan::new();
    let mut cand_plan: SpmvPlan<Vidx> = SpmvPlan::new();

    // deg_c[j] = # adjacent unmatched rows (dynamic). Initialized by a
    // counting SpMSpV over all rows.
    let all_rows = SpVec::from_sorted_pairs(n1, (0..n1 as Vidx).map(|r| (r, ())).collect());
    let deg0 = comm.spmspv(
        at,
        Kernel::Init,
        &mut count_plan,
        &all_rows,
        |_, _| 1u32,
        |acc, inc| *acc += inc,
    );
    let mut deg_c = vec![0u32; n2];
    for (j, &d) in deg0.iter() {
        deg_c[j as usize] = d;
    }

    let mut round: u64 = 0;
    loop {
        round += 1;
        // Unmatched rows propose; the proposal key is a per-round hash so
        // the random fallback differs between rounds (deterministic in seed).
        let f_r =
            SpVec::from_sorted_pairs(n1, m.unmatched_rows().into_iter().map(|r| (r, r)).collect());
        if f_r.is_empty() {
            break;
        }
        let total = comm.allreduce(Kernel::Init, &per_rank_counts(&f_r, comm.p()), ReduceOp::Sum);
        debug_assert_eq!(total as usize, f_r.nnz());

        // Each column keeps the min-hash unmatched row reaching it.
        let rs = seed ^ round.wrapping_mul(0xA24B_AED4_963E_E407);
        let cand_c = comm.spmspv(
            at,
            Kernel::Init,
            &mut cand_plan,
            &f_r,
            |_, &r| r,
            |acc: &mut Vidx, inc| {
                if (mix(rs, inc), inc) < (mix(rs, *acc), *acc) {
                    *acc = inc;
                }
            },
        );
        let cand_c = select(comm, Kernel::Init, &cand_c, &m.mate_c, |v| v == NIL);
        if cand_c.is_empty() {
            break; // maximal: no unmatched column touches an unmatched row
        }

        // Degree-1 rule: if any unmatched column has dynamic degree 1,
        // restrict this round to those columns (the safe matches).
        let deg1 = cand_c.filter(|j, _| deg_c[j as usize] == 1);
        let chosen = if deg1.is_empty() { cand_c } else { deg1 };

        // Resolve row conflicts; commit.
        let winners = invert_by(comm, Kernel::Init, &chosen, n1, |&r| r, |c, _| c);
        let mut new_rows: Vec<(Vidx, ())> = Vec::with_capacity(winners.nnz());
        for &(r, c) in winners.entries() {
            m.add(r, c);
            new_rows.push((r, ()));
        }
        new_rows.sort_unstable_by_key(|&(r, _)| r);
        let new_rows = SpVec::from_sorted_pairs(n1, new_rows);

        // Degree update: columns adjacent to newly matched rows lose one
        // unmatched neighbour each (counting SpMSpV over the transpose).
        let dec = comm.spmspv(
            at,
            Kernel::Init,
            &mut count_plan,
            &new_rows,
            |_, _| 1u32,
            |acc, inc| *acc += inc,
        );
        for (j, &d) in dec.iter() {
            deg_c[j as usize] = deg_c[j as usize].saturating_sub(d);
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

    fn run(t: &Triples, dim: usize, seed: u64) -> Matching {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let a = DistMatrix::from_triples(&ctx, t);
        let at = DistMatrix::from_triples(&ctx, &t.transposed());
        let m = karp_sipser(&mut ctx, &a, &at, seed);
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
            let m = run(&t, dim, 7);
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
        let base = run(&t, 1, 3);
        for dim in 2..=3 {
            assert_eq!(run(&t, dim, 3), base, "grid {dim}");
        }
    }

    #[test]
    fn degree_one_rule_saves_the_pendant() {
        // Same trap as the mindegree test: c1's only hope is r0, but r1's
        // only hope is r... the degree-1 rule must match the pendants first.
        let t = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let m = run(&t, 1, 5);
        assert_eq!(m.cardinality(), 2);
    }

    #[test]
    fn at_least_as_good_as_greedy_in_aggregate() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(4242);
        let (mut ks_total, mut gr_total) = (0usize, 0usize);
        for _ in 0..15 {
            let n = 30;
            let mut t = Triples::new(n, n);
            for _ in 0..2 * n {
                t.push(rng.below(n as u64) as Vidx, rng.below(n as u64) as Vidx);
            }
            let mut ctx = DistCtx::serial();
            let a = DistMatrix::from_triples(&ctx, &t);
            let at = DistMatrix::from_triples(&ctx, &t.transposed());
            ks_total += karp_sipser(&mut ctx, &a, &at, 1).cardinality();
            gr_total += greedy(&mut ctx, &a).cardinality();
        }
        assert!(ks_total >= gr_total, "karp-sipser {ks_total} vs greedy {gr_total}");
    }

    #[test]
    fn uses_more_rounds_than_greedy() {
        // The synchronization-tax claim of §VI-A: KS charges more Init calls
        // (rounds × kernels) than greedy on a chain-heavy graph.
        let k = 40;
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push((i as Vidx, i as Vidx));
            if i + 1 < k {
                edges.push((i as Vidx, (i + 1) as Vidx));
            }
        }
        let t = Triples::from_edges(k, k, edges);
        let mut ctx_ks = DistCtx::new(MachineConfig::hybrid(2, 1));
        let a = DistMatrix::from_triples(&ctx_ks, &t);
        let at = DistMatrix::from_triples(&ctx_ks, &t.transposed());
        let _ = karp_sipser(&mut ctx_ks, &a, &at, 1);
        let mut ctx_gr = DistCtx::new(MachineConfig::hybrid(2, 1));
        let _ = greedy(&mut ctx_gr, &a);
        assert!(
            ctx_ks.timers.calls(Kernel::Init) > ctx_gr.timers.calls(Kernel::Init),
            "KS {} calls vs greedy {}",
            ctx_ks.timers.calls(Kernel::Init),
            ctx_gr.timers.calls(Kernel::Init)
        );
    }
}
