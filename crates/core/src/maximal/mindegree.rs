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
use mcm_bsp::{Communicator, DistMatrix, Kernel, LiveCols, ReduceOp, SpmvPlan};
use mcm_sparse::{SpVec, Vidx, NIL};

/// A proposal as one `u64`: `(degree, row)` order, so the least key is the
/// lowest-degree proposer, ties to the lower row.
fn proposal(r: Vidx, degree: u32) -> u64 {
    (u64::from(degree) << 32) | u64::from(r)
}

/// Distributed dynamic-mindegree maximal matching, and the number of rounds
/// that matched anything.
///
/// `a` is the `n1 × n2` matrix and `at` its transpose (rows propose along
/// `at`: columns of `at` are the rows of `a`).
///
/// On one physical block charged on at most two logical block columns
/// ([`DistMatrix::reads_structure`]: simulator grids one or two columns
/// wide, the engine at p = 1) every product is read off `a` alone, and `at`
/// may be `None`: the degree count and each degree update are one counting
/// pass over `a`'s (new) columns ([`DistMatrix::count_cols`]), and each
/// round's proposals one pull over `a`'s columns still adjacent to an
/// unmatched row ([`DistMatrix::min_pull`]), with the results and charges
/// of the products they replace. Wider logical grids push every product
/// and need `at`, and multi-block grids run them on the mesh.
///
/// # Panics
///
/// When `at` is `None` and `a` does not read its structure on `comm`.
pub fn dynamic_mindegree<C: Communicator>(
    comm: &mut C,
    a: &DistMatrix,
    at: Option<&DistMatrix>,
) -> (Matching, usize) {
    let (n1, n2) = (a.nrows(), a.ncols());
    if let Some(at) = at {
        assert_eq!((at.nrows(), at.ncols()), (n2, n1), "at must be the transpose of a");
    }
    let single = a.reads_structure(comm.ctx());
    let at = (!single).then(|| at.expect("dynamic mindegree pushes over Aᵀ on this grid"));
    let mut m = Matching::empty(n1, n2);
    // Per-rank workspaces: one plan per (matrix, value-type) pair, reused
    // across every degree-count and proposal round.
    let mut deg_plan: SpmvPlan<u32> = SpmvPlan::new();
    let mut cand_plan: SpmvPlan<u64> = SpmvPlan::new();
    let mut live = LiveCols::default();
    let count = |acc: &mut u32, inc: u32| *acc += inc;
    let degrees = |comm: &mut C, plan: &mut SpmvPlan<u32>, cols: &SpVec<()>| {
        if single {
            a.count_cols(comm.ctx_mut(), Kernel::Init, plan, cols)
        } else {
            comm.spmspv(a, Kernel::Init, plan, cols, |_, _| 1u32, count)
        }
    };

    // Current degree of each row = # adjacent unmatched columns. The initial
    // value is the static row degree (one counting product over all columns).
    let all_cols = SpVec::from_sorted_pairs(n2, (0..n2 as Vidx).map(|c| (c, ())).collect());
    let mut deg_r = vec![0u32; n1];
    for (i, &d) in degrees(comm, &mut deg_plan, &all_cols).iter() {
        deg_r[i as usize] = d;
    }

    let mut rounds = 0;
    loop {
        // Frontier: unmatched rows proposing with their current degree.
        // Each round's vectors are dropped as soon as the next step has
        // read them: the initializer sets the solve's memory peak.
        let f_r = SpVec::from_sorted_pairs(
            n1,
            (0..n1 as Vidx)
                .filter(|&r| m.mate_r.get(r) == NIL)
                .map(|r| (r, proposal(r, deg_r[r as usize])))
                .collect(),
        );
        if f_r.is_empty() {
            break;
        }
        let total = comm.allreduce(Kernel::Init, &per_rank_counts(&f_r, comm.p()), ReduceOp::Sum);
        debug_assert_eq!(total as usize, f_r.nnz());

        // Each column keeps the (degree, index)-minimal unmatched row. One
        // block pulls it from the columns that still have one.
        let proposals = match at {
            None => a.min_pull(comm.ctx_mut(), Kernel::Init, &mut cand_plan, &f_r, &mut live),
            Some(at) => comm.spmspv(
                at,
                Kernel::Init,
                &mut cand_plan,
                &f_r,
                |_, &k| k,
                |acc, k| *acc = (*acc).min(k),
            ),
        };
        drop(f_r);
        let exec = if single { "structure" } else { "product" };
        mcm_obs::counter_add("mcm_init_rounds_total", &[("exec", exec)], 1);
        // Only unmatched columns can accept.
        let cand_c = select(comm, Kernel::Init, &proposals, &m.mate_c, |v| v == NIL);
        drop(proposals);
        // Resolve row conflicts: each row keeps its first accepting column.
        let winners = invert_by(comm, Kernel::Init, &cand_c, n1, |&k| k as Vidx, |c, _| c);
        drop(cand_c);
        if winners.is_empty() {
            break; // maximal
        }
        rounds += 1;
        // Commit matches and decrement the degrees of rows that lost a
        // still-unmatched neighbour (one counting product over new columns).
        let mut new_cols: Vec<(Vidx, ())> = Vec::with_capacity(winners.nnz());
        for &(r, c) in winners.entries() {
            m.add(r, c);
            new_cols.push((c, ()));
        }
        drop(winners);
        new_cols.sort_unstable_by_key(|&(c, _)| c);
        let new_cols = SpVec::from_sorted_pairs(n2, new_cols);
        for (i, &d) in degrees(comm, &mut deg_plan, &new_cols).iter() {
            // Exact: a row loses at most the unmatched neighbours it counted.
            let deg = &mut deg_r[i as usize];
            debug_assert!(
                *deg >= d,
                "row {i}: degree {deg} below its {d} newly matched neighbours"
            );
            *deg -= d;
        }
    }
    (m, rounds)
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
        let (m, _) = dynamic_mindegree(&mut ctx, &a, Some(&at));
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

    /// The single-block initializer on a `DistCtx` charged at the
    /// `dim × dim` grid (structure kernels at 2 × 2, the fused push on
    /// wider grids) against the engine's mesh products on that grid: the
    /// same matching and bit-equal timers.
    fn assert_single_block_equals_mesh(name: &str, t: &Triples) -> usize {
        use mcm_bsp::EngineComm;
        use mcm_sparse::permute::relabel_permutations;
        let csc = t.to_csc();
        let v = csc.view();
        let (rowp, colp) = relabel_permutations(t.nrows(), t.ncols(), 0x5EED);
        let (a, at) = DistMatrix::with_grid_csc_pair(&v, 1, 1, Some(&rowp), Some(&colp));
        let mut serial = DistCtx::serial();
        let (want, rounds) = dynamic_mindegree(&mut serial, &a, None);
        for dim in [2usize, 3, 4] {
            let tag = format!("{name} ({}x{}) at p = {}", t.nrows(), t.ncols(), dim * dim);
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let (single, _) = dynamic_mindegree(&mut ctx, &a, Some(&at));
            let mut eng = EngineComm::new(dim * dim, 1);
            let (ma, mat) = DistMatrix::with_grid_csc_pair(&v, dim, dim, Some(&rowp), Some(&colp));
            let (mesh, _) = dynamic_mindegree(&mut eng, &ma, Some(&mat));
            assert_eq!(single, mesh, "{tag}: matchings");
            assert_eq!(single, want, "{tag}: grid-independent result");
            assert_eq!(ctx.timers, eng.ctx().timers, "{tag}: modeled seconds or calls");
        }
        rounds
    }

    #[test]
    fn single_block_init_equals_the_mesh_products() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0x1417);
        let mut random = |n1: usize, n2: usize, m: usize| {
            let mut t = Triples::new(n1, n2);
            for _ in 0..m {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            t.sort_dedup();
            t
        };
        let mut cases = vec![
            ("tall".to_string(), random(70, 30, 160)),
            ("wide".to_string(), random(30, 70, 160)),
            ("empty".to_string(), Triples::new(9, 13)),
        ];
        // One dense row and one dense column over a sparse rest.
        let mut cross = random(40, 40, 50);
        for k in 0..40 {
            cross.push(3, k);
            cross.push(k, 17);
        }
        cross.sort_dedup();
        cases.push(("dense row and column".into(), cross));
        // Hub rows: a few rows adjacent to most columns.
        let mut hubs = random(60, 60, 90);
        for hub in [0, 21, 59] {
            for j in 0..60 {
                if j % 5 != 0 {
                    hubs.push(hub, j);
                }
            }
        }
        hubs.sort_dedup();
        cases.push(("hub rows".into(), hubs));
        cases.extend(mcm_gen::simtest_suite(0x1417));
        for (name, t) in &cases {
            assert_single_block_equals_mesh(name, t);
        }
        // A small Graph500 RMAT: skewed enough that later rounds pull from
        // the copies of the live columns' unmatched rows.
        let g500 = mcm_gen::rmat(mcm_gen::RmatParams::g500(9), 7);
        let rounds = assert_single_block_equals_mesh("g500 s9", &g500);
        assert!(rounds >= 3, "g500 s9 matched in {rounds} rounds; the test needs three");
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
            md_total += dynamic_mindegree(&mut ctx, &a, Some(&at)).0.cardinality();
            gr_total += greedy(&mut ctx, &a).cardinality();
        }
        assert!(md_total >= gr_total, "mindegree {md_total} vs greedy {gr_total}");
    }
}
