//! Replays the paper's worked example (Figs. 1 and 2) step by step and
//! checks every intermediate vector against the figures.
//!
//! The graph (Fig. 2): rows r1..r4, columns c1..c5 (0-based r0..r3 /
//! c0..c4 here), edges r1{c1,c3}, r2{c1,c2,c4}, r3{c3,c5}, r4{c4,c5}.
//! The initial matching has c3, c4 matched (to r1, r2), so the first
//! column frontier is the unmatched {c1, c2, c5} carrying (parent, root) =
//! (self, self) — exactly the sparse vector `[(1,1), (2,2), −, −, (5,5)]`
//! the paper prints in §III-B.

use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig};
use mcm_core::augment::{augment, AugmentMode};
use mcm_core::primitives::{invert_by, prune, select, set_dense};
use mcm_core::semirings::SemiringKind;
use mcm_core::vertex::Vertex;
use mcm_core::{maximum_matching, Matching, McmOptions, Start};
use mcm_sparse::{DenseVec, SpVec, Triples, NIL};

fn fig2_graph() -> Triples {
    Triples::from_edges(
        4,
        5,
        vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
    )
}

fn initial_matching() -> Matching {
    let mut m = Matching::empty(4, 5);
    m.add(0, 2); // r1 — c3
    m.add(1, 3); // r2 — c4
    m
}

#[test]
fn first_iteration_reproduces_fig1_step_by_step() {
    let g = fig2_graph();
    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
    let a = DistMatrix::from_triples(&ctx, &g);
    let m = initial_matching();

    // Initial column frontier: unmatched columns c1, c2, c5.
    let f_c: SpVec<Vertex> = SpVec::from_sorted_pairs(
        5,
        m.unmatched_cols().into_iter().map(|c| (c, Vertex::seed(c))).collect(),
    );
    assert_eq!(
        f_c.entries(),
        &[(0, Vertex::new(0, 0)), (1, Vertex::new(1, 1)), (4, Vertex::new(4, 4))],
        "paper: f_c = [(1,1), (2,2), −, −, (5,5)]"
    );

    // Step 1: SpMV over (select2nd, minParent) — Fig. 2's result.
    let semiring = SemiringKind::MinParent;
    let f_r = a.spmspv(
        &mut ctx,
        Kernel::SpMV,
        &f_c,
        |j, v: &Vertex| Vertex::new(j, v.root),
        |acc, inc| semiring.fold(acc, inc),
    );
    assert_eq!(
        f_r.entries(),
        &[
            (0, Vertex::new(0, 0)), // r1 ← c1
            (1, Vertex::new(0, 0)), // r2 ← min(c1, c2, ...) = c1
            (2, Vertex::new(4, 4)), // r3 ← c5
            (3, Vertex::new(4, 4)), // r4 ← c5
        ],
        "Fig. 2: A ⊗ f_c over (select2nd, minParent)"
    );

    // Step 2: all rows are unvisited in the first iteration.
    let mut parent_r = DenseVec::nil(4);
    let f_r = select(&mut ctx, Kernel::Select, &f_r, &parent_r, |p| p == NIL);
    assert_eq!(f_r.nnz(), 4);

    // Step 3: record parents — π_r = [c1, c1, c5, c5].
    set_dense(&mut ctx, Kernel::Select, &mut parent_r, &f_r, |v| v.parent);
    assert_eq!(parent_r.as_slice(), &[0, 0, 4, 4]);

    // Step 4: split by matching status — r3, r4 are unmatched endpoints.
    let uf_r = select(&mut ctx, Kernel::Select, &f_r, &m.mate_r, |v| v == NIL);
    let f_r = select(&mut ctx, Kernel::Select, &f_r, &m.mate_r, |v| v != NIL);
    assert_eq!(uf_r.ind(), vec![2, 3], "unmatched rows r3, r4");
    assert_eq!(f_r.ind(), vec![0, 1], "matched rows r1, r2");

    // Step 5: both endpoints share root c5 — INVERT keeps the first (r3),
    // exactly the paper's "if more than one augmenting path is discovered
    // starting from the same root, we keep only one of them".
    let t_c = invert_by(&mut ctx, Kernel::Invert, &uf_r, 5, |v| v.root, |i, _| i);
    assert_eq!(t_c.entries(), &[(4, 2)], "path_c[c5] = r3");
    let mut path_c = DenseVec::nil(5);
    set_dense(&mut ctx, Kernel::Select, &mut path_c, &t_c, |&r| r);

    // Step 6: prune rows whose tree (root c5) found a path — none of the
    // matched rows r1, r2 belong to it.
    let f_r = prune(&mut ctx, Kernel::Prune, &f_r, &t_c.ind(), |v| v.root);
    assert_eq!(f_r.ind(), vec![0, 1]);

    // Step 7: next frontier = mates of r1, r2 = {c3, c4}, roots inherited.
    let stepped = SpVec::from_sorted_pairs(
        4,
        f_r.iter().map(|(i, v)| (i, Vertex::new(m.mate_r.get(i), v.root))).collect(),
    );
    let f_c2 = invert_by(
        &mut ctx,
        Kernel::Invert,
        &stepped,
        5,
        |v| v.parent,
        |i, v| Vertex::new(i, v.root),
    );
    assert_eq!(
        f_c2.entries(),
        &[(2, Vertex::new(0, 0)), (3, Vertex::new(1, 0))],
        "next f_c = mates {{c3, c4}} with root c1"
    );

    // The one recorded path augments r3 — c5 (a length-1 path).
    let mut m = m;
    let rep = augment(&mut ctx, AugmentMode::LevelParallel, &path_c, &parent_r, &mut m);
    assert_eq!(rep.paths, 1);
    assert_eq!(m.mate_r.get(2), 4, "r3 matched to c5");
    assert_eq!(m.cardinality(), 3);
}

#[test]
fn full_run_reaches_the_maximum_of_four() {
    let g = fig2_graph();
    for dim in 1..=3 {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let r = maximum_matching(&mut ctx, &g.to_csc().view(), Start::Cold, &McmOptions::default());
        assert_eq!(r.matching.cardinality(), 4, "grid {dim}x{dim}");
        r.matching.validate(&g.to_csc()).unwrap();
        mcm_core::verify::assert_maximum(&g.to_csc(), &r.matching);
    }
}

#[test]
fn rand_root_semiring_balances_trees_on_fig2() {
    // With (select2nd, randRoot) the two endpoint rows r3/r4 may land in
    // different trees depending on the seed, but the maximum is invariant.
    let g = fig2_graph();
    for seed in 0..8 {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let opts = McmOptions { semiring: SemiringKind::RandRoot(seed), ..Default::default() };
        let r = maximum_matching(&mut ctx, &g.to_csc().view(), Start::Cold, &opts);
        assert_eq!(r.matching.cardinality(), 4, "seed {seed}");
    }
}
