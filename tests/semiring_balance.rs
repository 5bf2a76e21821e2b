//! The §III-B claim behind the `(select2nd, randRoot)` semiring:
//! *"useful to randomly distribute vertices among alternating trees,
//! ensuring better balance of tree sizes."*
//!
//! With `minParent`, every row adjacent to a low-index frontier column
//! joins that column's tree, so low-index roots hoard the forest. The
//! hashed-root selection spreads rows near-uniformly. This test measures
//! exactly that on the first BFS step.

use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig};
use mcm_core::semirings::SemiringKind;
use mcm_core::vertex::Vertex;
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{SpVec, Triples, Vidx};

/// One frontier expansion from all columns; returns the largest tree
/// (rows per root) produced by the semiring.
fn max_tree_size(t: &Triples, semiring: SemiringKind) -> usize {
    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
    let a = DistMatrix::from_triples(&ctx, t);
    let f_c: SpVec<Vertex> = SpVec::from_sorted_pairs(
        t.ncols(),
        (0..t.ncols() as Vidx).map(|c| (c, Vertex::seed(c))).collect(),
    );
    let f_r = a.spmspv(
        &mut ctx,
        Kernel::SpMV,
        &f_c,
        |j, v: &Vertex| Vertex::new(j, v.root),
        |acc, inc| semiring.fold(acc, inc),
    );
    let mut per_root = vec![0usize; t.ncols()];
    for (_, v) in f_r.iter() {
        per_root[v.root as usize] += 1;
    }
    per_root.into_iter().max().unwrap_or(0)
}

#[test]
fn rand_root_balances_trees_around_low_index_hubs() {
    // Column 0 is a hub adjacent to every row; each row also has 8 random
    // alternatives. Under minParent the hub *always* wins its conflicts and
    // its tree swallows the whole frontier; under randRoot the hub loses
    // most rows to a random alternative, so trees stay small. (On inputs
    // whose structure correlates with vertex indices — i.e. before the
    // §IV-A random relabeling — this is exactly the imbalance the paper's
    // randRoot semiring is for.)
    let mut rng = SplitMix64::new(5150);
    let (n1, n2, alt) = (4096usize, 1024usize, 8usize);
    let mut t = Triples::new(n1, n2);
    for r in 0..n1 as Vidx {
        t.push(r, 0); // the hub
        for _ in 0..alt {
            t.push(r, rng.below(n2 as u64) as Vidx);
        }
    }

    let skewed = max_tree_size(&t, SemiringKind::MinParent);
    assert_eq!(skewed, n1, "minParent must hand every row to the hub");

    // The hub wins a row iff its hashed priority beats all 8 alternatives;
    // in expectation over seeds that is 1/9 of the rows. A single seed can
    // be (un)lucky — the hub's priority is one global draw — so average.
    let mean_balanced: f64 =
        (0..16u64).map(|seed| max_tree_size(&t, SemiringKind::RandRoot(seed)) as f64).sum::<f64>()
            / 16.0;
    assert!(
        mean_balanced < n1 as f64 / 3.0,
        "randRoot should break the hub's monopoly on average: {mean_balanced} of {n1}"
    );
}

#[test]
fn rand_parent_differs_from_min_parent_but_same_cardinality() {
    use mcm_core::{maximum_matching, McmOptions, Start};
    let mut rng = SplitMix64::new(99);
    let n = 200;
    let mut t = Triples::new(n, n);
    for _ in 0..4 * n {
        t.push(rng.below(n as u64) as Vidx, rng.below(n as u64) as Vidx);
    }
    let run = |semiring| {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let opts = McmOptions { semiring, permute_seed: None, ..Default::default() };
        maximum_matching(&mut ctx, &t.to_csc().view(), Start::Cold, &opts).matching
    };
    let a = run(SemiringKind::MinParent);
    let b = run(SemiringKind::RandParent(3));
    assert_eq!(a.cardinality(), b.cardinality());
    // The actual matchings almost surely differ (different parent choices).
    assert_ne!(a, b, "randParent should explore a different forest");
}
