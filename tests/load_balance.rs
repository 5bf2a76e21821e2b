//! The §IV-A load-balancing claim: *"To balance load across processors, we
//! randomly permute the input matrix A before running the matching
//! algorithms."* The simulator charges compute at the bottleneck rank, so
//! an adversarially clustered matrix must model slower than its randomly
//! relabeled twin — and the permutation must never change the result.

use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Triples, Vidx};

/// A matrix whose nonzeros all live in the top-left corner: on a 2D grid
/// without relabeling, one process owns nearly all the work.
fn clustered(n: usize, dense_frac: usize, seed: u64) -> Triples {
    let mut rng = SplitMix64::new(seed);
    let k = n / dense_frac;
    let mut t = Triples::new(n, n);
    // Dense-ish corner block…
    for _ in 0..8 * k {
        t.push(rng.below(k as u64) as Vidx, rng.below(k as u64) as Vidx);
    }
    // …plus a sparse diagonal so every vertex is matchable.
    for i in 0..n as Vidx {
        t.push(i, i);
    }
    t
}

#[test]
fn random_relabeling_reduces_bottleneck_time() {
    let t = clustered(4096, 8, 42);
    let run = |permute: Option<u64>| {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 1));
        let opts = McmOptions { permute_seed: permute, ..Default::default() };
        let r = maximum_matching(&mut ctx, &t.to_csc().view(), Start::Cold, &opts);
        (ctx.timers.seconds(Kernel::SpMV) + ctx.timers.seconds(Kernel::Init), r.matching)
    };
    let (unbalanced, m1) = run(None);
    let (balanced, m2) = run(Some(7));
    assert_eq!(m1.cardinality(), m2.cardinality());
    assert!(
        balanced < unbalanced,
        "random relabeling should lower the modeled bottleneck: {balanced} vs {unbalanced}"
    );
}

#[test]
fn permutation_never_changes_cardinality() {
    let t = clustered(512, 4, 9);
    let mut cards = std::collections::BTreeSet::new();
    for seed in [None, Some(1), Some(2), Some(999)] {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(3, 1));
        let opts = McmOptions { permute_seed: seed, ..Default::default() };
        let r = maximum_matching(&mut ctx, &t.to_csc().view(), Start::Cold, &opts);
        r.matching.validate(&t.to_csc()).unwrap();
        cards.insert(r.matching.cardinality());
    }
    assert_eq!(cards.len(), 1, "cardinality must be permutation-invariant");
}

#[test]
fn bottleneck_accounting_sees_imbalance() {
    // Direct check on the SpMV kernel: a frontier hitting only one block
    // charges the same modeled compute as a one-process run would for that
    // block (max over ranks, not average).
    use mcm_bsp::DistMatrix;
    use mcm_sparse::SpVec;
    let n = 1024;
    let mut t = Triples::new(n, n);
    // All edges in the top-left block of a 2x2 grid.
    for i in 0..(n / 2) as Vidx {
        t.push(i, i);
        t.push(i, (i + 1) % (n as Vidx / 2));
    }
    let gamma = mcm_bsp::CostModel::edison().gamma;
    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
    let a = DistMatrix::from_triples(&ctx, &t);
    let x: SpVec<Vidx> =
        SpVec::from_sorted_pairs(n, (0..(n / 2) as Vidx).map(|j| (j, j)).collect());
    let before = ctx.timers.seconds(Kernel::SpMV);
    let _ = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| *acc = inc.min(*acc));
    let compute_part = ctx.timers.seconds(Kernel::SpMV) - before;
    // The bottleneck block processed all n edges: modeled compute must be
    // at least gamma * n (not gamma * n / p).
    assert!(
        compute_part >= gamma * n as f64,
        "imbalanced block must be charged at the bottleneck: {compute_part} < {}",
        gamma * n as f64
    );
}
