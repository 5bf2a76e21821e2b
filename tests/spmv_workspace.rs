//! Equivalence and zero-allocation tests for the SpMSpV workspace layer.
//!
//! The workspace kernel `spmspv_into`, over a DCSC block and over the same
//! matrix as CSC, must be **bit-identical** to the seed kernel — same output
//! entries, same flops — across folds (MinParent, RandParent, RandRoot, last
//! arrival, counting) on random R-MAT and Erdős–Rényi blocks. On top of
//! that, the workspace must reach a zero-allocation steady state: after the
//! first (cold) call, the output vector's buffer pointer and capacity stay
//! put and the workspace reports reuse hits. All randomness is seeded
//! SplitMix64 — deterministic runs.

use mcm_core::semirings::SemiringKind;
use mcm_core::vertex::Vertex;
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::workspace::SpmvWorkspace;
use mcm_sparse::{spmspv, Dcsc, SpVec, Vidx};

/// A frontier over `ncols` columns containing roughly `ncols / every`
/// entries, each carrying a seed Vertex.
fn frontier(ncols: usize, every: usize, rng: &mut SplitMix64) -> SpVec<Vertex> {
    let pairs = (0..ncols as Vidx)
        .filter(|_| rng.below(every as u64) == 0)
        .map(|j| (j, Vertex::seed(j)))
        .collect();
    SpVec::from_sorted_pairs(ncols, pairs)
}

fn test_blocks() -> Vec<Dcsc> {
    vec![
        Dcsc::from_triples(&rmat(RmatParams::g500(9), 42)),
        Dcsc::from_triples(&rmat(RmatParams::er(9), 7)),
        Dcsc::from_triples(&rmat(RmatParams::ssca(8), 11)),
    ]
}

/// Runs the seed kernel, then the workspace kernel on the DCSC block and
/// on its CSC copy, under one fold, asserting identical outputs and flops.
fn assert_kernels_agree<U>(
    a: &Dcsc,
    x: &SpVec<Vertex>,
    mul: impl Fn(Vidx, &Vertex) -> U,
    fold: impl Fn(&mut U, U),
    tag: &str,
) where
    U: Copy + PartialEq + std::fmt::Debug,
{
    let seed = spmspv(a, x, &mul, &fold);
    let mut ws = SpmvWorkspace::new();
    let mut y = SpVec::new(0);
    let flops = ws.spmspv_into(a, x, &mul, &fold, &mut y);
    assert_eq!(y, seed.y, "{tag}: into");
    assert_eq!(flops, seed.flops, "{tag}: into flops");
    let flops = ws.spmspv_into(&a.to_csc(), x, &mul, &fold, &mut y);
    assert_eq!(y, seed.y, "{tag}: csc");
    assert_eq!(flops, seed.flops, "{tag}: csc flops");
}

#[test]
fn workspace_and_parallel_match_seed_kernel_across_semirings() {
    // Every fold the kernels accept: the three selection semirings, a
    // last-arrival pick (associative, not commutative) and a count.
    let blocks = test_blocks();
    let mut rng = SplitMix64::new(0xD0C5);
    for (bi, a) in blocks.iter().enumerate() {
        for every in [1usize, 4, 64] {
            let x = frontier(a.ncols(), every, &mut rng);
            let to_vertex = |j, v: &Vertex| Vertex::new(j, v.root);
            for semiring in
                [SemiringKind::MinParent, SemiringKind::RandParent(3), SemiringKind::RandRoot(17)]
            {
                let fold = |acc: &mut Vertex, inc| semiring.fold(acc, inc);
                let tag = format!("block {bi} every {every} {semiring:?}");
                assert_kernels_agree(a, &x, to_vertex, fold, &tag);
            }
            let last = |acc: &mut Vertex, inc| *acc = inc;
            assert_kernels_agree(a, &x, to_vertex, last, &format!("block {bi} every {every} last"));
            let count = |acc: &mut u32, inc| *acc += inc;
            let tag = format!("block {bi} every {every} count");
            assert_kernels_agree(a, &x, |_, _| 1u32, count, &tag);
        }
    }
}

#[test]
fn steady_state_performs_zero_heap_allocation() {
    // After the first (cold) call, repeated products with the same shapes
    // must not move or grow any buffer: the output SpVec keeps its pointer
    // and capacity, and the workspace records every later call as a reuse
    // hit. Three-plus iterations make the steady state observable.
    let a = Dcsc::from_triples(&rmat(RmatParams::g500(9), 42));
    let mut rng = SplitMix64::new(0xA110C);
    let x = frontier(a.ncols(), 4, &mut rng);

    let mut ws: SpmvWorkspace<Vertex> = SpmvWorkspace::new();
    let mut y = SpVec::new(0);
    let run = |ws: &mut SpmvWorkspace<Vertex>, y: &mut SpVec<Vertex>| {
        ws.spmspv_into(
            &a,
            &x,
            |j, v: &Vertex| Vertex::new(j, v.root),
            |acc, inc| SemiringKind::MinParent.fold(acc, inc),
            y,
        )
    };

    let cold_flops = run(&mut ws, &mut y);
    let ptr = y.as_entries_ptr();
    let cap = y.capacity();
    assert!(cap > 0);

    for iter in 0..4 {
        let flops = run(&mut ws, &mut y);
        assert_eq!(flops, cold_flops, "iteration {iter}");
        assert_eq!(y.as_entries_ptr(), ptr, "iteration {iter}: buffer moved");
        assert_eq!(y.capacity(), cap, "iteration {iter}: buffer grew");
    }
    assert_eq!(ws.stats.calls, 5);
    assert_eq!(ws.stats.reuse_hits, 4, "all warm calls must be hits");
    assert!(ws.stats.bytes_reused > 0);
}

#[test]
fn generation_bump_does_not_leak_across_calls() {
    // Regression for the epoch-stamped SPA: rows touched by a large
    // frontier must not reappear when a later call uses a small frontier —
    // the epoch bump, not an O(nrows) sweep, is what isolates calls.
    let a = Dcsc::from_triples(&rmat(RmatParams::er(8), 3));
    let mut rng = SplitMix64::new(0x1EAF);
    let big = frontier(a.ncols(), 1, &mut rng);
    let small = frontier(a.ncols(), 32, &mut rng);

    let mut ws: SpmvWorkspace<Vertex> = SpmvWorkspace::new();
    let mut y = SpVec::new(0);
    for round in 0..3 {
        for x in [&big, &small] {
            let seed = spmspv(
                &a,
                x,
                |j, v: &Vertex| Vertex::new(j, v.root),
                |acc, inc| SemiringKind::MinParent.fold(acc, inc),
            );
            let flops = ws.spmspv_into(
                &a,
                x,
                |j, v: &Vertex| Vertex::new(j, v.root),
                |acc, inc| SemiringKind::MinParent.fold(acc, inc),
                &mut y,
            );
            assert_eq!(y, seed.y, "round {round}: stale SPA state leaked");
            assert_eq!(flops, seed.flops, "round {round}");
        }
    }
}
