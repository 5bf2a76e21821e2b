//! Property tests for the Table I primitives and the sparse substrate:
//! the algebraic identities the matching algorithm silently relies on.
//!
//! Randomized inputs come from seeded [`SplitMix64`] streams (deterministic,
//! no external property-testing dependency): each property runs across many
//! generated cases and reports the failing case's trial number.

use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig};
use mcm_core::primitives::{invert, prune, select, set_dense, set_sparse};
use mcm_sparse::permute::{Permutation, SplitMix64};
use mcm_sparse::{Dcsc, DenseVec, SpVec, Triples, Vidx, NIL};

/// Sparse vector with unique values (a partial injection), as INVERT
/// consumers like the matching produce.
fn random_injective_spvec(len: usize, rng: &mut SplitMix64) -> SpVec<Vidx> {
    let n = rng.below(len as u64 + 1) as usize;
    let mut seen_idx = std::collections::BTreeSet::new();
    let mut seen_val = std::collections::BTreeSet::new();
    let mut pairs = Vec::new();
    for _ in 0..n {
        let i = rng.below(len as u64) as Vidx;
        let v = rng.below(len as u64) as Vidx;
        if seen_idx.insert(i) && seen_val.insert(v) {
            pairs.push((i, v));
        }
    }
    SpVec::from_pairs(len, pairs)
}

fn random_graph(rng: &mut SplitMix64) -> Triples {
    let n1 = 1 + rng.below(20) as usize;
    let n2 = 1 + rng.below(20) as usize;
    let m = rng.below(3 * n1.max(n2) as u64 + 1) as usize;
    let edges =
        (0..m).map(|_| (rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx)).collect();
    Triples::from_edges(n1, n2, edges)
}

const CASES: u64 = 128;

#[test]
fn invert_is_an_involution_on_injections() {
    let mut rng = SplitMix64::new(0x1A01);
    for trial in 0..CASES {
        let x = random_injective_spvec(16, &mut rng);
        let mut ctx = DistCtx::serial();
        let z = invert(&mut ctx, Kernel::Invert, &x, 16);
        let back = invert(&mut ctx, Kernel::Invert, &z, 16);
        assert_eq!(back, x, "trial {trial}");
    }
}

#[test]
fn invert_preserves_pairs() {
    let mut rng = SplitMix64::new(0x1A02);
    for trial in 0..CASES {
        let x = random_injective_spvec(16, &mut rng);
        let mut ctx = DistCtx::serial();
        let z = invert(&mut ctx, Kernel::Invert, &x, 16);
        assert_eq!(z.nnz(), x.nnz(), "trial {trial}");
        for (i, &v) in x.iter() {
            assert_eq!(z.get(v), Some(&i), "trial {trial}");
        }
    }
}

#[test]
fn select_partitions() {
    let mut rng = SplitMix64::new(0x1A03);
    for trial in 0..CASES {
        let x = random_injective_spvec(16, &mut rng);
        let mask: Vec<bool> = (0..16).map(|_| rng.below(2) == 1).collect();
        let mut ctx = DistCtx::serial();
        let y = DenseVec::from_vec(mask.iter().map(|&b| if b { 1 } else { NIL }).collect());
        let yes = select(&mut ctx, Kernel::Select, &x, &y, |v| v != NIL);
        let no = select(&mut ctx, Kernel::Select, &x, &y, |v| v == NIL);
        assert_eq!(yes.nnz() + no.nnz(), x.nnz(), "trial {trial}");
        // Disjoint index sets, and union reconstructs x.
        let mut all: Vec<(Vidx, Vidx)> = yes.entries().to_vec();
        all.extend_from_slice(no.entries());
        all.sort_unstable_by_key(|&(i, _)| i);
        assert_eq!(all, x.entries().to_vec(), "trial {trial}");
    }
}

#[test]
fn set_dense_then_sparse_roundtrip() {
    let mut rng = SplitMix64::new(0x1A04);
    for trial in 0..CASES {
        let x = random_injective_spvec(16, &mut rng);
        let mut ctx = DistCtx::serial();
        let mut y = DenseVec::nil(16);
        set_dense(&mut ctx, Kernel::Select, &mut y, &x, |&v| v);
        let z = set_sparse(&mut ctx, Kernel::Select, &x, &y);
        assert_eq!(z, x, "trial {trial}");
    }
}

#[test]
fn prune_complement_identity() {
    let mut rng = SplitMix64::new(0x1A05);
    for trial in 0..CASES {
        let x = random_injective_spvec(16, &mut rng);
        let roots: Vec<u32> = (0..rng.below(8)).map(|_| rng.below(16) as u32).collect();
        let mut ctx = DistCtx::serial();
        let kept = prune(&mut ctx, Kernel::Prune, &x, &roots, |&v| v);
        // Everything kept has a key outside the root set...
        for (_, &v) in kept.iter() {
            assert!(!roots.contains(&v), "trial {trial}");
        }
        // ...and everything dropped has a key inside it.
        let dropped = x.nnz() - kept.nnz();
        let inside = x.iter().filter(|(_, &v)| roots.contains(&v)).count();
        assert_eq!(dropped, inside, "trial {trial}");
    }
}

#[test]
fn distributed_spmspv_equals_serial() {
    let mut rng = SplitMix64::new(0x1A06);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let dim = 1 + rng.below(4) as usize;
        let every = 1 + rng.below(4) as usize;
        let x: SpVec<Vidx> = SpVec::from_sorted_pairs(
            t.ncols(),
            (0..t.ncols()).step_by(every).map(|j| (j as Vidx, j as Vidx)).collect(),
        );
        let serial = mcm_sparse::spmspv(
            &Dcsc::from_triples(&t),
            &x,
            |j, _| j,
            |acc: &mut Vidx, inc| *acc = inc.min(*acc),
        )
        .y;
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let dist = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| *acc = inc.min(*acc));
        assert_eq!(dist, serial, "trial {trial} dim {dim}");
    }
}

#[test]
fn distributed_monoid_equals_serial() {
    let mut rng = SplitMix64::new(0x1A07);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let dim = 1 + rng.below(4) as usize;
        let x: SpVec<()> =
            SpVec::from_sorted_pairs(t.ncols(), (0..t.ncols() as Vidx).map(|j| (j, ())).collect());
        let serial = mcm_sparse::spmspv(&Dcsc::from_triples(&t), &x, |_, _| 1u32, |a, b| *a += b).y;
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let dist = a.spmspv(&mut ctx, Kernel::Init, &x, |_, _| 1u32, |a, b| *a += b);
        assert_eq!(dist, serial, "trial {trial} dim {dim}");
    }
}

#[test]
fn transpose_involution() {
    let mut rng = SplitMix64::new(0x1A08);
    for trial in 0..CASES {
        let mut td = random_graph(&mut rng);
        td.sort_dedup();
        let a = td.to_csc();
        assert_eq!(a.transpose().transpose(), a, "trial {trial}");
    }
}

#[test]
fn dcsc_and_csc_agree_structurally() {
    let mut rng = SplitMix64::new(0x1A09);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let a = t.to_csc();
        let d = Dcsc::from_triples(&t);
        assert_eq!(d.nnz(), a.nnz(), "trial {trial}");
        for j in 0..a.ncols() {
            assert_eq!(d.col(j), a.col(j), "trial {trial}");
        }
        assert_eq!(d.to_csc(), a, "trial {trial}");
    }
}

#[test]
fn permutation_roundtrip() {
    let mut rng = SplitMix64::new(0x1A0A);
    for trial in 0..CASES {
        let n = 1 + rng.below(63) as usize;
        let seed = rng.next_u64();
        let p = Permutation::random(n, seed);
        let inv = p.inverse();
        for i in 0..n as Vidx {
            assert_eq!(p.apply(inv.apply(i)), i, "trial {trial}");
            assert_eq!(inv.apply(p.apply(i)), i, "trial {trial}");
        }
    }
}

#[test]
fn matrix_market_roundtrip() {
    let mut rng = SplitMix64::new(0x1A0B);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let mut buf = Vec::new();
        mcm_sparse::io::write_matrix_market(&t, &mut buf).unwrap();
        let back = mcm_sparse::io::read_matrix_market(&buf[..]).unwrap();
        let mut want = t.clone();
        want.sort_dedup();
        assert_eq!(back, want, "trial {trial}");
    }
}
