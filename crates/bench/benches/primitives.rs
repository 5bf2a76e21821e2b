//! Criterion micro-benches for the Table I primitives: SELECT, SET, INVERT,
//! PRUNE at several frontier sizes — verifying the O(nnz) serial
//! complexities the table claims — plus a seed-kernel vs workspace
//! SpMSpV comparison on an R-MAT scale-12 frontier sweep
//! (`MCM_BENCH_JSON=BENCH_spmv.json` records the numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_core::primitives::{invert, prune, select, set_dense};
use mcm_core::semirings::SemiringKind::MinParent;
use mcm_core::vertex::Vertex;
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::workspace::SpmvWorkspace;
use mcm_sparse::{spmspv, Dcsc, DenseVec, SpVec, Vidx, NIL};
use std::hint::black_box;

fn make_sparse(n: usize, nnz: usize, seed: u64) -> SpVec<Vidx> {
    let mut rng = SplitMix64::new(seed);
    let mut picked: Vec<Vidx> = (0..n as Vidx).collect();
    // partial Fisher-Yates: first nnz entries are a random sample
    for k in 0..nnz.min(n) {
        let j = k + rng.below((n - k) as u64) as usize;
        picked.swap(k, j);
    }
    let mut pairs: Vec<(Vidx, Vidx)> =
        picked[..nnz.min(n)].iter().map(|&i| (i, rng.below(n as u64) as Vidx)).collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    SpVec::from_sorted_pairs(n, pairs)
}

fn bench_primitives(c: &mut Criterion) {
    let n = 1 << 20;
    let mut group = c.benchmark_group("primitives");
    for &nnz in &[1usize << 10, 1 << 14, 1 << 18] {
        let x = make_sparse(n, nnz, 42);
        let mut dense = DenseVec::nil(n);
        for i in (0..n).step_by(2) {
            dense.set(i as Vidx, 1);
        }
        group.throughput(Throughput::Elements(nnz as u64));

        group.bench_with_input(BenchmarkId::new("select", nnz), &x, |b, x| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 1));
            b.iter(|| black_box(select(&mut ctx, Kernel::Select, x, &dense, |v| v == NIL)));
        });
        group.bench_with_input(BenchmarkId::new("set_dense", nnz), &x, |b, x| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 1));
            let mut y = DenseVec::nil(n);
            b.iter(|| {
                set_dense(&mut ctx, Kernel::Select, &mut y, x, |&v| v);
                black_box(&y);
            });
        });
        group.bench_with_input(BenchmarkId::new("invert", nnz), &x, |b, x| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 1));
            b.iter(|| black_box(invert(&mut ctx, Kernel::Invert, x, n)));
        });
        let roots: Vec<Vidx> = (0..(nnz / 8).max(1)).map(|k| (k * 7) as Vidx).collect();
        group.bench_with_input(BenchmarkId::new("prune", nnz), &x, |b, x| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 1));
            b.iter(|| black_box(prune(&mut ctx, Kernel::Prune, x, &roots, |&v| v)));
        });
    }
    group.finish();
}

/// Seed SpMSpV (allocates output + SPA per call) against the workspace
/// kernel (`spmspv_into`, generation-stamped SPA, caller-owned buffers),
/// across a frontier-density sweep on an R-MAT scale-12 block — the shape
/// of the MS-BFS hot path.
fn bench_spmv_workspace(c: &mut Criterion) {
    let a = Dcsc::from_triples(&rmat(RmatParams::g500(12), 42));
    let mut group = c.benchmark_group("spmv_workspace");

    for &every in &[1usize, 4, 16, 64] {
        let mut rng = SplitMix64::new(0xBE7C ^ every as u64);
        let pairs: Vec<(Vidx, Vertex)> = (0..a.ncols() as Vidx)
            .filter(|_| rng.below(every as u64) == 0)
            .map(|j| (j, Vertex::seed(j)))
            .collect();
        let x: SpVec<Vertex> = SpVec::from_sorted_pairs(a.ncols(), pairs);
        let flops = spmspv(
            &a,
            &x,
            |j, v: &Vertex| Vertex::new(j, v.root),
            |acc, inc| MinParent.fold(acc, inc),
        )
        .flops;
        group.throughput(Throughput::Elements(flops));

        group.bench_with_input(BenchmarkId::new("seed", every), &x, |b, x| {
            b.iter(|| {
                black_box(spmspv(
                    &a,
                    x,
                    |j, v: &Vertex| Vertex::new(j, v.root),
                    |acc, inc| MinParent.fold(acc, inc),
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("workspace", every), &x, |b, x| {
            let mut ws: SpmvWorkspace<Vertex> = SpmvWorkspace::new();
            let mut y = SpVec::new(0);
            b.iter(|| {
                let f = ws.spmspv_into(
                    &a,
                    x,
                    |j, v: &Vertex| Vertex::new(j, v.root),
                    |acc, inc| MinParent.fold(acc, inc),
                    &mut y,
                );
                black_box((f, y.nnz()));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_spmv_workspace);
criterion_main!(benches);
