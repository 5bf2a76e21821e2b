//! Criterion benches for the SpMSpV kernels: serial DCSC kernel across
//! frontier densities, and the distributed expand–multiply–fold product
//! across grid sizes (wall-clock; the modeled times are what the figure
//! binaries report).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig};
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::{Dcsc, SpVec, Vidx};
use std::hint::black_box;

fn frontier(n: usize, every: usize) -> SpVec<(Vidx, Vidx)> {
    SpVec::from_sorted_pairs(
        n,
        (0..n).step_by(every).map(|j| (j as Vidx, (j as Vidx, j as Vidx))).collect(),
    )
}

fn min_parent(acc: &mut (Vidx, Vidx), inc: (Vidx, Vidx)) {
    if inc.0 < acc.0 {
        *acc = inc;
    }
}

fn bench_serial_spmspv(c: &mut Criterion) {
    let t = rmat(RmatParams::g500(14), 7);
    let a = Dcsc::from_triples(&t);
    let n = a.ncols();
    let mut group = c.benchmark_group("spmspv_serial");
    for &every in &[1usize, 16, 256] {
        let x = frontier(n, every);
        group.throughput(Throughput::Elements(x.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("g500_s14", x.nnz()), &x, |b, x| {
            b.iter(|| black_box(mcm_sparse::spmspv(&a, x, |j, &(_, r)| (j, r), min_parent)));
        });
    }
    group.finish();
}

fn bench_distributed_spmspv(c: &mut Criterion) {
    let t = rmat(RmatParams::g500(14), 7);
    let n = t.ncols();
    let x = frontier(n, 4);
    let mut group = c.benchmark_group("spmspv_distributed");
    for &dim in &[1usize, 4, 8, 16] {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        group.bench_with_input(BenchmarkId::new("grid", dim * dim), &x, |b, x| {
            b.iter(|| {
                black_box(a.spmspv(&mut ctx, Kernel::SpMV, x, |j, &(_, r)| (j, r), min_parent))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serial_spmspv, bench_distributed_spmspv);
criterion_main!(benches);
