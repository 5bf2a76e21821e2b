//! Ablation: DCSC vs CSC for 2D-partitioned local submatrices (§IV-A).
//!
//! On large process grids each block is *hypersparse* (nnz < ncols) and
//! CSC's O(ncols) column-pointer scan/storage is the waste DCSC removes.
//! This bench slices one RMAT matrix into grid blocks of increasing count
//! and times the local SpMSpV under both formats; stderr reports the memory
//! ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::{Csc, Dcsc, SpVec, Vidx};
use std::hint::black_box;

fn bench_storage(c: &mut Criterion) {
    let t = rmat(RmatParams::g500(13), 5);
    let mut group = c.benchmark_group("storage");
    for &grid in &[4usize, 16, 64] {
        // Take a middle block of the grid decomposition.
        let blocks = t.split_blocks(grid, grid);
        let block = &blocks[(grid / 2) * grid + grid / 2];
        let dcsc = Dcsc::from_triples(block);
        let csc: Csc = dcsc.to_csc();
        let frontier: SpVec<Vidx> = SpVec::from_sorted_pairs(
            block.ncols(),
            (0..block.ncols()).step_by(8).map(|j| (j as Vidx, j as Vidx)).collect(),
        );
        let csc_bytes = std::mem::size_of_val(csc.colptr()) + std::mem::size_of_val(csc.rowind());
        eprintln!(
            "[ablation_storage] {grid}x{grid} grid block: {} nnz over {} cols \
             (hypersparse: {}), DCSC {} B vs CSC {} B",
            dcsc.nnz(),
            dcsc.ncols(),
            dcsc.is_hypersparse(),
            dcsc.memory_bytes(),
            csc_bytes
        );

        group.bench_with_input(BenchmarkId::new("dcsc", grid * grid), &frontier, |b, x| {
            b.iter(|| {
                black_box(mcm_sparse::spmspv(
                    &dcsc,
                    x,
                    |j, _| j,
                    |acc: &mut Vidx, inc| *acc = inc.min(*acc),
                ))
            });
        });
        group.bench_with_input(BenchmarkId::new("csc", grid * grid), &frontier, |b, x| {
            b.iter(|| {
                black_box(mcm_sparse::spmspv(
                    &csc,
                    x,
                    |j, _| j,
                    |acc: &mut Vidx, inc| *acc = inc.min(*acc),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
