//! End-to-end wall-clock benchmarks: MCM-DIST on representative stand-ins
//! across grid sizes, against the serial oracles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::mesh::triangulated_grid;
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

fn bench_mcm_dist(c: &mut Criterion) {
    let inputs = vec![
        ("g500_s12", rmat(RmatParams::g500(12), 3).to_csc()),
        ("mesh_64", triangulated_grid(64, 64, 3).to_csc()),
    ];
    let mut group = c.benchmark_group("mcm_dist");
    group.sample_size(10);
    for (name, a) in &inputs {
        for &dim in &[1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(*name, format!("p{}", dim * dim)),
                a,
                |b, a| {
                    b.iter(|| {
                        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
                        let opts = McmOptions::default();
                        black_box(maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mcm_dist);
criterion_main!(benches);
