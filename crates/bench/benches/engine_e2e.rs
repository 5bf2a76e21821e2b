//! End-to-end wall-clock of the execution backends: full MCM-DIST on the
//! real thread-per-rank `EngineComm` mesh across a core sweep (1/2/4/8),
//! against the cost-model simulator (single-block fused execution) and
//! serial Hopcroft–Karp on the same graph. The modeled-time story lives in
//! the figure binaries; this bench answers the sharded-serving question —
//! what a warm recompute actually costs on real cores
//! (`mcmd --backend engine|sim`, DESIGN.md §12, §14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_bsp::{Communicator, DistCtx, EngineComm, MachineConfig};
use mcm_core::serial::hopcroft_karp;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::Csc;
use std::hint::black_box;

/// Total-core sweep → (ranks, threads-per-rank): square rank counts only,
/// threads soak up the non-square factors. Threads are modeled only (each
/// rank runs one serial local product), so `engine/2` and `engine/8` run
/// the work of `engine/1` and `engine/4` and differ only in the charges.
const CORES: [(usize, usize, usize); 4] = [(1, 1, 1), (2, 1, 2), (4, 4, 1), (8, 4, 2)];

/// Cardinality of one cold solve of `a` on `comm`.
fn solve(comm: &mut impl Communicator, a: &Csc, opts: &McmOptions) -> usize {
    maximum_matching(comm, &a.view(), Start::Cold, opts).matching.cardinality()
}

fn bench_engine_e2e(c: &mut Criterion) {
    let t = rmat(RmatParams::g500(12), 7);
    let opts = McmOptions::default();
    let mut group = c.benchmark_group("engine_e2e");
    group.throughput(Throughput::Elements(t.len() as u64));

    let csc = t.to_csc();
    group.bench_function(BenchmarkId::new("serial_hk", "g500_s12"), |b| {
        b.iter(|| black_box(hopcroft_karp(&csc, None).cardinality()))
    });

    group.bench_function(BenchmarkId::new("simulator", "g500_s12"), |b| {
        b.iter(|| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
            black_box(solve(&mut ctx, &csc, &opts))
        })
    });

    for &(cores, p, threads) in &CORES {
        group.bench_function(BenchmarkId::new("engine", cores), |b| {
            b.iter(|| black_box(solve(&mut EngineComm::new(p, threads), &csc, &opts)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_e2e);
criterion_main!(benches);
