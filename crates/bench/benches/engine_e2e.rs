//! End-to-end wall-clock of the execution backends: full MCM-DIST on the
//! real thread-per-rank `EngineComm` mesh at 1 and 4 ranks,
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

/// Rank sweep: square rank counts, one thread each. Threads are modeled
/// only (each rank runs one serial local product), so a thread axis would
/// rerun the same work under different charges.
const RANKS: [usize; 2] = [1, 4];

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

    for p in RANKS {
        group.bench_function(BenchmarkId::new("engine", p), |b| {
            b.iter(|| black_box(solve(&mut EngineComm::new(p, 1), &csc, &opts)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_e2e);
criterion_main!(benches);
