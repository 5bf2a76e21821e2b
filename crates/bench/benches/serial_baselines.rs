//! Serial baselines: Hopcroft–Karp vs Pothen–Fan vs serial MS-BFS, and the
//! maximal initializers (greedy, Karp–Sipser) — §II-A's algorithmic menu.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcm_core::serial::{
    greedy_serial, hopcroft_karp, karp_sipser_serial, ms_bfs_serial, pothen_fan,
};
use mcm_gen::mesh::road_grid;
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

fn bench_serial(c: &mut Criterion) {
    let inputs = vec![
        ("g500_s13", rmat(RmatParams::g500(13), 9).to_csc()),
        ("road_96", road_grid(96, 96, 0.1, 9).to_csc()),
    ];
    let mut group = c.benchmark_group("serial_mcm");
    group.sample_size(10);
    for (name, a) in &inputs {
        group.bench_with_input(BenchmarkId::new("hopcroft_karp", name), a, |b, a| {
            b.iter(|| black_box(hopcroft_karp(a, None)));
        });
        group.bench_with_input(BenchmarkId::new("pothen_fan", name), a, |b, a| {
            b.iter(|| black_box(pothen_fan(a, None)));
        });
        group.bench_with_input(BenchmarkId::new("ms_bfs", name), a, |b, a| {
            b.iter(|| black_box(ms_bfs_serial(a, None)));
        });
        // Warm-started variants: the §VI-A claim that initialization pays.
        group.bench_with_input(BenchmarkId::new("hk_warm_greedy", name), a, |b, a| {
            b.iter(|| {
                let init = greedy_serial(a);
                black_box(hopcroft_karp(a, Some(init)))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("serial_maximal");
    for (name, a) in &inputs {
        group.bench_with_input(BenchmarkId::new("greedy", name), a, |b, a| {
            b.iter(|| black_box(greedy_serial(a)));
        });
        group.bench_with_input(BenchmarkId::new("karp_sipser", name), a, |b, a| {
            b.iter(|| black_box(karp_sipser_serial(a, 3)));
        });
    }
    group.finish();

    // The weighted companion (MC64-style auction) on synthetic magnitudes.
    let mut group = c.benchmark_group("weighted_auction");
    group.sample_size(10);
    for (name, a) in &inputs {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(4);
        let entries: Vec<(mcm_sparse::Vidx, mcm_sparse::Vidx, f64)> =
            a.iter().map(|(i, j)| (i, j, 1.0 + rng.below(1000) as f64)).collect();
        let w = mcm_sparse::WCsc::from_weighted_triples(a.nrows(), a.ncols(), entries);
        let eps = 0.5 / (a.nrows().max(a.ncols()) as f64 + 1.0);
        group.bench_with_input(BenchmarkId::new("auction_mwm", name), &w, |b, w| {
            b.iter(|| black_box(mcm_core::weighted::auction_mwm(w, eps)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serial);
criterion_main!(benches);
