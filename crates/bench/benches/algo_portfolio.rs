//! Algorithm portfolio sweep (DESIGN.md §15): MS-BFS vs parallel
//! Pothen–Fan at 1 and 2 worker threads on shapes spanning the selector's
//! decision regions, plus the cost of the measured selection itself
//! (`MCM_BENCH_JSON=BENCH_algo.json` records the numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_core::mcm::{SolverPool, Start};
use mcm_core::portfolio::{solve, MatchingAlgo, PortfolioBackend, PortfolioOptions, SelectorStats};
use mcm_gen::er::gnm_bipartite;
use mcm_gen::hard::{chain, crown};
use mcm_gen::mesh::road_grid;
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

fn bench_portfolio(c: &mut Criterion) {
    // One instance per selector region: RMAT (skewed, auto → ppf), road
    // (balanced sparse, auto → msbfs), crown (dense and degree-uniform,
    // auto → ppf), a dense random graph (density ≈ 0.1, auto → ppf),
    // chain (the augmenting-path adversary).
    let inputs = vec![
        ("g500_s12", rmat(RmatParams::g500(12), 9)),
        ("road_96", road_grid(96, 96, 0.1, 9)),
        ("crown_256", crown(256)),
        ("gnm_1000_d10", gnm_bipartite(1000, 1000, 105_000, 9)),
        ("chain_2048", chain(2048)),
    ];

    let mut group = c.benchmark_group("algo_portfolio");
    group.sample_size(10);
    for threads in [1usize, 2] {
        // The shape `mcm match --threads t` runs: MS-BFS on the default
        // 2×2 simulated grid with `t` threads per rank, PPF on `t` workers.
        let base = PortfolioOptions {
            threads,
            backend: PortfolioBackend::Sim { grid: 2, threads },
            ..PortfolioOptions::default()
        };
        for (name, t) in &inputs {
            group.throughput(Throughput::Elements(t.len() as u64));
            let a = t.to_csc();
            for algo in MatchingAlgo::CONCRETE {
                let opts = PortfolioOptions { algo, ..base };
                let id = BenchmarkId::new(format!("{}/t{threads}", algo.name()), name);
                group.bench_with_input(id, &a, |b, a| {
                    b.iter(|| {
                        black_box(solve(&a.view(), Start::Cold, &opts, &mut SolverPool::new()))
                    });
                });
            }
            // The auto path: measurement + dispatch, the end-to-end cost a
            // caller actually pays for not choosing.
            let id = BenchmarkId::new(format!("auto/t{threads}"), name);
            group.bench_with_input(id, &a, |b, a| {
                b.iter(|| black_box(solve(&a.view(), Start::Cold, &base, &mut SolverPool::new())));
            });
        }
    }
    group.finish();

    // Selector overhead alone: one O(nnz) pass; must stay negligible
    // against any engine above for `auto` to be a sane default.
    let mut group = c.benchmark_group("algo_selector");
    for (name, t) in &inputs {
        group.throughput(Throughput::Elements(t.len() as u64));
        group.bench_with_input(BenchmarkId::new("measure", name), &t.to_csc(), |b, a| {
            b.iter(|| black_box(SelectorStats::measure_csc(a).choose()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
