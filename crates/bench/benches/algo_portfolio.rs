//! Algorithm portfolio sweep (DESIGN.md §15): MS-BFS vs parallel
//! Pothen–Fan vs the ε-scaled auction on shapes spanning the selector's
//! decision regions, plus the cost of the measured selection itself
//! (`MCM_BENCH_JSON=BENCH_algo.json` records the numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_core::portfolio::{solve, MatchingAlgo, PortfolioOptions, SelectorStats};
use mcm_gen::hard::{chain, crown, star};
use mcm_gen::mesh::road_grid;
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

fn bench_portfolio(c: &mut Criterion) {
    // One instance per selector region: RMAT (skewed, auto → ppf), road
    // (balanced sparse, auto → msbfs), crown (dense, auto → auction),
    // chain (the augmenting-path / eviction-cascade adversary).
    let inputs = vec![
        ("g500_s12", rmat(RmatParams::g500(12), 9)),
        ("road_96", road_grid(96, 96, 0.1, 9)),
        ("crown_256", crown(256)),
        ("chain_2048", chain(2048)),
    ];

    let mut group = c.benchmark_group("algo_portfolio");
    group.sample_size(10);
    for (name, t) in &inputs {
        group.throughput(Throughput::Elements(t.len() as u64));
        let a = t.to_csc();
        for algo in MatchingAlgo::CONCRETE {
            let opts = PortfolioOptions { algo, threads: 4, ..PortfolioOptions::default() };
            group.bench_with_input(BenchmarkId::new(algo.name(), name), &a, |b, a| {
                b.iter(|| black_box(solve(&a.view(), &opts)));
            });
        }
        // The auto path: measurement + dispatch, the end-to-end cost a
        // caller actually pays for not choosing.
        let opts = PortfolioOptions { threads: 4, ..PortfolioOptions::default() };
        group.bench_with_input(BenchmarkId::new("auto", name), &a, |b, a| {
            b.iter(|| black_box(solve(&a.view(), &opts)));
        });
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

    // The price-war adversary head-to-head: scaled ε vs a fixed fine ε
    // on the crowded star (the Θ(1/ε) regime the scaling exists for).
    let mut group = c.benchmark_group("auction_eps");
    group.sample_size(10);
    let a = star(8, 512).to_csc();
    use mcm_core::auction::{auction, AuctionOptions};
    group.bench_function("scaled/star_8x512", |b| {
        b.iter(|| black_box(auction(&a, &AuctionOptions::default())));
    });
    let fine = 1.0 / (2.0 * (a.nrows() as f64 + 1.0));
    let fixed = AuctionOptions { eps_start: fine, eps_final: Some(fine), ..Default::default() };
    group.bench_function("fixed_fine/star_8x512", |b| {
        b.iter(|| black_box(auction(&a, &fixed)));
    });
    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
