//! Weighted auction sweep (DESIGN.md §17): the default auction (a
//! budgeted fine-ε attempt, ε-scaling when a price war spends the budget)
//! vs a fixed fine ε on weight-perturbed portfolio shapes, plus thread
//! scaling and the incremental engine's batch repair vs
//! recompute-from-scratch (`MCM_BENCH_JSON=BENCH_mwm.json` records the
//! numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_core::weighted::{auction_mwm_par, AuctionOptions};
use mcm_dyn::{WDynMatching, WDynOptions, WUpdate};
use mcm_gen::hard::{crown, star};
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_gen::{assign_weights, weighted_update_trace, WTraceOp, WTraceParams};
use mcm_sparse::WCsc;
use std::hint::black_box;

fn weighted(t: &mcm_sparse::Triples, seed: u64) -> WCsc {
    WCsc::from_weighted_triples(t.nrows(), t.ncols(), assign_weights(t.entries(), seed, 50))
}

fn bench_weighted(c: &mut Criterion) {
    // Shapes spanning the auction's regimes: skewed RMAT (cheap), the
    // crown (every alternative equally good once weights are close), and
    // the crowded star (the Θ(1/ε) price-war regime).
    let inputs = vec![
        ("g500_s10", weighted(&rmat(RmatParams::g500(10), 9), 0xA1)),
        ("crown_128", weighted(&crown(128), 0xA2)),
        ("star_8x512", weighted(&star(8, 512), 0xA3)),
    ];

    // The default options vs one unbudgeted scale at the fine ε: both
    // land on the same exact optimum for these integer weights, so the
    // delta is pure convergence speed.
    let mut group = c.benchmark_group("mwm_eps");
    group.sample_size(10);
    for (name, a) in &inputs {
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("default", name), a, |b, a| {
            b.iter(|| black_box(auction_mwm_par(a, &AuctionOptions::default())));
        });
        let fine = 1.0 / (2.0 * (a.nrows() as f64 + 1.0));
        // `eps_start` is relative to the value range; 0 clamps it to the
        // final ε, which asks for the single scale explicitly.
        let fixed =
            AuctionOptions { eps_start: 0.0, eps_final: Some(fine), ..AuctionOptions::default() };
        group.bench_with_input(BenchmarkId::new("fixed_fine", name), a, |b, a| {
            b.iter(|| black_box(auction_mwm_par(a, &fixed)));
        });
    }
    group.finish();

    // Thread scaling of the parallel bid phase on the largest instance.
    let mut group = c.benchmark_group("mwm_threads");
    group.sample_size(10);
    let (name, a) = &inputs[0];
    for threads in [1usize, 2, 4] {
        let opts = AuctionOptions { threads, ..AuctionOptions::default() };
        group.bench_with_input(BenchmarkId::new(format!("p{threads}"), name), a, |b, a| {
            b.iter(|| black_box(auction_mwm_par(a, &opts)));
        });
    }
    group.finish();

    // Incremental weighted repair vs cold re-solve per checkpoint batch.
    let mut group = c.benchmark_group("mwm_dynamic");
    group.sample_size(10);
    // Serving-regime batches: a few updates per checkpoint on a graph two
    // orders larger, where repairing the handful of dirty bidders beats
    // re-auctioning everyone.
    let mut p =
        WTraceParams { max_weight: 50, reweight_frac: 0.3, ..WTraceParams::churn(96, 96, 9) };
    p.base.ops_per_batch = 6;
    p.base.batches = 24;
    let ops = weighted_update_trace(&p);
    let batches: Vec<Vec<WUpdate>> = {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        for op in &ops {
            match *op {
                WTraceOp::Insert(r, c, w) => cur.push(WUpdate::Insert(r, c, w)),
                WTraceOp::Delete(r, c) => cur.push(WUpdate::Delete(r, c)),
                WTraceOp::Query => out.push(std::mem::take(&mut cur)),
            }
        }
        out
    };
    group.bench_function("incremental/churn_96", |b| {
        b.iter(|| {
            let mut wm = WDynMatching::new(p.base.n1, p.base.n2, WDynOptions::default());
            for batch in &batches {
                wm.apply_batch(batch);
            }
            black_box(wm.weight())
        });
    });
    group.bench_function("cold_per_batch/churn_96", |b| {
        b.iter(|| {
            // The alternative the repair path replaces: rebuild and
            // re-solve from scratch at every checkpoint.
            let mut live: Vec<(mcm_sparse::Vidx, mcm_sparse::Vidx, f64)> = Vec::new();
            let mut w = 0.0;
            for batch in &batches {
                for u in batch {
                    match *u {
                        WUpdate::Insert(r, c, wt) => {
                            live.retain(|&(lr, lc, _)| (lr, lc) != (r, c));
                            live.push((r, c, wt));
                        }
                        WUpdate::Delete(r, c) => live.retain(|&(lr, lc, _)| (lr, lc) != (r, c)),
                    }
                }
                let a = WCsc::from_weighted_triples(p.base.n1, p.base.n2, live.clone());
                w = auction_mwm_par(&a, &AuctionOptions::default()).weight;
            }
            black_box(w)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_weighted);
criterion_main!(benches);
