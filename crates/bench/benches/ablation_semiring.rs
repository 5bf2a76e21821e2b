//! Ablation: the `(select2nd, ⊕)` semiring choice (§III-B).
//!
//! minParent is deterministic but can pile frontier vertices onto the trees
//! rooted at low-index columns; randRoot spreads vertices across trees
//! ("ensuring better balance of tree sizes"). This bench measures wall time
//! per semiring and — once per input, printed to stderr — the modeled
//! distributed time and iteration counts, where the balancing actually
//! shows up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::{maximum_matching, McmOptions, SemiringKind, Start};
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

fn bench_semirings(c: &mut Criterion) {
    let a = rmat(RmatParams::g500(12), 11).to_csc();
    let semirings = [
        ("minParent", SemiringKind::MinParent),
        ("randParent", SemiringKind::RandParent(13)),
        ("randRoot", SemiringKind::RandRoot(13)),
    ];

    // One-shot modeled-time comparison (the quantity the paper's argument
    // is about), reported outside the criterion measurement loop.
    for (name, semiring) in semirings {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(8, 12));
        let opts = McmOptions { semiring, ..Default::default() };
        let r = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);
        eprintln!(
            "[ablation_semiring] {name:>10}: modeled {:.3} ms, {} phases, {} iterations, |M| {}",
            ctx.timers.total() * 1e3,
            r.stats.phases,
            r.stats.iterations,
            r.matching.cardinality()
        );
    }

    let mut group = c.benchmark_group("semiring");
    group.sample_size(10);
    for (name, semiring) in semirings {
        group.bench_with_input(BenchmarkId::from_parameter(name), &a, |b, a| {
            b.iter(|| {
                let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 1));
                let opts = McmOptions { semiring, ..Default::default() };
                black_box(maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_semirings);
criterion_main!(benches);
