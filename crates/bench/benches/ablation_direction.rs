//! Ablation: direction-optimizing (bottom-up) BFS — the paper's §VII
//! future work, implemented here on the simulated machine.
//!
//! The interesting finding (printed to stderr): with the paper's default
//! dynamic-mindegree initialization, frontiers rarely cover a majority of
//! the columns, so the bottom-up path almost never triggers — the good
//! initializer and the direction optimization fight over the same savings.
//! Without an initializer the first phases have near-universal frontiers
//! and bottom-up cuts the modeled SpMV time substantially.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_core::maximal::Initializer;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

fn bench_direction(c: &mut Criterion) {
    let a = rmat(RmatParams::er(12), 8).to_csc();

    for init in [Initializer::None, Initializer::DynamicMindegree] {
        for diropt in [false, true] {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 12));
            let opts = McmOptions { init, direction_optimizing: diropt, ..Default::default() };
            let r = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);
            eprintln!(
                "[ablation_direction] init={:<18} bottom_up={}: SpMV {:.3} ms \
                 ({} of {} iterations pulled), |M| {}",
                init.name(),
                diropt,
                ctx.timers.seconds(Kernel::SpMV) * 1e3,
                r.stats.bottom_up_iterations,
                r.stats.iterations,
                r.matching.cardinality()
            );
        }
    }

    let mut group = c.benchmark_group("direction");
    group.sample_size(10);
    for diropt in [false, true] {
        group.bench_with_input(
            BenchmarkId::new("no_init", if diropt { "pull" } else { "push" }),
            &a,
            |b, a| {
                b.iter(|| {
                    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
                    let opts = McmOptions {
                        init: Initializer::None,
                        direction_optimizing: diropt,
                        ..Default::default()
                    };
                    black_box(maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_direction);
criterion_main!(benches);
