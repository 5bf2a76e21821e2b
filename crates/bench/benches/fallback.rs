//! Large-dirty-set fallback engines, warm-started from a stale matching
//! (DESIGN.md §11, EXPERIMENTS.md "Dynamic fallback engine").
//!
//! `mcm-dyn` repairs a batch that dirties more than `fallback_threshold`
//! of the vertices with one whole-graph solve warm-started from the stale
//! matching (the paper's §V warm start). This bench times the candidate
//! engines for that solve on the same stale matchings:
//!
//! * `serial`   — `ms_bfs_serial(a, Some(stale))`, what `DynMatching` runs;
//! * `sim1x1`   — MCM-DIST through `portfolio::solve` on the cost-model
//!   simulator, one rank (the earlier default fallback);
//! * `engine4`  — MCM-DIST on the thread-per-rank engine, 4 ranks;
//! * `ppf`      — warm parallel Pothen–Fan, one worker.
//!
//! A stale matching is made by solving the graph (Hopcroft–Karp), then
//! deleting `k` matched edges from the graph and the matching, which
//! dirties `2k` of the `n1 + n2` vertices. Every engine's result is checked
//! against Hopcroft–Karp on the shrunk graph before it is timed.
//!
//! ```text
//! cargo bench -p mcm-bench --bench fallback
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mcm_core::portfolio::solve;
use mcm_core::serial::{hopcroft_karp, ms_bfs_serial};
use mcm_core::{Matching, MatchingAlgo, McmOptions, PortfolioBackend, PortfolioOptions, Start};
use mcm_sparse::{Csc, Triples, Vidx, NIL};
use std::hint::black_box;

const DIRTY_FRACS: [(f64, &str); 3] = [(0.02, "2pct"), (0.08, "8pct"), (0.25, "25pct")];

/// The graph with `frac · (n1 + n2) / 2` matched edges of a maximum
/// matching deleted, and that matching without them.
fn stale(t: &Triples, frac: f64) -> (Csc, Matching) {
    let a = t.to_csc();
    let mut m = hopcroft_karp(&a, None);
    let matched: Vec<(Vidx, Vidx)> = (0..a.nrows() as Vidx)
        .filter_map(|r| {
            let c = m.mate_r.get(r);
            (c != NIL).then_some((r, c))
        })
        .collect();
    let k = ((frac * (a.nrows() + a.ncols()) as f64) / 2.0).round().max(1.0) as usize;
    let stride = (matched.len() / k).max(1);
    let gone: std::collections::HashSet<(Vidx, Vidx)> =
        matched.iter().copied().step_by(stride).take(k).collect();
    for &(r, c) in &gone {
        m.mate_r.set(r, NIL);
        m.mate_c.set(c, NIL);
    }
    let kept = a.iter().filter(|e| !gone.contains(e)).collect();
    (Triples::from_edges(a.nrows(), a.ncols(), kept).to_csc(), m)
}

fn portfolio(algo: MatchingAlgo, backend: PortfolioBackend) -> PortfolioOptions {
    PortfolioOptions {
        algo,
        backend,
        threads: 1,
        mcm: McmOptions { permute_seed: None, ..Default::default() },
        seed: 0,
    }
}

fn bench_fallback(c: &mut Criterion) {
    let instances = [
        ("gnm2000", mcm_gen::er::gnm_bipartite(2000, 2000, 16_000, 0xD11A_BE7C)),
        ("g500s15", mcm_gen::rmat::rmat(mcm_gen::rmat::RmatParams::g500(15), 7)),
    ];
    let sim = portfolio(MatchingAlgo::MsBfs, PortfolioBackend::Sim { grid: 1, threads: 1 });
    let engine = portfolio(MatchingAlgo::MsBfs, PortfolioBackend::Engine { p: 4, threads: 1 });
    let ppf = portfolio(MatchingAlgo::Ppf, PortfolioBackend::Sim { grid: 1, threads: 1 });
    let mut group = c.benchmark_group("fallback");
    group.sample_size(9);
    for (name, t) in &instances {
        for (frac, tag) in DIRTY_FRACS {
            let (a, m) = stale(t, frac);
            let want = hopcroft_karp(&a, None).cardinality();
            let serial = |m: Matching| ms_bfs_serial(&a, Some(m)).0;
            let via = |opts: &PortfolioOptions, m: Matching| {
                solve(&a.view(), Start::Warm(m), opts).0.matching
            };
            let arms: [(&str, &dyn Fn(Matching) -> Matching); 4] = [
                ("serial", &serial),
                ("sim1x1", &|m| via(&sim, m)),
                ("engine4", &|m| via(&engine, m)),
                ("ppf", &|m| via(&ppf, m)),
            ];
            for (arm, run) in arms {
                assert_eq!(run(m.clone()).cardinality(), want, "{name}/{arm}/{tag}");
                let id = BenchmarkId::new(format!("{name}/{arm}"), tag);
                group.bench_with_input(id, &m, |b, m| {
                    b.iter_batched(|| m.clone(), |m| black_box(run(m)), BatchSize::LargeInput);
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fallback);
criterion_main!(benches);
