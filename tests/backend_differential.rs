//! Backend differential: full MCM-DIST on the cost-model simulator (one
//! physical block, fused SpMSpV) vs the real thread-per-rank mesh engine
//! (the grid's blocks split over ranks), across the `mcm-gen` suite — all
//! initializers × both augmentation kernels × p ∈ {1, 4, 9}, plus warm
//! starts.
//!
//! The comm trait layer (`mcm_bsp::comm`, DESIGN.md §12) promises that one
//! generic pipeline runs identically on both backends: same cardinality,
//! and in fact the *identical matching*, since every collective is
//! deterministic and the engine's RMA epochs service vertex-disjoint
//! paths. It also promises identical modeled charges: the simulator counts
//! in one traversal the per-block volumes the engine really ships
//! (DESIGN.md §14), so per-kernel modeled seconds and call counts must
//! agree exactly. Both sides are additionally Berge-certified and checked
//! maximum against serial Hopcroft–Karp.
//!
//! `MCM_TEST_SEED=<seed>` (decimal or `0x` hex) replays a sweep exactly;
//! `MCM_ENGINE_TEST_THREADS=<t>` pins the per-rank thread count of both
//! backends (CI runs t ∈ {1, 2}; unset, the suite sweep runs both, and the
//! warm starts run t = 1). Threads are modeled only: they divide charged
//! compute and never change the matching. `MCM_TEST_ALGOS=<a,b>` restricts
//! the cross-algorithm matrix to a comma-separated subset (the CI algo
//! dimension).

use mcm_bsp::{Communicator, DistCtx, EngineComm, MachineConfig};
use mcm_core::augment::AugmentMode;
use mcm_core::maximal::Initializer;
use mcm_core::mcm::{maximum_matching, McmOptions, Start};
use mcm_core::portfolio::{solve, MatchingAlgo, PortfolioBackend, PortfolioOptions};
use mcm_core::serial::hopcroft_karp;
use mcm_core::verify;
use mcm_gen::simtest_suite;

/// Default suite seed, overridable via `MCM_TEST_SEED`.
fn seed(default: u64) -> u64 {
    let Ok(raw) = std::env::var("MCM_TEST_SEED") else { return default };
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("MCM_TEST_SEED={raw} is not a u64"))
}

/// The pinned per-rank thread count, from `MCM_ENGINE_TEST_THREADS`.
fn pinned_threads() -> Option<usize> {
    std::env::var("MCM_ENGINE_TEST_THREADS").ok().and_then(|v| v.parse().ok())
}

#[test]
fn both_backends_produce_identical_matchings_and_charges_across_the_suite() {
    let cases = simtest_suite(seed(0xD1FF_BACC));
    let thread_counts = pinned_threads().map_or(vec![1, 2], |t| vec![t]);
    let inits = [
        Initializer::None,
        Initializer::Greedy,
        Initializer::KarpSipser,
        Initializer::DynamicMindegree,
    ];
    let augments = [AugmentMode::LevelParallel, AugmentMode::PathParallel];
    // Every initializer × augmentation kernel.
    let configs: Vec<McmOptions> = inits
        .iter()
        .flat_map(|&init| {
            augments.map(|augment| McmOptions { init, augment, ..McmOptions::default() })
        })
        .collect();
    let mut runs = 0usize;
    for (name, t) in &cases {
        let a = t.to_csc();
        let v = a.view();
        let want = hopcroft_karp(&a, None).cardinality();
        for (dim, &threads) in
            [1usize, 2, 3].into_iter().flat_map(|d| thread_counts.iter().map(move |t| (d, t)))
        {
            let p = dim * dim;
            for opts in &configs {
                let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, threads));
                let mut eng_comm = EngineComm::new(p, threads);
                let sim = maximum_matching(&mut ctx, &v, Start::Cold, opts);
                let eng = maximum_matching(&mut eng_comm, &v, Start::Cold, opts);
                let tag = format!(
                    "{name} p={p} threads={threads} init={:?} augment={:?}",
                    opts.init, opts.augment
                );
                assert_eq!(sim.matching, eng.matching, "sim/engine matching diverged: {tag}");
                assert_eq!(eng.matching.cardinality(), want, "not maximum: {tag}");
                assert_eq!(
                    ctx.timers,
                    eng_comm.ctx().timers,
                    "per-kernel modeled seconds or calls diverged: {tag}"
                );
                verify::verify(&a, &sim.matching)
                    .unwrap_or_else(|e| panic!("simulator Berge failed: {tag}: {e}"));
                verify::verify(&a, &eng.matching)
                    .unwrap_or_else(|e| panic!("engine Berge failed: {tag}: {e}"));
                runs += 1;
            }
        }
    }
    // 9 cases × 3 grids × thread counts × 4 initializers × 2 kernels.
    assert_eq!(runs, cases.len() * 3 * thread_counts.len() * configs.len());
}

/// Algorithms the cross-algorithm matrix sweeps, overridable via
/// `MCM_TEST_ALGOS=msbfs,ppf` (the CI matrix's algo dimension).
fn matrix_algos() -> Vec<MatchingAlgo> {
    match std::env::var("MCM_TEST_ALGOS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|e| panic!("MCM_TEST_ALGOS={raw} is invalid: {e}"))
            })
            .collect(),
        Err(_) => MatchingAlgo::CONCRETE.to_vec(),
    }
}

#[test]
fn cross_algorithm_matrix_agrees_with_the_oracle() {
    // The full algo × backend × p matrix of the portfolio (DESIGN.md §15):
    //
    //  - `msbfs` runs on both comm backends (sim | engine); the
    //    trait-layer contract says both produce the *identical* matching,
    //    which the sim row certifies against.
    //  - `ppf` is a shared-memory engine, so the backend dimension maps to
    //    its worker-thread count: t ∈ {1, p}. PPF commits vertex-disjoint
    //    paths whose *set* may differ per interleaving, so only cardinality
    //    is compared.
    //
    // Every cell is checked against serial Hopcroft–Karp and
    // Berge-certified. Failures print the suite seed for exact replay.
    let suite_seed = seed(0xD1FF_BACC);
    let cases = simtest_suite(suite_seed);
    let algos = matrix_algos();
    let mut runs = 0usize;
    for (name, t) in &cases {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        for dim in [1usize, 2, 3] {
            let p = dim * dim;
            for &algo in &algos {
                let tag = format!(
                    "{name} algo={algo} p={p} (replay: MCM_TEST_SEED={suite_seed:#x}, \
                     see EXPERIMENTS.md)"
                );
                match algo {
                    MatchingAlgo::MsBfs => {
                        let backends = [
                            PortfolioBackend::Sim { grid: dim, threads: 1 },
                            PortfolioBackend::Engine { p, threads: 1 },
                        ];
                        let results: Vec<_> = backends
                            .iter()
                            .map(|&backend| {
                                let opts = PortfolioOptions {
                                    algo,
                                    backend,
                                    ..PortfolioOptions::default()
                                };
                                solve(&a.view(), Start::Cold, &opts).0
                            })
                            .collect();
                        for (r, backend) in results.iter().zip(backends) {
                            assert_eq!(r.stats.algo, "msbfs", "{tag}");
                            assert_eq!(
                                r.matching.cardinality(),
                                want,
                                "not maximum on {backend:?}: {tag}"
                            );
                            assert_eq!(
                                r.matching, results[0].matching,
                                "{backend:?} diverged from sim: {tag}"
                            );
                            verify::verify(&a, &r.matching).unwrap_or_else(|e| {
                                panic!("Berge failed on {backend:?}: {tag}: {e}")
                            });
                            runs += 1;
                        }
                    }
                    MatchingAlgo::Ppf => {
                        for threads in [1usize, p] {
                            let opts = PortfolioOptions {
                                algo,
                                threads,
                                seed: suite_seed ^ p as u64,
                                ..PortfolioOptions::default()
                            };
                            let r = solve(&a.view(), Start::Cold, &opts).0;
                            assert_eq!(r.stats.algo, algo.name(), "{tag}");
                            assert_eq!(
                                r.matching.cardinality(),
                                want,
                                "not maximum at threads={threads}: {tag}"
                            );
                            verify::verify(&a, &r.matching).unwrap_or_else(|e| {
                                panic!("Berge failed at threads={threads}: {tag}: {e}")
                            });
                            runs += 1;
                        }
                    }
                    MatchingAlgo::Auto => unreachable!("matrix sweeps concrete engines"),
                }
            }
        }
    }
    // Two cells per algorithm: two backends for MS-BFS, two thread counts
    // for the shared-memory engines.
    assert_eq!(runs, cases.len() * 3 * 2 * algos.len());
}

#[test]
fn engine_backend_warm_start_matches_simulator() {
    // The dyn fallback path hands a *stale* matching to either backend:
    // warm starts must agree too, in the caller's labels and relabeled. An
    // empty warm start puts every column in the first frontier.
    let cases = simtest_suite(seed(0xD1FF_BACC));
    let threads = pinned_threads().unwrap_or(1);
    let (name, t) = &cases[0];
    let a = t.to_csc();
    let want = hopcroft_karp(&a, None).cardinality();
    let plain = McmOptions { permute_seed: None, ..McmOptions::default() };
    let relabeled = McmOptions::default();

    // A deliberately suboptimal warm start: greedy on the serial sim.
    let stale = {
        let mut ctx = DistCtx::serial();
        let am = mcm_bsp::DistMatrix::from_triples(&ctx, t);
        mcm_core::maximal::greedy(&mut ctx, &am)
    };
    let empty = mcm_core::Matching::empty(a.nrows(), a.ncols());

    for (label, opts, warm) in [
        ("greedy", plain, &stale),
        ("greedy, relabeled", relabeled, &stale),
        ("empty, relabeled", relabeled, &empty),
    ] {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, threads));
        let mut eng_comm = EngineComm::new(4, threads);
        let v = a.view();
        let sim = maximum_matching(&mut ctx, &v, Start::Warm(warm.clone()), &opts);
        let eng = maximum_matching(&mut eng_comm, &v, Start::Warm(warm.clone()), &opts);
        let tag = format!("warm-started {name} ({label})");
        assert_eq!(sim.matching, eng.matching, "{tag} diverged (engine)");
        assert_eq!(ctx.timers, eng_comm.ctx().timers, "{tag} charges diverged (engine)");
        verify::verify(&a, &sim.matching).unwrap_or_else(|e| panic!("{tag}: {e}"));
        verify::verify(&a, &eng.matching).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert_eq!(eng.matching.cardinality(), want, "{tag}");
    }
}
