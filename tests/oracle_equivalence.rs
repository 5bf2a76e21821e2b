//! Randomized oracle tests: every algorithm in the crate must agree with
//! Hopcroft–Karp on the maximum cardinality, on arbitrary bipartite graphs,
//! arbitrary process grids, and arbitrary option combinations.
//!
//! Randomized inputs come from seeded [`SplitMix64`] streams (deterministic,
//! no external property-testing dependency).

use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::augment::AugmentMode;
use mcm_core::maximal::Initializer;
use mcm_core::semirings::SemiringKind;
use mcm_core::serial::{hopcroft_karp, ms_bfs_serial, pothen_fan};
use mcm_core::verify::{is_maximal, is_maximum};
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Triples, Vidx};

/// An arbitrary bipartite graph: dimensions in 1..=24, up to 3·n edges.
fn random_graph(rng: &mut SplitMix64) -> Triples {
    let n1 = 1 + rng.below(24) as usize;
    let n2 = 1 + rng.below(24) as usize;
    let max_edges = 3 * n1.max(n2);
    let m = rng.below(max_edges as u64 + 1) as usize;
    let edges =
        (0..m).map(|_| (rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx)).collect();
    Triples::from_edges(n1, n2, edges)
}

const CASES: u64 = 64;

#[test]
fn distributed_mcm_matches_hopcroft_karp() {
    let mut rng = SplitMix64::new(0x0E01);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let dim = 1 + rng.below(3) as usize;
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        let r = maximum_matching(&mut ctx, &a.view(), Start::Cold, &McmOptions::default());
        assert_eq!(r.matching.cardinality(), want, "trial {trial} dim {dim}");
        assert!(r.matching.validate(&a).is_ok(), "trial {trial}");
        assert!(is_maximum(&a, &r.matching), "trial {trial}");
    }
}

#[test]
fn all_option_combinations_agree() {
    let mut rng = SplitMix64::new(0x0E02);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let prune = rng.below(2) == 1;
        let diropt = rng.below(2) == 1;
        let seed = rng.below(1000);
        let semiring_pick = rng.below(3);
        let augment_pick = rng.below(3);
        let init_pick = rng.below(4);
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        let opts = McmOptions {
            direction_optimizing: diropt,
            semiring: match semiring_pick {
                0 => SemiringKind::MinParent,
                1 => SemiringKind::RandParent(seed),
                _ => SemiringKind::RandRoot(seed),
            },
            prune,
            augment: match augment_pick {
                0 => AugmentMode::Auto,
                1 => AugmentMode::LevelParallel,
                _ => AugmentMode::PathParallel,
            },
            init: match init_pick {
                0 => Initializer::None,
                1 => Initializer::Greedy,
                2 => Initializer::KarpSipser,
                _ => Initializer::DynamicMindegree,
            },
            permute_seed: if seed.is_multiple_of(2) { Some(seed) } else { None },
            seed,
        };
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let r = maximum_matching(&mut ctx, &t.to_csc().view(), Start::Cold, &opts);
        assert_eq!(r.matching.cardinality(), want, "trial {trial} opts {opts:?}");
        assert!(r.matching.validate(&a).is_ok(), "trial {trial} opts {opts:?}");
    }
}

#[test]
fn serial_algorithms_agree() {
    let mut rng = SplitMix64::new(0x0E03);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let a = t.to_csc();
        let hk = hopcroft_karp(&a, None);
        let pf = pothen_fan(&a, None);
        let (bfs, _) = ms_bfs_serial(&a, None);
        assert_eq!(pf.cardinality(), hk.cardinality(), "trial {trial}");
        assert_eq!(bfs.cardinality(), hk.cardinality(), "trial {trial}");
        assert!(hk.validate(&a).is_ok(), "trial {trial}");
        assert!(pf.validate(&a).is_ok(), "trial {trial}");
        assert!(bfs.validate(&a).is_ok(), "trial {trial}");
    }
}

#[test]
fn initializers_produce_valid_maximal_matchings() {
    let mut rng = SplitMix64::new(0x0E04);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let seed = rng.below(100);
        let a = t.to_csc();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let da = mcm_bsp::DistMatrix::from_triples(&ctx, &t);
        let dat = mcm_bsp::DistMatrix::from_triples(&ctx, &t.transposed());
        for init in [Initializer::Greedy, Initializer::KarpSipser, Initializer::DynamicMindegree] {
            let m = init.run(&mut ctx, &da, &dat, seed);
            assert!(m.validate(&a).is_ok(), "trial {trial} {init:?}");
            assert!(is_maximal(&a, &m), "trial {trial} {init:?} not maximal");
            // ≥ 1/2-approximation guarantee of any maximal matching.
            let maximum = hopcroft_karp(&a, None).cardinality();
            assert!(2 * m.cardinality() >= maximum, "trial {trial} {init:?} below 1/2-approx");
        }
    }
}

#[test]
fn warm_start_preserves_the_maximum() {
    let mut rng = SplitMix64::new(0x0E05);
    for trial in 0..CASES {
        let t = random_graph(&mut rng);
        let seed = rng.below(100);
        // Starting HK from any maximal matching must not change the result.
        let a = t.to_csc();
        let cold = hopcroft_karp(&a, None).cardinality();
        let maximal = mcm_core::serial::karp_sipser_serial(&a, seed);
        let warm = hopcroft_karp(&a, Some(maximal)).cardinality();
        assert_eq!(cold, warm, "trial {trial}");
    }
}
