//! Portfolio lockdown (DESIGN.md §15): the `auto` selector's measured
//! stats are deterministic and relabeling-invariant, its pick is exactly
//! one concrete engine's result, dense graphs go to PPF, the ε-scaled
//! parallel auction converges on the price-war adversaries at unit
//! weights, every engine is Berge-certified through
//! `verify::is_maximum_from`, and warm starts reach maximum through the
//! same `portfolio::solve` entry point as cold solves.

use mcm_core::mcm::{McmResult, Start};
use mcm_core::portfolio::{
    self, resolve_algo, MatchingAlgo, PortfolioBackend, PortfolioOptions, SelectorStats,
};
use mcm_core::serial::{greedy_serial, hopcroft_karp};
use mcm_core::verify;
use mcm_core::weighted::{auction_mwm_par, AuctionOptions};
use mcm_gen::er::gnm_bipartite;
use mcm_gen::hard::{chain, star};
use mcm_gen::simtest_suite;
use mcm_sparse::permute::{random_relabel, SplitMix64};
use mcm_sparse::{CscView, Triples, Vidx, WCsc};

fn random_bipartite(n1: usize, n2: usize, edges: usize, seed: u64) -> Triples {
    let mut rng = SplitMix64::new(seed);
    let mut t = Triples::with_capacity(n1, n2, edges);
    for _ in 0..edges {
        t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
    }
    t
}

/// A crowded random square graph, the class the density rule is for:
/// `7000` uniform draws on `256 × 256` leave density ≈ 0.1.
fn dense_random(seed: u64) -> Triples {
    gnm_bipartite(256, 256, 7000, seed)
}

/// A cold one-off solve through the portfolio's entry point.
fn solve_cold(a: &CscView<'_>, opts: &PortfolioOptions) -> McmResult {
    portfolio::solve(a, Start::Cold, opts).0
}

/// `t` with every edge weighted 1, so maximum weight = maximum cardinality.
fn unit_weights(t: &Triples) -> WCsc {
    let entries = t.entries().iter().map(|&(r, c)| (r, c, 1.0)).collect();
    WCsc::from_weighted_triples(t.nrows(), t.ncols(), entries)
}

#[test]
fn selector_stats_are_deterministic_and_permutation_invariant() {
    // The selector decides from degree multisets and dimensions only, so
    // re-measuring must be bit-identical and relabeling rows/columns must
    // change nothing — the auto pick cannot depend on vertex order.
    let mut rng = SplitMix64::new(0x005E_1EC7);
    for case in 0..8 {
        let n1 = 4 + rng.below(40) as usize;
        let n2 = 4 + rng.below(40) as usize;
        let t = random_bipartite(n1, n2, 3 * (n1 + n2), rng.next_u64());
        let s = SelectorStats::measure(&t);
        assert_eq!(s, SelectorStats::measure(&t), "case {case}: re-measure diverged");
        for perm_seed in [1u64, 0xFEED, 0xABCDEF] {
            let (pt, _, _) = random_relabel(&t, perm_seed);
            let ps = SelectorStats::measure(&pt);
            assert_eq!(s, ps, "case {case} seed {perm_seed:#x}: stats moved under relabeling");
            assert_eq!(s.choose(), ps.choose(), "case {case}: pick moved under relabeling");
        }
    }
}

/// A dense square band (uniform degrees) plus one hub column touching
/// every row: density ≈ 0.24, degree skew ≈ 4 — dense and genuinely
/// skewed, but below the skew rule, so the density rule decides it.
fn banded_hub(n: usize) -> Triples {
    let mut t = Triples::new(n, n);
    for i in 0..n {
        for d in 0..5 {
            t.push(i as Vidx, ((i + d) % n) as Vidx);
        }
        if i % n != 0 && !(n - 4..n).contains(&i) {
            t.push(i as Vidx, 0); // hub column
        }
    }
    t
}

#[test]
fn auto_pick_is_exactly_one_concrete_engines_result() {
    // `auto` must not blend engines: its matching is identical to running
    // the resolved concrete engine directly with the same options.
    let cases = [
        random_bipartite(24, 24, 60, 0xA0), // balanced sparse → msbfs
        star(4, 64),                        // skew/rectangular → ppf
        banded_hub(24),                     // dense + skewed → ppf
        mcm_gen::hard::crown(16),           // dense + uniform → ppf
        dense_random(0xDE),                 // dense random → ppf
    ];
    for (i, t) in cases.iter().enumerate() {
        let a = t.to_csc();
        let (picked, stats) = resolve_algo(&a.view(), MatchingAlgo::Auto);
        assert!(stats.is_some(), "auto must measure");
        let auto_r = solve_cold(&a.view(), &PortfolioOptions::default());
        let conc_r = solve_cold(
            &a.view(),
            &PortfolioOptions { algo: picked, ..PortfolioOptions::default() },
        );
        assert_eq!(auto_r.stats.algo, picked.name(), "case {i}: label mismatch");
        assert!(auto_r.stats.algo_auto, "case {i}: auto flag missing");
        assert!(!conc_r.stats.algo_auto, "case {i}: explicit run flagged auto");
        assert_eq!(auto_r.matching, conc_r.matching, "case {i}: auto != {picked}");
    }
}

#[test]
fn crown_blind_spot_stays_fixed() {
    // Regression for the selector's crown blind spot: crowns are dense
    // *and* degree-uniform, and the old density rule routed them to the
    // cardinality auction, whose price wars lost ~40x wall clock on
    // crown_256. Every dense graph now goes to PPF: degree-uniform
    // crowns, the skewed banded hub, and the dense random graphs
    // Naparstek–Leshem predict favour an auction, where PPF measured
    // 8–18x faster (EXPERIMENTS.md, "One auction").
    let mut dense: Vec<(String, Triples)> = [8, 16, 64, 128]
        .iter()
        .map(|&n| (format!("crown({n})"), mcm_gen::hard::crown(n)))
        .collect();
    dense.push(("banded_hub(24)".into(), banded_hub(24)));
    dense.extend([1u64, 2, 3].map(|seed| (format!("dense_random({seed})"), dense_random(seed))));
    for (name, t) in &dense {
        let (picked, stats) = resolve_algo(&t.to_csc().view(), MatchingAlgo::Auto);
        let s = stats.expect("auto must measure");
        assert!(s.density >= SelectorStats::DENSE, "{name} density {}", s.density);
        assert_eq!(picked, MatchingAlgo::Ppf, "{name} left PPF");
    }
    // The banded hub and the random graphs reach the density rule itself,
    // not the skew or shape rules before it.
    for (name, t) in &dense[4..] {
        let s = SelectorStats::measure(t);
        assert!(
            s.degree_skew < SelectorStats::SKEWED && s.side_ratio < SelectorStats::RECTANGULAR,
            "{name} (skew {}, side ratio {}) no longer exercises the density rule",
            s.degree_skew,
            s.side_ratio
        );
    }
}

#[test]
fn eps_scaling_converges_on_price_war_instances() {
    // The auction's adversaries at unit weights: stars make every
    // alternative equally good (price wars), long alternating chains make
    // eviction cascades ripple end to end. Scaled ε must still land on the
    // HK cardinality with a Berge certificate, and must beat a fixed fine
    // ε on rounds.
    for (name, t) in [
        ("star(1,16)", star(1, 16)),
        ("star(4,32)", star(4, 32)),
        ("chain(32)", chain(32)),
        ("crown(12)", mcm_gen::hard::crown(12)),
    ] {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        let r = auction_mwm_par(&unit_weights(&t), &AuctionOptions::default());
        assert_eq!(r.matching.cardinality(), want, "{name}: auction not maximum");
        verify::verify(&a, &r.matching).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            verify::is_maximum_from(&a, &r.matching, &r.matching.unmatched_cols()),
            "{name}: Berge certificate failed"
        );
    }

    // The crowded star is the Θ(1/ε) war: fixed fine ε creeps one bid
    // per round, scaling resolves the war coarsely first. Both arms bid
    // down to the same final ε, so their rounds compare like for like.
    let a = unit_weights(&star(4, 32));
    let fine = 1.0 / 128.0;
    let scaled =
        auction_mwm_par(&a, &AuctionOptions { eps_final: Some(fine), ..AuctionOptions::default() });
    let fixed = auction_mwm_par(
        &a,
        &AuctionOptions { eps_start: fine, eps_final: Some(fine), ..AuctionOptions::default() },
    );
    assert_eq!(scaled.matching.cardinality(), fixed.matching.cardinality());
    assert!(scaled.stats.scales > 1, "scaling never engaged");
    assert!(
        scaled.stats.rounds < fixed.stats.rounds,
        "scaling did not beat fixed ε: {} >= {}",
        scaled.stats.rounds,
        fixed.stats.rounds
    );
}

#[test]
fn every_engine_is_berge_certified_from_its_unmatched_columns() {
    // `is_maximum_from` is the cheap certificate (alternating BFS from
    // the free columns): it must accept every engine's output on the
    // curated suite and reject a deliberately truncated matching.
    let cases = simtest_suite(0xBE49E);
    for (name, t) in &cases {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        for algo in MatchingAlgo::CONCRETE {
            let r =
                solve_cold(&a.view(), &PortfolioOptions { algo, ..PortfolioOptions::default() });
            assert_eq!(r.matching.cardinality(), want, "{name}/{algo} not maximum");
            assert!(
                verify::is_maximum_from(&a, &r.matching, &r.matching.unmatched_cols()),
                "{name}/{algo}: certificate rejected a maximum matching"
            );
        }
        if want > 0 {
            // Negative control: the empty matching on a matchable graph
            // must be rejected from its (all-free) columns.
            let empty = mcm_core::Matching::empty(t.nrows(), t.ncols());
            assert!(
                !verify::is_maximum_from(&a, &empty, &empty.unmatched_cols()),
                "{name}: certificate accepted the empty matching"
            );
        }
    }
}

#[test]
fn warm_starts_through_the_one_entry_point_reach_maximum() {
    // The §V warm start goes through the same door as a cold solve: from
    // a greedy maximal matching, MS-BFS on both backends and PPF must land
    // on the HK cardinality, pass the Berge check and report their engine.
    // MS-BFS runs also hand back the backend's modeled timers.
    let runs = [
        (MatchingAlgo::MsBfs, PortfolioBackend::Sim { grid: 2, threads: 1 }),
        (MatchingAlgo::MsBfs, PortfolioBackend::Engine { p: 4, threads: 1 }),
        (MatchingAlgo::Ppf, PortfolioBackend::default()),
    ];
    for (name, t) in &simtest_suite(0x3A7) {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        for (algo, backend) in runs {
            let opts =
                PortfolioOptions { algo, backend, threads: 2, ..PortfolioOptions::default() };
            let warm = Start::Warm(greedy_serial(&a));
            let (r, modeled) = portfolio::solve(&a.view(), warm, &opts);
            let tag = format!("{name}/{algo} on {backend:?}");
            assert_eq!(r.matching.cardinality(), want, "{tag}: not maximum");
            verify::verify(&a, &r.matching).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(r.stats.algo, algo.name(), "{tag}");
            assert!(!r.stats.algo_auto, "{tag}");
            assert_eq!(modeled.is_some(), algo == MatchingAlgo::MsBfs, "{tag}: modeled timers");
        }
    }
}

#[test]
fn broken_auction_bid_update_loses_cardinality() {
    // The injected fault drops evicted bidders (a lost wakeup in the bid
    // update). On the alternating chain the eviction cascade is load-
    // bearing, so the fault must strand the tail — and the clean engine
    // must not. `detect_injected_auction_fault` in simtest_sweep.rs
    // drives the same fault through the seeded-schedule harness.
    let a = unit_weights(&chain(8));
    let clean = auction_mwm_par(&a, &AuctionOptions::default());
    assert_eq!(clean.matching.cardinality(), 8);
    assert!(clean.stats.evictions > 0, "chain must exercise the eviction path");
    let broken = auction_mwm_par(
        &a,
        &AuctionOptions { fault_lost_bidder: true, ..AuctionOptions::default() },
    );
    assert!(
        broken.matching.cardinality() < 8,
        "lost-bidder fault was not observable on the eviction cascade"
    );
}
