//! The standing simtest differential sweep (DESIGN.md §10): MCM-DIST
//! end-to-end under seeded adversarial schedules across the full
//! {grid × semiring × initializer × augmentation × generator} matrix,
//! checked against the serial oracles, the Berge certificate, and the
//! channel engine's sent-element accounting.
//!
//! CI runs the default matrix (p ∈ {1, 4, 9}, 3 seeds) on every PR; the
//! manual workflow trigger widens the seed budget via
//! `MCM_SIMTEST_EXTRA_SEEDS` (see .github/workflows/ci.yml and
//! EXPERIMENTS.md, "Reproducing a failing schedule").

use mcm_core::simtest::{detect_injected_fault, differential_sweep, SweepConfig};
use mcm_gen::hard::chain;
use mcm_gen::simtest_suite;

/// Extra schedule seeds requested by the environment (the manual larger
/// matrix); 0 on the default CI path.
fn extra_seeds() -> usize {
    std::env::var("MCM_SIMTEST_EXTRA_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

#[test]
fn differential_sweep_passes_on_the_generator_suite() {
    let cases = simtest_suite(0x51A7E57);
    let cfg = match extra_seeds() {
        0 => SweepConfig::ci(),
        n => SweepConfig::ci_with_extra_seeds(0xBADC0DE, n),
    };
    let report = differential_sweep(&cases, &cfg).unwrap_or_else(|e| panic!("{e}"));
    // Every cell of the matrix really ran...
    let per_case = cfg.dims.len()
        * cfg.semirings.len()
        * cfg.inits.len()
        * cfg.augments.len()
        * cfg.sched_seeds.len();
    assert_eq!(report.cases, cases.len());
    assert_eq!(report.runs, cases.len() * per_case);
    assert_eq!(report.engine_checks, cases.len() * cfg.dims.len() * cfg.sched_seeds.len());
    // ...including the portfolio engines (PPF under every thread shape
    // and schedule seed, Berge-certified in run_portfolio_one).
    assert_eq!(
        report.portfolio_runs,
        cases.len() * cfg.dims.len() * cfg.algos.len() * cfg.sched_seeds.len()
    );
    // ...and the perturbed RMA interleaver was actually exercised.
    assert!(report.interleave_steps > 0, "no path-parallel epoch ran under a schedule");
}

#[test]
fn injected_interleaving_bug_is_caught_within_the_ci_seed_budget() {
    // Acceptance criterion: arming the deliberate fetch_and_put bug (the
    // fetch is dropped, as if MPI_Put had been used where MPI_Fetch_and_op
    // is required) must be detected within the default CI seed budget, and
    // the reported failure must carry a seed that replays it exactly.
    let budget = SweepConfig::ci().sched_seeds;
    let g = chain(8);
    let (seed, failure) =
        detect_injected_fault(&g, &budget).expect("broken fetch_and_put escaped the seed budget");
    let msg = failure.to_string();
    assert!(msg.contains(&format!("{seed:#x}")), "report must print the replay seed: {msg}");
    assert!(msg.contains("reproduce:"), "report must print a repro recipe: {msg}");

    // Determinism of the replay: the same seed reproduces the identical
    // schedule and therefore the identical diagnostic.
    let (_, again) = detect_injected_fault(&g, &[seed]).expect("replay did not reproduce the bug");
    assert_eq!(again.detail, failure.detail);
}

#[test]
fn sweep_failures_format_machine_findable_seeds() {
    // A failure constructed by the driver (oracle mismatch path) must
    // always surface the seed even for engine-side checks.
    use mcm_core::augment::AugmentMode;
    use mcm_core::maximal::Initializer;
    use mcm_core::semirings::SemiringKind;
    let failure = mcm_core::simtest::SweepFailure {
        case: "example".into(),
        dim: 3,
        semiring: SemiringKind::MinParent,
        init: Initializer::None,
        augment: AugmentMode::PathParallel,
        sched_seed: 0xDEADBEEF,
        algo: "msbfs",
        detail: "cardinality 3 diverged from serial oracles (4)".into(),
    };
    let msg = failure.to_string();
    assert!(msg.contains("0xdeadbeef"));
    assert!(msg.contains("grid 3x3"));
    assert!(msg.contains("algo msbfs"));
    assert!(msg.contains("EXPERIMENTS.md"));
}

#[test]
fn injected_auction_fault_is_caught_within_the_ci_seed_budget() {
    // Same acceptance shape as the fetch_and_put fault, for the parallel
    // auction: arming the lost-bidder bug in its eviction path must be
    // detected within the CI seed budget and replay from the printed seed.
    use mcm_core::simtest::detect_injected_auction_fault;
    let budget = SweepConfig::ci().sched_seeds;
    let g = chain(8);
    let (seed, failure) = detect_injected_auction_fault(&g, &budget)
        .expect("broken auction bid update escaped the seed budget");
    assert_eq!(failure.algo, "wauction");
    let msg = failure.to_string();
    assert!(msg.contains(&format!("{seed:#x}")), "report must print the replay seed: {msg}");

    let (_, again) = detect_injected_auction_fault(&g, &[seed])
        .expect("replay did not reproduce the auction bug");
    assert_eq!(again.detail, failure.detail);
}
