//! Sanity properties of the performance model that the figure harnesses
//! depend on: the claims the paper's evaluation narrative makes must hold
//! *structurally* in the simulator, not just for one lucky configuration.

use mcm_bench::{run_mcm_scaled, share};
use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_core::gather::centralized_cost;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::mesh::road_grid;
use mcm_gen::rmat::{rmat, RmatParams};

#[test]
fn strong_scaling_has_the_paper_shape() {
    // On a paper-scaled input, modeled time must drop substantially from 1
    // node to ~1000 cores, and monotonically-ish (allow the tail to bend).
    let t = rmat(RmatParams::g500(12), 1);
    let ws = 1.0e9 / t.len() as f64;
    let t24 = run_mcm_scaled(MachineConfig::hybrid(2, 6), &t, &McmOptions::default(), ws).modeled_s;
    let t192 =
        run_mcm_scaled(MachineConfig::hybrid(4, 12), &t, &McmOptions::default(), ws).modeled_s;
    let t972 =
        run_mcm_scaled(MachineConfig::hybrid(9, 12), &t, &McmOptions::default(), ws).modeled_s;
    assert!(t192 < t24 * 0.6, "192 cores must beat 24 by >1.6x: {t24} vs {t192}");
    assert!(t972 < t192, "972 cores must beat 192: {t192} vs {t972}");
    assert!(t24 / t972 > 4.0, "speedup at 972 must exceed 4x, got {}", t24 / t972);
}

#[test]
fn spmv_dominates_at_low_concurrency_invert_grows() {
    // Fig. 5's two claims.
    let t = road_grid(100, 100, 0.12, 3);
    let ws = 5.0e8 / t.len() as f64;
    let low = run_mcm_scaled(MachineConfig::hybrid(2, 6), &t, &McmOptions::default(), ws);
    let high = run_mcm_scaled(MachineConfig::hybrid(13, 12), &t, &McmOptions::default(), ws);
    assert!(
        share(&low.timers, Kernel::SpMV) > share(&high.timers, Kernel::SpMV),
        "SpMV share must fall with core count"
    );
    assert!(
        share(&low.timers, Kernel::Invert) < share(&high.timers, Kernel::Invert),
        "Invert share must rise with core count"
    );
}

#[test]
fn hybrid_beats_flat_at_matched_cores() {
    // Fig. 7's claim, as a structural property.
    let t = rmat(RmatParams::g500(11), 9);
    let ws = 2.0e8 / t.len() as f64;
    let hybrid = run_mcm_scaled(MachineConfig::hybrid(6, 12), &t, &McmOptions::default(), ws);
    let flat = run_mcm_scaled(MachineConfig::flat(21), &t, &McmOptions::default(), ws); // 441 ≈ 432
    assert_eq!(hybrid.cardinality, flat.cardinality);
    assert!(
        flat.modeled_s > 1.5 * hybrid.modeled_s,
        "flat {} must be well above hybrid {}",
        flat.modeled_s,
        hybrid.modeled_s
    );
}

#[test]
fn pruning_reduces_modeled_time_and_iterations_on_meshes() {
    // Fig. 8's claim.
    let t = road_grid(80, 80, 0.12, 7);
    let ws = 5.0e8 / t.len() as f64;
    let on = run_mcm_scaled(
        MachineConfig::hybrid(9, 12),
        &t,
        &McmOptions { prune: true, ..Default::default() },
        ws,
    );
    let off = run_mcm_scaled(
        MachineConfig::hybrid(9, 12),
        &t,
        &McmOptions { prune: false, ..Default::default() },
        ws,
    );
    assert_eq!(on.cardinality, off.cardinality, "pruning must not change the matching size");
    assert!(on.stats.iterations < off.stats.iterations);
    assert!(on.modeled_s < off.modeled_s);
}

#[test]
fn centralization_cost_scales_linearly_and_rivals_mcm() {
    // Fig. 9's two claims.
    let mut ctx = DistCtx::new(MachineConfig::flat(45));
    let c1 = centralized_cost(&mut ctx, 1 << 27, 1 << 23, 1 << 23);
    let c2 = centralized_cost(&mut ctx, 1 << 29, 1 << 23, 1 << 23);
    let ratio = c2.gather_s / c1.gather_s;
    assert!((ratio - 4.0).abs() < 0.5, "4x edges must cost ~4x gather: {ratio}");

    // The paper's headline comparison: at nlpkkt200-like volume the gather
    // alone (~900M nonzeros) costs on the order of 20 s on 2048 ranks.
    let mut ctx = DistCtx::new(MachineConfig::flat(45));
    let c = centralized_cost(&mut ctx, 900_000_000, 16_000_000, 16_000_000);
    assert!(
        c.total() > 10.0 && c.total() < 40.0,
        "nlpkkt200-scale centralization should be ~20s, got {}",
        c.total()
    );
}

#[test]
fn work_scale_leaves_results_untouched() {
    let t = rmat(RmatParams::er(8), 5);
    let base = run_mcm_scaled(MachineConfig::hybrid(3, 2), &t, &McmOptions::default(), 1.0);
    let scaled = run_mcm_scaled(MachineConfig::hybrid(3, 2), &t, &McmOptions::default(), 500.0);
    assert_eq!(base.cardinality, scaled.cardinality);
    assert_eq!(base.stats.iterations, scaled.stats.iterations);
    assert!(scaled.modeled_s > base.modeled_s);
}

#[test]
fn timer_breakdown_sums_to_total() {
    let t = rmat(RmatParams::g500(9), 2);
    let mut ctx = DistCtx::new(MachineConfig::hybrid(3, 4));
    let _ = maximum_matching(&mut ctx, &t.to_csc().view(), Start::Cold, &McmOptions::default());
    let sum: f64 = ctx.timers.breakdown().iter().map(|(_, s, _)| s).sum();
    assert!((sum - ctx.timers.total()).abs() < 1e-12 * sum.max(1.0));
}

#[test]
fn auto_augment_is_never_much_worse_than_either_fixed_mode() {
    use mcm_core::augment::AugmentMode;
    let t = road_grid(40, 40, 0.15, 3);
    let run = |mode| {
        let opts = McmOptions { augment: mode, ..Default::default() };
        run_mcm_scaled(MachineConfig::hybrid(4, 12), &t, &opts, 1000.0)
    };
    let auto = run(AugmentMode::Auto);
    let level = run(AugmentMode::LevelParallel);
    let path = run(AugmentMode::PathParallel);
    let aug = |o: &mcm_bench::RunOutcome| o.timers.seconds(Kernel::Augment);
    let best = aug(&level).min(aug(&path));
    assert!(
        aug(&auto) <= best * 2.0 + 1e-9,
        "auto ({}) should track the better fixed mode ({})",
        aug(&auto),
        best
    );
}
