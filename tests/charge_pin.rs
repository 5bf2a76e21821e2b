//! Golden modeled charges: the per-kernel modeled seconds and call counts
//! of seeded Graph 500 scale-12 solves on a `DistCtx` 2×2 grid, pinned to
//! the bit.
//!
//! `backend_differential` proves the simulator and the engine charge the
//! same; this test proves neither drifts over time. Kernel tuning (the
//! assembly builder, the fused SpMSpV's accounting, the initializer's
//! frontier handling) must leave every modeled second unchanged, so a
//! change here is a cost-model change and needs its own justification and
//! re-recorded figures. On a mismatch the assertion prints the full
//! measured breakdown in the golden table's own syntax.

use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_core::maximal::Initializer;
use mcm_core::mcm::{maximum_matching, McmOptions, Start};
use mcm_gen::{rmat, RmatParams};

const SCALE: u32 = 12;
const SEED: u64 = 0x5EED_0C12;

/// `(kernel, modeled seconds, calls)` of the default pipeline (dynamic
/// mindegree, then MS-BFS phases with the relabeling permutation).
const DEFAULT_GOLDEN: &[(Kernel, f64, u64)] = &[
    (Kernel::SpMV, 0.0012561920000000006, 270),
    (Kernel::Invert, 0.0008149680000000013, 216),
    (Kernel::Prune, 6.4904e-5, 36),
    (Kernel::Select, 2.2780000000000043e-5, 468),
    (Kernel::Augment, 0.00046631499999999997, 50),
    (Kernel::Init, 0.0012188460000000004, 40),
    (Kernel::Other, 0.0005421599999999992, 90),
];

/// The default pipeline with the greedy initializer instead of mindegree.
const GREEDY_GOLDEN: &[(Kernel, f64, u64)] = &[
    (Kernel::SpMV, 0.0014717080000000002, 243),
    (Kernel::Invert, 0.0008543340000000006, 220),
    (Kernel::Prune, 0.000108588, 58),
    (Kernel::Select, 2.8518000000000027e-5, 434),
    (Kernel::Augment, 0.0007116030000000003, 184),
    (Kernel::Init, 0.0009563589999999999, 42),
    (Kernel::Other, 0.0004879439999999994, 81),
];

/// The default pipeline with the Karp–Sipser initializer.
const KARP_SIPSER_GOLDEN: &[(Kernel, f64, u64)] = &[
    (Kernel::SpMV, 0.0005696639999999998, 78),
    (Kernel::Invert, 0.0002798039999999999, 70),
    (Kernel::Prune, 3.3407999999999996e-5, 18),
    (Kernel::Select, 1.3055000000000006e-5, 139),
    (Kernel::Augment, 0.00018237100000000002, 38),
    (Kernel::Init, 0.003853547999999997, 338),
    (Kernel::Other, 0.000156624, 26),
];

/// Maximum matching cardinality of the instance.
const CARDINALITY: usize = 2610;

/// Solves the instance on a 2×2 `DistCtx`, checks the pinned breakdown
/// and cardinality.
fn assert_pinned(name: &str, opts: &McmOptions, golden: &[(Kernel, f64, u64)]) {
    let csc = rmat(RmatParams::g500(SCALE), SEED).to_csc();
    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
    let res = maximum_matching(&mut ctx, &csc.view(), Start::Cold, opts);
    let (got_card, got) = (res.matching.cardinality(), ctx.timers.breakdown());
    let table: String =
        got.iter().map(|(k, s, c)| format!("    (Kernel::{}, {s:?}, {c}),\n", k.name())).collect();
    let same = got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits() && g.2 == w.2);
    assert!(same, "{name}: modeled charges drifted; measured (cardinality {got_card}):\n{table}");
    assert_eq!(got_card, CARDINALITY, "{name}: cardinality");
}

#[test]
fn default_pipeline_charges_are_pinned() {
    assert_pinned("default", &McmOptions::default(), DEFAULT_GOLDEN);
}

#[test]
fn greedy_initializer_charges_are_pinned() {
    let opts = McmOptions { init: Initializer::Greedy, ..McmOptions::default() };
    assert_pinned("greedy", &opts, GREEDY_GOLDEN);
}

#[test]
fn karp_sipser_initializer_charges_are_pinned() {
    let opts = McmOptions { init: Initializer::KarpSipser, ..McmOptions::default() };
    assert_pinned("karp-sipser", &opts, KARP_SIPSER_GOLDEN);
}
