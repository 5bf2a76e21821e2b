//! Differential oracle for the incremental engine (`mcm-dyn`): replay
//! every update trace in the `mcm-gen` suite through [`DynMatching`] and,
//! after **every** batch, demand that the incrementally repaired matching
//! (a) is structurally valid, (b) has the same cardinality Hopcroft–Karp
//! computes from scratch on the materialized graph, and (c) passes the
//! full Berge certificate. The sweep crosses trace seeds with batch
//! granularity and the fallback threshold, so the single-path repair
//! path, the warm-started MS-BFS fallback, and the mixed regime all face
//! the same oracle.
//!
//! An RMAT case adds the serving regime: a skewed g500 base under large
//! batches of alternating fresh inserts and live deletes, where many
//! dirty vertices share one path-free (dead) region.
//!
//! Failures print the trace name, seed, batch index, and threshold;
//! `MCM_TEST_SEED=<seed>` (decimal or `0x` hex) replays a sweep exactly.

use mcm_core::serial::hopcroft_karp;
use mcm_dyn::{DynMatching, DynOptions, Update};
use mcm_gen::{rmat, update_trace, update_trace_suite, RmatParams, TraceOp};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::Vidx;
use std::collections::HashSet;

/// Default seed, overridable via `MCM_TEST_SEED` (decimal or `0x` hex) —
/// the same convention as `tests/stress.rs` and the simtest sweeps.
fn sweep_seed(default: u64) -> u64 {
    let Ok(raw) = std::env::var("MCM_TEST_SEED") else { return default };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("MCM_TEST_SEED={raw} is not a u64"))
}

/// The fallback-threshold axis: always fall back (every batch runs the
/// warm-started MS-BFS driver), the default-ish mixed regime, and never
/// fall back (pure single-path repair + sweeps).
const THRESHOLDS: [f64; 3] = [0.0, 0.08, 1e9];

/// Applies one batch and checks the oracle: a valid matching, the
/// cardinality of a from-scratch Hopcroft–Karp solve, and a full Berge
/// certificate. `ctx` names the batch in failure messages.
fn apply_and_check(dm: &mut DynMatching, batch: &[Update], ctx: &str) {
    let rep = dm.apply_batch(batch);
    let a = dm.graph().to_csc();
    dm.matching().validate(&a).unwrap_or_else(|e| panic!("{ctx}: invalid matching: {e}"));
    let want = hopcroft_karp(&a, None).cardinality();
    assert_eq!(
        dm.cardinality(),
        want,
        "{ctx}: incremental cardinality {} != HK recompute {want} (report {rep:?})",
        dm.cardinality()
    );
    assert!(
        mcm_core::verify::is_maximum(&a, dm.matching()),
        "{ctx}: Berge certificate found an augmenting path after repair"
    );
}

/// Replays one trace under one threshold, checking the oracle at every
/// batch boundary. Returns (batches, fallbacks) for regime assertions.
fn replay_against_hk(
    name: &str,
    seed: u64,
    ops: &[TraceOp],
    n1: usize,
    n2: usize,
    threshold: f64,
) -> (usize, usize) {
    let opts = DynOptions { fallback_threshold: threshold, ..DynOptions::default() };
    let mut dm = DynMatching::new(n1, n2, opts);
    let mut staged: Vec<Update> = Vec::new();
    let mut batch_idx = 0usize;
    for op in ops {
        match *op {
            TraceOp::Insert(r, c) => staged.push(Update::Insert(r, c)),
            TraceOp::Delete(r, c) => staged.push(Update::Delete(r, c)),
            TraceOp::Query => {
                let ctx =
                    format!("trace {name} seed {seed:#x} batch {batch_idx} threshold {threshold}");
                apply_and_check(&mut dm, &staged, &ctx);
                staged.clear();
                batch_idx += 1;
            }
        }
    }
    (batch_idx, dm.stats().fallbacks)
}

#[test]
fn incremental_matches_hk_across_trace_and_threshold_sweep() {
    let seed = sweep_seed(0xD11A);
    let mut total_batches = 0usize;
    for (name, params) in update_trace_suite(seed) {
        let ops = update_trace(&params);
        assert!(
            ops.iter().any(|op| matches!(op, TraceOp::Query)),
            "trace {name} has no batch boundaries"
        );
        for threshold in THRESHOLDS {
            let (batches, fallbacks) =
                replay_against_hk(&name, seed, &ops, params.n1, params.n2, threshold);
            total_batches += batches;
            if threshold >= 1e9 {
                assert_eq!(
                    fallbacks, 0,
                    "trace {name} seed {seed:#x}: threshold {threshold} must never fall back"
                );
            }
        }
    }
    assert!(total_batches >= 36, "sweep too small to mean anything: {total_batches} batches");
}

#[test]
fn small_budget_regime_mixes_fallback_and_local_repair() {
    // The fallback budget is a fraction of at least 4000 vertices, so on
    // the suite's small graphs a mixed regime needs a tiny threshold:
    // 0.001 is a 4-search budget. Across the suite some batches must fall
    // back and some must not, with the HK oracle checked after each.
    let seed = sweep_seed(0xD11A);
    let (mut batches, mut fallbacks) = (0, 0);
    for (name, params) in update_trace_suite(seed) {
        let ops = update_trace(&params);
        let (b, f) = replay_against_hk(&name, seed, &ops, params.n1, params.n2, 0.001);
        batches += b;
        fallbacks += f;
    }
    assert!(fallbacks > 0 && fallbacks < batches, "seed {seed:#x}: {fallbacks} of {batches}");
}

#[test]
fn always_fallback_regime_actually_falls_back() {
    // Under threshold 0 every batch with a non-empty dirty set must take
    // the warm-started MS-BFS path; the churn trace guarantees matched
    // deletions, so at least one such batch exists.
    let seed = sweep_seed(0xD11A);
    let suite = update_trace_suite(seed);
    let (name, params) = &suite[0];
    let ops = update_trace(params);
    let (_, fallbacks) = replay_against_hk(name, seed, &ops, params.n1, params.n2, 0.0);
    assert!(fallbacks > 0, "trace {name} seed {seed:#x}: threshold 0 never exercised the fallback");
}

#[test]
fn decay_trace_exercises_matched_edge_deletions() {
    // The bias knob must actually dirty both sides: replay the
    // delete-heavy trace and check the engine saw matched deletions and
    // repaired through local searches.
    let seed = sweep_seed(0xD11A);
    let suite = update_trace_suite(seed);
    let (name, params) =
        suite.iter().find(|(n, _)| n.starts_with("decay")).expect("suite lost its decay trace");
    let ops = update_trace(params);
    let opts = DynOptions { fallback_threshold: 1e9, ..DynOptions::default() };
    let mut dm = DynMatching::new(params.n1, params.n2, opts);
    let mut staged: Vec<Update> = Vec::new();
    for op in &ops {
        match *op {
            TraceOp::Insert(r, c) => staged.push(Update::Insert(r, c)),
            TraceOp::Delete(r, c) => staged.push(Update::Delete(r, c)),
            TraceOp::Query => {
                dm.apply_batch(&staged);
                staged.clear();
            }
        }
    }
    let s = dm.stats();
    assert!(
        s.matched_deletes > 0,
        "trace {name} seed {seed:#x}: matched-bias 1.0 never deleted a matched edge"
    );
    assert!(
        s.local_searches > 0,
        "trace {name} seed {seed:#x}: matched deletions must trigger local repairs"
    );
}

#[test]
fn rmat_serving_mix_matches_hk_every_batch() {
    // The serving stream's shape on a smaller graph: a g500 base, then
    // 512-update batches alternating an insert of a fresh edge (drawn in
    // seeded order from a second g500 graph, skipping live edges) with a
    // delete of a uniformly random live edge.
    const SCALE: u32 = 10;
    const BATCH: usize = 512;
    const BATCHES: usize = 16;
    let seed = sweep_seed(0x5E4E);
    let base = rmat(RmatParams::g500(SCALE), seed);
    let mut fresh = rmat(RmatParams::g500(SCALE), seed ^ 0x1_5EED).entries().to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut fresh = fresh.into_iter();
    let mut live: Vec<(Vidx, Vidx)> = Vec::new();
    let mut is_live: HashSet<(Vidx, Vidx)> = HashSet::new();
    for &e in base.entries() {
        if is_live.insert(e) {
            live.push(e);
        }
    }
    let batches: Vec<Vec<Update>> = (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|i| {
                    if i % 2 == 0 {
                        let e = fresh
                            .find(|e| !is_live.contains(e))
                            .expect("insert source graph exhausted");
                        is_live.insert(e);
                        live.push(e);
                        Update::Insert(e.0, e.1)
                    } else {
                        let e = live.swap_remove(rng.below(live.len() as u64) as usize);
                        is_live.remove(&e);
                        Update::Delete(e.0, e.1)
                    }
                })
                .collect()
        })
        .collect();
    for threshold in [DynOptions::default().fallback_threshold, 1e9] {
        let mut dm = DynMatching::from_triples(
            &base,
            DynOptions { fallback_threshold: threshold, ..DynOptions::default() },
        );
        for (b, batch) in batches.iter().enumerate() {
            let ctx =
                format!("rmat g500 scale {SCALE} seed {seed:#x} batch {b} threshold {threshold}");
            apply_and_check(&mut dm, batch, &ctx);
        }
        let s = dm.stats();
        assert_eq!(
            s.fallbacks, 0,
            "seed {seed:#x} threshold {threshold}: the mix must stay incremental"
        );
        assert!(
            s.local_searches > s.repaired,
            "seed {seed:#x} threshold {threshold}: no search failed, so no dead region formed"
        );
    }
}
