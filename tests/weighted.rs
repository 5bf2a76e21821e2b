//! Weighted-auction lockdown (DESIGN.md §17): across the weight-perturbed
//! mcm-gen suite the parallel ε-scaled auction must
//!
//! 1. reproduce the serial fixed-ε oracle's matching weight **exactly**
//!    (integer weights with ε under the exactness bound `1/(n+1)` make
//!    both provably optimal, so equality is not approximate),
//! 2. hold the ε-complementary-slackness certificate on every run, and
//! 3. return the *identical matching* at p ∈ {1, 4, 9} — thread
//!    invariance as equality of mates, not merely of weights.
//!
//! Failures print the suite seed; replay with `MCM_TEST_SEED=<seed>`.

use mcm_core::verify::verify_eps_cs;
use mcm_core::weighted::{auction_mwm, auction_mwm_par, AuctionOptions};
use mcm_dyn::{WDynMatching, WDynOptions, WUpdate};
use mcm_gen::{
    assign_weights, materialize_weighted, rmat, simtest_suite, weighted_update_trace, RmatParams,
    WTraceOp, WTraceParams,
};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Vidx, WCsc, NIL};

/// Deterministic sweep seed; override with `MCM_TEST_SEED`.
fn test_seed() -> u64 {
    std::env::var("MCM_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x3E16)
}

/// Integer weights 1..=50 for every instance in the simtest suite, each
/// instance perturbed by its own weight stream.
fn weighted_suite(seed: u64) -> Vec<(String, WCsc)> {
    simtest_suite(seed)
        .into_iter()
        .enumerate()
        .map(|(i, (name, t))| {
            let wseed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            let entries = assign_weights(t.entries(), wseed, 50);
            (name, WCsc::from_weighted_triples(t.nrows(), t.ncols(), entries))
        })
        .collect()
}

#[test]
fn parallel_auction_matches_the_serial_oracle_across_the_suite() {
    let seed = test_seed();
    for (name, a) in weighted_suite(seed) {
        let eps = 0.5 / (a.nrows() as f64 + 1.0);
        let oracle = auction_mwm(&a, eps);
        verify_eps_cs(&a, &oracle.matching, &oracle.prices, oracle.eps)
            .unwrap_or_else(|e| panic!("{name} (seed {seed:#x}): serial cert failed: {e}"));

        let runs: Vec<_> = [1usize, 4, 9]
            .into_iter()
            .map(|threads| {
                let r =
                    auction_mwm_par(&a, &AuctionOptions { threads, ..AuctionOptions::default() });
                r.matching.validate(a.pattern()).unwrap_or_else(|e| {
                    panic!("{name} (seed {seed:#x}, p={threads}): invalid matching: {e}")
                });
                verify_eps_cs(&a, &r.matching, &r.prices, r.eps).unwrap_or_else(|e| {
                    panic!("{name} (seed {seed:#x}, p={threads}): eps-CS cert failed: {e}")
                });
                (threads, r)
            })
            .collect();

        // Integer weights + eps under the exactness bound: both solvers
        // are optimal, so the weights must agree exactly, not within tol.
        for (threads, r) in &runs {
            assert_eq!(
                r.weight, oracle.weight,
                "{name} (seed {seed:#x}, p={threads}): parallel weight diverged from the oracle"
            );
        }
        // Thread invariance is equality of the matching itself.
        for (threads, r) in &runs[1..] {
            assert_eq!(
                r.matching, runs[0].1.matching,
                "{name} (seed {seed:#x}): matching changed between p=1 and p={threads}"
            );
        }
    }
}

#[test]
fn weighted_trace_checkpoints_agree_with_the_cold_oracle() {
    // End-to-end over the new weighted trace generator: feed each batch
    // (inserts, reweights, deletes) to the incremental engine, and at
    // every Query checkpoint demand exact weight agreement with a cold
    // eps-scaled solve of the materialized prefix.
    let seed = test_seed();
    let p =
        WTraceParams { max_weight: 20, reweight_frac: 0.3, ..WTraceParams::churn(14, 12, seed) };
    let ops = weighted_update_trace(&p);
    let mut wm = WDynMatching::new(p.base.n1, p.base.n2, WDynOptions::default());
    let mut batch: Vec<WUpdate> = Vec::new();
    let mut checkpoints = 0usize;
    for (at, op) in ops.iter().enumerate() {
        match *op {
            WTraceOp::Insert(r, c, w) => batch.push(WUpdate::Insert(r, c, w)),
            WTraceOp::Delete(r, c) => batch.push(WUpdate::Delete(r, c)),
            WTraceOp::Query => {
                wm.apply_batch(&batch);
                batch.clear();
                wm.verify_full().unwrap_or_else(|e| {
                    panic!("checkpoint {checkpoints} (seed {seed:#x}): cert failed: {e}")
                });
                let entries = materialize_weighted(p.base.n1, p.base.n2, &ops[..=at]);
                let a = WCsc::from_weighted_triples(p.base.n1, p.base.n2, entries);
                let cold = auction_mwm_par(
                    &a,
                    &AuctionOptions { eps_final: Some(wm.eps()), ..AuctionOptions::default() },
                );
                assert_eq!(
                    wm.weight(),
                    cold.weight,
                    "checkpoint {checkpoints} (seed {seed:#x}): incremental weight diverged"
                );
                checkpoints += 1;
            }
        }
    }
    assert_eq!(checkpoints, p.base.batches + 1, "trace structure changed");
    assert!(wm.stats().incremental_batches > 0, "sweep never exercised incremental repair");
}

#[test]
fn rmat_hub_churn_repairs_to_the_cold_optimum_every_batch() {
    // The served regime in miniature: a Graph500-skewed 2048 × 2048 graph
    // whose batches free the matched edges of hub rows, the case where
    // freed rows' prices matter most. Every batch is certified (full
    // verify) and must reach a cold solve's weight exactly.
    let seed = test_seed();
    let p = RmatParams { edge_factor: 8, ..RmatParams::g500(11) };
    let n = p.n();
    let base = assign_weights(rmat(p, seed).entries(), seed, 50);
    let pool = assign_weights(rmat(p, seed ^ 0xC0FFEE).entries(), seed ^ 0xC0FFEE, 50);
    let mut degree = vec![0usize; n];
    for &(r, _, _) in &base {
        degree[r as usize] += 1;
    }
    let mut hubs: Vec<Vidx> = (0..n as Vidx).collect();
    hubs.sort_by_key(|&r| std::cmp::Reverse(degree[r as usize]));
    hubs.truncate(32);

    let mut wm = WDynMatching::from_weighted_triples(
        n,
        n,
        base.clone(),
        WDynOptions { full_verify: true, ..WDynOptions::default() },
    );
    let mut rng = SplitMix64::new(seed);
    let mut next_insert = 0usize;
    for step in 0..16 {
        let mut batch = Vec::new();
        for &r in hubs.iter().skip(step % 4 * 8).take(8) {
            let c = wm.matching().mate_r.get(r);
            if c != NIL {
                batch.push(WUpdate::Delete(r, c));
            }
        }
        for _ in 0..8 {
            let c = rng.below(n as u64) as Vidx;
            let r = wm.matching().mate_c.get(c);
            if r != NIL {
                batch.push(WUpdate::Insert(r, c, (1 + rng.below(50)) as f64));
            }
        }
        for _ in 0..24 {
            let (r, c, _) = base[rng.below(base.len() as u64) as usize];
            batch.push(WUpdate::Delete(r, c));
        }
        for &(r, c, w) in pool.iter().skip(next_insert).take(48) {
            batch.push(WUpdate::Insert(r, c, w));
        }
        next_insert += 48;

        let rep = wm.apply_batch(&batch);
        let cold = auction_mwm_par(
            &wm.graph().cols().to_wcsc(),
            &AuctionOptions { eps_final: Some(wm.eps()), ..AuctionOptions::default() },
        );
        assert_eq!(
            wm.weight(),
            cold.weight,
            "batch {step} (seed {seed:#x}): incremental weight diverged: {rep:?}"
        );
    }
    let stats = wm.stats();
    assert!(stats.matched_deletes > 0 && stats.reverse_bids > 0, "{stats:?}");
    assert!(stats.incremental_batches > 0, "{stats:?}");
}
