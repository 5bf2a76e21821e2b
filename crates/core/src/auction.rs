//! ε-scaled auction matcher for maximum *cardinality* matching
//! (DESIGN.md §15).
//!
//! Unit-weight specialization of the forward auction already validated in
//! [`crate::weighted`] (PAPERS.md: Liu–Ke–Khuller's scalable auction
//! algorithms; Naparstek–Leshem's expected-time analysis on random
//! graphs). Columns are bidders, rows are objects, every edge has unit
//! value. Rounds are Jacobi-synchronous: every active (unmatched, not yet
//! retired) column computes its bid **in parallel** via `mcm-par`
//! chunking against the round-frozen price vector, then a serial,
//! deterministic resolution assigns each contested row to its best bid
//! and re-enqueues evicted owners. A bidder whose best net value
//! `1 − price` falls below zero retires for the rest of the scale.
//!
//! **Why the final matching is maximum.** Three invariants hold when the
//! final scale drains: (a) every matched column satisfies *edge*
//! ε-complementary-slackness, `price[mate] ≤ min_neighbour_price + ε`
//! (established by each win — the bid formula leaves the winner net
//! `floor − ε` — and preserved because other prices only rise within a
//! scale); (b) a column retires only when every neighbour is priced
//! above 1, which stays true for the rest of the scale; (c) unmatched
//! rows are priced 0 (rows only gain a price when won, stay matched
//! within a scale, and the scale-transition repair resets the price of
//! any row it frees). An augmenting path from a retired column would
//! telescope (a) along its matched pairs: the first row is priced > 1 by
//! (b), so the j-th row is priced > 1 − (j−1)ε, yet the free row at the
//! end is priced 0 by (c) — impossible once ε < 1/(nrows+1). The default
//! final ε is `1/(2·(nrows+1))`.
//!
//! **ε-scaling.** Price wars — many bidders contesting few rows with
//! equal-valued alternatives (stars with several hubs, crowded complete
//! blocks) — creep prices up by one ε per round, taking Θ(1/ε) rounds at
//! fixed ε. Scaling starts coarse so wars resolve in a few large
//! increments, then divides ε per scale. Each transition repairs edge
//! ε-CS at the finer ε to a fixpoint: a violating column is unmatched and
//! re-enqueued, its row's price reset to 0 (keeping invariant (c)), and
//! every unmatched bidder — including previously retired ones, whose
//! retirement certificate a price reset may invalidate — re-enters the
//! auction. On genuinely warred regions the coarse prices already sit
//! within the fine slack of each other, so the repair passes almost
//! nothing back and the coarse rounds are kept won; the convergence gain
//! is pinned by tests on the adversarial instances.
//!
//! `fault_lost_bidder` deliberately drops evicted owners instead of
//! re-enqueueing them — the simtest fault plan uses it to prove the
//! differential harness catches bid-update bugs in this engine
//! (`simtest::detect_injected_auction_fault`).

use crate::matching::Matching;
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{CscView, Vidx, NIL};

/// Tunables of the auction engine.
#[derive(Clone, Copy, Debug)]
pub struct AuctionOptions {
    /// Worker threads for the per-bidder bid computation (`mcm-par`).
    /// Results are identical for every thread count by construction.
    pub threads: usize,
    /// First scale's ε. Clamped up to the final ε when smaller.
    pub eps_start: f64,
    /// Divisor applied to ε between scales (> 1).
    pub eps_scale: f64,
    /// Final ε; `None` uses `1 / (2·(nrows+1))`, strictly inside the
    /// exactness bound `1/(nrows+1)` for unit weights.
    pub eps_final: Option<f64>,
    /// Deterministic perturbation of the bid-resolution order (the
    /// simtest schedule analogue); `0` keeps the natural order.
    /// Cardinality is seed-invariant, pinned by the differential matrix.
    pub seed: u64,
    /// Harness-only bug injection: evicted owners are dropped instead of
    /// re-enqueued ("lost bidder"), leaving augmenting paths behind.
    pub fault_lost_bidder: bool,
}

impl Default for AuctionOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            eps_start: 0.25,
            eps_scale: 4.0,
            eps_final: None,
            seed: 0,
            fault_lost_bidder: false,
        }
    }
}

/// Counters describing one [`auction`] run.
#[derive(Clone, Debug, Default)]
pub struct AuctionStats {
    /// ε-scales executed.
    pub scales: usize,
    /// Jacobi rounds across all scales.
    pub rounds: usize,
    /// Bids computed (one per active bidder per round).
    pub bids: usize,
    /// Owners evicted by a higher bid.
    pub evictions: usize,
    /// Retirements (per scale; a bidder may retire once per scale).
    pub retired: usize,
    /// Columns un-matched by ε-CS repair at scale transitions.
    pub rescaled: usize,
}

/// The result of [`auction`].
#[derive(Clone, Debug)]
pub struct AuctionResult {
    /// A maximum cardinality matching.
    pub matching: Matching,
    /// Run counters.
    pub stats: AuctionStats,
}

const TOL: f64 = 1e-12;

/// Computes a maximum cardinality matching by ε-scaled forward auction.
pub fn auction<'a>(a: impl Into<CscView<'a>>, opts: &AuctionOptions) -> AuctionResult {
    let a = &a.into();
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = Matching::empty(n1, n2);
    let mut stats = AuctionStats::default();
    let mut prices = vec![0.0f64; n1];
    // Columns dropped by the injected fault never re-enter the auction —
    // that is the bug being modelled.
    let mut lost = vec![false; n2];

    let eps_final = opts.eps_final.unwrap_or_else(|| 1.0 / (2.0 * (n1 as f64 + 1.0)));
    assert!(eps_final > 0.0, "eps_final must be positive");
    assert!(opts.eps_scale > 1.0, "eps_scale must exceed 1");
    let mut eps = opts.eps_start.max(eps_final);

    let bidder = |c: Vidx| !a.col(c as usize).is_empty();
    let mut active: Vec<Vidx> = (0..n2 as Vidx).filter(|&c| bidder(c)).collect();

    loop {
        stats.scales += 1;
        let _span = mcm_obs::span("auction_scale");
        run_scale(a, &mut m, &mut prices, &mut active, &mut lost, eps, opts, &mut stats);
        if eps <= eps_final * (1.0 + TOL) {
            break;
        }
        eps = (eps / opts.eps_scale).max(eps_final);

        // Repair edge ε-CS at the finer ε to a fixpoint. Unmatching a
        // violator resets its row's price, which can invalidate the ε-CS
        // of neighbours of that row — hence the loop; the matched set
        // shrinks every pass, so it terminates.
        loop {
            let mut changed = false;
            for c in 0..n2 as Vidx {
                let r = m.mate_c.get(c);
                if r == NIL {
                    continue;
                }
                let best = a
                    .col(c as usize)
                    .iter()
                    .map(|&r2| 1.0 - prices[r2 as usize])
                    .fold(f64::NEG_INFINITY, f64::max);
                if (1.0 - prices[r as usize]) + eps < best - TOL {
                    m.mate_c.set(c, NIL);
                    m.mate_r.set(r, NIL);
                    prices[r as usize] = 0.0;
                    stats.rescaled += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Every unmatched bidder re-enters at the finer ε: repaired
        // columns bid again, and price resets may have invalidated a
        // previous retirement. Still-hopeless bidders re-retire in one
        // round.
        active = (0..n2 as Vidx)
            .filter(|&c| bidder(c) && !m.col_matched(c) && !lost[c as usize])
            .collect();
    }
    mcm_obs::counter_add("mcm_auction_rounds_total", &[], stats.rounds as u64);
    debug_assert!(m.validate(a).is_ok());
    AuctionResult { matching: m, stats }
}

/// Runs Jacobi rounds at a fixed ε until no active bidder remains.
#[allow(clippy::too_many_arguments)]
fn run_scale(
    a: &CscView<'_>,
    m: &mut Matching,
    prices: &mut [f64],
    active: &mut Vec<Vidx>,
    lost: &mut [bool],
    eps: f64,
    opts: &AuctionOptions,
    stats: &mut AuctionStats,
) {
    // Round-local scratch, reused across rounds: per-row best bid of the
    // current round plus the touched-row list, to avoid O(nrows) sweeps.
    let mut winner_bid = vec![f64::NEG_INFINITY; prices.len()];
    let mut winner_col = vec![NIL; prices.len()];
    let mut touched: Vec<Vidx> = Vec::new();
    let mut round_in_scale = 0u64;

    while !active.is_empty() {
        stats.rounds += 1;
        round_in_scale += 1;
        let _span = mcm_obs::span("auction_round");

        // --- Parallel bid computation against frozen prices. ------------
        // par_map_range returns results in index order regardless of the
        // thread interleaving, so bids are deterministic by construction.
        let prices_ro: &[f64] = prices;
        let active_ro: &[Vidx] = active;
        let bids: Vec<Option<(Vidx, f64)>> =
            mcm_par::par_map_range(active_ro.len(), opts.threads.max(1), |k| {
                let c = active_ro[k];
                let mut best_r = NIL;
                let mut best = f64::NEG_INFINITY;
                let mut second = f64::NEG_INFINITY;
                for &r in a.col(c as usize) {
                    let net = 1.0 - prices_ro[r as usize];
                    if net > best {
                        second = best;
                        best = net;
                        best_r = r;
                    } else if net > second {
                        second = net;
                    }
                }
                if best < 0.0 {
                    return None; // retire: every object is overpriced
                }
                // Bertsekas bid: pay up to the second-best net (floored
                // at the retirement boundary 0) plus the ε increment.
                let floor = second.max(0.0);
                Some((best_r, prices_ro[best_r as usize] + (best - floor) + eps))
            });
        stats.bids += bids.len();

        // --- Deterministic serial resolution. ---------------------------
        // Processing order is the natural active order, optionally
        // seed-permuted; ties (equal bids) go to the first processed.
        let mut order: Vec<usize> = (0..active.len()).collect();
        if opts.seed != 0 {
            let mut rng =
                SplitMix64::new(opts.seed ^ round_in_scale.wrapping_mul(0xD1B5_4A32_D192_ED03));
            for k in (1..order.len()).rev() {
                let j = rng.below(k as u64 + 1) as usize;
                order.swap(k, j);
            }
        }
        for &k in &order {
            if let Some((r, bid)) = bids[k] {
                if winner_col[r as usize] == NIL {
                    touched.push(r);
                }
                if bid > winner_bid[r as usize] {
                    winner_bid[r as usize] = bid;
                    winner_col[r as usize] = active[k];
                }
            }
        }

        let mut next_active: Vec<Vidx> = Vec::with_capacity(active.len());
        for &k in &order {
            match bids[k] {
                None => stats.retired += 1,
                Some((r, _)) if winner_col[r as usize] != active[k] => {
                    next_active.push(active[k]); // lost this round, bid again
                }
                Some(_) => {}
            }
        }
        for &r in &touched {
            let w = winner_col[r as usize];
            let prev = m.mate_r.get(r);
            if prev != NIL && prev != w {
                m.mate_c.set(prev, NIL);
                stats.evictions += 1;
                if opts.fault_lost_bidder {
                    lost[prev as usize] = true;
                } else {
                    next_active.push(prev);
                }
            }
            m.mate_r.set(r, w);
            m.mate_c.set(w, r);
            prices[r as usize] = winner_bid[r as usize];
            winner_bid[r as usize] = f64::NEG_INFINITY;
            winner_col[r as usize] = NIL;
        }
        touched.clear();
        *active = next_active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use crate::verify;
    use mcm_sparse::Triples;

    fn check(t: &Triples, opts: &AuctionOptions) -> AuctionResult {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        let r = auction(&a, opts);
        r.matching.validate(&a).unwrap();
        verify::verify(&a, &r.matching).unwrap();
        assert_eq!(r.matching.cardinality(), want);
        r
    }

    fn random_graph(rng: &mut SplitMix64, n1: usize, n2: usize, edges: usize) -> Triples {
        let mut t = Triples::new(n1, n2);
        for _ in 0..edges {
            t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
        }
        t
    }

    #[test]
    fn matches_hk_on_random_graphs_across_threads_and_seeds() {
        let mut rng = SplitMix64::new(0xAC);
        for _ in 0..25 {
            let n1 = 4 + (rng.next_u64() % 28) as usize;
            let n2 = 4 + (rng.next_u64() % 28) as usize;
            let t = random_graph(&mut rng, n1, n2, 3 * n1.max(n2));
            for threads in [1usize, 4] {
                for seed in [0u64, 0xBEEF] {
                    check(&t, &AuctionOptions { threads, seed, ..AuctionOptions::default() });
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_matching() {
        let mut rng = SplitMix64::new(0xA1);
        let t = random_graph(&mut rng, 32, 32, 100);
        let a = t.to_csc();
        let r1 = auction(&a, &AuctionOptions { threads: 1, ..AuctionOptions::default() });
        let r4 = auction(&a, &AuctionOptions { threads: 4, ..AuctionOptions::default() });
        assert_eq!(r1.matching, r4.matching);
        assert_eq!(r1.stats.rounds, r4.stats.rounds);
    }

    #[test]
    fn single_scale_matches_scaled_cardinality() {
        let mut rng = SplitMix64::new(0x5C);
        for _ in 0..10 {
            let t = random_graph(&mut rng, 20, 24, 70);
            let a = t.to_csc();
            let fine = 1.0 / (2.0 * (a.nrows() as f64 + 1.0));
            let single =
                auction(&a, &AuctionOptions { eps_start: fine, ..AuctionOptions::default() });
            assert_eq!(single.stats.scales, 1);
            let scaled = auction(&a, &AuctionOptions::default());
            assert_eq!(single.matching.cardinality(), scaled.matching.cardinality());
        }
    }

    #[test]
    fn perfect_and_degenerate_cases() {
        let mut t = Triples::new(8, 8);
        for i in 0..8u32 {
            t.push(i, i);
        }
        let r = check(&t, &AuctionOptions::default());
        assert_eq!(r.matching.cardinality(), 8);
        check(&Triples::new(0, 0), &AuctionOptions::default());
        check(&Triples::new(5, 3), &AuctionOptions::default());
    }

    #[test]
    fn star_price_war_terminates_and_retires_losers() {
        // One hub row, many bidders: everyone wars over the one object.
        let mut t = Triples::new(1, 16);
        for c in 0..16u32 {
            t.push(0, c);
        }
        let r = check(&t, &AuctionOptions::default());
        assert_eq!(r.matching.cardinality(), 1);
        assert_eq!(r.stats.retired, 15);
    }

    #[test]
    fn lost_bidder_fault_loses_cardinality_on_alternating_chain() {
        // chain(k): col i adjacent to rows {i-1, i}. Round one leaves c1
        // beaten on r0; its recovery bid evicts c2 from r1 and a rematch
        // cascade walks the chain. Dropping any evicted owner strands the
        // tail row even though its augmenting path survives.
        let k = 8usize;
        let mut t = Triples::new(k, k);
        for c in 0..k as Vidx {
            t.push(c, c);
            if c > 0 {
                t.push(c - 1, c);
            }
        }
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        assert_eq!(want, k);
        let good = auction(&a, &AuctionOptions::default());
        assert_eq!(good.matching.cardinality(), want);
        assert!(good.stats.evictions > 0, "instance must actually evict");
        let bad =
            auction(&a, &AuctionOptions { fault_lost_bidder: true, ..AuctionOptions::default() });
        assert!(
            bad.matching.cardinality() < want,
            "lost-bidder fault was not observable on this instance"
        );
    }

    #[test]
    fn eps_scaling_beats_fixed_fine_eps_on_crowded_star() {
        // Multi-hub star K_{4,32}: every alternative has equal value, so
        // fixed-ε bidding creeps prices by one ε per round — Θ(1/ε)
        // rounds — while scaling resolves the war in coarse increments
        // and keeps the result through the ε-CS repair.
        let mut t = Triples::new(4, 32);
        for r in 0..4u32 {
            for c in 0..32u32 {
                t.push(r, c);
            }
        }
        let a = t.to_csc();
        let fine = 1.0 / 128.0;
        let fixed = auction(
            &a,
            &AuctionOptions { eps_start: fine, eps_final: Some(fine), ..AuctionOptions::default() },
        );
        let scaled =
            auction(&a, &AuctionOptions { eps_final: Some(fine), ..AuctionOptions::default() });
        assert_eq!(fixed.matching.cardinality(), 4);
        assert_eq!(scaled.matching.cardinality(), 4);
        assert!(scaled.stats.scales > 1);
        assert!(
            scaled.stats.rounds < fixed.stats.rounds,
            "scaling gained nothing: scaled {} rounds vs fixed {}",
            scaled.stats.rounds,
            fixed.stats.rounds
        );
        // The war really is Θ(1/ε): halving ε increases fixed-ε rounds.
        let finer = auction(
            &a,
            &AuctionOptions {
                eps_start: fine / 2.0,
                eps_final: Some(fine / 2.0),
                ..AuctionOptions::default()
            },
        );
        assert!(finer.stats.rounds > fixed.stats.rounds);
    }
}
