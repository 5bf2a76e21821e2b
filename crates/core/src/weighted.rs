//! Maximum weight bipartite matching by auction.
//!
//! The paper's motivating application chain (§I, citation \[2\] = Duff &
//! Koster) continues past structural matching: direct solvers also want
//! *numerically large* diagonals, i.e. a matching maximizing the sum of
//! (log-)magnitudes — the MC64 step. This module provides that companion
//! with Bertsekas' auction algorithm: unmatched columns repeatedly *bid*
//! for their best-net-value row and prices rise by at least `ε` per bid.
//!
//! Termination/optimality: with final `ε`, the result is within `n·ε` of
//! the optimum; for integer weights and final `ε < 1/(n+1)` it is exactly
//! optimal (the classic auction guarantee). Columns whose best net value
//! goes negative stay unmatched — this computes a maximum *weight*
//! matching, not a forced perfect assignment.
//!
//! Two engines share these semantics:
//!
//! * [`auction_mwm`] — the single-scale serial oracle: a queue of bidders,
//!   unconditionally correct, the differential reference.
//! * [`auction_mwm_par`] — the production engine (DESIGN.md §17), the
//!   library's one parallel auction: Jacobi-synchronous bid rounds
//!   against round-frozen prices, bids computed in parallel, deterministic
//!   serial resolution (thread-count-invariant matchings by construction).
//!   It first bids at the final ε alone under a bid budget of
//!   `FINE_BIDS_PER_BIDDER` bids per non-empty column, which settles
//!   random-like graphs in a few bids per column. Only when a price war
//!   spends that budget does it run ε-scaling from zero prices, with
//!   edge-ε-CS repair at scale transitions. With unit weights it computes
//!   a maximum cardinality matching; the portfolio sends cardinality
//!   problems to MS-BFS or Pothen–Fan instead (EXPERIMENTS.md, "One
//!   auction").
//!
//! Keep-the-matching scaling needs one weighted-only ingredient to stay
//! correct for *non-perfect* MWM without Bertsekas' λ-mechanism: besides
//! edge ε-CS, the optimality exchange argument over `M Δ M*` requires
//! every kept edge to sit within the **final** ε of the implicit
//! stay-unmatched option (`net ≥ −ε_final`). Enforcing that by repair at
//! each transition would unmatch every coarse-scale war winner (their
//! nets land near `−ε_coarse`) and forfeit the scaling gain, so the
//! engine enforces it at the source instead — a *regret cap* on bids:
//! no bidder ever pays past `w + ε_final`, hence `net ≥ −ε_final` holds
//! through every scale by construction. The cap cannot break edge ε-CS:
//! it only binds when the runner-up floor is below `ε − ε_final`, and
//! then the capped net `−ε_final` still exceeds `floor − ε`. Prices
//! still rise by at least `ε_final` per win, so termination is kept.
//!
//! Both return the final price vector so callers can check the
//! certificate independently ([`crate::verify::verify_eps_cs`]).
//!
//! `AuctionOptions::fault_lost_bidder` deliberately drops evicted owners
//! instead of re-enqueueing them — the simtest fault plan uses it to prove
//! the differential harness catches bid-update bugs in the parallel engine
//! (`simtest::detect_injected_auction_fault`).

use crate::matching::Matching;
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Vidx, WCsc, NIL};
use std::collections::VecDeque;

/// Tunables of the parallel auction engine ([`auction_mwm_par`]).
#[derive(Clone, Copy, Debug)]
pub struct AuctionOptions {
    /// Worker threads for the per-bidder bid computation (`mcm-par`).
    /// Results are identical for every thread count by construction.
    pub threads: usize,
    /// First scale's ε, relative to the value range, of the ε-scaled
    /// schedule that runs when the fine-ε attempt spends its bid budget.
    /// Clamped up to the final ε when smaller; at or below it the auction
    /// runs that one scale with no budget and no fallback.
    pub eps_start: f64,
    /// Divisor applied to ε between the fallback schedule's scales (> 1).
    pub eps_scale: f64,
    /// Final ε; `None` uses `1 / (2·(nrows+1))`, strictly inside the
    /// exactness bound `1/(nrows+1)` for integer weights.
    pub eps_final: Option<f64>,
    /// Deterministic perturbation of the bid-resolution order (the
    /// simtest schedule analogue); `0` keeps the natural order.
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

/// Counters describing one auction run.
#[derive(Clone, Debug, Default)]
pub struct AuctionStats {
    /// ε-scales of the returned result: 1 when the fine-ε attempt
    /// finished, the fallback schedule's count otherwise.
    pub scales: usize,
    /// Jacobi rounds across all scales, a spent fine-ε attempt included.
    pub rounds: usize,
    /// Bids computed (one per active bidder per round), a spent fine-ε
    /// attempt included.
    pub bids: usize,
    /// Owners evicted by a higher bid.
    pub evictions: usize,
    /// Retirements (per scale; a bidder may retire once per scale).
    pub retired: usize,
    /// Columns un-matched by ε-CS repair at scale transitions.
    pub rescaled: usize,
}

/// Result of [`auction_mwm`] / [`auction_mwm_par`].
#[derive(Clone, Debug)]
pub struct WeightedResult {
    /// The matching found.
    pub matching: Matching,
    /// Its total weight.
    pub weight: f64,
    /// Total bids processed (the work measure of auction algorithms).
    pub bids: u64,
    /// Final row prices — the dual variables of the ε-CS certificate.
    pub prices: Vec<f64>,
    /// The ε the prices certify ([`crate::verify::verify_eps_cs`]).
    pub eps: f64,
    /// Run counters (the serial oracle fills a minimal single-scale view).
    pub stats: AuctionStats,
}

/// Total weight of `m` under `a` (unmatched vertices contribute 0).
pub fn matching_weight(a: &WCsc, m: &Matching) -> f64 {
    (0..a.ncols())
        .filter_map(|c| {
            let r = m.mate_c.get(c as Vidx);
            (r != NIL).then(|| a.weight(r, c).expect("matched edge must exist"))
        })
        .sum()
}

/// Maximum weight bipartite matching by single-scale forward auction (the
/// serial oracle).
///
/// `eps_final` controls optimality: the result is within `n·eps_final` of
/// the maximum total weight. For integer weights pass
/// `1.0 / (n as f64 + 1.0)` to get the exact optimum.
///
/// Only entries with positive weight can improve a matching's total, but
/// negative-weight edges are tolerated (they are simply never chosen).
pub fn auction_mwm(a: &WCsc, eps_final: f64) -> WeightedResult {
    assert!(eps_final > 0.0, "eps must be positive");
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = Matching::empty(n1, n2);
    let mut price = vec![0.0f64; n1];
    let mut bids = 0u64;
    let eps = eps_final;

    // Single-scale forward auction. (Scaled variants reset assignments
    // between scales while keeping prices, which requires Bertsekas'
    // λ-mechanism to remain correct for *non-perfect* matchings; the
    // unscaled form is unconditionally correct and plenty fast at the
    // sizes this library targets.)
    let mut queue: VecDeque<Vidx> =
        (0..n2 as Vidx).filter(|&c| a.pattern().col_nnz(c as usize) > 0).collect();

    while let Some(c) = queue.pop_front() {
        bids += 1;
        // Best and second-best net value among the neighbours.
        let mut best: Option<(f64, Vidx)> = None;
        let mut second = f64::NEG_INFINITY;
        for (r, w) in a.col_entries(c as usize) {
            let net = w - price[r as usize];
            match best {
                None => best = Some((net, r)),
                Some((bn, _)) if net > bn => {
                    second = bn;
                    best = Some((net, r));
                }
                Some(_) => second = second.max(net),
            }
        }
        let (best_net, r) = best.expect("empty columns are never enqueued");
        if best_net < 0.0 {
            continue; // no profitable row: stays unmatched (prices only rise)
        }
        // Double push / bid: claim r, evict its previous owner, and raise
        // the price so the margin over the runner-up is burned.
        let prev = m.mate_r.get(r);
        if prev != NIL {
            m.mate_c.set(prev, NIL);
            queue.push_back(prev);
        }
        m.mate_r.set(r, c);
        m.mate_c.set(c, r);
        // The runner-up includes the implicit "stay unmatched" option of
        // value 0: bidding past it would leave this column matched at a
        // negative net value, breaking dual feasibility (and optimality).
        let floor = second.max(0.0);
        price[r as usize] += (best_net - floor) + eps;
    }

    let weight = matching_weight(a, &m);
    let stats = AuctionStats {
        scales: 1,
        rounds: bids as usize,
        bids: bids as usize,
        ..AuctionStats::default()
    };
    WeightedResult { matching: m, weight, bids, prices: price, eps, stats }
}

const TOL: f64 = 1e-12;

/// Bids per bidder the fine-ε first attempt may spend before
/// [`auction_mwm_par`] discards it and runs the ε-scaled schedule
/// (DESIGN.md §17 states the rule this constant was fitted to).
const FINE_BIDS_PER_BIDDER: usize = 64;

/// Maximum weight bipartite matching by parallel forward auction.
///
/// Columns bid for their best net-value row (`w − price`) in
/// Jacobi-synchronous rounds — bids computed in parallel via `mcm-par`
/// against the round-frozen price vector, then resolved serially in a
/// deterministic order — so the matching is identical for every thread
/// count. `opts.eps_final = None` uses `1/(2·(nrows+1))`, strictly inside
/// the integer-weight exactness bound `1/(nrows+1)`.
///
/// The auction first bids at the final ε alone, under a budget of
/// `FINE_BIDS_PER_BIDDER` bids per non-empty column, checked between
/// rounds. On random-like graphs that single scale settles in a few bids
/// per column. When a price war spends the budget, the attempt is
/// discarded and the coarse-to-fine schedule runs from zero prices:
/// `opts.eps_start` (relative to the value range, `· max(1, max|w|)`)
/// divided by `opts.eps_scale` per scale down to the final ε. Its matching
/// and prices are then those of the schedule run alone; `bids` and
/// `rounds` also count the spent attempt. Options that already ask for
/// one scale (`eps_start · range ≤ eps_final`) run it with no budget.
pub fn auction_mwm_par(a: &WCsc, opts: &AuctionOptions) -> WeightedResult {
    let eps_final = opts.eps_final.unwrap_or_else(|| 1.0 / (2.0 * (a.nrows() as f64 + 1.0)));
    assert!(eps_final > 0.0, "eps_final must be positive");
    assert!(opts.eps_scale > 1.0, "eps_scale must exceed 1");
    let eps_start = (opts.eps_start * a.max_abs_weight().max(1.0)).max(eps_final);

    // One persistent pool for the whole auction: the bid loop fans out once
    // per Jacobi round (thousands of times on big graphs), so per-phase
    // thread spawns dominated multi-threaded runs — the p4-slower-than-p1
    // anomaly in BENCH_mwm.json. Parked workers make each round's fan-out
    // two condvar round-trips instead.
    let pool = mcm_par::WorkerPool::new(opts.threads.max(1));

    let fine = (eps_start > eps_final * (1.0 + TOL)).then(|| {
        let bidders = (0..a.ncols()).filter(|&c| a.pattern().col_nnz(c) > 0).count();
        run_schedule(a, opts, eps_final, eps_final, Some(FINE_BIDS_PER_BIDDER * bidders), &pool)
    });
    let r = match fine {
        Some(Ok(r)) => r,
        spent => {
            let mut r = run_schedule(a, opts, eps_start, eps_final, None, &pool)
                .unwrap_or_else(|_| unreachable!("an unbudgeted schedule always finishes"));
            if let Some(Err(s)) = spent {
                r.stats.bids += s.bids;
                r.stats.rounds += s.rounds;
                r.bids = r.stats.bids as u64;
            }
            r
        }
    };
    mcm_obs::counter_add("mcm_wauction_rounds_total", &[], r.stats.rounds as u64);
    r
}

/// The auction from zero prices over ε-scales `eps_start`, `eps_start /
/// eps_scale`, … down to `eps_final`, with edge-ε-CS repair at each scale
/// transition. With a `budget`, gives up between rounds once that many
/// bids are spent and returns the spent attempt's counters.
fn run_schedule(
    a: &WCsc,
    opts: &AuctionOptions,
    eps_start: f64,
    eps_final: f64,
    budget: Option<usize>,
    pool: &mcm_par::WorkerPool,
) -> Result<WeightedResult, AuctionStats> {
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = Matching::empty(n1, n2);
    let mut stats = AuctionStats::default();
    let mut prices = vec![0.0f64; n1];
    // Columns dropped by the injected fault never re-enter the auction —
    // that is the bug being modelled.
    let mut lost = vec![false; n2];
    let mut eps = eps_start;

    let bidder = |c: Vidx| a.pattern().col_nnz(c as usize) > 0;
    let mut active: Vec<Vidx> = (0..n2 as Vidx).filter(|&c| bidder(c)).collect();

    loop {
        stats.scales += 1;
        let _span = mcm_obs::span("wauction_scale");
        let finished = run_weighted_scale(
            a,
            &mut m,
            &mut prices,
            &mut active,
            &mut lost,
            eps,
            eps_final,
            opts,
            budget,
            pool,
            &mut stats,
        );
        if !finished {
            return Err(stats);
        }
        if eps <= eps_final * (1.0 + TOL) {
            break;
        }
        eps = (eps / opts.eps_scale).max(eps_final);

        // Repair edge ε-CS at the finer ε to a fixpoint. Unmatching a
        // violator resets its row's price, which can invalidate
        // neighbours' ε-CS — hence the loop; the matched set shrinks
        // every pass. The `max(0)` term guards the stay-unmatched option
        // too; the regret cap makes it unreachable (`net ≥ −ε_final`
        // always), so it is a pure safety net here.
        loop {
            let mut changed = false;
            for c in 0..n2 as Vidx {
                let r = m.mate_c.get(c);
                if r == NIL {
                    continue;
                }
                let best = a
                    .col_entries(c as usize)
                    .map(|(r2, w)| w - prices[r2 as usize])
                    .fold(f64::NEG_INFINITY, f64::max);
                let net =
                    a.weight(r, c as usize).expect("matched edge must exist") - prices[r as usize];
                if net + eps < best.max(0.0) - TOL {
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
        // Every unmatched bidder re-enters at the finer ε — including
        // previously retired ones, whose retirement certificate a price
        // reset may have invalidated.
        active = (0..n2 as Vidx)
            .filter(|&c| bidder(c) && !m.col_matched(c) && !lost[c as usize])
            .collect();
    }
    debug_assert!(m.validate(a.pattern()).is_ok());
    let weight = matching_weight(a, &m);
    let bids = stats.bids as u64;
    Ok(WeightedResult { matching: m, weight, bids, prices, eps, stats })
}

/// Runs Jacobi rounds at a fixed ε until no active bidder remains; a
/// bidder's net value for row `r` is `w(r, c) − price[r]`. Returns `false`
/// when `stats.bids` reached `budget` first. The check runs between
/// rounds, so where it stops does not depend on the thread count.
#[allow(clippy::too_many_arguments)]
fn run_weighted_scale(
    a: &WCsc,
    m: &mut Matching,
    prices: &mut [f64],
    active: &mut Vec<Vidx>,
    lost: &mut [bool],
    eps: f64,
    eps_final: f64,
    opts: &AuctionOptions,
    budget: Option<usize>,
    pool: &mcm_par::WorkerPool,
    stats: &mut AuctionStats,
) -> bool {
    let mut winner_bid = vec![f64::NEG_INFINITY; prices.len()];
    let mut winner_col = vec![NIL; prices.len()];
    let mut touched: Vec<Vidx> = Vec::new();
    let mut round_in_scale = 0u64;

    while !active.is_empty() {
        if budget.is_some_and(|b| stats.bids >= b) {
            return false;
        }
        stats.rounds += 1;
        round_in_scale += 1;
        let _span = mcm_obs::span("wauction_round");

        // --- Parallel bid computation against frozen prices. ------------
        let prices_ro: &[f64] = prices;
        let active_ro: &[Vidx] = active;
        let bid_for = |k: usize| -> Option<(Vidx, f64)> {
            let c = active_ro[k];
            let mut best_r = NIL;
            let mut best = f64::NEG_INFINITY;
            let mut second = f64::NEG_INFINITY;
            for (r, w) in a.col_entries(c as usize) {
                let net = w - prices_ro[r as usize];
                if net > best {
                    second = best;
                    best = net;
                    best_r = r;
                } else if net > second {
                    second = net;
                }
            }
            if best < 0.0 {
                return None; // retire: no profitable row at these prices
            }
            // Bertsekas bid with the regret cap: pay up to the
            // second-best net (floored at the retirement boundary)
            // plus ε, but never past `w + ε_final` — the winner's
            // net stays ≥ −ε_final at every scale.
            let floor = second.max(0.0);
            let increment = (eps - floor).min(eps_final);
            Some((best_r, prices_ro[best_r as usize] + best + increment))
        };
        // Most end-game rounds have a handful of active bidders; waking the
        // pool for those costs more than the bids. Fan out only when the
        // round is big enough to amortize the two condvar round-trips —
        // either way the bid vector is identical (pure function of k).
        const PAR_BID_MIN: usize = 256;
        let bids: Vec<Option<(Vidx, f64)>> = if active_ro.len() < PAR_BID_MIN {
            (0..active_ro.len()).map(bid_for).collect()
        } else {
            pool.map_range(active_ro.len(), bid_for)
        };
        stats.bids += bids.len();

        // --- Deterministic serial resolution. ---------------------------
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
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::Triples;

    /// Exact maximum-weight matching by exhaustive search (tiny graphs).
    fn brute_force(a: &WCsc) -> f64 {
        fn go(a: &WCsc, c: usize, used: &mut Vec<bool>) -> f64 {
            if c == a.ncols() {
                return 0.0;
            }
            // Skip column c...
            let mut best = go(a, c + 1, used);
            // ...or match it to any free neighbour with positive gain.
            let entries: Vec<(Vidx, f64)> = a.col_entries(c).collect();
            for (r, w) in entries {
                if !used[r as usize] {
                    used[r as usize] = true;
                    best = best.max(w + go(a, c + 1, used));
                    used[r as usize] = false;
                }
            }
            best
        }
        go(a, 0, &mut vec![false; a.nrows()])
    }

    fn exact_eps(n: usize) -> f64 {
        // Integer weights are exactly optimal once the total slack n·ε
        // (plus the unmatched-option slack) stays below 1.
        1.0 / (2.0 * (n as f64 + 1.0))
    }

    #[test]
    fn picks_the_heavy_diagonal() {
        let a = WCsc::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 10.0)],
        );
        let r = auction_mwm(&a, exact_eps(2));
        assert_eq!(r.weight, 20.0);
        assert_eq!(r.matching.cardinality(), 2);
    }

    #[test]
    fn sacrifices_cardinality_for_weight_when_profitable() {
        // Matching both columns forces total 1 + 1 = 2; matching only c0 to
        // r0 yields 10. MWM must prefer weight over cardinality.
        let a = WCsc::from_weighted_triples(1, 2, vec![(0, 0, 10.0), (0, 1, 1.0)]);
        let r = auction_mwm(&a, exact_eps(2));
        assert_eq!(r.weight, 10.0);
        assert_eq!(r.matching.cardinality(), 1);
        assert_eq!(r.matching.mate_c.get(0), 0);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(777);
        for trial in 0..150 {
            let n1 = 2 + (rng.next_u64() % 5) as usize;
            let n2 = 2 + (rng.next_u64() % 5) as usize;
            let mut entries = Vec::new();
            for _ in 0..2 * n1.max(n2) {
                entries.push((
                    rng.below(n1 as u64) as Vidx,
                    rng.below(n2 as u64) as Vidx,
                    rng.below(50) as f64, // integer weights → exact auction
                ));
            }
            let a = WCsc::from_weighted_triples(n1, n2, entries);
            let want = brute_force(&a);
            let got = auction_mwm(&a, exact_eps(n1.max(n2)));
            got.matching.validate(a.pattern()).unwrap();
            assert!(
                (got.weight - want).abs() < 1e-9,
                "trial {trial}: auction {} vs brute force {want}",
                got.weight
            );
        }
    }

    #[test]
    fn uniform_weights_reduce_to_maximum_cardinality() {
        use crate::serial::hopcroft_karp;
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(123);
        for _ in 0..20 {
            let n = 3 + (rng.next_u64() % 12) as usize;
            let mut t = Triples::new(n, n);
            let mut entries = Vec::new();
            for _ in 0..3 * n {
                let (i, j) = (rng.below(n as u64) as Vidx, rng.below(n as u64) as Vidx);
                t.push(i, j);
                entries.push((i, j, 1.0));
            }
            let a = WCsc::from_weighted_triples(n, n, entries);
            let mcm = hopcroft_karp(&t.to_csc(), None).cardinality();
            let mwm = auction_mwm(&a, exact_eps(n));
            assert_eq!(mwm.matching.cardinality(), mcm);
            assert!((mwm.weight - mcm as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_weights_are_never_chosen() {
        let a = WCsc::from_weighted_triples(2, 2, vec![(0, 0, -5.0), (1, 1, 3.0)]);
        let r = auction_mwm(&a, exact_eps(2));
        assert_eq!(r.weight, 3.0);
        assert_eq!(r.matching.cardinality(), 1);
        assert!(!r.matching.col_matched(0));
    }

    #[test]
    fn empty_matrix() {
        let a = WCsc::from_weighted_triples(3, 3, vec![]);
        let r = auction_mwm(&a, 0.1);
        assert_eq!(r.weight, 0.0);
        assert_eq!(r.matching.cardinality(), 0);
    }

    #[test]
    fn serial_oracle_passes_its_own_certificate() {
        use crate::verify::verify_eps_cs;
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0xCE27);
        for _ in 0..30 {
            let n1 = 2 + (rng.next_u64() % 10) as usize;
            let n2 = 2 + (rng.next_u64() % 10) as usize;
            let mut entries = Vec::new();
            for _ in 0..3 * n1.max(n2) {
                entries.push((
                    rng.below(n1 as u64) as Vidx,
                    rng.below(n2 as u64) as Vidx,
                    rng.below(50) as f64,
                ));
            }
            let a = WCsc::from_weighted_triples(n1, n2, entries);
            let r = auction_mwm(&a, exact_eps(n1.max(n2)));
            verify_eps_cs(&a, &r.matching, &r.prices, r.eps).unwrap();
        }
    }

    #[test]
    fn parallel_matches_serial_oracle_weight_on_random_instances() {
        use crate::verify::verify_eps_cs;
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0x9A12);
        for trial in 0..40 {
            let n1 = 2 + (rng.next_u64() % 14) as usize;
            let n2 = 2 + (rng.next_u64() % 14) as usize;
            let mut entries = Vec::new();
            for _ in 0..3 * n1.max(n2) {
                entries.push((
                    rng.below(n1 as u64) as Vidx,
                    rng.below(n2 as u64) as Vidx,
                    (rng.below(50) + 1) as f64, // integer weights → exact
                ));
            }
            let a = WCsc::from_weighted_triples(n1, n2, entries);
            let want = auction_mwm(&a, exact_eps(n1)).weight;
            let got = auction_mwm_par(&a, &AuctionOptions::default());
            got.matching.validate(a.pattern()).unwrap();
            verify_eps_cs(&a, &got.matching, &got.prices, got.eps).unwrap();
            assert!(
                (got.weight - want).abs() < 1e-9,
                "trial {trial}: parallel {} vs oracle {want}",
                got.weight
            );
        }
    }

    #[test]
    fn parallel_thread_count_does_not_change_the_matching() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0x7A);
        let (n1, n2) = (24usize, 24usize);
        let mut entries = Vec::new();
        for _ in 0..90 {
            entries.push((
                rng.below(n1 as u64) as Vidx,
                rng.below(n2 as u64) as Vidx,
                (rng.below(100) + 1) as f64,
            ));
        }
        let a = WCsc::from_weighted_triples(n1, n2, entries);
        let r1 = auction_mwm_par(&a, &AuctionOptions { threads: 1, ..AuctionOptions::default() });
        let r4 = auction_mwm_par(&a, &AuctionOptions { threads: 4, ..AuctionOptions::default() });
        let r9 = auction_mwm_par(&a, &AuctionOptions { threads: 9, ..AuctionOptions::default() });
        assert_eq!(r1.matching, r4.matching);
        assert_eq!(r1.matching, r9.matching);
        assert_eq!(r1.stats.rounds, r4.stats.rounds);
        assert_eq!(r1.prices, r9.prices);
    }

    #[test]
    fn parallel_scaling_beats_fixed_fine_eps_on_heavy_crowd() {
        // K_{4,24} with a large uniform weight: a fixed fine ε price war
        // takes Θ(W/ε) rounds; scaling resolves it in coarse increments.
        let mut entries = Vec::new();
        for r in 0..4u32 {
            for c in 0..24u32 {
                entries.push((r, c, 64.0));
            }
        }
        let a = WCsc::from_weighted_triples(4, 24, entries);
        let fine = 1.0 / 10.0;
        let fixed = auction_mwm_par(
            &a,
            &AuctionOptions {
                eps_start: 0.0, // clamps to eps_final: single fixed scale
                eps_final: Some(fine),
                ..AuctionOptions::default()
            },
        );
        let scaled = auction_mwm_par(
            &a,
            &AuctionOptions { eps_final: Some(fine), ..AuctionOptions::default() },
        );
        assert_eq!(fixed.matching.cardinality(), 4);
        assert_eq!(scaled.matching.cardinality(), 4);
        assert_eq!(fixed.stats.scales, 1);
        assert!(scaled.stats.scales > 1);
        assert!(
            scaled.stats.rounds < fixed.stats.rounds,
            "scaling gained nothing: scaled {} rounds vs fixed {}",
            scaled.stats.rounds,
            fixed.stats.rounds
        );
    }

    #[test]
    fn a_random_graph_settles_at_the_final_eps_alone() {
        // The common case: on a weighted RMAT the fine-ε attempt ends well
        // inside its budget, so no coarse scale runs at all.
        use crate::verify::verify_eps_cs;
        use mcm_gen::rmat::{rmat, RmatParams};
        let t = rmat(RmatParams::g500(10), 7);
        let weights = mcm_gen::assign_weights(t.entries(), 0xF1, 50);
        let a = WCsc::from_weighted_triples(t.nrows(), t.ncols(), weights);
        let want = auction_mwm(&a, exact_eps(a.nrows())).weight;
        let runs: Vec<WeightedResult> = [1, 4, 9]
            .into_iter()
            .map(|threads| {
                auction_mwm_par(&a, &AuctionOptions { threads, ..AuctionOptions::default() })
            })
            .collect();
        for r in &runs {
            assert_eq!(r.stats.scales, 1, "{:?}", r.stats);
            verify_eps_cs(&a, &r.matching, &r.prices, r.eps).unwrap();
            assert!((r.weight - want).abs() < 1e-9, "auction {} vs oracle {want}", r.weight);
            assert_eq!(r.matching, runs[0].matching);
            assert_eq!(r.prices, runs[0].prices);
        }
    }

    #[test]
    fn a_price_war_spends_the_budget_and_falls_back_to_scaling() {
        // K_{16,128} at one weight: every column wants every row, so the
        // fine-ε attempt creeps prices up by ε per win until the budget
        // runs out. The result is then the coarse-to-fine schedule's.
        let entries = (0..16).flat_map(|r| (0..128).map(move |c| (r, c, 64.0))).collect::<Vec<_>>();
        let a = WCsc::from_weighted_triples(16, 128, entries);
        let opts = AuctionOptions::default();
        let r = auction_mwm_par(&a, &opts);
        assert!(r.stats.scales > 1, "{:?}", r.stats);
        assert_eq!(r.weight, 16.0 * 64.0);

        let pool = mcm_par::WorkerPool::new(1);
        let eps_final = exact_eps(16);
        let budget = FINE_BIDS_PER_BIDDER * 128;
        let spent = run_schedule(&a, &opts, eps_final, eps_final, Some(budget), &pool)
            .expect_err("the price war must spend the budget");
        assert!(spent.bids >= budget);
        let alone = run_schedule(&a, &opts, opts.eps_start * 64.0, eps_final, None, &pool)
            .expect("an unbudgeted schedule finishes");
        assert_eq!(r.matching, alone.matching);
        assert_eq!(r.prices, alone.prices);
        assert_eq!(r.stats.scales, alone.stats.scales);
        assert_eq!(r.bids, spent.bids as u64 + alone.bids);
        assert_eq!(r.stats.rounds, spent.rounds + alone.stats.rounds);
    }

    #[test]
    fn parallel_uniform_weights_reduce_to_maximum_cardinality() {
        use crate::serial::hopcroft_karp;
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0x11F0);
        for _ in 0..15 {
            let n = 4 + (rng.next_u64() % 16) as usize;
            let mut t = Triples::new(n, n);
            let mut entries = Vec::new();
            for _ in 0..3 * n {
                let (i, j) = (rng.below(n as u64) as Vidx, rng.below(n as u64) as Vidx);
                t.push(i, j);
                entries.push((i, j, 1.0));
            }
            let a = WCsc::from_weighted_triples(n, n, entries);
            let mcm = hopcroft_karp(&t.to_csc(), None).cardinality();
            let mwm = auction_mwm_par(&a, &AuctionOptions::default());
            assert_eq!(mwm.matching.cardinality(), mcm);
            assert!((mwm.weight - mcm as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn lost_bidder_fault_loses_cardinality_on_alternating_chain() {
        // chain(k) with unit weights: col i adjacent to rows {i-1, i}.
        // Round one leaves c1 beaten on r0; its recovery bid evicts c2 from
        // r1 and a rematch cascade walks the chain. Dropping any evicted
        // owner strands the tail row even though its augmenting path
        // survives.
        use crate::serial::hopcroft_karp;
        let k = 8usize;
        let mut entries = Vec::new();
        for c in 0..k as Vidx {
            entries.push((c, c, 1.0));
            if c > 0 {
                entries.push((c - 1, c, 1.0));
            }
        }
        let a = WCsc::from_weighted_triples(k, k, entries);
        let want = hopcroft_karp(a.pattern(), None).cardinality();
        assert_eq!(want, k);
        let good = auction_mwm_par(&a, &AuctionOptions::default());
        assert_eq!(good.matching.cardinality(), want);
        assert!(good.stats.evictions > 0, "instance must actually evict");
        let bad = auction_mwm_par(
            &a,
            &AuctionOptions { fault_lost_bidder: true, ..AuctionOptions::default() },
        );
        assert!(
            bad.matching.cardinality() < want,
            "lost-bidder fault was not observable on this instance"
        );
    }

    #[test]
    fn parallel_handles_degenerate_shapes() {
        let empty = WCsc::from_weighted_triples(0, 0, vec![]);
        let r = auction_mwm_par(&empty, &AuctionOptions::default());
        assert_eq!(r.matching.cardinality(), 0);
        let negative = WCsc::from_weighted_triples(2, 2, vec![(0, 0, -5.0), (1, 1, 3.0)]);
        let r = auction_mwm_par(&negative, &AuctionOptions::default());
        assert_eq!(r.weight, 3.0);
        assert!(!r.matching.col_matched(0));
    }
}
