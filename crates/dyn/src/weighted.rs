//! Weight-aware incremental matching: price-carrying auction repair.
//!
//! The weighted sibling of [`crate::engine::DynMatching`]. Where the
//! cardinality engine repairs with alternating BFS from dirty vertices,
//! this engine exploits the auction's dual structure: the row **prices**
//! are a certificate that survives most updates untouched. A batch only
//! invalidates ε-complementary-slackness locally —
//!
//! * an inserted or re-weighted edge `(r, c, w)` changes column `c`'s
//!   candidate set, so only `c`'s ε-CS needs re-checking;
//! * deleting a *matched* edge frees its row, whose price must drop to 0
//!   (dual feasibility for unmatched rows), which in turn can tempt every
//!   column adjacent to that row;
//! * deleting an unmatched edge only shrinks a column's candidate set,
//!   which cannot violate any ε-CS condition — no work at all.
//!
//! [`WDynMatching::apply_batch`] therefore walks a dirty-column worklist:
//! violators are unmatched (cascading price resets through their freed
//! rows), and the resulting unmatched dirty columns re-enter a serial
//! auction that starts from the *current* prices — typically a handful of
//! bids, however many columns the batch dirtied.
//!
//! Every batch tries that re-auction first, under a **bid budget** the
//! engine measures itself: the bid count of its most recent cold solve
//! ([`mcm_core::weighted::WeightedResult::bids`]), floored at one bid per
//! column. The re-auction runs at the final ε only, so an adversarial
//! batch (a price war among near-equal bids) can cost far more than the
//! ε-scaled cold solve; once it spends the budget it stops, its partial
//! state is discarded, and the batch cold-solves with
//! [`mcm_core::weighted::auction_mwm_par`] ([`WBatchReport::cold`],
//! [`WDynStats::budget_exhausted`]). A batch thus costs at most about
//! two cold solves, and one that is cheap to repair never pays for one.
//! Either way the result satisfies the same ε-CS certificate the static
//! engines carry ([`mcm_core::verify::verify_eps_cs`]), with ε fixed at
//! the exactness bound `1/(2·(n1+1))` so integer-weight instances stay
//! exactly optimal across arbitrary update histories.

use crate::graph::DynGraph;
use mcm_core::auction::AuctionOptions;
use mcm_core::verify::{verify_eps_cs, VerifyError};
use mcm_core::weighted::auction_mwm_par;
use mcm_core::Matching;
use mcm_sparse::{CscOverlay, Vidx, WCsc, NIL};
use std::collections::VecDeque;

/// One weighted point update. `Insert` on a live edge re-weights it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WUpdate {
    /// Insert (or re-weight) edge `(row, col)` with the given weight.
    Insert(Vidx, Vidx, f64),
    /// Delete edge `(row, col)` if present.
    Delete(Vidx, Vidx),
}

/// Tunables of the weighted incremental engine.
#[derive(Clone, Copy, Debug)]
pub struct WDynOptions {
    /// Ignored by the weighted engine, which always repairs
    /// incrementally first and falls back to a cold solve only when the
    /// re-auction exhausts its measured bid budget. Kept so existing
    /// struct literals still compile.
    pub fallback_threshold: f64,
    /// Worker threads for cold solves (incremental repair is serial).
    pub threads: usize,
    /// Resolution-order perturbation seed for cold solves.
    pub seed: u64,
    /// Verify the full ε-CS certificate after every batch (O(nnz);
    /// differential harnesses turn this on).
    pub full_verify: bool,
}

impl Default for WDynOptions {
    fn default() -> Self {
        Self { fallback_threshold: 0.25, threads: 1, seed: 0, full_verify: false }
    }
}

/// What one [`WDynMatching::apply_batch`] call did.
#[derive(Clone, Debug, Default)]
pub struct WBatchReport {
    /// Updates that changed the graph (no-ops excluded).
    pub applied: usize,
    /// Edge insertions (including re-weights of live edges).
    pub inserts: usize,
    /// Edge deletions.
    pub deletes: usize,
    /// Deletions that hit a matched edge.
    pub matched_deletes: usize,
    /// Columns whose ε-CS was re-checked.
    pub dirty: usize,
    /// Columns unmatched by the ε-CS cascade (violators).
    pub repaired: usize,
    /// Bids processed by the incremental re-auction.
    pub rebids: usize,
    /// Bid budget the re-auction ran under (the last cold solve's bid
    /// count, at least one bid per column).
    pub budget: usize,
    /// `true` when the re-auction spent its whole budget and the batch
    /// fell back to a cold parallel solve.
    pub cold: bool,
    /// Matching weight change produced by this batch.
    pub weight_delta: f64,
    /// Matching weight after the batch.
    pub weight: f64,
    /// Cardinality after the batch.
    pub cardinality: usize,
}

/// Cumulative counters of a [`WDynMatching`].
#[derive(Clone, Debug, Default)]
pub struct WDynStats {
    /// Batches applied.
    pub batches: u64,
    /// Graph-changing updates applied.
    pub updates: u64,
    /// Inserts (including re-weights).
    pub inserts: u64,
    /// Deletes.
    pub deletes: u64,
    /// Deletes that hit a matched edge.
    pub matched_deletes: u64,
    /// Dirty columns examined across all batches.
    pub dirty_bidders: u64,
    /// Incremental re-auction bids across all batches.
    pub rebids: u64,
    /// Batches repaired incrementally.
    pub incremental_batches: u64,
    /// Batches that cold-solved.
    pub cold_solves: u64,
    /// Batches whose re-auction exhausted its bid budget.
    pub budget_exhausted: u64,
    /// Sum of positive per-batch weight deltas.
    pub weight_gained: f64,
    /// Sum of negative per-batch weight deltas (as a positive number).
    pub weight_lost: f64,
    /// The last batch's report.
    pub last: WBatchReport,
}

/// A consistent copy of the weighted engine state (graph + matching
/// weight + counters), cheap enough to publish per batch from a server.
#[derive(Clone, Debug)]
pub struct WStateSnapshot {
    /// The weighted graph at snapshot time (column adjacency only).
    pub graph: CscOverlay<f64>,
    /// Counters at snapshot time.
    pub stats: WDynStats,
    /// Matching cardinality at snapshot time.
    pub cardinality: usize,
    /// Matching weight at snapshot time.
    pub weight: f64,
}

impl WStateSnapshot {
    /// Compaction epoch of the snapshotted graph.
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Live edge count of the snapshotted graph.
    pub fn nnz(&self) -> usize {
        self.graph.nnz()
    }
}

const TOL: f64 = 1e-12;

/// Incrementally maintained maximum *weight* matching over a mutable
/// weighted bipartite graph.
///
/// # Example
///
/// ```
/// use mcm_dyn::{WDynMatching, WDynOptions, WUpdate};
///
/// let mut wm = WDynMatching::new(2, 2, WDynOptions::default());
/// wm.apply_batch(&[
///     WUpdate::Insert(0, 0, 10.0),
///     WUpdate::Insert(0, 1, 1.0),
///     WUpdate::Insert(1, 1, 10.0),
/// ]);
/// assert_eq!(wm.weight(), 20.0);
/// let rep = wm.apply_batch(&[WUpdate::Delete(0, 0)]);
/// assert_eq!(rep.weight, 10.0, "c0 falls back to its light edge... or c1 does");
/// ```
pub struct WDynMatching {
    /// The weighted graph: `g.cols()` walks a column's `(row, weight)`
    /// candidates (the bidding direction), `g.rows()` a row's adjacent
    /// columns (the price-reset fan-out direction).
    g: DynGraph<f64>,
    m: Matching,
    prices: Vec<f64>,
    eps: f64,
    opts: WDynOptions,
    stats: WDynStats,
    weight: f64,
    /// Bids of the most recent cold solve (0 before the first one).
    cold_bids: usize,
}

impl WDynMatching {
    /// An empty `n1 × n2` weighted graph with an empty matching.
    pub fn new(n1: usize, n2: usize, opts: WDynOptions) -> Self {
        Self::with_graph(DynGraph::empty(n1, n2), opts)
    }

    fn with_graph(g: DynGraph<f64>, opts: WDynOptions) -> Self {
        let (n1, n2) = (g.n1(), g.n2());
        Self {
            g,
            m: Matching::empty(n1, n2),
            prices: vec![0.0; n1],
            eps: 1.0 / (2.0 * (n1 as f64 + 1.0)),
            opts,
            stats: WDynStats::default(),
            weight: 0.0,
            cold_bids: 0,
        }
    }

    /// Builds from weighted triples and computes the initial matching by
    /// a cold parallel solve.
    pub fn from_weighted_triples(
        n1: usize,
        n2: usize,
        entries: Vec<(Vidx, Vidx, f64)>,
        opts: WDynOptions,
    ) -> Self {
        let a = WCsc::from_weighted_triples(n1, n2, entries);
        Self::from_wcsc(a, opts)
    }

    /// Builds from an already-assembled weighted CSC — the MCSB load path
    /// (`mcmd --weighted --load graph.mcsb`), which decodes pattern and
    /// values straight to a `WCsc` frozen base with no triple list.
    pub fn from_wcsc(a: WCsc, opts: WDynOptions) -> Self {
        let mut wm = Self::with_graph(DynGraph::from_wcsc(a), opts);
        wm.cold_solve();
        wm.weight = wm.recompute_weight();
        wm
    }

    /// The current matching.
    pub fn matching(&self) -> &Matching {
        &self.m
    }

    /// Current matching cardinality.
    pub fn cardinality(&self) -> usize {
        self.m.cardinality()
    }

    /// Current matching weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Current row prices (the dual certificate).
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// The ε the prices certify.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &WDynStats {
        &self.stats
    }

    /// The weighted graph.
    pub fn graph(&self) -> &DynGraph<f64> {
        &self.g
    }

    /// Live edge count.
    pub fn nnz(&self) -> usize {
        self.g.nnz()
    }

    /// Compaction epoch of the graph.
    pub fn epoch(&self) -> u64 {
        self.g.epoch()
    }

    /// A consistent copy of the engine state for publication.
    pub fn snapshot_state(&self) -> WStateSnapshot {
        WStateSnapshot {
            graph: self.g.cols().clone(),
            stats: self.stats.clone(),
            cardinality: self.m.cardinality(),
            weight: self.weight,
        }
    }

    /// Full independent ε-CS verification of the current state (O(nnz)).
    pub fn verify_full(&self) -> Result<(), VerifyError> {
        verify_eps_cs(&self.g.cols().to_wcsc(), &self.m, &self.prices, self.eps)
    }

    /// Applies a batch of weighted updates and repairs the matching.
    pub fn apply_batch(&mut self, batch: &[WUpdate]) -> WBatchReport {
        let _span = mcm_obs::span("wdyn_apply_batch");
        let sw = mcm_obs::Stopwatch::new();
        let weight_before = self.weight;
        let mut rep = WBatchReport::default();
        let n2 = self.g.n2();

        // Worklist of columns whose ε-CS must be (re-)checked. A column
        // may legitimately re-enter after a later price reset changes its
        // best alternative, so membership is tracked per-entry, not
        // per-lifetime.
        let mut dirty: VecDeque<Vidx> = VecDeque::new();
        let mut in_dirty = vec![false; n2];
        let push_dirty = |q: &mut VecDeque<Vidx>, flags: &mut Vec<bool>, c: Vidx| {
            if !flags[c as usize] {
                flags[c as usize] = true;
                q.push_back(c);
            }
        };

        // --- Phase 1: apply updates, seed the dirty set. ----------------
        for &u in batch {
            match u {
                WUpdate::Insert(r, c, w) => {
                    if self.g.cols().value(r, c) == Some(w) {
                        continue; // pure no-op
                    }
                    self.g.insert(r, c, w);
                    rep.applied += 1;
                    rep.inserts += 1;
                    push_dirty(&mut dirty, &mut in_dirty, c);
                }
                WUpdate::Delete(r, c) => {
                    if !self.g.delete(r, c) {
                        continue;
                    }
                    rep.applied += 1;
                    rep.deletes += 1;
                    if self.m.mate_c.get(c) == r {
                        rep.matched_deletes += 1;
                        self.m.mate_c.set(c, NIL);
                        self.m.mate_r.set(r, NIL);
                        self.prices[r as usize] = 0.0;
                        push_dirty(&mut dirty, &mut in_dirty, c);
                        self.g.rows().for_each_in_col(r, |c2, ()| {
                            push_dirty(&mut dirty, &mut in_dirty, c2);
                        });
                    }
                    // Deleting an unmatched edge only shrinks a candidate
                    // set — every ε-CS condition gets weaker. No work.
                }
            }
        }

        // --- Phase 2: ε-CS cascade. -------------------------------------
        // Unmatch violators; each unmatch frees a row whose price resets
        // to 0 (dual feasibility), which can invalidate neighbours — they
        // re-enter the worklist. A column is unmatched at most once, so
        // the total work is bounded by the touched neighbourhoods.
        let mut ever: Vec<Vidx> = Vec::new();
        let mut ever_flag = vec![false; n2];
        while let Some(c) = dirty.pop_front() {
            in_dirty[c as usize] = false;
            if !ever_flag[c as usize] {
                ever_flag[c as usize] = true;
                ever.push(c);
            }
            rep.dirty += 1;
            let r = self.m.mate_c.get(c);
            if r == NIL {
                continue; // unmatched candidates go to the re-auction below
            }
            let mut best = f64::NEG_INFINITY;
            self.g.cols().for_each_in_col(c, |r2, w| {
                best = best.max(w - self.prices[r2 as usize]);
            });
            let net = self.g.cols().value(r, c).expect("matched edge must be live")
                - self.prices[r as usize];
            if net + self.eps < best.max(0.0) - TOL {
                self.m.mate_c.set(c, NIL);
                self.m.mate_r.set(r, NIL);
                self.prices[r as usize] = 0.0;
                rep.repaired += 1;
                push_dirty(&mut dirty, &mut in_dirty, c);
                self.g.rows().for_each_in_col(r, |c2, ()| {
                    push_dirty(&mut dirty, &mut in_dirty, c2);
                });
            }
        }

        // --- Phase 3: repair. -------------------------------------------
        let bidders: Vec<Vidx> = ever
            .iter()
            .copied()
            .filter(|&c| self.m.mate_c.get(c) == NIL && self.g.col_degree(c) > 0)
            .collect();
        rep.budget = self.bid_budget();
        if !bidders.is_empty() {
            match self.reauction(bidders, rep.budget) {
                Ok(rebids) => rep.rebids = rebids,
                Err(rebids) => {
                    // The re-auction's partial matching and prices are
                    // overwritten wholesale by the cold solve.
                    rep.rebids = rebids;
                    rep.cold = true;
                    self.cold_solve();
                }
            }
        }

        // --- Phase 4: account + certify. --------------------------------
        self.weight = self.recompute_weight();
        rep.weight = self.weight;
        rep.weight_delta = self.weight - weight_before;
        rep.cardinality = self.m.cardinality();
        if self.opts.full_verify {
            self.verify_full().expect("post-batch eps-CS certificate");
        }

        self.stats.batches += 1;
        self.stats.updates += rep.applied as u64;
        self.stats.inserts += rep.inserts as u64;
        self.stats.deletes += rep.deletes as u64;
        self.stats.matched_deletes += rep.matched_deletes as u64;
        self.stats.dirty_bidders += rep.dirty as u64;
        self.stats.rebids += rep.rebids as u64;
        if rep.cold {
            // Budget exhaustion is the only road to a cold batch.
            self.stats.cold_solves += 1;
            self.stats.budget_exhausted += 1;
        } else {
            self.stats.incremental_batches += 1;
        }
        if rep.weight_delta >= 0.0 {
            self.stats.weight_gained += rep.weight_delta;
        } else {
            self.stats.weight_lost -= rep.weight_delta;
        }
        if mcm_obs::metrics_enabled() {
            let strategy = if rep.cold { "cold" } else { "incremental" };
            let labels = [("strategy", strategy)];
            mcm_obs::counter_add("mcm_wdyn_batches_total", &labels, 1);
            mcm_obs::counter_add("mcm_wdyn_budget_exhausted_total", &[], rep.cold as u64);
            mcm_obs::counter_add("mcm_wdyn_updates_total", &labels, rep.applied as u64);
            mcm_obs::counter_add("mcm_wdyn_rebids_total", &labels, rep.rebids as u64);
            mcm_obs::observe_ns("mcm_wdyn_batch_seconds", &labels, sw.elapsed_ns());
            mcm_obs::gauge_set("mcm_matching_weight", &[], self.weight);
        }
        self.stats.last = rep.clone();
        rep
    }

    /// The re-auction's bid budget: what the last cold solve spent, and
    /// at least one bid per column (an engine built empty has no cold
    /// solve to measure yet).
    fn bid_budget(&self) -> usize {
        self.cold_bids.max(self.g.n2())
    }

    /// Serial forward auction from the current prices, seeded with the
    /// dirty bidders. Evicted owners re-enter the queue; a bidder whose
    /// best net value is negative retires (prices only rise, so its
    /// retirement stays certified). Returns the bids made, or `Err` with
    /// the bids spent when the auction hit `budget` with bidders still
    /// queued — the matching and prices are then mid-auction and must be
    /// replaced by a cold solve.
    fn reauction(&mut self, bidders: Vec<Vidx>, budget: usize) -> Result<usize, usize> {
        let _span = mcm_obs::span("wdyn_reauction");
        let mut queue: VecDeque<Vidx> = bidders.into();
        let mut rebids = 0usize;
        while let Some(c) = queue.pop_front() {
            if rebids == budget {
                return Err(rebids);
            }
            rebids += 1;
            let mut best: Option<(f64, Vidx)> = None;
            let mut second = f64::NEG_INFINITY;
            self.g.cols().for_each_in_col(c, |r, w| {
                let net = w - self.prices[r as usize];
                match best {
                    None => best = Some((net, r)),
                    Some((bn, _)) if net > bn => {
                        second = bn;
                        best = Some((net, r));
                    }
                    Some(_) => second = second.max(net),
                }
            });
            let Some((best_net, r)) = best else { continue };
            if best_net < 0.0 {
                continue; // retire
            }
            let prev = self.m.mate_r.get(r);
            if prev != NIL {
                self.m.mate_c.set(prev, NIL);
                queue.push_back(prev);
            }
            self.m.mate_r.set(r, c);
            self.m.mate_c.set(c, r);
            let floor = second.max(0.0);
            self.prices[r as usize] += (best_net - floor) + self.eps;
        }
        Ok(rebids)
    }

    /// Throws the certificate away and re-solves from scratch with the
    /// parallel ε-scaled auction; its bid count becomes the next budget.
    fn cold_solve(&mut self) {
        let _span = mcm_obs::span("wdyn_cold_solve");
        let a = self.g.cols().to_wcsc();
        let r = auction_mwm_par(
            &a,
            &AuctionOptions {
                threads: self.opts.threads.max(1),
                seed: self.opts.seed,
                eps_final: Some(self.eps),
                ..AuctionOptions::default()
            },
        );
        self.m = r.matching;
        self.prices = r.prices;
        self.cold_bids = r.bids as usize;
    }

    fn recompute_weight(&self) -> f64 {
        (0..self.g.n2() as Vidx)
            .filter_map(|c| {
                let r = self.m.mate_c.get(c);
                (r != NIL).then(|| self.g.cols().value(r, c).expect("matched edge must be live"))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_core::weighted::auction_mwm;
    use mcm_sparse::permute::SplitMix64;

    fn oracle_weight(wm: &WDynMatching) -> f64 {
        let a = wm.graph().cols().to_wcsc();
        auction_mwm(&a, wm.eps()).weight
    }

    #[test]
    fn insert_only_growth_tracks_the_oracle() {
        let mut wm =
            WDynMatching::new(6, 6, WDynOptions { full_verify: true, ..Default::default() });
        let mut rng = SplitMix64::new(0x11);
        for _ in 0..40 {
            let r = rng.below(6) as Vidx;
            let c = rng.below(6) as Vidx;
            let w = (rng.below(30) + 1) as f64;
            wm.apply_batch(&[WUpdate::Insert(r, c, w)]);
            assert!((wm.weight() - oracle_weight(&wm)).abs() < 1e-9);
        }
    }

    #[test]
    fn matched_delete_repairs_and_tracks_the_oracle() {
        let mut wm = WDynMatching::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 10.0)],
            WDynOptions { full_verify: true, ..Default::default() },
        );
        assert_eq!(wm.weight(), 20.0);
        let rep = wm.apply_batch(&[WUpdate::Delete(0, 0)]);
        assert_eq!(rep.matched_deletes, 1);
        // Best now: c0 on r1 (1.0) vs c1 on r1 (10.0) — keep c1·r1, c0
        // takes nothing profitable... c0 has only (1,0,1.0) left: matching
        // weight 10 + 1 = 11 if both fit, but both want r1? c0's edges:
        // (1, 0, 1.0); c1's: (0, 1, 1.0), (1, 1, 10.0). Optimal: c0–r1? No:
        // c0 can only use r1 (weight 1); c1 best on r1 (10). Optimal is
        // c1–r1 (10) + c0 unmatched? c0–r1 conflicts. c1–r0 (1) + c0–r1 (1)
        // = 2 < 10 + 0. So 10... plus c0 cannot match r0 (edge deleted).
        assert_eq!(rep.weight, 10.0);
        assert!((oracle_weight(&wm) - rep.weight).abs() < 1e-9);
    }

    #[test]
    fn randomized_churn_matches_cold_oracle_every_batch() {
        // Integer weights + ε < 1/(n+1): incremental and cold-solved
        // weights must agree exactly at every step, and the ε-CS
        // certificate must hold (full_verify panics otherwise).
        let (n1, n2) = (14usize, 12usize);
        let mut wm =
            WDynMatching::new(n1, n2, WDynOptions { full_verify: true, ..Default::default() });
        let mut live: Vec<(Vidx, Vidx)> = Vec::new();
        let mut rng = SplitMix64::new(0xD11);
        for step in 0..120 {
            let mut batch = Vec::new();
            for _ in 0..1 + rng.below(4) {
                if !live.is_empty() && rng.below(4) == 0 {
                    let k = rng.below(live.len() as u64) as usize;
                    let (r, c) = live.swap_remove(k);
                    batch.push(WUpdate::Delete(r, c));
                } else {
                    let r = rng.below(n1 as u64) as Vidx;
                    let c = rng.below(n2 as u64) as Vidx;
                    let w = (rng.below(40) + 1) as f64;
                    if !live.contains(&(r, c)) {
                        live.push((r, c));
                    }
                    batch.push(WUpdate::Insert(r, c, w));
                }
            }
            wm.apply_batch(&batch);
            let want = oracle_weight(&wm);
            assert!(
                (wm.weight() - want).abs() < 1e-9,
                "step {step}: incremental {} vs cold oracle {want}",
                wm.weight()
            );
        }
        assert!(wm.stats().incremental_batches > 0, "churn must exercise the warm path");
    }

    #[test]
    fn reweighting_the_matched_edge_downward_reroutes() {
        let mut wm = WDynMatching::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 10.0), (0, 1, 9.0), (1, 0, 9.0), (1, 1, 10.0)],
            WDynOptions { full_verify: true, ..Default::default() },
        );
        assert_eq!(wm.weight(), 20.0);
        // Crush the heavy diagonal: the cross pairing (9 + 9) now wins.
        let rep = wm.apply_batch(&[WUpdate::Insert(0, 0, 1.0), WUpdate::Insert(1, 1, 1.0)]);
        assert_eq!(rep.weight, 18.0);
        assert!((oracle_weight(&wm) - 18.0).abs() < 1e-9);
    }

    #[test]
    fn hub_deletes_dirtying_a_quarter_of_the_columns_stay_incremental() {
        // RMAT-like skew: row r is drawn as n1·u³, so the low rows are hubs
        // adjacent to most columns, and there are more columns than rows,
        // so many columns sit retired (unmatched) at the load-time prices.
        let (n1, n2) = (64usize, 160usize);
        let mut rng = SplitMix64::new(0x4B5);
        let mut entries = Vec::new();
        for c in 0..n2 as Vidx {
            let mut rows: Vec<Vidx> = (0..4)
                .map(|_| {
                    let u = rng.below(1 << 20) as f64 / (1 << 20) as f64;
                    (n1 as f64 * u * u * u) as Vidx
                })
                .collect();
            rows.sort_unstable();
            rows.dedup();
            for r in rows {
                entries.push((r, c, (rng.below(30) + 1) as f64));
            }
        }
        let mut wm = WDynMatching::from_weighted_triples(
            n1,
            n2,
            entries,
            WDynOptions { full_verify: true, ..Default::default() },
        );
        // Free every matched hub: each freed row's price resets to 0 and
        // re-dirties its whole neighbourhood.
        let batch: Vec<WUpdate> = (0..4)
            .filter_map(|r| {
                let c = wm.matching().mate_r.get(r);
                (c != NIL).then_some(WUpdate::Delete(r, c))
            })
            .collect();
        let rep = wm.apply_batch(&batch);
        assert!(rep.matched_deletes >= 3, "{rep:?}");
        assert!(
            4 * rep.dirty > n2,
            "hub deletes must dirty over a quarter of the columns: {rep:?}"
        );
        assert!(!rep.cold, "cheap repair must not cold-solve: {rep:?}");
        assert!(rep.rebids < rep.budget, "{rep:?}");
        assert_eq!(rep.weight, oracle_weight(&wm));
    }

    #[test]
    fn price_war_exhausts_the_bid_budget_and_cold_solves() {
        // Many columns, few rows, equal weights: a re-auction at the
        // final ε raises a price ε per bid, ~rows·w/ε bids in all, while
        // the ε-scaled cold solve settles the same instance in far fewer.
        // An engine built empty budgets one bid per column.
        let (n1, n2, w) = (5usize, 65usize, 10.0);
        let mut wm =
            WDynMatching::new(n1, n2, WDynOptions { full_verify: true, ..Default::default() });
        let mut batch = Vec::new();
        for r in 0..4 as Vidx {
            for c in 0..64 as Vidx {
                batch.push(WUpdate::Insert(r, c, w));
            }
        }
        let rep = wm.apply_batch(&batch);
        assert_eq!(rep.budget, n2);
        assert_eq!(rep.rebids, n2, "the re-auction stops exactly at its budget");
        assert!(rep.cold, "{rep:?}");
        assert_eq!(wm.stats().budget_exhausted, 1);
        assert_eq!(wm.stats().cold_solves, 1);
        assert_eq!(rep.weight, 4.0 * w);
        assert_eq!(rep.weight, oracle_weight(&wm));
        wm.verify_full().expect("eps-CS certificate after the cold solve");
        // A tiny follow-up stays incremental, under the budget the cold
        // solve just measured.
        let rep = wm.apply_batch(&[WUpdate::Insert(4, 64, 4.0)]);
        assert!(!rep.cold, "{rep:?}");
        assert!(rep.budget > n2, "the cold solve's bid count becomes the budget: {rep:?}");
        assert_eq!(rep.weight, 4.0 * w + 4.0);
        assert_eq!(wm.stats().budget_exhausted, 1);
        assert!(wm.stats().incremental_batches >= 1);
    }

    #[test]
    fn deleting_unmatched_edges_is_free() {
        let mut wm = WDynMatching::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 10.0), (1, 0, 1.0), (1, 1, 10.0)],
            WDynOptions { full_verify: true, ..Default::default() },
        );
        assert_eq!(wm.weight(), 20.0);
        let rep = wm.apply_batch(&[WUpdate::Delete(1, 0)]);
        assert_eq!(rep.applied, 1);
        assert_eq!(rep.dirty, 0, "unmatched-edge deletes must not dirty anything");
        assert_eq!(rep.weight, 20.0);
    }

    #[test]
    fn no_op_updates_do_nothing() {
        let mut wm = WDynMatching::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 7.0)],
            WDynOptions { full_verify: true, ..Default::default() },
        );
        let rep = wm.apply_batch(&[
            WUpdate::Insert(0, 0, 7.0), // same weight: no-op
            WUpdate::Delete(1, 1),      // not present: no-op
        ]);
        assert_eq!(rep.applied, 0);
        assert_eq!(rep.weight, 7.0);
    }

    #[test]
    fn snapshot_is_isolated_from_later_batches() {
        let mut wm =
            WDynMatching::from_weighted_triples(2, 2, vec![(0, 0, 4.0)], WDynOptions::default());
        let snap = wm.snapshot_state();
        wm.apply_batch(&[WUpdate::Insert(1, 1, 9.0)]);
        assert_eq!(snap.weight, 4.0);
        assert_eq!(snap.nnz(), 1);
        assert_eq!(wm.weight(), 13.0);
    }
}
