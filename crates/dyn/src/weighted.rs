//! Weight-aware incremental matching: price-carrying auction repair.
//!
//! The weighted sibling of [`crate::engine::DynMatching`]. Where the
//! cardinality engine repairs with alternating BFS from dirty vertices,
//! this engine exploits the auction's dual structure: the row **prices**
//! are a certificate that survives most updates untouched. Columns bid
//! for rows; a matched column's profit is `π_c = w(r_c, c) − p_{r_c}`,
//! an unmatched column's is 0. The engine caches each column's matched
//! weight and profit, so `π_c` is O(1) and the matching weight stays
//! current without a rescan. A batch only invalidates ε-complementary-slackness
//! locally —
//!
//! * an inserted or re-weighted edge `(r, c, w)` changes column `c`'s
//!   candidate set. On a matched column a new candidate is tested in
//!   O(1) as `w − p_r > π_c + ε`; only a lighter matched edge forces a
//!   rescan of the column;
//! * deleting a *matched* edge unmatches both ends. The freed row keeps
//!   its price for now, so no other column's condition changes, but an
//!   unmatched row must end the batch at price 0 (dual feasibility);
//! * deleting an unmatched edge only shrinks a column's candidate set,
//!   which cannot violate any ε-CS condition — no work at all.
//!
//! [`WDynMatching::apply_batch`] repairs in five phases
//! ([`WDynMatching::stage`] runs the first, once per run of updates, and
//! [`WDynMatching::close`] the rest):
//!
//! 1. **Stage** the updates, collecting dirty columns and freed rows.
//! 2. **Check** ε-CS on the dirty columns. A violating matched column is
//!    unmatched and its row joins the freed rows *at its current price*.
//!    Nothing resets to 0 and nothing fans out.
//! 3. **Forward 1.** A serial forward auction from the unmatched dirty
//!    columns at the current prices. Freed rows can be won back here.
//! 4. **Reverse.** Each freed row still unmatched at a positive price
//!    makes a reverse bid (Bertsekas & Castañon's forward/reverse
//!    auction): with `β` and `ω` its best and second-best `w(r, c) − π_c`
//!    (`ω` floored at 0, the unmatched option), it takes the arg-max
//!    column at price `max(0, ω − ε)`, displacing that column's row into
//!    the freed queue; with `β ≤ 0` it retires at price 0. Unmatched
//!    neighbours that the lower price tempts become forward seeds.
//! 5. **Forward 2** from those seeds. Forward bids only raise prices and
//!    never free a row, so the repair ends here.
//!
//! The order matters. A reverse bid reads every `π_c` as a true profit,
//! which holds only once the forward auction has restored ε-CS on every
//! column. Then each neighbour `c` of a freed row `r` satisfies
//! `w(r, c) − π_c ≤ p_r + ε`, so `ω − ε ≤ p_r` and a reverse bid never
//! raises a price. A lower price only makes `r` more attractive, and `ω`
//! bounds how much, so every matched neighbour keeps its ε-CS; only
//! unmatched neighbours (profit 0 with no slack) can be tempted, and
//! they are exactly the forward seeds.
//!
//! Every batch runs this repair under one **bid budget**, shared by
//! forward and reverse bids, that the engine measures itself: the bid
//! count of its most recent cold solve
//! ([`mcm_core::weighted::WeightedResult::bids`]), floored at one bid per
//! column. The repair bids at the final ε only, so an adversarial batch
//! (a price war among near-equal bids) can cost far more than the
//! ε-scaled cold solve; once it spends the budget it stops, its partial
//! state is discarded, and the batch cold-solves with
//! [`mcm_core::weighted::auction_mwm_par`] ([`WBatchReport::cold`],
//! [`WDynStats::budget_exhausted`]). A batch thus costs at most about
//! two cold solves, and one that is cheap to repair never pays for one.
//! Either way the result satisfies the same ε-CS certificate the static
//! engines carry ([`mcm_core::verify::verify_eps_cs`]), with ε fixed at
//! the exactness bound `1/(2·(n1+1))` so integer-weight instances stay
//! exactly optimal across arbitrary update histories.

use crate::engine::Update;
use crate::graph::DynGraph;
use crate::phase::{Phase, PhaseClock};
use mcm_core::verify::{verify_eps_cs, VerifyError};
use mcm_core::weighted::{auction_mwm_par, AuctionOptions};
use mcm_core::Matching;
use mcm_sparse::{Vidx, WCsc, NIL};
use std::collections::VecDeque;

/// One weighted point update. `Insert` on a live edge re-weights it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WUpdate {
    /// Insert (or re-weight) edge `(row, col)` with the given weight.
    Insert(Vidx, Vidx, f64),
    /// Delete edge `(row, col)` if present.
    Delete(Vidx, Vidx),
}

/// The cardinality view of a weighted update: the weight is dropped.
impl From<WUpdate> for Update {
    fn from(u: WUpdate) -> Update {
        match u {
            WUpdate::Insert(r, c, _) => Update::Insert(r, c),
            WUpdate::Delete(r, c) => Update::Delete(r, c),
        }
    }
}

/// Tunables of the weighted incremental engine.
#[derive(Clone, Copy, Debug)]
pub struct WDynOptions {
    /// Ignored by the weighted engine, which always repairs
    /// incrementally first and falls back to a cold solve only when the
    /// repair exhausts its measured bid budget. Kept so existing
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
    /// Matched columns unmatched by the ε-CS check (violators).
    pub repaired: usize,
    /// Bids of the incremental repair, forward and reverse together.
    pub rebids: usize,
    /// The reverse bids among `rebids` (freed rows lowering their price).
    pub reverse_bids: usize,
    /// Bid budget the repair ran under (the last cold solve's bid
    /// count, at least one bid per column).
    pub budget: usize,
    /// `true` when the repair spent its whole budget and the batch
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
    /// Incremental repair bids (forward and reverse) across all batches.
    pub rebids: u64,
    /// Reverse bids among `rebids`.
    pub reverse_bids: u64,
    /// Batches repaired incrementally.
    pub incremental_batches: u64,
    /// Batches that cold-solved.
    pub cold_solves: u64,
    /// Batches whose repair exhausted its bid budget.
    pub budget_exhausted: u64,
    /// Sum of positive per-batch weight deltas.
    pub weight_gained: f64,
    /// Sum of negative per-batch weight deltas (as a positive number).
    pub weight_lost: f64,
    /// The last batch's report.
    pub last: WBatchReport,
}

/// The scalars of the weighted engine state that reads answer from
/// (matching weight and cardinality, edge count, epoch, counters): what a
/// server publishes per batch, in O(1). No graph is copied.
#[derive(Clone, Debug)]
pub struct WStateSnapshot {
    /// Counters at snapshot time.
    pub stats: WDynStats,
    /// Matching cardinality at snapshot time.
    pub cardinality: usize,
    /// Matching weight at snapshot time.
    pub weight: f64,
    /// Live edge count at snapshot time.
    pub nnz: usize,
    /// Compaction epoch at snapshot time.
    pub epoch: u64,
}

const TOL: f64 = 1e-12;

/// Bids spent against one batch's budget, shared by forward and reverse
/// bids.
struct Bids {
    spent: usize,
    reverse: usize,
    limit: usize,
}

/// The repair spent its whole budget; its partial state must be replaced
/// by a cold solve.
struct Exhausted;

impl Bids {
    fn take(&mut self) -> Result<(), Exhausted> {
        if self.spent == self.limit {
            return Err(Exhausted);
        }
        self.spent += 1;
        Ok(())
    }
}

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
    /// candidates (the forward-bid direction), `g.rows()` a row's
    /// `(column, weight)` entries (the reverse-bid direction).
    g: DynGraph<f64>,
    m: Matching,
    prices: Vec<f64>,
    /// Weight of each column's matched edge (valid where matched).
    mate_w: Vec<f64>,
    /// Each column's profit `π_c`: `mate_w[c] − p_{r_c}` when matched, 0
    /// when not. Set wherever a match or a matched row's price changes,
    /// so a reverse bid reads one entry per neighbour.
    profit: Vec<f64>,
    eps: f64,
    opts: WDynOptions,
    stats: WDynStats,
    /// Matching weight, kept current on every match and unmatch.
    weight: f64,
    /// Bids of the most recent cold solve (0 before the first one).
    cold_bids: usize,
    // Generation-stamped per-batch scratch: a column is dirty in the
    // current batch when `col_stamp[c] == stamp`, and `new_best[c]` is
    // then the best net value `w − p_r` among the edges the batch
    // inserted or re-weighted into it (−∞ for none, +∞ when the column
    // must be rescanned). The reverse step starts a second generation in
    // which the stamps mark queued forward seeds. Nothing is cleared
    // between batches.
    stamp: u32,
    col_stamp: Vec<u32>,
    new_best: Vec<f64>,
    /// Neighbours `(c, w(r, c))` at profit 0 (the unmatched ones among
    /// them) of the row making a reverse bid; reused across bids.
    open: Vec<(Vidx, f64)>,
    /// The open batch's phase-1 output, kept between
    /// [`WDynMatching::stage`] and [`WDynMatching::close`].
    staged: WStaged,
}

/// What [`WDynMatching::stage`] hands to [`WDynMatching::close`].
#[derive(Default)]
struct WStaged {
    /// A batch is open: its scratch generation has been started.
    open: bool,
    /// Matching weight when the batch opened.
    weight_before: f64,
    /// `applied`, `inserts`, `deletes` and `matched_deletes` so far.
    rep: WBatchReport,
    /// Columns whose ε-CS the batch may have broken, each once.
    dirty: Vec<Vidx>,
    /// Rows freed by matched deletions, at their current prices.
    freed: VecDeque<Vidx>,
    /// Wall time spent staging.
    ns: u64,
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
            mate_w: vec![0.0; n2],
            profit: vec![0.0; n2],
            eps: 1.0 / (2.0 * (n1 as f64 + 1.0)),
            opts,
            stats: WDynStats::default(),
            weight: 0.0,
            cold_bids: 0,
            stamp: 0,
            col_stamp: vec![0; n2],
            new_best: vec![0.0; n2],
            open: Vec::new(),
            staged: WStaged::default(),
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

    /// The engine state's scalars for publication (see
    /// [`WStateSnapshot`]); O(1).
    pub fn snapshot_state(&self) -> WStateSnapshot {
        WStateSnapshot {
            stats: self.stats.clone(),
            cardinality: self.m.cardinality(),
            weight: self.weight,
            nnz: self.nnz(),
            epoch: self.epoch(),
        }
    }

    /// Full independent ε-CS verification of the current state (O(nnz)).
    pub fn verify_full(&self) -> Result<(), VerifyError> {
        verify_eps_cs(&self.g.cols().to_wcsc(), &self.m, &self.prices, self.eps)
    }

    /// Applies a batch of weighted updates and repairs the matching:
    /// [`stage`](Self::stage) then [`close`](Self::close).
    pub fn apply_batch(&mut self, batch: &[WUpdate]) -> WBatchReport {
        let _span = mcm_obs::span("wdyn_apply_batch");
        self.stage(batch);
        self.close()
    }

    /// Phase 1 of a batch: applies `batch` to the graph, unmatches
    /// matched deletions and collects the dirty columns and freed rows.
    /// Nothing is repaired until [`close`](Self::close), so a batch may be
    /// staged in any number of runs: staging it in pieces and closing
    /// once gives the same matching, prices and report as one
    /// [`apply_batch`](Self::apply_batch).
    pub fn stage(&mut self, batch: &[WUpdate]) {
        let _span = mcm_obs::span("wdyn_stage");
        let sw = mcm_obs::Stopwatch::new();
        self.open_batch();
        let mut st = std::mem::take(&mut self.staged);
        // No price moves before the repair, so a new candidate's net
        // value is final when it arrives.
        for &u in batch {
            match u {
                WUpdate::Insert(r, c, w) => {
                    if self.g.cols().value(r, c) == Some(w) {
                        continue; // pure no-op
                    }
                    self.g.insert(r, c, w);
                    st.rep.applied += 1;
                    st.rep.inserts += 1;
                    self.mark_dirty(&mut st.dirty, c);
                    let j = c as usize;
                    if self.m.mate_c.get(c) == r {
                        // Re-weighting the matched edge moves π_c itself:
                        // heavier only strengthens c's ε-CS, lighter needs
                        // a rescan.
                        if w < self.mate_w[j] {
                            self.new_best[j] = f64::INFINITY;
                        }
                        self.weight += w - self.mate_w[j];
                        self.mate_w[j] = w;
                        self.profit[j] = w - self.prices[r as usize];
                    } else {
                        self.new_best[j] = self.new_best[j].max(w - self.prices[r as usize]);
                    }
                }
                WUpdate::Delete(r, c) => {
                    if !self.g.delete(r, c) {
                        continue;
                    }
                    st.rep.applied += 1;
                    st.rep.deletes += 1;
                    if self.m.mate_c.get(c) == r {
                        st.rep.matched_deletes += 1;
                        self.unmatch(c, r);
                        st.freed.push_back(r);
                        self.mark_dirty(&mut st.dirty, c);
                        self.new_best[c as usize] = f64::INFINITY;
                    }
                    // Deleting an unmatched edge only shrinks a candidate
                    // set — every ε-CS condition gets weaker. No work.
                }
            }
        }
        st.ns += sw.elapsed_ns();
        self.staged = st;
    }

    /// Closes the staged batch (phases 2–5): checks ε-CS on its dirty
    /// columns, re-auctions, and accounts. Closing with nothing staged is
    /// an empty batch.
    pub fn close(&mut self) -> WBatchReport {
        let _span = mcm_obs::span("wdyn_close");
        self.open_batch();
        let mut st = std::mem::take(&mut self.staged);
        let mut phases = PhaseClock::new(st.ns);
        let mut rep = std::mem::take(&mut st.rep);
        let mut freed = std::mem::take(&mut st.freed);

        // --- Check: ε-CS on the dirty columns. A violator is unmatched
        // and its row freed at its current price, so no other column's
        // condition changes and nothing fans out.
        let mut seeds: Vec<Vidx> = Vec::new();
        rep.dirty = st.dirty.len();
        for &c in &st.dirty {
            let j = c as usize;
            let r = self.m.mate_c.get(c);
            if r == NIL {
                // Every old candidate of an unmatched column was already
                // unprofitable; only the batch's new ones can tempt it.
                if self.new_best[j] > TOL && self.g.col_degree(c) > 0 {
                    seeds.push(c);
                }
                continue;
            }
            let best = if self.new_best[j] == f64::INFINITY {
                let mut best = f64::NEG_INFINITY;
                self.g.cols().for_each_in_col(c, |r2, w| {
                    best = best.max(w - self.prices[r2 as usize]);
                });
                best
            } else {
                self.new_best[j]
            };
            if self.profit[j] + self.eps < best.max(0.0) - TOL {
                self.unmatch(c, r);
                freed.push_back(r);
                seeds.push(c);
                rep.repaired += 1;
            }
        }

        // --- Forward 1, reverse, forward 2 under one bid budget.
        rep.budget = self.bid_budget();
        let mut bids = Bids { spent: 0, reverse: 0, limit: rep.budget };
        let exhausted = self.repair(seeds, freed, &mut bids).is_err();
        rep.rebids = bids.spent;
        rep.reverse_bids = bids.reverse;
        phases.lap(Phase::Local);
        if exhausted {
            // The repair's partial matching and prices are overwritten
            // wholesale by the cold solve.
            rep.cold = true;
            self.cold_solve();
        }
        phases.lap(Phase::Fallback);

        // --- Account + certify. -----------------------------------------
        rep.weight = self.weight;
        rep.weight_delta = self.weight - st.weight_before;
        rep.cardinality = self.m.cardinality();
        if self.opts.full_verify {
            self.verify_full().expect("post-batch eps-CS certificate");
            self.assert_cached_weights();
        }

        self.stats.batches += 1;
        self.stats.updates += rep.applied as u64;
        self.stats.inserts += rep.inserts as u64;
        self.stats.deletes += rep.deletes as u64;
        self.stats.matched_deletes += rep.matched_deletes as u64;
        self.stats.dirty_bidders += rep.dirty as u64;
        self.stats.rebids += rep.rebids as u64;
        self.stats.reverse_bids += rep.reverse_bids as u64;
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
        phases.lap(Phase::Certify);
        if mcm_obs::metrics_enabled() {
            let strategy = if rep.cold { "cold" } else { "incremental" };
            let labels = [("strategy", strategy)];
            mcm_obs::counter_add("mcm_wdyn_batches_total", &labels, 1);
            mcm_obs::counter_add("mcm_wdyn_budget_exhausted_total", &[], rep.cold as u64);
            mcm_obs::counter_add("mcm_wdyn_updates_total", &labels, rep.applied as u64);
            mcm_obs::counter_add("mcm_wdyn_rebids_total", &labels, rep.rebids as u64);
            mcm_obs::counter_add("mcm_wdyn_reverse_bids_total", &labels, rep.reverse_bids as u64);
            mcm_obs::observe_ns("mcm_wdyn_batch_seconds", &labels, phases.total_ns());
            mcm_obs::gauge_set("mcm_matching_weight", &[], self.weight);
            phases.observe(false);
        }
        self.stats.last = rep.clone();
        st.dirty.clear();
        st.ns = 0;
        st.open = false;
        self.staged = st;
        rep
    }

    /// Opens a batch at its first stage (or at a close with nothing
    /// staged): a fresh scratch generation and the weight to diff against.
    fn open_batch(&mut self) {
        if !self.staged.open {
            self.bump_stamp();
            self.staged.open = true;
            self.staged.weight_before = self.weight;
        }
    }

    /// The repair's bid budget: what the last cold solve spent, and at
    /// least one bid per column (an engine built empty has no cold solve
    /// to measure yet).
    fn bid_budget(&self) -> usize {
        self.cold_bids.max(self.g.n2())
    }

    /// The three bidding phases, in the order the module doc argues for:
    /// the forward pass restores ε-CS on every column before any reverse
    /// bid reads a profit.
    fn repair(
        &mut self,
        seeds: Vec<Vidx>,
        freed: VecDeque<Vidx>,
        bids: &mut Bids,
    ) -> Result<(), Exhausted> {
        self.forward(seeds, bids)?;
        let seeds = self.reverse(freed, bids)?;
        self.forward(seeds, bids)
    }

    /// Serial forward auction from the current prices, seeded with
    /// unmatched columns. Evicted owners re-enter the queue; a bidder
    /// whose best net value is negative retires (prices only rise, so its
    /// retirement stays certified). A seed that is already matched when
    /// it comes up (queued twice) makes no bid.
    fn forward(&mut self, seeds: Vec<Vidx>, bids: &mut Bids) -> Result<(), Exhausted> {
        let _span = mcm_obs::span("wdyn_reauction");
        let mut queue: VecDeque<Vidx> = seeds.into();
        while let Some(c) = queue.pop_front() {
            if self.m.mate_c.get(c) != NIL {
                continue;
            }
            bids.take()?;
            let mut best: Option<(f64, Vidx, f64)> = None;
            let mut second = f64::NEG_INFINITY;
            self.g.cols().for_each_in_col(c, |r, w| {
                let net = w - self.prices[r as usize];
                match best {
                    None => best = Some((net, r, w)),
                    Some((bn, _, _)) if net > bn => {
                        second = bn;
                        best = Some((net, r, w));
                    }
                    Some(_) => second = second.max(net),
                }
            });
            let Some((best_net, r, w)) = best else { continue };
            if best_net < 0.0 {
                continue; // retire
            }
            let price = self.prices[r as usize] + (best_net - second.max(0.0)) + self.eps;
            let prev = self.m.mate_r.get(r);
            if prev != NIL {
                self.unmatch(prev, r);
                queue.push_back(prev);
            }
            self.set_match(c, r, w, price);
        }
        Ok(())
    }

    /// Reverse bids for the freed rows still unmatched at a positive
    /// price. Row `r` takes the column `c` with the best
    /// `β = w(r, c) − π_c` at price `max(0, ω − ε)` (`ω` the second best,
    /// floored at 0), or retires at price 0 when `β ≤ 0`. A displaced row
    /// re-enters the queue. Returns the unmatched columns that the lower
    /// prices made profitable: the seeds of the second forward pass.
    fn reverse(
        &mut self,
        mut freed: VecDeque<Vidx>,
        bids: &mut Bids,
    ) -> Result<Vec<Vidx>, Exhausted> {
        let _span = mcm_obs::span("wdyn_reverse");
        // A fresh generation: the column stamps now mark queued seeds.
        self.bump_stamp();
        let mut seeds = Vec::new();
        while let Some(r) = freed.pop_front() {
            let p = self.prices[r as usize];
            if self.m.mate_r.get(r) != NIL || p <= 0.0 {
                continue; // won back by a forward bid, or already feasible
            }
            bids.take()?;
            bids.reverse += 1;
            let mut best: Option<(f64, Vidx, f64)> = None;
            let mut second = 0.0f64;
            let Self { g, profit, open, .. } = self;
            open.clear();
            g.rows().for_each_in_col(r, |c, w| {
                let pi = profit[c as usize];
                if pi == 0.0 {
                    open.push((c, w)); // possibly unmatched: a seed candidate
                }
                let v = w - pi;
                match best {
                    None => best = Some((v, c, w)),
                    Some((bv, _, _)) if v > bv => {
                        second = second.max(bv);
                        best = Some((v, c, w));
                    }
                    Some(_) => second = second.max(v),
                }
            });
            match best {
                Some((beta, c, w)) if beta > TOL => {
                    let price = (second - self.eps).max(0.0);
                    debug_assert!(
                        price <= p + 1e-9 * (1.0 + second.abs()),
                        "a reverse bid raised row {r}'s price: {p} -> {price}"
                    );
                    let prev = self.m.mate_c.get(c);
                    if prev != NIL {
                        self.unmatch(c, prev);
                        freed.push_back(prev);
                    }
                    self.set_match(c, r, w, price);
                    let Self { m, open, col_stamp, stamp, .. } = self;
                    for &(c2, w2) in open.iter() {
                        let j = c2 as usize;
                        if w2 - price > TOL && m.mate_c.get(c2) == NIL && col_stamp[j] != *stamp {
                            col_stamp[j] = *stamp;
                            seeds.push(c2);
                        }
                    }
                }
                _ => self.prices[r as usize] = 0.0, // retire
            }
        }
        Ok(seeds)
    }

    /// Matches column `c` to row `r` over an edge of weight `w`, with
    /// `r` priced at `price`.
    fn set_match(&mut self, c: Vidx, r: Vidx, w: f64, price: f64) {
        self.m.mate_c.set(c, r);
        self.m.mate_r.set(r, c);
        self.prices[r as usize] = price;
        self.mate_w[c as usize] = w;
        self.profit[c as usize] = w - price;
        self.weight += w;
    }

    fn unmatch(&mut self, c: Vidx, r: Vidx) {
        self.m.mate_c.set(c, NIL);
        self.m.mate_r.set(r, NIL);
        self.profit[c as usize] = 0.0;
        self.weight -= self.mate_w[c as usize];
    }

    /// Starts a batch's scratch generation; on wraparound the stamps are
    /// cleared so no stale entry reads as current.
    fn bump_stamp(&mut self) {
        if self.stamp == u32::MAX {
            self.col_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    fn mark_dirty(&mut self, dirty: &mut Vec<Vidx>, c: Vidx) {
        let j = c as usize;
        if self.col_stamp[j] != self.stamp {
            self.col_stamp[j] = self.stamp;
            self.new_best[j] = f64::NEG_INFINITY;
            dirty.push(c);
        }
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
        self.weight = 0.0;
        for c in 0..self.g.n2() as Vidx {
            let (j, r) = (c as usize, self.m.mate_c.get(c));
            self.profit[j] = 0.0;
            if r != NIL {
                self.mate_w[j] = self.g.cols().value(r, c).expect("matched edge must be live");
                self.profit[j] = self.mate_w[j] - self.prices[r as usize];
                self.weight += self.mate_w[j];
            }
        }
    }

    /// Panics unless the cached matched weights, profits and total agree
    /// with the graph and prices (`full_verify` only: O(n2) lookups).
    fn assert_cached_weights(&self) {
        let mut fresh = 0.0;
        for c in 0..self.g.n2() as Vidx {
            let (j, r) = (c as usize, self.m.mate_c.get(c));
            if r == NIL {
                assert_eq!(self.profit[j], 0.0, "profit of unmatched column {c}");
                continue;
            }
            let w = self.g.cols().value(r, c).expect("matched edge must be live");
            fresh += w;
            assert_eq!(self.mate_w[j], w, "cached weight of column {c}'s matched edge");
            assert_eq!(self.profit[j], w - self.prices[r as usize], "cached profit of column {c}");
        }
        assert!(
            (self.weight - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
            "cached matching weight {} drifted from {fresh}",
            self.weight
        );
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
    fn hub_deletes_repair_without_a_cascade() {
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
        // Free every matched hub. A freed row keeps its price until a
        // reverse bid lowers it, so no neighbourhood is re-dirtied.
        let batch: Vec<WUpdate> = (0..4)
            .filter_map(|r| {
                let c = wm.matching().mate_r.get(r);
                (c != NIL).then_some(WUpdate::Delete(r, c))
            })
            .collect();
        let rep = wm.apply_batch(&batch);
        assert!(rep.matched_deletes >= 3, "{rep:?}");
        assert!(4 * rep.dirty <= n2, "hub deletes must not cascade: {rep:?}");
        assert_eq!(rep.repaired, 0, "a delete-only batch has no ε-CS violators: {rep:?}");
        assert!(rep.rebids < n2 / 4, "{rep:?}");
        assert!(!rep.cold, "cheap repair must not cold-solve: {rep:?}");
        assert!(rep.rebids < rep.budget, "{rep:?}");
        assert_eq!(rep.weight, oracle_weight(&wm));
    }

    #[test]
    fn price_war_exhausts_the_bid_budget_and_cold_solves() {
        // Many columns, few rows, equal weights: each forward bid at the
        // final ε raises a price by ε, ~rows·w/ε bids in all, while
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
        assert_eq!(rep.rebids, n2, "the repair stops exactly at its budget");
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
    fn reverse_bids_chain_through_a_displaced_row() {
        // c0–r0 (10) and c1–r1 (5) are matched and c2 sits unmatched:
        // r1 must price itself out of c2 (p1 ≥ 3), and c1 must prefer r1,
        // so r0's price is positive too.
        let mut wm = WDynMatching::from_weighted_triples(
            2,
            3,
            vec![(0, 0, 10.0), (0, 1, 8.0), (1, 1, 5.0), (1, 2, 3.0)],
            WDynOptions { full_verify: true, ..Default::default() },
        );
        assert_eq!(wm.weight(), 15.0);
        assert!(wm.prices()[0] > 0.0 && wm.prices()[1] > 0.0, "{:?}", wm.prices());
        // c0 loses its only edge, so no forward bid can win r0 back: r0
        // bids in reverse for c1, displacing r1, which takes c2.
        let rep = wm.apply_batch(&[WUpdate::Delete(0, 0)]);
        assert_eq!(rep.reverse_bids, 2, "{rep:?}");
        assert_eq!(rep.rebids, 2, "{rep:?}");
        assert_eq!(wm.matching().mate_c.get(1), 0);
        assert_eq!(wm.matching().mate_c.get(2), 1);
        assert_eq!(rep.weight, 11.0);
        assert_eq!(rep.weight, oracle_weight(&wm));
    }

    #[test]
    fn a_freed_row_with_no_profitable_column_retires_at_price_zero() {
        let mut wm = WDynMatching::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 10.0), (0, 1, 4.0), (1, 1, 6.0)],
            WDynOptions { full_verify: true, ..Default::default() },
        );
        assert_eq!(wm.weight(), 16.0);
        assert!(wm.prices()[0] > 0.0);
        // Making c1's matched edge heavy lifts π_c1 above w(r0, c1), so
        // once r0 is freed no column is worth a reverse bid.
        let rep = wm.apply_batch(&[WUpdate::Insert(1, 1, 100.0), WUpdate::Delete(0, 0)]);
        assert_eq!(rep.repaired, 0, "a heavier matched edge needs no repair: {rep:?}");
        assert_eq!(rep.reverse_bids, 1, "{rep:?}");
        assert_eq!(rep.rebids, 1, "{rep:?}");
        assert!(!wm.matching().row_matched(0));
        assert_eq!(wm.prices()[0], 0.0);
        assert_eq!(wm.matching().mate_c.get(1), 1);
        assert_eq!(rep.weight, 100.0);
        assert_eq!(rep.weight, oracle_weight(&wm));
    }

    #[test]
    fn a_lighter_matched_edge_is_won_back_by_its_freed_row() {
        let mut wm = WDynMatching::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 10.0), (1, 0, 7.0), (1, 1, 8.0)],
            WDynOptions { full_verify: true, ..Default::default() },
        );
        assert_eq!(wm.weight(), 18.0);
        assert!(wm.prices()[0] > 1.0, "{:?}", wm.prices());
        // At weight 1 the matched edge is under water: c0 is unmatched
        // and bids nowhere, so r0 lowers its price and takes c0 back.
        let rep = wm.apply_batch(&[WUpdate::Insert(0, 0, 1.0)]);
        assert_eq!(rep.repaired, 1, "{rep:?}");
        assert!(rep.reverse_bids >= 1, "{rep:?}");
        assert_eq!(wm.matching().mate_c.get(0), 0);
        assert_eq!(wm.matching().mate_c.get(1), 1);
        assert_eq!(rep.weight, 9.0);
        assert_eq!(rep.weight, oracle_weight(&wm));
    }

    #[test]
    fn a_reverse_price_war_exhausts_the_budget_and_cold_solves() {
        // Three rows hold private columns at price 20 + ε; two shared
        // columns of weight 10 stay unmatched beneath those prices. An
        // engine built empty budgets one bid per column: 5.
        let mut wm =
            WDynMatching::new(3, 5, WDynOptions { full_verify: true, ..Default::default() });
        let private: Vec<WUpdate> = (0..3).map(|r| WUpdate::Insert(r, 2 + r, 20.0)).collect();
        let rep = wm.apply_batch(&private);
        assert!(!rep.cold, "{rep:?}");
        let shared: Vec<WUpdate> = (0..3)
            .flat_map(|r| [WUpdate::Insert(r, 0, 10.0), WUpdate::Insert(r, 1, 10.0)])
            .collect();
        let rep = wm.apply_batch(&shared);
        assert_eq!(rep.rebids, 0, "{rep:?}");
        // Freeing all three rows starts a reverse war over two columns:
        // each bid lowers a price by about ε, far past the budget.
        let frees: Vec<WUpdate> = (0..3).map(|r| WUpdate::Delete(r, 2 + r)).collect();
        let rep = wm.apply_batch(&frees);
        assert_eq!(rep.budget, 5);
        assert_eq!(rep.rebids, rep.budget, "{rep:?}");
        assert_eq!(rep.reverse_bids, rep.rebids, "the budget ran out inside the reverse step");
        assert!(rep.cold, "{rep:?}");
        assert_eq!(wm.stats().budget_exhausted, 1);
        assert_eq!(rep.weight, 20.0);
        assert_eq!(rep.weight, oracle_weight(&wm));
        wm.verify_full().expect("eps-CS certificate after the cold solve");
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
        assert_eq!(snap.nnz, 1);
        assert_eq!(wm.weight(), 13.0);
    }

    #[test]
    fn staging_in_runs_then_closing_equals_one_apply_batch() {
        // Inserts, re-weights, matched and unmatched deletes, split into
        // seeded runs (some empty): the staged engine must reach the same
        // mates, prices and report as the one that applied each batch
        // whole.
        let (n1, n2) = (24usize, 20usize);
        let mut rng = SplitMix64::new(0x57A6ED);
        let base: Vec<(Vidx, Vidx, f64)> = (0..70)
            .map(|_| {
                let (r, c) = (rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
                (r, c, (rng.below(20) + 1) as f64)
            })
            .collect();
        let o = WDynOptions { full_verify: true, ..Default::default() };
        let mut whole = WDynMatching::from_weighted_triples(n1, n2, base.clone(), o);
        let mut staged = WDynMatching::from_weighted_triples(n1, n2, base, o);
        for batch in 0..30 {
            let mut ops = Vec::new();
            for _ in 0..9 {
                let (r, c) = (rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
                let c_mate = whole.matching().mate_r.get(r);
                ops.push(match rng.below(4) {
                    0 if c_mate != NIL => WUpdate::Delete(r, c_mate),
                    1 => WUpdate::Delete(r, c),
                    _ => WUpdate::Insert(r, c, (rng.below(20) + 1) as f64),
                });
            }
            let want = whole.apply_batch(&ops);
            let mut cuts: Vec<usize> =
                (0..rng.below(4)).map(|_| rng.below(ops.len() as u64 + 1) as usize).collect();
            cuts.sort_unstable();
            let mut at = 0;
            for cut in cuts.into_iter().chain([ops.len()]) {
                staged.stage(&ops[at..cut]);
                at = cut;
            }
            let got = staged.close();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "batch {batch}");
            assert_eq!(staged.matching(), whole.matching(), "batch {batch}");
            assert_eq!(staged.prices(), whole.prices(), "batch {batch}");
        }
        assert_eq!(format!("{:?}", staged.stats()), format!("{:?}", whole.stats()));
    }
}
