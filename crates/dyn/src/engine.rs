//! `DynMatching`: incremental maximum-matching repair over a [`DynGraph`].
//!
//! The static MCM-DIST pipeline answers one question once; this engine
//! keeps the answer correct while the graph changes underneath it. The
//! insight is the paper's §V warm-start observation turned around: when a
//! batch of updates dirties only a few vertices, the stale matching is
//! still almost maximum, so repair is a handful of single-source
//! augmenting-path searches instead of a full solve.
//!
//! Per batch ([`DynMatching::apply_batch`]):
//!
//! 1. **Apply** every update to the graph. Deleting a *matched* edge
//!    unmatches it and marks both endpoints dirty; inserts are staged.
//! 2. **Classify** staged inserts on the post-batch graph: both endpoints
//!    free → match immediately; one free → that endpoint is dirty; both
//!    matched → an *interior* insert (the one case a local search can
//!    miss, because the new path threads through two matched vertices).
//! 3. **Switch** — mirroring the paper's `k < 2p²` path-vs-level
//!    parallelism rule: if the dirty set is larger than
//!    `fallback_threshold · (n1 + n2)`, run serial MS-BFS over the whole
//!    graph warm-started from the stale matching (the paper's §V warm
//!    start, [`mcm_core::serial::ms_bfs_serial`]); otherwise run one
//!    alternating BFS per dirty free vertex
//!    (column-rooted over `A`, row-rooted over `Aᵀ`), plus one global
//!    sweep per interior insert.
//!    A failed search marks the region it explored *dead* for the rest
//!    of the batch, and later searches from the same side skip it.
//! 4. **Certify** — a Berge check seeded at the still-free dirty vertices,
//!    one multi-source BFS per side (the running dirty-region
//!    certificate; fallback and global sweeps end with a full certificate
//!    instead, since their terminating search saw every free column).
//!
//! Correctness of locality: updates are applied to a *maximum* matching,
//! so every new augmenting path must use a freed vertex (it becomes an
//! endpoint — interior vertices of an alternating path are matched) or an
//! inserted edge. Searches rooted at the dirty free vertices cover the
//! former and the one-endpoint-free inserts; interior inserts get global
//! sweeps. Once a search from a free vertex fails, later augmentations
//! never create a path from it (the classic settled-vertex lemma), so
//! each dirty vertex is searched once. The same argument makes a failed
//! search's whole region dead: it is closed under the alternating step
//! and holds no free vertex on the far side, so no augmentation can enter
//! it before the batch ends, and skipping it changes no BFS outcome.
//! Certificates ignore dead marks, so they do not rest on that lemma.
//! `tests/dyn_oracle.rs` checks all of this differentially against
//! from-scratch Hopcroft–Karp.

use crate::graph::DynGraph;
use mcm_core::serial::{hopcroft_karp, ms_bfs_serial};
use mcm_core::verify::VerifyError;
use mcm_core::Matching;
use mcm_sparse::{Triples, Vidx, NIL};

/// One edge update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// Insert edge (row, col); a no-op when already live.
    Insert(Vidx, Vidx),
    /// Delete edge (row, col); a no-op when not live.
    Delete(Vidx, Vidx),
}

/// Tunables of the incremental engine.
#[derive(Clone, Copy, Debug)]
pub struct DynOptions {
    /// Dirty-set fraction of `n1 + n2` above which the engine falls back
    /// to a warm-started serial MS-BFS solve instead of per-vertex path
    /// repair (the analogue of the paper's `k < 2p²` switch between
    /// path- and level-parallel augmentation).
    pub fallback_threshold: f64,
    /// Re-verify the full matching (structure + global Berge) after every
    /// batch through `mcm-core::verify` on the materialized graph.
    /// Expensive; meant for harnesses and `mcmd --full-verify`.
    pub full_verify: bool,
}

impl Default for DynOptions {
    fn default() -> Self {
        Self { fallback_threshold: 0.25, full_verify: false }
    }
}

/// How far the per-batch Berge certificate reached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CertScope {
    /// Seeded only at the batch's still-free dirty vertices.
    #[default]
    DirtyRegion,
    /// Every free column was a seed (fallback and global sweeps terminate
    /// with a path-free full search).
    Full,
}

/// What one [`DynMatching::apply_batch`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchReport {
    /// Updates that changed the graph (no-ops excluded).
    pub applied: usize,
    /// Edge insertions applied.
    pub inserts: usize,
    /// Edge deletions applied.
    pub deletes: usize,
    /// Deletions that hit a matched edge (both endpoints freed).
    pub matched_deletes: usize,
    /// Inserted edges matched immediately (both endpoints were free).
    pub immediate_matches: usize,
    /// Dirty set size after classification: still-free freed endpoints,
    /// one-free-endpoint inserts, and interior inserts.
    pub dirty: usize,
    /// Interior inserts (both endpoints matched) in this batch.
    pub interior_inserts: usize,
    /// Single-source repair searches run.
    pub local_searches: usize,
    /// Adjacency entries visited by committing searches (local searches
    /// and global sweeps; certificate searches excluded).
    pub scanned: usize,
    /// Augmenting paths applied (local, sweep, or immediate excluded).
    pub repaired: usize,
    /// Matched edges flipped in by those paths (path half-lengths).
    pub repair_path_edges: usize,
    /// Longest single repair path (in matched edges).
    pub max_repair_path: usize,
    /// Global alternating sweeps run for interior inserts (includes the
    /// terminating empty one).
    pub global_sweeps: usize,
    /// Whether this batch took the warm-started MS-BFS fallback.
    pub fallback: bool,
    /// Scope of the batch's Berge certificate.
    pub cert_scope: CertScope,
    /// Free vertices the certificate seeded from.
    pub cert_seeds: usize,
    /// Matching cardinality after the batch.
    pub cardinality: usize,
}

/// Cumulative engine counters (the `McmStats` analogue for the dynamic
/// workload; `mcmd stats` prints these).
#[derive(Clone, Debug, Default)]
pub struct DynStats {
    /// Batches applied.
    pub batches: usize,
    /// Graph-changing updates across all batches.
    pub updates: usize,
    /// Inserts / deletes / matched-edge deletes across all batches.
    pub inserts: usize,
    pub deletes: usize,
    pub matched_deletes: usize,
    /// Immediate matches of fresh both-free edges.
    pub immediate_matches: usize,
    /// Single-source repair searches / successful augmentations.
    pub local_searches: usize,
    pub repaired: usize,
    /// Adjacency entries those searches and the global sweeps visited.
    pub scanned: usize,
    /// Total and maximum repair path length (matched edges).
    pub repair_path_edges: usize,
    pub max_repair_path: usize,
    /// Interior inserts seen and global sweeps they cost.
    pub interior_inserts: usize,
    pub global_sweeps: usize,
    /// Warm-started MS-BFS fallbacks taken.
    pub fallbacks: usize,
    /// Berge-certificate seeds checked across all batches.
    pub cert_seeds: usize,
    /// The last batch's report.
    pub last: BatchReport,
}

/// The scalars of the engine's state that reads answer from — what the
/// `mcm-serve` daemon publishes after each applied batch so `query`,
/// `state` and `stats` are served without blocking behind the writer.
/// Publishing costs O(1): no graph and no matching is copied. A reader
/// that needs the edges themselves (`snapshot <path>`) asks the writer
/// for them instead.
#[derive(Clone, Debug)]
pub struct StateSnapshot {
    /// Cumulative engine counters as of publication.
    pub stats: DynStats,
    /// Matching cardinality as of publication.
    pub cardinality: usize,
    /// Live edge count as of publication.
    pub nnz: usize,
    /// Overlay-compaction epoch as of publication.
    pub epoch: u64,
}

/// A dynamic bipartite graph with an always-maximum matching.
///
/// # Example
///
/// ```
/// use mcm_dyn::{DynMatching, DynOptions, Update};
///
/// let mut dm = DynMatching::new(2, 2, DynOptions::default());
/// dm.apply_batch(&[Update::Insert(0, 0), Update::Insert(0, 1), Update::Insert(1, 0)]);
/// assert_eq!(dm.cardinality(), 2);
/// dm.apply_batch(&[Update::Delete(1, 0)]);
/// assert_eq!(dm.cardinality(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DynMatching {
    g: DynGraph,
    m: Matching,
    opts: DynOptions,
    stats: DynStats,
    // Generation-stamped BFS scratch (mirrors the SpMSpV workspace SPA:
    // no O(n) clears between searches).
    stamp: u32,
    /// Stamp value reserved per batch for dead vertices: a failed repair
    /// search rewrites the far-side vertices it visited to this value.
    dead: u32,
    row_stamp: Vec<u32>,
    col_stamp: Vec<u32>,
    /// Column that discovered each row (valid where `row_stamp == stamp`).
    row_parent: Vec<Vidx>,
    /// Row that discovered each column (valid where `col_stamp == stamp`).
    col_parent: Vec<Vidx>,
    queue: Vec<Vidx>,
}

impl DynMatching {
    /// An empty dynamic graph with an empty (trivially maximum) matching.
    pub fn new(n1: usize, n2: usize, opts: DynOptions) -> Self {
        Self::with_graph(DynGraph::empty(n1, n2), Matching::empty(n1, n2), opts)
    }

    /// Builds from a static edge list and solves the initial maximum
    /// matching (Hopcroft–Karp; subsequent batches repair incrementally).
    pub fn from_triples(t: &Triples, opts: DynOptions) -> Self {
        let g = DynGraph::from_triples(t);
        // The overlay is empty at construction: its base is the whole graph.
        let m = hopcroft_karp(g.cols().base(), None);
        Self::with_graph(g, m, opts)
    }

    /// Builds from an already-compacted CSC base (the MCSB load path of
    /// `mcmd --load`) and solves the initial maximum matching.
    pub fn from_csc(a: mcm_sparse::Csc, opts: DynOptions) -> Self {
        let g = DynGraph::from_csc(a);
        // The overlay is empty at construction: its base is the whole graph.
        let m = hopcroft_karp(g.cols().base(), None);
        Self::with_graph(g, m, opts)
    }

    fn with_graph(g: DynGraph, m: Matching, opts: DynOptions) -> Self {
        let (n1, n2) = (g.n1(), g.n2());
        Self {
            g,
            m,
            opts,
            stats: DynStats::default(),
            stamp: 0,
            dead: 0,
            row_stamp: vec![0; n1],
            col_stamp: vec![0; n2],
            row_parent: vec![NIL; n1],
            col_parent: vec![NIL; n2],
            queue: Vec::new(),
        }
    }

    /// The current (maximum) matching.
    #[inline]
    pub fn matching(&self) -> &Matching {
        &self.m
    }

    /// The options this engine was built with.
    pub fn opts(&self) -> &DynOptions {
        &self.opts
    }

    /// The current graph.
    #[inline]
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    /// Current matching cardinality.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.m.cardinality()
    }

    /// Cumulative counters.
    #[inline]
    pub fn stats(&self) -> &DynStats {
        &self.stats
    }

    /// The published state's scalars (see [`StateSnapshot`]); O(1).
    pub fn snapshot_state(&self) -> StateSnapshot {
        StateSnapshot {
            stats: self.stats.clone(),
            cardinality: self.m.cardinality(),
            nnz: self.g.nnz(),
            epoch: self.g.epoch(),
        }
    }

    /// Applies a batch of updates and repairs the matching back to
    /// maximum. Returns what the repair did.
    pub fn apply_batch(&mut self, updates: &[Update]) -> BatchReport {
        let _span = mcm_obs::span("apply_batch");
        let sw = mcm_obs::Stopwatch::new();
        let mut rep = BatchReport::default();
        let mut dirty_rows: Vec<Vidx> = Vec::new();
        let mut dirty_cols: Vec<Vidx> = Vec::new();
        let mut staged: Vec<(Vidx, Vidx)> = Vec::new();

        // 1. Apply to the graph; matched deletions free both endpoints.
        for &u in updates {
            match u {
                Update::Insert(r, c) => {
                    if self.g.insert(r, c, ()) {
                        rep.inserts += 1;
                        staged.push((r, c));
                    }
                }
                Update::Delete(r, c) => {
                    if self.g.delete(r, c) {
                        rep.deletes += 1;
                        if self.m.mate_r.get(r) == c {
                            self.m.mate_r.set(r, NIL);
                            self.m.mate_c.set(c, NIL);
                            rep.matched_deletes += 1;
                            dirty_rows.push(r);
                            dirty_cols.push(c);
                        }
                    }
                }
            }
        }
        rep.applied = rep.inserts + rep.deletes;

        // 2. Classify staged inserts on the post-batch graph.
        let mut interior = 0usize;
        for (r, c) in staged {
            if !self.g.contains(r, c) {
                continue; // deleted again within the batch
            }
            match (self.m.row_matched(r), self.m.col_matched(c)) {
                (false, false) => {
                    self.m.add(r, c);
                    rep.immediate_matches += 1;
                }
                (false, true) => dirty_rows.push(r),
                (true, false) => dirty_cols.push(c),
                (true, true) => interior += 1,
            }
        }
        rep.interior_inserts = interior;

        // Dirty set: deduplicated, still-free endpoints plus interiors.
        dirty_rows.sort_unstable();
        dirty_rows.dedup();
        dirty_rows.retain(|&r| !self.m.row_matched(r));
        dirty_cols.sort_unstable();
        dirty_cols.dedup();
        dirty_cols.retain(|&c| !self.m.col_matched(c));
        rep.dirty = dirty_rows.len() + dirty_cols.len() + interior;

        // 3. Repair: per-vertex paths, or warm-started serial MS-BFS.
        let budget = self.opts.fallback_threshold * (self.g.n1() + self.g.n2()) as f64;
        if rep.dirty > 0 && rep.dirty as f64 > budget {
            self.fallback();
            rep.fallback = true;
            rep.cert_scope = CertScope::Full;
        } else {
            // A fresh dead value per batch: marks made under an earlier
            // batch's graph read as stale stamps.
            self.dead = self.bump_stamp();
            for &c in &dirty_cols {
                if self.m.col_matched(c) {
                    continue; // matched by an earlier repair in this batch
                }
                rep.local_searches += 1;
                self.repair(Side::Col, &[c], Mode::Repair, &mut rep);
            }
            for &r in &dirty_rows {
                if self.m.row_matched(r) {
                    continue;
                }
                rep.local_searches += 1;
                self.repair(Side::Row, &[r], Mode::Repair, &mut rep);
            }
            if interior > 0 {
                // A path between two *settled* free vertices can thread an
                // interior insert; only a full sweep sees those.
                loop {
                    rep.global_sweeps += 1;
                    let free = self.m.unmatched_cols();
                    if !self.repair(Side::Col, &free, Mode::Sweep, &mut rep) {
                        break;
                    }
                }
                rep.cert_scope = CertScope::Full;
            } else {
                // 4. Running Berge certificate on the dirty region.
                rep.cert_scope = CertScope::DirtyRegion;
                dirty_cols.retain(|&c| !self.m.col_matched(c));
                dirty_rows.retain(|&r| !self.m.row_matched(r));
                rep.cert_seeds = dirty_cols.len() + dirty_rows.len();
                let clean = self.search(Side::Col, &dirty_cols, Mode::Certify).0.is_none()
                    && self.search(Side::Row, &dirty_rows, Mode::Certify).0.is_none();
                assert!(clean, "dirty-region Berge certificate failed after repair");
            }
        }
        rep.cardinality = self.m.cardinality();

        if self.opts.full_verify {
            self.verify_full().expect("full per-batch verification failed");
        }

        // Satellite: every batch reports its repair-strategy decision —
        // "warm_start" when the dirty set blew the budget and the batch
        // re-ran MS-BFS, "incremental" otherwise.
        if mcm_obs::metrics_enabled() {
            let strategy = if rep.fallback { "warm_start" } else { "incremental" };
            let labels = [("strategy", strategy)];
            mcm_obs::counter_add("mcm_dyn_batches_total", &labels, 1);
            mcm_obs::counter_add("mcm_dyn_updates_total", &labels, rep.applied as u64);
            mcm_obs::counter_add("mcm_dyn_repaired_total", &labels, rep.repaired as u64);
            mcm_obs::counter_add("mcm_dyn_scanned_total", &labels, rep.scanned as u64);
            mcm_obs::observe_ns("mcm_dyn_batch_seconds", &labels, sw.elapsed_ns());
        }

        self.absorb(&rep);
        rep
    }

    /// Materializes the graph and re-verifies the matching end to end
    /// (structural validity + full Berge) through `mcm-core::verify`.
    pub fn verify_full(&self) -> Result<(), VerifyError> {
        mcm_core::verify::verify(&self.g.to_csc(), &self.m)
    }

    fn absorb(&mut self, rep: &BatchReport) {
        let s = &mut self.stats;
        s.batches += 1;
        s.updates += rep.applied;
        s.inserts += rep.inserts;
        s.deletes += rep.deletes;
        s.matched_deletes += rep.matched_deletes;
        s.immediate_matches += rep.immediate_matches;
        s.local_searches += rep.local_searches;
        s.repaired += rep.repaired;
        s.scanned += rep.scanned;
        s.repair_path_edges += rep.repair_path_edges;
        s.max_repair_path = s.max_repair_path.max(rep.max_repair_path);
        s.interior_inserts += rep.interior_inserts;
        s.global_sweeps += rep.global_sweeps;
        s.fallbacks += usize::from(rep.fallback);
        s.cert_seeds += rep.cert_seeds;
        s.last = *rep;
    }

    /// Large-dirty-set path: serial MS-BFS over one CSC copy of the
    /// graph, warm-started from the stale matching (§V). The stale
    /// matching is valid on the new graph: matched deletions were
    /// unmatched in step 1.
    fn fallback(&mut self) {
        let _span = mcm_obs::span("warm_start_fallback");
        let stale = std::mem::replace(&mut self.m, Matching::empty(0, 0));
        self.m = ms_bfs_serial(&self.g.to_csc(), Some(stale)).0;
    }

    fn bump_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            // Clearing also forgets the batch's dead marks, which only
            // prune; re-reserve the dead value below every later stamp.
            self.row_stamp.fill(0);
            self.col_stamp.fill(0);
            self.stamp = 1;
            self.dead = 1;
        }
        self.stamp += 1;
        self.stamp
    }

    /// One committing search; folds its outcome into `rep`. `true` when
    /// it found and flipped an augmenting path.
    fn repair(&mut self, side: Side, seeds: &[Vidx], mode: Mode, rep: &mut BatchReport) -> bool {
        let (flipped, scanned) = self.search(side, seeds, mode);
        rep.scanned += scanned;
        let Some(flipped) = flipped else { return false };
        rep.repaired += 1;
        rep.repair_path_edges += flipped;
        rep.max_repair_path = rep.max_repair_path.max(flipped);
        true
    }

    /// Alternating BFS from a set of free vertices on `side`, one path
    /// per call: seed → adjacent far-side vertex → its mate → … until a
    /// free far-side vertex. Columns scan `A` (rows in a column), rows
    /// scan `Aᵀ` — the direction deletions of matched edges need, since
    /// they free a row endpoint too. Returns the augmenting path's length
    /// in matched edges (`Some(0)` under [`Mode::Certify`], which flips
    /// nothing) and the adjacency entries visited.
    fn search(&mut self, side: Side, seeds: &[Vidx], mode: Mode) -> (Option<usize>, usize) {
        let stamp = self.bump_stamp();
        // Outside repair, `dead == stamp` folds the dead test into the
        // visited test.
        let dead = if mode == Mode::Repair { self.dead } else { stamp };
        let Self { g, m, row_stamp, col_stamp, row_parent, col_parent, queue, .. } = self;
        // `near`: the seeds' side; `far`: the side their adjacency reaches.
        let (adj, near_stamp, far_stamp, far_parent, near_mate, far_mate) = match side {
            Side::Col => (g.cols(), col_stamp, row_stamp, row_parent, &mut m.mate_c, &mut m.mate_r),
            Side::Row => (g.rows(), row_stamp, col_stamp, col_parent, &mut m.mate_r, &mut m.mate_c),
        };
        queue.clear();
        for &u in seeds {
            debug_assert_eq!(near_mate.get(u), NIL, "seed {u} is matched");
            if near_stamp[u as usize] != stamp {
                near_stamp[u as usize] = stamp;
                queue.push(u);
            }
        }
        let (mut head, mut end, mut scanned) = (0, NIL, 0);
        while end == NIL && head < queue.len() {
            let u = queue[head];
            head += 1;
            adj.for_each_in_col(u, |v, ()| {
                if end != NIL {
                    return;
                }
                scanned += 1;
                let seen = far_stamp[v as usize];
                if seen == stamp || seen == dead {
                    return;
                }
                far_stamp[v as usize] = stamp;
                far_parent[v as usize] = u;
                let w = far_mate.get(v);
                if w == NIL {
                    end = v;
                } else if near_stamp[w as usize] != stamp {
                    near_stamp[w as usize] = stamp;
                    queue.push(w);
                }
            });
        }
        if end == NIL {
            if mode == Mode::Repair {
                // Every far vertex visited is the mate of a queued vertex:
                // the region is closed and free-vertex-free, so it stays
                // path-free until the batch ends.
                for &u in queue.iter() {
                    let v = near_mate.get(u);
                    if v != NIL {
                        far_stamp[v as usize] = dead;
                    }
                }
            }
            return (None, scanned);
        }
        if mode == Mode::Certify {
            return (Some(0), scanned);
        }
        // Flip along parent pointers back to a free seed.
        let (mut v, mut flipped) = (end, 0);
        loop {
            let u = far_parent[v as usize];
            let prev = near_mate.get(u);
            far_mate.set(v, u);
            near_mate.set(u, v);
            flipped += 1;
            if prev == NIL {
                return (Some(flipped), scanned);
            }
            v = prev;
        }
    }
}

/// The side of the bipartite graph a search is rooted at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Col,
    Row,
}

/// What a search is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Committing local repair: skips the batch's dead vertices, and a
    /// failed search marks its own region dead.
    Repair,
    /// Committing global sweep: ignores dead marks.
    Sweep,
    /// Berge certificate: reports whether a path exists, flips nothing,
    /// ignores dead marks.
    Certify,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::permute::SplitMix64;

    fn opts() -> DynOptions {
        DynOptions { full_verify: true, ..DynOptions::default() }
    }

    #[test]
    fn builds_and_matches_incrementally() {
        let mut dm = DynMatching::new(3, 3, opts());
        let r = dm.apply_batch(&[Update::Insert(0, 0), Update::Insert(1, 1), Update::Insert(2, 2)]);
        assert_eq!(r.immediate_matches, 3);
        assert_eq!(dm.cardinality(), 3);
    }

    #[test]
    fn matched_delete_frees_both_endpoints_and_repairs() {
        // Z-graph: r0-c0, r0-c1, r1-c0; maximum is 2 via the anti-diagonal.
        let t = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let mut dm = DynMatching::from_triples(&t, opts());
        assert_eq!(dm.cardinality(), 2);
        // Delete the matched (1, 0): only (0, c) edges remain → maximum 1.
        let r = dm.apply_batch(&[Update::Delete(1, 0)]);
        assert_eq!(r.matched_deletes, 1);
        assert_eq!(dm.cardinality(), 1);
        // Reinsert: repair must climb back to 2 through a local search.
        let r = dm.apply_batch(&[Update::Insert(1, 0)]);
        assert!(r.repaired >= 1 || r.immediate_matches >= 1);
        assert_eq!(dm.cardinality(), 2);
    }

    #[test]
    fn interior_insert_is_found_by_global_sweep() {
        // M = {(r0,c0), (r1,c1)}, free c2 (edge to r0) and free r2 (edge
        // to c1): maximum is 2 until the interior edge (r1, c0)... wait —
        // the enabling edge is (r0... construct exactly the case where the
        // new edge joins two matched vertices and enables c2 ⇝ r2.
        let t = Triples::from_edges(
            3,
            3,
            vec![(0, 0), (1, 1), (0, 2), (2, 1)], // matched: (0,0), (1,1)
        );
        let mut dm = DynMatching::from_triples(&t, opts());
        assert_eq!(dm.cardinality(), 2);
        // Insert (1, 0): both endpoints matched (r1–c1, r0–c0). New path:
        // c2 → r0 → c0 → r1 → c1 → r2.
        let r = dm.apply_batch(&[Update::Insert(1, 0)]);
        assert_eq!(r.interior_inserts, 1);
        assert!(r.global_sweeps >= 1, "interior insert must trigger a sweep");
        assert_eq!(r.cert_scope, CertScope::Full);
        assert_eq!(dm.cardinality(), 3);
    }

    #[test]
    fn shared_dead_region_is_searched_once_per_batch() {
        // A perfectly matched K_{m,m} block (rows 0..m, columns 0..m) plus
        // k free columns m..m+k, each inserted against one block row in
        // one batch. Every free column reaches the whole block and no free
        // row: the first failed search kills the block, so the other k-1
        // scan one dead entry each. Searching per seed scans ~k·m².
        let (m, k) = (40usize, 24usize);
        let block: Vec<(Vidx, Vidx)> =
            (0..m as Vidx).flat_map(|r| (0..m as Vidx).map(move |c| (r, c))).collect();
        let t = Triples::from_edges(m, m + k, block);
        let mut dm = DynMatching::from_triples(&t, opts());
        assert_eq!(dm.cardinality(), m);
        let ups: Vec<Update> =
            (0..k).map(|i| Update::Insert((i % m) as Vidx, (m + i) as Vidx)).collect();
        let rep = dm.apply_batch(&ups);
        assert_eq!(rep.local_searches, k);
        assert_eq!(rep.repaired, 0);
        assert_eq!(dm.cardinality(), m);
        assert!(mcm_core::verify::is_maximum(&dm.graph().to_csc(), dm.matching()));
        assert!(rep.scanned <= 2 * m * m + 2 * k, "scanned {} for m {m}, k {k}", rep.scanned);
        assert_eq!(dm.stats().scanned, rep.scanned);
    }

    #[test]
    fn only_failed_searches_leave_dead_marks() {
        // Rows r0, r1 matched to b0, b1; free rows f1, f3 hang off b0, b1.
        // One batch links free columns c1 (to r0, r1) and c2 (to r0). The
        // search from c1 succeeds through r0 → b0 → f1 after visiting r1;
        // c2's only path then runs c2 → r0 → c1 → r1 → b1 → f3, through
        // rows that successful search visited, so they must not be dead.
        let (r0, r1, f1, f3) = (0, 1, 2, 3);
        let (b0, b1, c1, c2) = (0, 1, 2, 3);
        let mut dm = DynMatching::new(4, 4, opts());
        dm.apply_batch(&[Update::Insert(r0, b0), Update::Insert(r1, b1)]);
        dm.apply_batch(&[Update::Insert(f1, b0), Update::Insert(f3, b1)]);
        assert_eq!(dm.cardinality(), 2);
        let rep = dm.apply_batch(&[
            Update::Insert(r0, c1),
            Update::Insert(r1, c1),
            Update::Insert(r0, c2),
        ]);
        assert_eq!((rep.local_searches, rep.repaired), (2, 2));
        assert_eq!(dm.cardinality(), 4);
    }

    #[test]
    fn stamp_wraparound_mid_batch_keeps_the_same_matching() {
        // Wrapping the stamp clears the dead marks mid-batch; since they
        // only prune regions no path enters, the engine must reach the
        // same mate vectors as one whose marks survive the whole batch.
        let (n1, n2) = (30usize, 26usize);
        let mut rng = SplitMix64::new(0x57A3);
        let mut base = Vec::new();
        for _ in 0..70 {
            base.push((rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx));
        }
        let t = Triples::from_edges(n1, n2, base);
        let o = DynOptions { fallback_threshold: 1e9, ..opts() };
        let mut plain = DynMatching::from_triples(&t, o);
        let mut wrapping = plain.clone();
        let mut wrapped = 0;
        for _ in 0..30 {
            let mut ops = Vec::new();
            for _ in 0..12 {
                let r = rng.below(n1 as u64) as Vidx;
                let c = rng.below(n2 as u64) as Vidx;
                ops.push(if rng.below(2) == 0 {
                    Update::Insert(r, c)
                } else {
                    Update::Delete(r, c)
                });
            }
            // Land the wrap a few searches into the batch (cleared scratch
            // keeps every stored stamp below the ones still to come).
            wrapping.row_stamp.fill(0);
            wrapping.col_stamp.fill(0);
            wrapping.stamp = u32::MAX - 3;
            plain.apply_batch(&ops);
            let rep = wrapping.apply_batch(&ops);
            wrapped += usize::from(wrapping.stamp < 100 && rep.local_searches > 3);
            assert_eq!(plain.matching(), wrapping.matching());
        }
        assert!(wrapped > 0, "no batch wrapped its stamp mid-repair");
    }

    #[test]
    fn fallback_threshold_zero_always_takes_msbfs() {
        let t = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]);
        let mut dm = DynMatching::from_triples(
            &t,
            DynOptions { fallback_threshold: 0.0, full_verify: true },
        );
        let r = dm.apply_batch(&[Update::Delete(1, 0)]);
        assert!(r.fallback, "threshold 0 must always fall back");
        assert_eq!(dm.cardinality(), 1);
        let r = dm.apply_batch(&[Update::Insert(1, 1)]);
        assert!(r.fallback);
        assert_eq!(dm.cardinality(), 2);
    }

    #[test]
    fn forced_fallback_tracks_hopcroft_karp_through_deletes_and_interior_inserts() {
        // Threshold 0 sends every dirtying batch to warm serial MS-BFS.
        // Each batch deletes matched edges (freeing both endpoints) and
        // random edges, and inserts edges between two matched vertices
        // (interior inserts); after every batch the cardinality must equal
        // HK from scratch, and full_verify re-certifies the matching.
        let (n1, n2) = (40usize, 36usize);
        let mut rng = SplitMix64::new(0xFA11);
        let base: Vec<(Vidx, Vidx)> = (0..110)
            .map(|_| (rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx))
            .collect();
        let t = Triples::from_edges(n1, n2, base);
        let mut dm = DynMatching::from_triples(
            &t,
            DynOptions { fallback_threshold: 0.0, full_verify: true },
        );
        for batch in 0..30 {
            let matched: Vec<(Vidx, Vidx)> = (0..n1 as Vidx)
                .filter_map(|r| {
                    let c = dm.matching().mate_r.get(r);
                    (c != NIL).then_some((r, c))
                })
                .collect();
            let pick = |rng: &mut SplitMix64| matched[rng.below(matched.len() as u64) as usize];
            let mut ops = Vec::new();
            for _ in 0..2 {
                let (r, c) = pick(&mut rng);
                ops.push(Update::Delete(r, c));
                let (r, c) = (rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
                ops.push(Update::Delete(r, c));
            }
            for _ in 0..3 {
                let ((r, _), (_, c)) = (pick(&mut rng), pick(&mut rng));
                ops.push(Update::Insert(r, c));
            }
            let rep = dm.apply_batch(&ops);
            assert_eq!(rep.fallback, rep.dirty > 0, "batch {batch}");
            let want = hopcroft_karp(&dm.graph().to_csc(), None).cardinality();
            assert_eq!(dm.cardinality(), want, "batch {batch} diverged from HK");
        }
        let s = dm.stats();
        assert!(s.matched_deletes > 0 && s.interior_inserts > 0, "{s:?}");
        assert!(s.fallbacks > 0, "{s:?}");
    }

    #[test]
    fn noop_updates_change_nothing() {
        let t = Triples::from_edges(2, 2, vec![(0, 0)]);
        let mut dm = DynMatching::from_triples(&t, opts());
        let r = dm.apply_batch(&[Update::Insert(0, 0), Update::Delete(1, 1)]);
        assert_eq!(r.applied, 0);
        assert_eq!(r.dirty, 0);
        assert_eq!(dm.cardinality(), 1);
    }

    #[test]
    fn insert_then_delete_within_one_batch_cancels() {
        let mut dm = DynMatching::new(2, 2, opts());
        let r = dm.apply_batch(&[Update::Insert(0, 0), Update::Delete(0, 0)]);
        assert_eq!(dm.cardinality(), 0);
        assert_eq!(r.immediate_matches, 0, "cancelled insert must not match");
        assert!(!dm.graph().contains(0, 0));
    }

    #[test]
    fn randomized_batches_track_hopcroft_karp() {
        // A miniature of tests/dyn_oracle.rs kept in-crate: random
        // batches, after each one the cardinality must equal HK from
        // scratch on the materialized graph.
        let (n1, n2) = (14usize, 12usize);
        let mut rng = SplitMix64::new(0xCAFE);
        for threshold in [0.0, 0.15, 2.0] {
            let mut dm = DynMatching::new(
                n1,
                n2,
                DynOptions { fallback_threshold: threshold, full_verify: true },
            );
            for batch in 0..25 {
                let mut ops = Vec::new();
                for _ in 0..6 {
                    let r = rng.below(n1 as u64) as Vidx;
                    let c = rng.below(n2 as u64) as Vidx;
                    if rng.below(5) < 3 {
                        ops.push(Update::Insert(r, c));
                    } else {
                        ops.push(Update::Delete(r, c));
                    }
                }
                dm.apply_batch(&ops);
                let a = dm.graph().to_csc();
                let want = hopcroft_karp(&a, None).cardinality();
                assert_eq!(
                    dm.cardinality(),
                    want,
                    "threshold {threshold} batch {batch} diverged from HK"
                );
            }
            assert_eq!(dm.stats().batches, 25);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut dm = DynMatching::new(4, 4, opts());
        dm.apply_batch(&[Update::Insert(0, 0), Update::Insert(1, 1)]);
        dm.apply_batch(&[Update::Delete(0, 0)]);
        let s = dm.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.matched_deletes, 1);
        assert_eq!(s.immediate_matches, 2);
        assert_eq!(s.last.deletes, 1);
    }
}
