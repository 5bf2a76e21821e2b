//! Parallel Pothen–Fan: multi-source lookahead-DFS augmentation as a
//! first-class engine (DESIGN.md §15).
//!
//! The serial [`crate::serial::pothen_fan`] is the repo's strongest
//! augmenting-path oracle; this module promotes the same algorithm to a
//! thread-parallel competitor of MS-BFS (the DPHPC "PPF" design noted in
//! SNIPPETS.md #3). Each *phase* runs one lookahead-DFS from every
//! unmatched column; within a phase the matching is frozen, rows are
//! claimed exclusively through a generation-stamped atomic visited array
//! (the same stamp discipline as the SpMSpV workspace SPA — no O(n)
//! clears between phases), and the vertex-disjoint augmenting paths the
//! workers discover are committed at the phase barrier. Phases repeat
//! until one finds no path, which — because the merged search forests
//! cover exactly the set of vertices alternating-reachable from the free
//! columns — certifies maximality by Berge's theorem.
//!
//! **Why the claim discipline is safe.** A row is inspected only by the
//! worker that won its stamp CAS, so no row joins two paths. A column is
//! entered either as a DFS root (roots are distinct free columns) or
//! through its matched row (claimed exclusively), so no column joins two
//! paths either. The lookahead scan skips matched rows *without* claiming
//! them — matched rows stay available to other workers' descend scans,
//! which keeps the final, path-free phase a sound reachability
//! certificate. Skipping is permanent (the cursor is monotone for the
//! whole run, amortizing lookahead to O(deg) per column) and sound
//! because a matched row never becomes free again under augmentation.
//!
//! **Fairness.** With a fixed root order, roots late in the order
//! repeatedly lose contested rows to earlier short searches and their
//! (typically long) augmenting paths starve into extra phases. The
//! fairness mechanism rotates the root order by one position per phase so
//! every root is eventually served first; `seed` additionally applies a
//! deterministic per-phase shuffle (the simtest order perturbation —
//! `0` leaves the rotation order untouched).

use crate::matching::Matching;
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{CscView, Vidx, NIL};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Tunables of the parallel Pothen–Fan engine.
#[derive(Clone, Copy, Debug)]
pub struct PpfOptions {
    /// Worker threads pulling DFS roots from the shared cursor. `1` runs
    /// inline and fully deterministically (the differential default).
    pub threads: usize,
    /// Rotate the root order by one position per phase so late roots do
    /// not starve behind early short searches.
    pub fairness: bool,
    /// Deterministic per-phase shuffle of the root order (the simtest
    /// schedule analogue); `0` keeps the natural (rotated) order.
    pub seed: u64,
}

impl Default for PpfOptions {
    fn default() -> Self {
        Self { threads: 1, fairness: true, seed: 0 }
    }
}

/// Counters describing one [`ppf`] run.
#[derive(Clone, Debug, Default)]
pub struct PpfStats {
    /// Phases executed (including the final, path-free one).
    pub phases: usize,
    /// Augmenting paths committed.
    pub paths: usize,
    /// Matched edges flipped across all paths (path half-lengths).
    pub path_edges: usize,
    /// Longest committed path in matched edges.
    pub max_path: usize,
    /// Paths whose free row was found by the lookahead scan (the prune
    /// that makes Pothen–Fan fast in practice).
    pub lookahead_hits: usize,
    /// Rows claimed by descend steps (the DFS work measure).
    pub dfs_rows: usize,
    /// Fairness rotations applied to the root order.
    pub rotations: usize,
}

/// The result of [`ppf`].
#[derive(Clone, Debug)]
pub struct PpfResult {
    /// A maximum cardinality matching.
    pub matching: Matching,
    /// Run counters.
    pub stats: PpfStats,
}

/// An augmenting path found by one DFS: the stack's columns root→tip plus
/// the free row reached. Committed at the phase barrier.
struct FoundPath {
    cols: Vec<Vidx>,
    end_row: Vidx,
    via_lookahead: bool,
    dfs_rows: usize,
}

/// Computes a maximum cardinality matching by phase-synchronous parallel
/// Pothen–Fan, optionally warm-started from `init`.
pub fn ppf<'a>(a: impl Into<CscView<'a>>, init: Option<Matching>, opts: &PpfOptions) -> PpfResult {
    let a = &a.into();
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = init.unwrap_or_else(|| Matching::empty(n1, n2));
    debug_assert!(m.validate(a).is_ok());
    let mut stats = PpfStats::default();

    // Generation-stamped workspaces: a row is claimed for phase `p` by
    // CAS-ing its stamp to `p`; lookahead cursors are monotone across the
    // whole run (each column's adjacency is lookahead-scanned once).
    let visited: Vec<AtomicU32> = (0..n1).map(|_| AtomicU32::new(0)).collect();
    let lookahead: Vec<AtomicUsize> = (0..n2).map(|_| AtomicUsize::new(0)).collect();

    let mut phase: u32 = 0;
    loop {
        phase += 1;
        stats.phases += 1;
        let _span = mcm_obs::span("ppf_phase");
        mcm_obs::counter_add("mcm_ppf_phases_total", &[], 1);

        let mut roots: Vec<Vidx> = m.unmatched_cols();
        if roots.is_empty() {
            break;
        }
        if opts.fairness && !roots.is_empty() {
            // Rotate by the phase index: over the run every surviving root
            // is served first at least once every |roots| phases.
            let rot = (stats.phases - 1) % roots.len();
            roots.rotate_left(rot);
            stats.rotations += usize::from(rot > 0);
        }
        if opts.seed != 0 {
            // Per-phase deterministic perturbation, a pure function of
            // (seed, phase) so a failing run replays from the seed alone.
            let mut rng =
                SplitMix64::new(opts.seed ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for k in (1..roots.len()).rev() {
                let j = rng.below(k as u64 + 1) as usize;
                roots.swap(k, j);
            }
        }

        let found = run_phase(a, &m, &visited, &lookahead, &roots, phase, opts.threads);
        if found.is_empty() {
            break;
        }
        // Commit the vertex-disjoint paths in deterministic (root) order.
        let mut found = found;
        found.sort_unstable_by_key(|p| p.cols[0]);
        for path in &found {
            stats.paths += 1;
            stats.lookahead_hits += usize::from(path.via_lookahead);
            stats.dfs_rows += path.dfs_rows;
            stats.path_edges += path.cols.len() - 1;
            stats.max_path = stats.max_path.max(path.cols.len() - 1);
            let mut r = path.end_row;
            for &c in path.cols.iter().rev() {
                let prev = m.mate_c.get(c);
                m.mate_c.set(c, r);
                m.mate_r.set(r, c);
                r = prev;
            }
            debug_assert_eq!(r, NIL, "path must terminate at its free root");
        }
    }
    mcm_obs::counter_add("mcm_ppf_paths_total", &[], stats.paths as u64);
    PpfResult { matching: m, stats }
}

/// One phase: workers pull roots from a shared cursor and DFS against the
/// frozen matching; returns the disjoint paths found.
fn run_phase(
    a: &CscView<'_>,
    m: &Matching,
    visited: &[AtomicU32],
    lookahead: &[AtomicUsize],
    roots: &[Vidx],
    phase: u32,
    threads: usize,
) -> Vec<FoundPath> {
    let workers = threads.max(1).min(roots.len());
    if workers <= 1 {
        let mut stack = Vec::new();
        return roots
            .iter()
            .filter_map(|&c0| dfs_lookahead(a, m, visited, lookahead, &mut stack, c0, phase))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut stack = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= roots.len() {
                            break;
                        }
                        if let Some(p) =
                            dfs_lookahead(a, m, visited, lookahead, &mut stack, roots[k], phase)
                        {
                            got.push(p);
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("ppf worker panicked")).collect()
    })
}

/// Claims `slot` for `phase`; `false` when some worker (possibly this
/// one) already holds it this phase.
#[inline]
fn claim(slot: &AtomicU32, phase: u32) -> bool {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if cur == phase {
            return false;
        }
        match slot.compare_exchange_weak(cur, phase, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
}

/// Iterative lookahead-DFS from free column `c0` against the frozen
/// matching. Rows are inspected only after winning their stamp CAS, so
/// concurrent searches stay vertex-disjoint.
fn dfs_lookahead(
    a: &CscView<'_>,
    m: &Matching,
    visited: &[AtomicU32],
    lookahead: &[AtomicUsize],
    stack: &mut Vec<(Vidx, usize)>,
    c0: Vidx,
    phase: u32,
) -> Option<FoundPath> {
    stack.clear();
    stack.push((c0, 0));
    let mut dfs_rows = 0usize;

    while let Some(&mut (c, ref mut cursor)) = stack.last_mut() {
        let adj = a.col(c as usize);

        // --- Lookahead: claim a still-free neighbour if one remains. ----
        // Matched rows are skipped *without* claiming (they stay reachable
        // for descend); free rows are either claimed here (success) or
        // were claimed by another path (skip — they will be matched when
        // that path commits, so the monotone skip is sound).
        let la = &lookahead[c as usize];
        let mut end_row = NIL;
        loop {
            let pos = la.load(Ordering::Relaxed);
            if pos >= adj.len() {
                break;
            }
            // Only one worker can hold column c in a given phase, so the
            // cursor is single-writer here; phases are ordered by the
            // commit barrier.
            la.store(pos + 1, Ordering::Relaxed);
            let r = adj[pos];
            if m.row_matched(r) {
                continue;
            }
            if claim(&visited[r as usize], phase) {
                end_row = r;
                break;
            }
        }
        if end_row != NIL {
            let cols = stack.iter().map(|&(c, _)| c).collect();
            return Some(FoundPath { cols, end_row, via_lookahead: true, dfs_rows });
        }

        // --- Descend through a matched row. ------------------------------
        let mut advanced = false;
        while *cursor < adj.len() {
            let r = adj[*cursor];
            *cursor += 1;
            if !claim(&visited[r as usize], phase) {
                continue;
            }
            dfs_rows += 1;
            if !m.row_matched(r) {
                // Defensive: the exhausted lookahead cursor means every
                // free neighbour was claimed, so this cannot happen; but a
                // claimed free row is a valid path endpoint regardless.
                debug_assert!(false, "descend reached an unclaimed free row");
                let cols = stack.iter().map(|&(c, _)| c).collect();
                return Some(FoundPath { cols, end_row: r, via_lookahead: false, dfs_rows });
            }
            stack.push((m.mate_r.get(r), 0));
            advanced = true;
            break;
        }
        if !advanced {
            stack.pop();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use crate::verify;
    use mcm_sparse::Triples;

    fn random_graph(rng: &mut SplitMix64, n1: usize, n2: usize, edges: usize) -> Triples {
        let mut t = Triples::new(n1, n2);
        for _ in 0..edges {
            t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
        }
        t
    }

    #[test]
    fn matches_hk_on_random_graphs_across_threads_and_fairness() {
        let mut rng = SplitMix64::new(0x9F);
        for trial in 0..25 {
            let n1 = 5 + (rng.next_u64() % 30) as usize;
            let n2 = 5 + (rng.next_u64() % 30) as usize;
            let t = random_graph(&mut rng, n1, n2, 3 * n1.max(n2));
            let a = t.to_csc();
            let want = hopcroft_karp(&a, None).cardinality();
            for threads in [1usize, 4] {
                for fairness in [false, true] {
                    let opts = PpfOptions { threads, fairness, seed: 0 };
                    let r = ppf(&a, None, &opts);
                    r.matching.validate(&a).unwrap();
                    verify::verify(&a, &r.matching).unwrap();
                    assert_eq!(
                        r.matching.cardinality(),
                        want,
                        "trial {trial} threads {threads} fairness {fairness}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_order_perturbations_agree_on_cardinality() {
        let mut rng = SplitMix64::new(0x51);
        let t = random_graph(&mut rng, 24, 24, 70);
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        for seed in [0u64, 1, 0xDEAD, 0x5EED5EED] {
            let r = ppf(&a, None, &PpfOptions { seed, ..PpfOptions::default() });
            verify::verify(&a, &r.matching).unwrap();
            assert_eq!(r.matching.cardinality(), want, "seed {seed:#x}");
        }
    }

    #[test]
    fn single_thread_is_deterministic() {
        let mut rng = SplitMix64::new(0x77);
        let t = random_graph(&mut rng, 30, 30, 90);
        let a = t.to_csc();
        let opts = PpfOptions::default();
        let r1 = ppf(&a, None, &opts);
        let r2 = ppf(&a, None, &opts);
        assert_eq!(r1.matching, r2.matching);
        assert_eq!(r1.stats.paths, r2.stats.paths);
    }

    #[test]
    fn warm_start_resumes() {
        let a = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc();
        let mut init = Matching::empty(2, 2);
        init.add(0, 0);
        let r = ppf(&a, Some(init), &PpfOptions::default());
        assert_eq!(r.matching.cardinality(), 2);
    }

    #[test]
    fn fairness_rotation_actually_rotates() {
        // Two contention gadgets: each pair of columns shares one row, so
        // phase one serves only the first of each pair and phase two
        // starts with two surviving roots — the rotation must engage.
        let a = Triples::from_edges(2, 4, vec![(0, 0), (0, 1), (1, 2), (1, 3)]).to_csc();
        let r = ppf(&a, None, &PpfOptions { fairness: true, ..PpfOptions::default() });
        assert_eq!(r.matching.cardinality(), 2);
        assert_eq!(r.stats.phases, 2);
        assert!(r.stats.rotations > 0, "fairness rotation never engaged");
    }

    #[test]
    fn lookahead_prunes_most_searches_on_first_phase() {
        // Cold start on a graph with plenty of free rows: almost every
        // first-phase path should come from the lookahead, not deep DFS.
        let mut rng = SplitMix64::new(3);
        let t = random_graph(&mut rng, 40, 40, 120);
        let a = t.to_csc();
        let r = ppf(&a, None, &PpfOptions::default());
        assert!(r.stats.lookahead_hits > 0, "lookahead never fired");
        assert!(r.stats.paths >= r.stats.lookahead_hits);
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        let a = Triples::new(3, 4).to_csc();
        let r = ppf(&a, None, &PpfOptions::default());
        assert_eq!(r.matching.cardinality(), 0);
        let a = Triples::new(0, 0).to_csc();
        assert_eq!(ppf(&a, None, &PpfOptions::default()).matching.cardinality(), 0);
    }
}
