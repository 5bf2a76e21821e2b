//! `DynGraph`: a mutable bipartite graph with both-sided adjacency.
//!
//! The repair engine needs two scan directions the static pipeline never
//! mixes: column → rows (the matrix `A`, for augmenting searches rooted at
//! free columns) and row → columns (`Aᵀ`, for searches rooted at rows
//! freed by matched-edge deletions). `DynGraph` keeps one
//! [`CscOverlay`](mcm_sparse::CscOverlay) per direction, applies every
//! update to both, and compacts them together once the overlay outgrows a
//! fraction of the base — the epoch bump is the cache-invalidation signal
//! for anything keyed on the frozen base (the warm-start fallback
//! redistributes per epoch, mirroring how `DistMatrix` freezes `Triples`).

use mcm_sparse::{Csc, CscOverlay, Triples, Vidx};

/// Overlay growth bound before auto-compaction: compact when the staged
/// overlay exceeds `nnz / COMPACT_DIVISOR + COMPACT_SLACK` entries. The
/// slack term keeps tiny graphs from compacting on every update.
const COMPACT_DIVISOR: usize = 4;
const COMPACT_SLACK: usize = 64;

/// A dynamic `n1 × n2` bipartite graph: column adjacency (`A`) and row
/// adjacency (`Aᵀ`) kept in lock-step through insert/delete overlays.
///
/// # Example
///
/// ```
/// use mcm_dyn::DynGraph;
///
/// let mut g = DynGraph::empty(3, 4);
/// assert!(g.insert(1, 2));
/// assert!(!g.insert(1, 2));
/// assert_eq!(g.nnz(), 1);
/// let mut rows = Vec::new();
/// g.cols().for_each_in_col(2, |r| rows.push(r));
/// assert_eq!(rows, vec![1]);
/// let mut cols = Vec::new();
/// g.rows().for_each_in_col(1, |c| cols.push(c));
/// assert_eq!(cols, vec![2]);
/// ```
#[derive(Clone, Debug)]
pub struct DynGraph {
    /// `n1 × n2`: rows adjacent to each column (the matrix `A`).
    cols: CscOverlay,
    /// `n2 × n1`: columns adjacent to each row (`Aᵀ`).
    rows: CscOverlay,
}

impl DynGraph {
    /// An empty dynamic graph with `n1` row and `n2` column vertices.
    pub fn empty(n1: usize, n2: usize) -> Self {
        Self { cols: CscOverlay::empty(n1, n2), rows: CscOverlay::empty(n2, n1) }
    }

    /// Builds from a static edge list (the initial compacted base).
    pub fn from_triples(t: &Triples) -> Self {
        Self { cols: CscOverlay::new(t.to_csc()), rows: CscOverlay::new(t.transposed().to_csc()) }
    }

    /// Builds from an already-compacted CSC base — the MCSB load path
    /// (`mcmd --load graph.mcsb`), which decodes straight to CSC and never
    /// owns a triple list. The row adjacency is the explicit transpose.
    pub fn from_csc(a: Csc) -> Self {
        let at = a.transpose();
        Self { cols: CscOverlay::new(a), rows: CscOverlay::new(at) }
    }

    /// Row vertices.
    #[inline]
    pub fn n1(&self) -> usize {
        self.cols.nrows()
    }

    /// Column vertices.
    #[inline]
    pub fn n2(&self) -> usize {
        self.cols.ncols()
    }

    /// Live edge count.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.nnz()
    }

    /// Compaction epoch (bumped whenever the frozen bases are rebuilt).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.cols.epoch()
    }

    /// `true` when edge `(r, c)` is live.
    #[inline]
    pub fn contains(&self, r: Vidx, c: Vidx) -> bool {
        self.cols.contains(r, c)
    }

    /// Inserts edge `(r, c)`; `true` when it was not already live. May
    /// trigger compaction of both adjacency directions.
    pub fn insert(&mut self, r: Vidx, c: Vidx) -> bool {
        let changed = self.cols.insert(r, c);
        if changed {
            let also = self.rows.insert(c, r);
            debug_assert!(also, "row/col adjacency diverged on insert ({r}, {c})");
            self.maybe_compact();
        }
        changed
    }

    /// Deletes edge `(r, c)`; `true` when it was live.
    pub fn delete(&mut self, r: Vidx, c: Vidx) -> bool {
        let changed = self.cols.delete(r, c);
        if changed {
            let also = self.rows.delete(c, r);
            debug_assert!(also, "row/col adjacency diverged on delete ({r}, {c})");
            self.maybe_compact();
        }
        changed
    }

    /// Live degree of column `c`.
    #[inline]
    pub fn col_degree(&self, c: Vidx) -> usize {
        self.cols.col_degree(c)
    }

    /// Live degree of row `r`.
    #[inline]
    pub fn row_degree(&self, r: Vidx) -> usize {
        self.rows.col_degree(r)
    }

    /// The column adjacency (`A`, `n1 × n2`): the rows of each column in
    /// sorted order, and all a reader of the edge set needs.
    #[inline]
    pub fn cols(&self) -> &CscOverlay {
        &self.cols
    }

    /// The row adjacency (`Aᵀ`, `n2 × n1`): the columns of each row in
    /// sorted order.
    #[inline]
    pub fn rows(&self) -> &CscOverlay {
        &self.rows
    }

    /// Materializes the live edge set (sorted, deduplicated).
    pub fn to_triples(&self) -> Triples {
        self.cols.to_triples()
    }

    /// Materializes the live edge set as CSC.
    pub fn to_csc(&self) -> Csc {
        self.cols.to_csc()
    }

    /// Forces a compaction of both directions (one epoch bump).
    pub fn compact(&mut self) {
        self.cols.compact();
        self.rows.compact();
    }

    /// Staged overlay entries across both directions (diagnostic).
    #[inline]
    pub fn overlay_nnz(&self) -> usize {
        self.cols.overlay_nnz()
    }

    fn maybe_compact(&mut self) {
        if self.cols.overlay_nnz() > self.cols.nnz() / COMPACT_DIVISOR + COMPACT_SLACK {
            self.compact();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::permute::SplitMix64;

    #[test]
    fn both_directions_stay_in_sync_under_random_ops() {
        let (n1, n2) = (17usize, 13usize);
        let mut g = DynGraph::empty(n1, n2);
        let mut rng = SplitMix64::new(42);
        for _ in 0..4000 {
            let r = rng.below(n1 as u64) as Vidx;
            let c = rng.below(n2 as u64) as Vidx;
            if rng.below(2) == 0 {
                g.insert(r, c);
            } else {
                g.delete(r, c);
            }
        }
        // The transpose of the column view must equal the row view.
        let a = g.to_csc();
        let mut from_rows = Triples::new(n1, n2);
        for r in 0..n1 as Vidx {
            g.rows().for_each_in_col(r, |c| from_rows.push(r, c));
        }
        assert_eq!(from_rows.to_csc(), a);
        assert_eq!(a.nnz(), g.nnz());
    }

    #[test]
    fn auto_compaction_triggers_and_preserves_the_graph() {
        let mut g = DynGraph::empty(40, 40);
        let mut rng = SplitMix64::new(7);
        let epoch0 = g.epoch();
        for _ in 0..2000 {
            g.insert(rng.below(40) as Vidx, rng.below(40) as Vidx);
            g.delete(rng.below(40) as Vidx, rng.below(40) as Vidx);
        }
        assert!(g.epoch() > epoch0, "sustained churn never compacted");
        assert!(
            g.overlay_nnz() <= g.nnz() / COMPACT_DIVISOR + COMPACT_SLACK,
            "overlay exceeded the compaction bound"
        );
    }

    #[test]
    fn from_triples_roundtrip() {
        let t = Triples::from_edges(3, 5, vec![(0, 4), (2, 1), (1, 1)]);
        let g = DynGraph::from_triples(&t);
        let mut want = t.clone();
        want.sort_dedup();
        assert_eq!(g.to_triples(), want);
        assert_eq!(g.row_degree(1), 1);
        assert_eq!(g.col_degree(1), 2);
    }
}
