//! `DynGraph`: a mutable bipartite graph with both-sided adjacency.
//!
//! The repair engines need two scan directions the static pipeline never
//! mixes: column → rows (the matrix `A`, for augmenting searches and bids
//! rooted at columns) and row → columns (`Aᵀ`, for searches rooted at rows
//! freed by matched-edge deletions, and for the weighted engine's reverse
//! bids). `DynGraph` keeps one
//! [`CscOverlay`](mcm_sparse::CscOverlay) per direction, applies every
//! update to both, and compacts them together once the overlay outgrows a
//! fraction of the base — the epoch bump is the cache-invalidation signal
//! for anything keyed on the frozen base (the warm-start fallback
//! redistributes per epoch, mirroring how `DistMatrix` freezes `Triples`).
//!
//! Both directions carry the edge value `V` (`()` for the cardinality
//! engine, the weight `f64` for the weighted one): a reverse bid scans a
//! row's `(column, weight)` entries, where a per-entry lookup into the
//! column direction would cost several cache misses.

use mcm_sparse::{Csc, CscOverlay, Triples, Vidx, WCsc};

/// Overlay growth bound before auto-compaction: compact when the staged
/// overlay exceeds `nnz / COMPACT_DIVISOR + COMPACT_SLACK` entries. The
/// slack term keeps tiny graphs from compacting on every update.
const COMPACT_DIVISOR: usize = 4;
const COMPACT_SLACK: usize = 64;

/// A dynamic `n1 × n2` bipartite graph: column adjacency (`A`) and row
/// adjacency (`Aᵀ`), each carrying a value `V` per edge, kept in
/// lock-step through insert/delete overlays.
///
/// # Example
///
/// ```
/// use mcm_dyn::DynGraph;
///
/// let mut g = DynGraph::empty(3, 4);
/// assert!(g.insert(1, 2, ()));
/// assert!(!g.insert(1, 2, ()));
/// assert_eq!(g.nnz(), 1);
/// let mut rows = Vec::new();
/// g.cols().for_each_in_col(2, |r, ()| rows.push(r));
/// assert_eq!(rows, vec![1]);
/// let mut cols = Vec::new();
/// g.rows().for_each_in_col(1, |c, ()| cols.push(c));
/// assert_eq!(cols, vec![2]);
///
/// let mut w = DynGraph::empty(2, 2);
/// assert!(w.insert(0, 1, 4.5));
/// assert!(!w.insert(0, 1, 6.0), "a live edge is re-weighted");
/// assert_eq!(w.cols().value(0, 1), Some(6.0));
/// ```
#[derive(Clone, Debug)]
pub struct DynGraph<V = ()> {
    /// `n1 × n2`: rows adjacent to each column (the matrix `A`).
    cols: CscOverlay<V>,
    /// `n2 × n1`: columns adjacent to each row (`Aᵀ`).
    rows: CscOverlay<V>,
}

impl DynGraph {
    /// Builds from a static edge list (the initial compacted base).
    pub fn from_triples(t: &Triples) -> Self {
        Self::from_csc(t.to_csc())
    }

    /// Builds from an already-compacted CSC base — the MCSB load path
    /// (`mcmd --load graph.mcsb`), which decodes straight to CSC and never
    /// owns a triple list. The row adjacency is the explicit transpose.
    pub fn from_csc(a: Csc) -> Self {
        let nnz = a.nnz();
        Self::with_values(a, vec![(); nnz])
    }
}

impl DynGraph<f64> {
    /// Builds from a weighted CSC base: its values become the column
    /// direction's weights, and the row adjacency is the weighted
    /// transpose.
    pub fn from_wcsc(a: WCsc) -> Self {
        let (pattern, values) = a.into_parts();
        Self::with_values(pattern, values)
    }
}

impl<V: Copy + PartialEq> DynGraph<V> {
    /// An empty dynamic graph with `n1` row and `n2` column vertices.
    pub fn empty(n1: usize, n2: usize) -> Self {
        Self { cols: CscOverlay::empty(n1, n2), rows: CscOverlay::empty(n2, n1) }
    }

    /// Builds from a CSC base and values aligned with its nonzeros.
    fn with_values(a: Csc, values: Vec<V>) -> Self
    where
        V: Default,
    {
        let (at, at_values) = a.view().transpose_with(&values);
        Self {
            cols: CscOverlay::with_values(a, values),
            rows: CscOverlay::with_values(at, at_values),
        }
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

    /// Inserts edge `(r, c)` with value `v`; `true` when it was not
    /// already live. A live edge takes the new value. May trigger
    /// compaction of both adjacency directions.
    pub fn insert(&mut self, r: Vidx, c: Vidx, v: V) -> bool {
        let added = self.cols.insert(r, c, v);
        let also = self.rows.insert(c, r, v);
        debug_assert_eq!(added, also, "row/col adjacency diverged on insert ({r}, {c})");
        // A re-valued edge grows both overlays too.
        self.maybe_compact();
        added
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

    /// The column adjacency (`A`, `n1 × n2`): the `(row, value)` entries
    /// of each column in row order, and all a reader of the edge set needs.
    #[inline]
    pub fn cols(&self) -> &CscOverlay<V> {
        &self.cols
    }

    /// The row adjacency (`Aᵀ`, `n2 × n1`): the `(column, value)`
    /// entries of each row in column order.
    #[inline]
    pub fn rows(&self) -> &CscOverlay<V> {
        &self.rows
    }

    /// Materializes the live edge pattern (sorted, deduplicated).
    pub fn to_triples(&self) -> Triples {
        self.cols.to_triples()
    }

    /// Materializes the live edge pattern as CSC.
    pub fn to_csc(&self) -> Csc {
        self.cols.to_csc()
    }

    /// Forces a compaction of both directions (one epoch bump).
    pub fn compact(&mut self) {
        self.cols.compact();
        self.rows.compact();
    }

    /// Staged overlay entries of the column direction (diagnostic).
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
                g.insert(r, c, ());
            } else {
                g.delete(r, c);
            }
        }
        // The transpose of the column view must equal the row view.
        let a = g.to_csc();
        let mut from_rows = Triples::new(n1, n2);
        for r in 0..n1 as Vidx {
            g.rows().for_each_in_col(r, |c, ()| from_rows.push(r, c));
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
            g.insert(rng.below(40) as Vidx, rng.below(40) as Vidx, ());
            g.delete(rng.below(40) as Vidx, rng.below(40) as Vidx);
        }
        assert!(g.epoch() > epoch0, "sustained churn never compacted");
        assert!(
            g.overlay_nnz() <= g.nnz() / COMPACT_DIVISOR + COMPACT_SLACK,
            "overlay exceeded the compaction bound"
        );
    }

    #[test]
    fn weighted_graph_reweights_compacts_and_keeps_rows_in_sync() {
        let (n1, n2) = (21usize, 19usize);
        let mut g = DynGraph::empty(n1, n2);
        let mut mirror: Vec<Option<f64>> = vec![None; n1 * n2];
        let mut rng = SplitMix64::new(0xF64);
        let epoch0 = g.epoch();
        for _ in 0..3000 {
            let (r, c) = (rng.below(n1 as u64) as usize, rng.below(n2 as u64) as usize);
            if rng.below(3) == 0 {
                assert_eq!(g.delete(r as Vidx, c as Vidx), mirror[r * n2 + c].is_some());
                mirror[r * n2 + c] = None;
            } else {
                let w = (rng.below(9) + 1) as f64;
                assert_eq!(g.insert(r as Vidx, c as Vidx, w), mirror[r * n2 + c].is_none());
                mirror[r * n2 + c] = Some(w);
            }
        }
        assert!(g.epoch() > epoch0, "re-weight churn never compacted");
        let mut from_rows = Triples::new(n1, n2);
        for r in 0..n1 as Vidx {
            g.rows().for_each_in_col(r, |c, w| {
                assert_eq!(Some(w), g.cols().value(r, c), "row-side weight of ({r}, {c})");
                from_rows.push(r, c);
            });
        }
        assert_eq!(from_rows.to_csc(), g.to_csc());
        for r in 0..n1 {
            for c in 0..n2 {
                assert_eq!(g.cols().value(r as Vidx, c as Vidx), mirror[r * n2 + c]);
            }
        }
    }

    #[test]
    fn from_triples_roundtrip() {
        let t = Triples::from_edges(3, 5, vec![(0, 4), (2, 1), (1, 1)]);
        let g = DynGraph::from_triples(&t);
        let mut want = t.clone();
        want.sort_dedup();
        assert_eq!(g.to_triples(), want);
        assert_eq!(g.col_degree(1), 2);
    }
}
