//! Insert/delete edge overlay on top of a compressed-sparse-column base.
//!
//! The static pipeline freezes a graph into [`Csc`] once; the dynamic
//! matching engines (`mcm-dyn`) need cheap point updates *and* the fast
//! merged column scans their repair loops perform. [`CscOverlay`] keeps the
//! bulk of the graph in an immutable CSC base (plus one value per base
//! nonzero) and stages mutations in two small per-column sorted lists
//! (`inserted`, `deleted`). Scans merge the base column (minus deletions)
//! with the insertions in sorted order, so a column visit stays `O(deg)`;
//! when the overlay grows past a caller-chosen bound,
//! [`CscOverlay::compact`] folds it back into a fresh CSC base and bumps the
//! *epoch* — the handle downstream caches (distributed blocks, SpMSpV plans)
//! use to notice the base changed underneath them.
//!
//! The edge value type `V` defaults to `()`, a pure pattern: the values
//! vector is then zero-sized and every scan compiles to the pattern walk.
//! The weighted engine uses `CscOverlay<f64>`. Inserting over a live edge
//! with a different value re-weights it: the base entry is masked through
//! `deleted` and the new value staged in `inserted`, so staged insertions
//! stay disjoint from the live base and the counting logic is the same for
//! every `V`.

use crate::{Csc, Triples, Vidx, WCsc};

/// A mutable sparse matrix: an immutable [`Csc`] base with aligned values
/// plus sorted per-column insert/delete lists, compacted epoch by epoch.
///
/// # Example
///
/// ```
/// use mcm_sparse::overlay::CscOverlay;
/// use mcm_sparse::Triples;
///
/// let base = Triples::from_edges(3, 3, vec![(0, 0), (1, 1)]).to_csc();
/// let mut g = CscOverlay::new(base);
/// assert!(g.insert(2, 1, ()));
/// assert!(g.delete(0, 0));
/// assert!(!g.contains(0, 0) && g.contains(2, 1));
/// assert_eq!(g.nnz(), 2);
/// let epoch = g.epoch();
/// g.compact();
/// assert_eq!(g.epoch(), epoch + 1);
/// assert_eq!(g.overlay_nnz(), 0);
/// assert_eq!(g.nnz(), 2);
///
/// let mut w = CscOverlay::empty(3, 3);
/// assert!(w.insert(0, 0, 5.0));
/// assert!(!w.insert(0, 0, 7.5), "re-insert of a live edge just re-weights");
/// assert_eq!(w.value(0, 0), Some(7.5));
/// ```
#[derive(Clone, Debug)]
pub struct CscOverlay<V = ()> {
    base: Csc,
    /// Value of each base nonzero, aligned with `base.rowind()`.
    values: Vec<V>,
    /// Per-column row-sorted `(row, value)` pairs live in the graph but not
    /// in the unmasked base. Also holds value overrides of base edges, whose
    /// base entry is then masked through `deleted`.
    inserted: Vec<Vec<(Vidx, V)>>,
    /// Per-column sorted row indices present in the base but masked.
    deleted: Vec<Vec<Vidx>>,
    n_inserted: usize,
    n_deleted: usize,
    epoch: u64,
}

impl CscOverlay {
    /// Wraps an existing pattern base with an empty overlay (epoch 0).
    pub fn new(base: Csc) -> Self {
        let nnz = base.nnz();
        Self::with_values(base, vec![(); nnz])
    }
}

impl CscOverlay<f64> {
    /// Wraps an existing weighted base with an empty overlay (epoch 0).
    pub fn from_wcsc(a: WCsc) -> Self {
        let (pattern, values) = a.into_parts();
        Self::with_values(pattern, values)
    }

    /// Materializes the live edge set as a fresh weighted CSC.
    pub fn to_wcsc(&self) -> WCsc {
        let (pattern, values) = self.to_parts();
        WCsc::from_sorted_parts(pattern, values)
    }

    /// Materializes the live edge set as column-major weighted triples.
    pub fn to_weighted_triples(&self) -> Vec<(Vidx, Vidx, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for c in 0..self.ncols() as Vidx {
            self.for_each_in_col(c, |r, w| out.push((r, c, w)));
        }
        out
    }
}

impl<V: Copy + PartialEq> CscOverlay<V> {
    /// Wraps a base with values aligned to its nonzeros (epoch 0).
    ///
    /// # Panics
    /// Panics when `values` does not have one entry per base nonzero.
    pub fn with_values(base: Csc, values: Vec<V>) -> Self {
        assert_eq!(base.nnz(), values.len(), "values must align with the base nonzeros");
        let ncols = base.ncols();
        Self {
            base,
            values,
            inserted: vec![Vec::new(); ncols],
            deleted: vec![Vec::new(); ncols],
            n_inserted: 0,
            n_deleted: 0,
            epoch: 0,
        }
    }

    /// An empty `nrows × ncols` graph (all edges will live in the overlay
    /// until the first compaction).
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self::with_values(Csc::empty(nrows, ncols), Vec::new())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.base.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.base.ncols()
    }

    /// Live edge count (base minus deletions plus insertions).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.base.nnz() - self.n_deleted + self.n_inserted
    }

    /// Staged overlay size: inserted plus deleted entries. Callers use this
    /// against [`CscOverlay::nnz`] to decide when to compact.
    #[inline]
    pub fn overlay_nnz(&self) -> usize {
        self.n_inserted + self.n_deleted
    }

    /// Compaction epoch: bumped every time the base is rebuilt, so caches
    /// keyed on the base (distributed blocks, SpMSpV plans) can invalidate.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Offsets of column `j` in the base arrays.
    #[inline]
    fn base_range(&self, j: usize) -> std::ops::Range<usize> {
        let colptr = self.base.colptr();
        colptr[j] as usize..colptr[j + 1] as usize
    }

    /// The base value of `(r, j)`, masked or not.
    fn base_value(&self, r: Vidx, j: usize) -> Option<V> {
        let range = self.base_range(j);
        let lo = range.start;
        self.base.rowind()[range].binary_search(&r).ok().map(|k| self.values[lo + k])
    }

    /// The value of live edge `(r, c)`, or `None` when the edge is dead.
    pub fn value(&self, r: Vidx, c: Vidx) -> Option<V> {
        let j = c as usize;
        if let Ok(pos) = self.inserted[j].binary_search_by_key(&r, |&(i, _)| i) {
            return Some(self.inserted[j][pos].1);
        }
        if self.deleted[j].binary_search(&r).is_ok() {
            return None;
        }
        self.base_value(r, j)
    }

    /// `true` when edge `(r, c)` is live.
    #[inline]
    pub fn contains(&self, r: Vidx, c: Vidx) -> bool {
        self.value(r, c).is_some()
    }

    /// Inserts edge `(r, c)` with value `v`; returns `true` when the edge
    /// was not already live. Inserting over a live edge re-values it (and
    /// returns `false`); an equal-value re-insert is a pure no-op, and
    /// re-inserting a masked base edge with its base value un-deletes it.
    ///
    /// # Panics
    /// Debug-panics on out-of-bounds coordinates.
    pub fn insert(&mut self, r: Vidx, c: Vidx, v: V) -> bool {
        debug_assert!((r as usize) < self.nrows() && (c as usize) < self.ncols());
        let j = c as usize;
        let pos = match self.inserted[j].binary_search_by_key(&r, |&(i, _)| i) {
            Ok(pos) => {
                self.inserted[j][pos].1 = v;
                return false;
            }
            Err(pos) => pos,
        };
        let Some(bv) = self.base_value(r, j) else {
            self.inserted[j].insert(pos, (r, v));
            self.n_inserted += 1;
            return true;
        };
        match self.deleted[j].binary_search(&r) {
            // A masked base edge: un-delete when the value matches the
            // base, override otherwise.
            Ok(dpos) => {
                if bv == v {
                    self.deleted[j].remove(dpos);
                    self.n_deleted -= 1;
                } else {
                    self.inserted[j].insert(pos, (r, v));
                    self.n_inserted += 1;
                }
                true
            }
            // A live base edge: re-valuing masks the base entry and stages
            // the override; the live edge set (and `nnz`) is unchanged.
            Err(dpos) => {
                if bv != v {
                    self.deleted[j].insert(dpos, r);
                    self.n_deleted += 1;
                    self.inserted[j].insert(pos, (r, v));
                    self.n_inserted += 1;
                }
                false
            }
        }
    }

    /// Deletes edge `(r, c)`; returns `true` when the edge was live.
    pub fn delete(&mut self, r: Vidx, c: Vidx) -> bool {
        debug_assert!((r as usize) < self.nrows() && (c as usize) < self.ncols());
        let j = c as usize;
        if let Ok(pos) = self.inserted[j].binary_search_by_key(&r, |&(i, _)| i) {
            // An override of a base edge leaves the base entry masked in
            // `deleted`, so removing the staged entry suffices.
            self.inserted[j].remove(pos);
            self.n_inserted -= 1;
            return true;
        }
        if self.base_value(r, j).is_none() {
            return false;
        }
        match self.deleted[j].binary_search(&r) {
            Ok(_) => false,
            Err(pos) => {
                self.deleted[j].insert(pos, r);
                self.n_deleted += 1;
                true
            }
        }
    }

    /// Live degree of column `c`.
    pub fn col_degree(&self, c: Vidx) -> usize {
        let j = c as usize;
        self.base.col_nnz(j) - self.deleted[j].len() + self.inserted[j].len()
    }

    /// Visits the live `(row, value)` entries of column `c` in row order:
    /// the base column minus masked entries, merged with staged insertions.
    #[inline]
    pub fn for_each_in_col(&self, c: Vidx, mut f: impl FnMut(Vidx, V)) {
        let j = c as usize;
        let range = self.base_range(j);
        let ins = &self.inserted[j];
        let del = &self.deleted[j];
        let mut ii = 0; // cursor into ins
        let mut di = 0; // cursor into del
        for (&r, &v) in self.base.rowind()[range.clone()].iter().zip(&self.values[range]) {
            while ii < ins.len() && ins[ii].0 < r {
                f(ins[ii].0, ins[ii].1);
                ii += 1;
            }
            if di < del.len() && del[di] == r {
                di += 1;
                continue;
            }
            f(r, v);
        }
        for &(r, v) in &ins[ii..] {
            f(r, v);
        }
    }

    /// Materializes the live edge pattern as (sorted, deduplicated) triples.
    pub fn to_triples(&self) -> Triples {
        let mut t = Triples::with_capacity(self.nrows(), self.ncols(), self.nnz());
        for c in 0..self.ncols() as Vidx {
            self.for_each_in_col(c, |r, _| t.push(r, c));
        }
        t
    }

    /// Materializes the live edge pattern as a fresh CSC.
    pub fn to_csc(&self) -> Csc {
        self.to_parts().0
    }

    /// The live edge set as a CSC pattern plus aligned values: one linear
    /// pass, since every merged column scan is already row-sorted.
    fn to_parts(&self) -> (Csc, Vec<V>) {
        let nnz = self.nnz();
        let mut colptr = Vec::with_capacity(self.ncols() + 1);
        let mut rowind = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        colptr.push(0u64);
        for c in 0..self.ncols() as Vidx {
            self.for_each_in_col(c, |r, v| {
                rowind.push(r);
                values.push(v);
            });
            colptr.push(rowind.len() as u64);
        }
        (Csc::from_parts(self.nrows(), self.ncols(), colptr, rowind), values)
    }

    /// Folds the overlay back into the base (new epoch). No-op overlays
    /// still bump the epoch so callers can force cache invalidation.
    pub fn compact(&mut self) {
        if self.overlay_nnz() > 0 {
            (self.base, self.values) = self.to_parts();
            for v in &mut self.inserted {
                v.clear();
            }
            for v in &mut self.deleted {
                v.clear();
            }
            self.n_inserted = 0;
            self.n_deleted = 0;
        }
        self.epoch += 1;
    }

    /// Read-only view of the current base pattern (valid for the current
    /// epoch).
    #[inline]
    pub fn base(&self) -> &Csc {
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::SplitMix64;

    fn base3() -> Csc {
        Triples::from_edges(3, 3, vec![(0, 0), (2, 0), (1, 1), (0, 2)]).to_csc()
    }

    fn wbase3() -> CscOverlay<f64> {
        CscOverlay::from_wcsc(WCsc::from_weighted_triples(
            3,
            3,
            vec![(0, 0, 1.0), (2, 0, 2.0), (1, 1, 3.0), (0, 2, 4.0)],
        ))
    }

    #[test]
    fn insert_delete_and_contains() {
        let mut g = CscOverlay::new(base3());
        assert_eq!(g.nnz(), 4);
        assert!(g.contains(2, 0));
        assert!(!g.insert(2, 0, ()), "re-inserting a base edge is a no-op");
        assert!(g.insert(1, 0, ()));
        assert!(!g.insert(1, 0, ()), "re-inserting an overlay edge is a no-op");
        assert!(g.delete(0, 0));
        assert!(!g.delete(0, 0), "double delete is a no-op");
        assert!(!g.contains(0, 0));
        assert_eq!(g.nnz(), 4);
        assert_eq!(g.col_degree(0), 2);
    }

    #[test]
    fn delete_then_reinsert_base_edge() {
        let mut g = CscOverlay::new(base3());
        assert!(g.delete(1, 1));
        assert!(!g.contains(1, 1));
        assert!(g.insert(1, 1, ()), "un-deleting restores the base edge");
        assert!(g.contains(1, 1));
        assert_eq!(g.overlay_nnz(), 0, "un-delete must not leave overlay residue");
    }

    #[test]
    fn insert_then_delete_overlay_edge() {
        let mut g = CscOverlay::new(base3());
        assert!(g.insert(2, 2, ()));
        assert!(g.delete(2, 2));
        assert_eq!(g.overlay_nnz(), 0);
        assert!(!g.contains(2, 2));
    }

    #[test]
    fn merged_column_scan_is_sorted_and_complete() {
        let mut g = CscOverlay::new(base3());
        g.insert(1, 0, ()); // between base rows 0 and 2
        g.delete(2, 0);
        let mut seen = Vec::new();
        g.for_each_in_col(0, |r, ()| seen.push(r));
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn compact_preserves_edges_and_bumps_epoch() {
        let mut g = CscOverlay::new(base3());
        g.insert(2, 2, ());
        g.delete(0, 0);
        let before = g.to_csc();
        assert_eq!(g.epoch(), 0);
        g.compact();
        assert_eq!(g.epoch(), 1);
        assert_eq!(g.overlay_nnz(), 0);
        assert_eq!(g.base(), &before);
        assert_eq!(g.to_csc(), before);
        assert_eq!(before, g.to_triples().to_csc());
    }

    #[test]
    fn randomized_differential_against_dense_mirror() {
        // Overlay vs a dense boolean mirror under a random op stream with
        // interleaved compactions: membership, nnz, and materialization
        // must agree at every step.
        let (n1, n2) = (13usize, 11usize);
        let mut g = CscOverlay::empty(n1, n2);
        let mut mirror = vec![false; n1 * n2];
        let mut rng = SplitMix64::new(0xD1FF);
        for step in 0..2000 {
            let r = rng.below(n1 as u64) as usize;
            let c = rng.below(n2 as u64) as usize;
            let (rv, cv) = (r as Vidx, c as Vidx);
            match rng.below(3) {
                0 => {
                    let changed = g.insert(rv, cv, ());
                    assert_eq!(changed, !mirror[r * n2 + c], "step {step} insert ({r},{c})");
                    mirror[r * n2 + c] = true;
                }
                1 => {
                    let changed = g.delete(rv, cv);
                    assert_eq!(changed, mirror[r * n2 + c], "step {step} delete ({r},{c})");
                    mirror[r * n2 + c] = false;
                }
                _ => {
                    assert_eq!(g.contains(rv, cv), mirror[r * n2 + c], "step {step}");
                }
            }
            if step % 257 == 0 {
                g.compact();
            }
            if step % 97 == 0 {
                let want = mirror.iter().filter(|&&b| b).count();
                assert_eq!(g.nnz(), want, "step {step} nnz");
                let a = g.to_csc();
                assert_eq!(a.nnz(), want);
                for rr in 0..n1 {
                    for cc in 0..n2 {
                        assert_eq!(
                            a.contains(rr as Vidx, cc),
                            mirror[rr * n2 + cc],
                            "step {step} csc ({rr},{cc})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_overlay_materializes_inserts_only() {
        let mut g = CscOverlay::empty(4, 4);
        g.insert(3, 1, ());
        g.insert(0, 1, ());
        let t = g.to_triples();
        assert_eq!(t.entries(), &[(0, 1), (3, 1)]);
        g.compact();
        assert_eq!(g.base().nnz(), 2);
    }

    #[test]
    fn weighted_insert_delete_reweight_and_lookup() {
        let mut g = wbase3();
        assert_eq!(g.nnz(), 4);
        assert_eq!(g.value(2, 0), Some(2.0));
        assert!(!g.insert(2, 0, 2.0), "same-weight re-insert is a no-op");
        assert_eq!(g.overlay_nnz(), 0);
        assert!(!g.insert(2, 0, 9.0), "re-weight of a live base edge");
        assert_eq!(g.value(2, 0), Some(9.0));
        assert_eq!(g.nnz(), 4, "re-weight leaves the live edge set unchanged");
        assert!(g.insert(1, 0, 5.0));
        assert!(!g.insert(1, 0, 6.0), "re-weight of a live overlay edge");
        assert_eq!(g.value(1, 0), Some(6.0));
        assert!(g.delete(0, 0));
        assert!(!g.delete(0, 0), "double delete is a no-op");
        assert_eq!(g.value(0, 0), None);
        assert_eq!(g.nnz(), 4);
        assert_eq!(g.col_degree(0), 2);
    }

    #[test]
    fn weighted_delete_then_reinsert_base_edge() {
        let mut g = wbase3();
        assert!(g.delete(1, 1));
        assert!(g.insert(1, 1, 3.0), "same-weight re-insert un-deletes");
        assert_eq!(g.overlay_nnz(), 0, "un-delete must not leave overlay residue");
        assert!(g.delete(1, 1));
        assert!(g.insert(1, 1, 8.0), "re-insert with a new weight overrides");
        assert_eq!(g.value(1, 1), Some(8.0));
        assert_eq!(g.nnz(), 4);
    }

    #[test]
    fn delete_of_reweighted_base_edge_kills_the_edge() {
        let mut g = wbase3();
        assert!(!g.insert(0, 2, 7.0));
        assert!(g.delete(0, 2));
        assert!(!g.contains(0, 2));
        assert_eq!(g.nnz(), 3);
        assert_eq!(g.value(0, 2), None);
    }

    #[test]
    fn weighted_merged_column_scan_is_sorted() {
        let mut g = wbase3();
        g.insert(1, 0, 5.0); // between base rows 0 and 2
        g.insert(2, 0, 9.0); // re-weight base row 2
        g.delete(0, 0);
        let mut seen = Vec::new();
        g.for_each_in_col(0, |r, w| seen.push((r, w)));
        assert_eq!(seen, vec![(1, 5.0), (2, 9.0)]);
    }

    #[test]
    fn weighted_compact_preserves_weights_and_bumps_epoch() {
        let mut g = wbase3();
        g.insert(2, 2, 6.0);
        g.insert(2, 0, 9.0);
        g.delete(0, 0);
        let before = g.to_wcsc();
        assert_eq!(g.epoch(), 0);
        g.compact();
        assert_eq!(g.epoch(), 1);
        assert_eq!(g.overlay_nnz(), 0);
        assert_eq!(g.to_wcsc(), before);
        assert_eq!(
            before,
            WCsc::from_weighted_triples(3, 3, g.to_weighted_triples()),
            "the linear compaction equals the sorting constructor"
        );
    }

    #[test]
    fn randomized_differential_against_dense_weight_mirror() {
        // Overlay vs a dense Option<f64> mirror under a random op stream
        // with interleaved compactions: weights, nnz, and materialization
        // must agree at every step.
        let (n1, n2) = (13usize, 11usize);
        let mut g = CscOverlay::empty(n1, n2);
        let mut mirror: Vec<Option<f64>> = vec![None; n1 * n2];
        let mut rng = SplitMix64::new(0xBEA7);
        for step in 0..2000 {
            let r = rng.below(n1 as u64) as usize;
            let c = rng.below(n2 as u64) as usize;
            let (rv, cv) = (r as Vidx, c as Vidx);
            match rng.below(3) {
                0 => {
                    let w = (rng.below(50) + 1) as f64;
                    let changed = g.insert(rv, cv, w);
                    assert_eq!(changed, mirror[r * n2 + c].is_none(), "step {step}");
                    mirror[r * n2 + c] = Some(w);
                }
                1 => {
                    let changed = g.delete(rv, cv);
                    assert_eq!(changed, mirror[r * n2 + c].is_some(), "step {step}");
                    mirror[r * n2 + c] = None;
                }
                _ => {
                    assert_eq!(g.value(rv, cv), mirror[r * n2 + c], "step {step}");
                }
            }
            if step % 257 == 0 {
                g.compact();
            }
            if step % 97 == 0 {
                let want = mirror.iter().filter(|b| b.is_some()).count();
                assert_eq!(g.nnz(), want, "step {step} nnz");
                let a = g.to_wcsc();
                assert_eq!(a.nnz(), want);
                for rr in 0..n1 {
                    for cc in 0..n2 {
                        assert_eq!(
                            a.weight(rr as Vidx, cc),
                            mirror[rr * n2 + cc],
                            "step {step} wcsc ({rr},{cc})"
                        );
                    }
                }
            }
        }
    }
}
