//! Weighted CSC: the pattern plus per-nonzero values.
//!
//! The structural matching this crate is built for is step one of solver
//! preprocessing; step two (Duff & Koster's MC64, the paper's citation \[2\])
//! matches on *numerical* weights to bring large entries onto the diagonal.
//! [`WCsc`] carries the values needed for that weighted matching
//! (`mcm-core::weighted`) while reusing the CSC pattern machinery.

use crate::{Csc, Triples, Vidx};

/// A sparse matrix in CSC layout with an `f64` value per nonzero.
///
/// # Example
///
/// ```
/// use mcm_sparse::WCsc;
///
/// let a = WCsc::from_weighted_triples(2, 2, vec![(0, 0, 5.0), (1, 0, 2.0), (1, 1, 3.0)]);
/// assert_eq!(a.weight(1, 0), Some(2.0));
/// assert_eq!(a.weight(0, 1), None);
/// let col0: Vec<_> = a.col_entries(0).collect();
/// assert_eq!(col0, vec![(0, 5.0), (1, 2.0)]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WCsc {
    pattern: Csc,
    /// Values aligned with `pattern.rowind()` (column-major, row-sorted).
    values: Vec<f64>,
}

impl WCsc {
    /// Builds from `(row, col, weight)` triples. Duplicate coordinates keep
    /// the **largest** weight (the natural choice for matching).
    pub fn from_weighted_triples(
        nrows: usize,
        ncols: usize,
        mut entries: Vec<(Vidx, Vidx, f64)>,
    ) -> Self {
        // Column-major sort; ties on coordinates keep the max weight.
        entries.sort_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)).then(b.2.total_cmp(&a.2)));
        entries.dedup_by_key(|&mut (i, j, _)| (i, j));
        let pattern = Csc::from_sorted_triples(&Triples::from_edges(
            nrows,
            ncols,
            entries.iter().map(|&(i, j, _)| (i, j)).collect(),
        ));
        let values = entries.into_iter().map(|(_, _, w)| w).collect();
        Self { pattern, values }
    }

    /// Builds from an already-constructed pattern and values aligned with
    /// `pattern.rowind()`. This is the decode path for storage formats
    /// (MCSB in `mcm-store`) whose payload is exactly these arrays — the
    /// data is sorted and deduplicated on disk, so re-sorting through
    /// [`WCsc::from_weighted_triples`] would be a wasted O(nnz log nnz).
    pub fn from_sorted_parts(pattern: Csc, values: Vec<f64>) -> Self {
        assert_eq!(
            pattern.nnz(),
            values.len(),
            "values must align one-to-one with the pattern's nonzeros"
        );
        Self { pattern, values }
    }

    /// The structural pattern.
    #[inline]
    pub fn pattern(&self) -> &Csc {
        &self.pattern
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.pattern.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.pattern.ncols()
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(row, weight)` pairs of column `j`, rows ascending.
    pub fn col_entries(&self, j: usize) -> impl Iterator<Item = (Vidx, f64)> + '_ {
        let lo = self.pattern.colptr()[j] as usize;
        let hi = self.pattern.colptr()[j + 1] as usize;
        self.pattern.rowind()[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&i, &w)| (i, w))
    }

    /// The weight of entry `(i, j)` when present.
    pub fn weight(&self, i: Vidx, j: usize) -> Option<f64> {
        let lo = self.pattern.colptr()[j] as usize;
        let hi = self.pattern.colptr()[j + 1] as usize;
        self.pattern.rowind()[lo..hi].binary_search(&i).ok().map(|k| self.values[lo + k])
    }

    /// The values slice, aligned with `pattern().rowind()`.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Splits into the pattern and the values aligned with its nonzeros.
    pub fn into_parts(self) -> (Csc, Vec<f64>) {
        (self.pattern, self.values)
    }

    /// Back to `(row, col, weight)` triples, column-major.
    pub fn to_weighted_triples(&self) -> Vec<(Vidx, Vidx, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for j in 0..self.ncols() {
            for (i, w) in self.col_entries(j) {
                out.push((i, j as Vidx, w));
            }
        }
        out
    }

    /// The weighted transpose: entry `(i, j, w)` becomes `(j, i, w)`.
    ///
    /// The weighted analogue of [`Triples::transposed`]; the dynamic weighted
    /// engine keeps both orientations so price resets can walk a row's
    /// column neighbourhood.
    pub fn transposed(&self) -> WCsc {
        let flipped = self.to_weighted_triples().into_iter().map(|(i, j, w)| (j, i, w)).collect();
        WCsc::from_weighted_triples(self.ncols(), self.nrows(), flipped)
    }

    /// Largest absolute weight (0 for an empty matrix).
    pub fn max_abs_weight(&self) -> f64 {
        self.values.iter().fold(0.0, |m, &w| m.max(w.abs()))
    }

    /// Applies `f` to every weight (e.g. `|w| w.abs().ln()` for MC64-style
    /// product objectives).
    pub fn map_weights(&self, f: impl Fn(f64) -> f64) -> WCsc {
        WCsc { pattern: self.pattern.clone(), values: self.values.iter().map(|&w| f(w)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let a = WCsc::from_weighted_triples(3, 3, vec![(2, 0, 1.0), (0, 0, 4.0), (1, 2, -2.0)]);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.weight(0, 0), Some(4.0));
        assert_eq!(a.weight(2, 0), Some(1.0));
        assert_eq!(a.weight(1, 2), Some(-2.0));
        assert_eq!(a.weight(1, 1), None);
        assert_eq!(a.max_abs_weight(), 4.0);
    }

    #[test]
    fn duplicates_keep_max_weight() {
        let a = WCsc::from_weighted_triples(2, 2, vec![(0, 0, 1.0), (0, 0, 9.0), (0, 0, 3.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.weight(0, 0), Some(9.0));
    }

    #[test]
    fn map_weights_transforms() {
        let a = WCsc::from_weighted_triples(1, 1, vec![(0, 0, -8.0)]);
        let b = a.map_weights(|w| w.abs());
        assert_eq!(b.weight(0, 0), Some(8.0));
        assert_eq!(b.pattern(), a.pattern());
    }

    #[test]
    fn transpose_round_trips() {
        let a = WCsc::from_weighted_triples(
            3,
            4,
            vec![(2, 0, 1.5), (0, 1, 4.0), (1, 3, -2.0), (2, 3, 7.0)],
        );
        let t = a.transposed();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.weight(0, 2), Some(1.5));
        assert_eq!(t.weight(3, 2), Some(7.0));
        assert_eq!(t.weight(1, 0), Some(4.0));
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn weighted_triples_round_trip() {
        let entries = vec![(0, 0, 2.0), (1, 0, 3.0), (0, 1, -1.0)];
        let a = WCsc::from_weighted_triples(2, 2, entries.clone());
        assert_eq!(a.to_weighted_triples(), entries);
    }

    #[test]
    fn col_entries_sorted_by_row() {
        let a = WCsc::from_weighted_triples(4, 1, vec![(3, 0, 3.0), (1, 0, 1.0), (2, 0, 2.0)]);
        let rows: Vec<Vidx> = a.col_entries(0).map(|(i, _)| i).collect();
        assert_eq!(rows, vec![1, 2, 3]);
    }
}
