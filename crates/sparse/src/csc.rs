//! Compressed sparse columns (CSC), pattern-only.
//!
//! CSC stores, for each column `j`, the sorted row indices of its nonzeros in
//! `rowind[colptr[j]..colptr[j+1]]`. It is the right format when most columns
//! are nonempty; 2D-partitioned submatrices on large process grids are
//! *hypersparse* (more columns than nonzeros) and use [`Dcsc`](crate::Dcsc)
//! instead, exactly as CombBLAS does.

use crate::{CscView, Triples, Vidx};

/// A pattern-only sparse matrix in compressed-sparse-column layout.
///
/// # Example
///
/// ```
/// use mcm_sparse::Triples;
///
/// let a = Triples::from_edges(3, 2, vec![(0, 0), (2, 0), (1, 1)]).to_csc();
/// assert_eq!(a.col(0), &[0, 2]);
/// assert_eq!(a.col_nnz(1), 1);
/// assert_eq!(a.transpose().col(0), &[0]); // rows of A become columns of Aᵀ
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csc {
    nrows: usize,
    ncols: usize,
    /// `colptr.len() == ncols + 1`; column `j` occupies
    /// `rowind[colptr[j]..colptr[j+1]]`. Fixed `u64`, the width of the MCSB
    /// on-disk layout, so [`Csc::view`] lends the arrays as they are.
    colptr: Vec<u64>,
    /// Row indices, sorted within each column.
    rowind: Vec<Vidx>,
}

impl Csc {
    /// Builds from triples that are already column-major sorted and
    /// deduplicated (see [`Triples::sort_dedup`]).
    ///
    /// # Panics
    /// Debug-panics when the input is not sorted/deduplicated.
    pub fn from_sorted_triples(t: &Triples) -> Self {
        let entries = t.entries();
        debug_assert!(
            entries.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
            "triples must be column-major sorted and deduplicated"
        );
        let mut colptr = vec![0u64; t.ncols() + 1];
        for &(_, j) in entries {
            colptr[j as usize + 1] += 1;
        }
        for j in 0..t.ncols() {
            colptr[j + 1] += colptr[j];
        }
        let rowind = entries.iter().map(|&(i, _)| i).collect();
        Self { nrows: t.nrows(), ncols: t.ncols(), colptr, rowind }
    }

    /// Builds an empty matrix with no nonzeros.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, colptr: vec![0; ncols + 1], rowind: Vec::new() }
    }

    /// Builds directly from raw parts.
    ///
    /// # Panics
    /// Panics when the parts are structurally inconsistent.
    pub fn from_parts(nrows: usize, ncols: usize, colptr: Vec<u64>, rowind: Vec<Vidx>) -> Self {
        assert_eq!(colptr.len(), ncols + 1);
        assert_eq!(colptr[0], 0);
        assert_eq!(*colptr.last().unwrap() as usize, rowind.len());
        assert!(colptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(rowind.iter().all(|&i| (i as usize) < nrows));
        Self { nrows, ncols, colptr, rowind }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// The sorted row indices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[Vidx] {
        &self.rowind[self.colptr[j] as usize..self.colptr[j + 1] as usize]
    }

    /// Number of nonzeros in column `j` (the degree of column vertex `j`).
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        (self.colptr[j + 1] - self.colptr[j]) as usize
    }

    /// Column pointer array (length `ncols + 1`).
    #[inline]
    pub fn colptr(&self) -> &[u64] {
        &self.colptr
    }

    /// Flat row-index array.
    #[inline]
    pub fn rowind(&self) -> &[Vidx] {
        &self.rowind
    }

    /// Lends the arrays as a [`CscView`]. Free: no O(n) re-check of arrays
    /// that every `Csc` keeps consistent by construction.
    #[inline]
    pub fn view(&self) -> CscView<'_> {
        CscView::from_trusted(self.nrows, self.ncols, &self.colptr, &self.rowind)
    }

    /// `true` when the entry `(i, j)` is a stored nonzero.
    pub fn contains(&self, i: Vidx, j: usize) -> bool {
        self.col(j).binary_search(&i).is_ok()
    }

    /// Iterates over all `(row, col)` coordinates in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Vidx, Vidx)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).iter().map(move |&i| (i, j as Vidx)))
    }

    /// Degrees of all column vertices.
    pub fn col_degrees(&self) -> Vec<Vidx> {
        (0..self.ncols).map(|j| self.col_nnz(j) as Vidx).collect()
    }

    /// Degrees of all row vertices.
    pub fn row_degrees(&self) -> Vec<Vidx> {
        let mut deg = vec![0 as Vidx; self.nrows];
        for &i in &self.rowind {
            deg[i as usize] += 1;
        }
        deg
    }

    /// Explicit transpose (CSC of `Aᵀ`, i.e. CSR of `A`). O(nnz + n).
    pub fn transpose(&self) -> Csc {
        let mut colptr = vec![0u64; self.nrows + 1];
        for &i in &self.rowind {
            colptr[i as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            colptr[i + 1] += colptr[i];
        }
        let mut cursor = colptr.clone();
        let mut rowind = vec![0 as Vidx; self.nnz()];
        for j in 0..self.ncols {
            for &i in self.col(j) {
                rowind[cursor[i as usize] as usize] = j as Vidx;
                cursor[i as usize] += 1;
            }
        }
        Csc { nrows: self.ncols, ncols: self.nrows, colptr, rowind }
    }

    /// Converts back to (sorted) triples.
    pub fn to_triples(&self) -> Triples {
        Triples::from_edges(self.nrows, self.ncols, self.iter().collect())
    }
}

impl<'a> From<&'a Csc> for CscView<'a> {
    fn from(a: &'a Csc) -> Self {
        a.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Csc {
        // 4x3:
        // col0: rows {0, 2}; col1: {}; col2: rows {1, 3}
        Triples::from_edges(4, 3, vec![(2, 0), (0, 0), (3, 2), (1, 2)]).to_csc()
    }

    #[test]
    fn construction_sorts_columns() {
        let a = example();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.col(0), &[0, 2]);
        assert_eq!(a.col(1), &[] as &[Vidx]);
        assert_eq!(a.col(2), &[1, 3]);
    }

    #[test]
    fn contains_checks_membership() {
        let a = example();
        assert!(a.contains(2, 0));
        assert!(!a.contains(1, 0));
        assert!(!a.contains(0, 1));
    }

    #[test]
    fn degrees() {
        let a = example();
        assert_eq!(a.col_degrees(), vec![2, 0, 2]);
        assert_eq!(a.row_degrees(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn transpose_is_involution() {
        let a = example();
        let at = a.transpose();
        assert_eq!(at.nrows(), 3);
        assert_eq!(at.ncols(), 4);
        assert!(at.contains(0, 0) && at.contains(0, 2) && at.contains(2, 1) && at.contains(2, 3));
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn triples_roundtrip() {
        let a = example();
        assert_eq!(a.to_triples().to_csc(), a);
    }

    #[test]
    fn empty_matrix() {
        let a = Csc::empty(5, 7);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.col(6), &[] as &[Vidx]);
    }
}
