//! Borrowed CSC views: the zero-copy bridge from storage to the solvers.
//!
//! The MCSB on-disk format (`mcm-store`) lays out a graph as exactly the CSC
//! arrays — a `u64` column-pointer array followed by a `u32` row-index array —
//! so an mmap'ed file *is* a valid CSC without any decode step. [`CscView`]
//! is the borrowed counterpart of [`Csc`](crate::Csc) that makes this usable:
//! it holds `&[u64]` / `&[Vidx]` slices (pointing into mapped pages, a heap
//! read buffer, or an owned `Csc`'s arrays) and offers the column-access API
//! the matching pipeline needs, without taking ownership and without ever
//! materializing a triple list.
//!
//! `colptr` is `u64` rather than `usize` because the type is dictated by the
//! wire format: MCSB is fixed little-endian 64-bit regardless of the host,
//! and re-encoding to `usize` would force the copy this type exists to avoid.

use crate::{Csc, Vidx};

/// A borrowed pattern-only sparse matrix in CSC layout.
///
/// # Example
///
/// ```
/// use mcm_sparse::CscView;
///
/// // Column 0 holds rows {0, 2}; column 1 is empty; column 2 holds row {1}.
/// let colptr = [0u64, 2, 2, 3];
/// let rowind = [0u32, 2, 1];
/// let v = CscView::new(3, 3, &colptr, &rowind);
/// assert_eq!(v.nnz(), 3);
/// assert_eq!(v.col(0), &[0, 2]);
/// assert!(v.col(1).is_empty());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CscView<'a> {
    nrows: usize,
    ncols: usize,
    /// `ncols + 1` monotone offsets into `rowind`.
    colptr: &'a [u64],
    /// Row indices, sorted and deduplicated within each column.
    rowind: &'a [Vidx],
}

impl<'a> CscView<'a> {
    /// Wraps borrowed CSC arrays, checking the structural invariants
    /// (`colptr` has `ncols + 1` monotone entries ending at `rowind.len()`).
    ///
    /// # Panics
    ///
    /// On inconsistent arrays — the storage layer validates untrusted input
    /// *before* constructing a view, so a panic here is a programming error,
    /// not a bad file.
    pub fn new(nrows: usize, ncols: usize, colptr: &'a [u64], rowind: &'a [Vidx]) -> Self {
        assert_eq!(colptr.len(), ncols + 1, "colptr must have ncols + 1 entries");
        assert_eq!(colptr[0], 0, "colptr must start at 0");
        assert_eq!(*colptr.last().unwrap() as usize, rowind.len(), "colptr must end at nnz");
        assert!(colptr.windows(2).all(|w| w[0] <= w[1]), "colptr must be monotone");
        assert!(
            nrows < Vidx::MAX as usize && ncols < Vidx::MAX as usize,
            "dimensions must fit in Vidx"
        );
        Self::from_trusted(nrows, ncols, colptr, rowind)
    }

    /// Wraps arrays whose invariants the caller already guarantees (an
    /// owned [`Csc`] upholds them by construction), skipping the O(n) check.
    #[inline]
    pub(crate) fn from_trusted(
        nrows: usize,
        ncols: usize,
        colptr: &'a [u64],
        rowind: &'a [Vidx],
    ) -> Self {
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

    /// The column-pointer array (`ncols + 1` entries, fixed `u64`).
    #[inline]
    pub fn colptr(&self) -> &'a [u64] {
        self.colptr
    }

    /// The concatenated row indices of all columns.
    #[inline]
    pub fn rowind(&self) -> &'a [Vidx] {
        self.rowind
    }

    /// The sorted row indices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [Vidx] {
        &self.rowind[self.colptr[j] as usize..self.colptr[j + 1] as usize]
    }

    /// Number of nonzeros in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        (self.colptr[j + 1] - self.colptr[j]) as usize
    }

    /// `true` when the entry `(i, j)` is a stored nonzero.
    pub fn contains(&self, i: Vidx, j: usize) -> bool {
        self.col(j).binary_search(&i).is_ok()
    }

    /// Iterates over all `(row, col)` coordinates in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Vidx, Vidx)> + 'a {
        let v = *self;
        (0..v.ncols).flat_map(move |j| v.col(j).iter().map(move |&i| (i, j as Vidx)))
    }

    /// Materializes an owned [`Csc`] (copies both arrays; the view itself
    /// stays zero-copy — this is for consumers that need ownership, like the
    /// dynamic overlay base).
    pub fn to_csc(&self) -> Csc {
        Csc::from_parts(self.nrows, self.ncols, self.colptr.to_vec(), self.rowind.to_vec())
    }
}

/// Lets `impl Into<CscView>` parameters take `&view` as well as `view`.
impl<'a> From<&CscView<'a>> for CscView<'a> {
    fn from(v: &CscView<'a>) -> Self {
        *v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrays() -> (Vec<u64>, Vec<Vidx>) {
        // 4x3: col 0 = {1, 3}, col 1 = {}, col 2 = {0, 2}.
        (vec![0, 2, 2, 4], vec![1, 3, 0, 2])
    }

    #[test]
    fn column_access_and_counts() {
        let (cp, ri) = arrays();
        let v = CscView::new(4, 3, &cp, &ri);
        assert_eq!((v.nrows(), v.ncols(), v.nnz()), (4, 3, 4));
        assert_eq!(v.col(0), &[1, 3]);
        assert_eq!(v.col(1), &[] as &[Vidx]);
        assert_eq!(v.col(2), &[0, 2]);
        assert_eq!(v.col_nnz(2), 2);
        assert!(v.contains(3, 0));
        assert!(!v.contains(2, 0));
    }

    #[test]
    fn iter_is_column_major() {
        let (cp, ri) = arrays();
        let v = CscView::new(4, 3, &cp, &ri);
        let coords: Vec<_> = v.iter().collect();
        assert_eq!(coords, vec![(1, 0), (3, 0), (0, 2), (2, 2)]);
    }

    #[test]
    fn to_csc_round_trips() {
        let (cp, ri) = arrays();
        let v = CscView::new(4, 3, &cp, &ri);
        let a = v.to_csc();
        assert_eq!(a.nnz(), 4);
        for j in 0..3 {
            assert_eq!(a.col(j), v.col(j), "column {j}");
        }
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn rejects_non_monotone_colptr() {
        let cp = vec![0u64, 3, 2, 4];
        let ri = vec![0, 1, 2, 3];
        CscView::new(4, 3, &cp, &ri);
    }
}
