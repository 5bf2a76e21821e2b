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

use crate::permute::Permutation;
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

    /// Explicit transpose (CSC of `Aᵀ`, i.e. CSR of `A`): the row
    /// adjacency the two-sided serial routines need. O(nnz + n).
    pub fn transpose(&self) -> Csc {
        self.transpose_with(&vec![(); self.nnz()]).0
    }

    /// [`CscView::transpose`] carrying one value per nonzero: `values` is
    /// aligned with this matrix's nonzeros, and the returned values with
    /// the transpose's. O(nnz + n).
    pub fn transpose_with<V: Copy + Default>(&self, values: &[V]) -> (Csc, Vec<V>) {
        assert_eq!(values.len(), self.nnz(), "one value per nonzero");
        let mut colptr = vec![0u64; self.nrows + 1];
        for &i in self.rowind {
            colptr[i as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            colptr[i + 1] += colptr[i];
        }
        let mut cursor = colptr.clone();
        let mut rowind = vec![0 as Vidx; self.nnz()];
        let mut tvalues = vec![V::default(); self.nnz()];
        for j in 0..self.ncols {
            let lo = self.colptr[j] as usize;
            for (k, &i) in self.col(j).iter().enumerate() {
                let at = cursor[i as usize] as usize;
                rowind[at] = j as Vidx;
                tvalues[at] = values[lo + k];
                cursor[i as usize] += 1;
            }
        }
        (Csc::from_parts(self.ncols, self.nrows, colptr, rowind), tvalues)
    }

    /// Materializes an owned [`Csc`] (copies both arrays; the view itself
    /// stays zero-copy — this is for consumers that need ownership, like the
    /// dynamic overlay base).
    pub fn to_csc(&self) -> Csc {
        Csc::from_parts(self.nrows, self.ncols, self.colptr.to_vec(), self.rowind.to_vec())
    }
}

/// Hints the cache line at `p` into the cache; a no-op off x86-64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch never faults and reads nothing the program sees.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Lets `impl Into<CscView>` parameters take `&view` as well as `view`.
impl<'a> From<&CscView<'a>> for CscView<'a> {
    fn from(v: &CscView<'a>) -> Self {
        *v
    }
}

/// A [`CscView`] relabeled by a row and a column permutation without
/// copying it: entry `(i, j)` of the view reads as `(rowp(i), colp(j))`.
/// The relabeling is held as index maps: `colp⁻¹` (which source column
/// target column `j'` is), `rowp` (the source rows' target labels) and
/// `colp` itself, for readers that walk the source columns in order. The
/// mapped pages are the matrix, and the maps cost one `u32` per vertex
/// (`rowp` and `colp` are borrowed).
///
/// [`RelabeledView::col`] returns a target column's rows in source labels
/// and source order; readers map each through [`RelabeledView::row_map`].
/// Within a column the mapped rows are therefore unsorted when `rowp` is
/// given.
///
/// # Example
///
/// ```
/// use mcm_sparse::permute::Permutation;
/// use mcm_sparse::view::RelabeledView;
/// use mcm_sparse::CscView;
///
/// // Column 0 holds rows {0, 2}; column 1 holds row {1}.
/// let (colptr, rowind) = ([0u64, 2, 3], [0u32, 2, 1]);
/// let rowp = Permutation::from_forward(vec![2, 0, 1]);
/// let colp = Permutation::from_forward(vec![1, 0]);
/// let v = RelabeledView::new(CscView::new(3, 2, &colptr, &rowind), Some(&rowp), Some(&colp));
/// // Target column 1 is source column 0; its rows 0 and 2 read as 2 and 1.
/// let rows: Vec<u32> = v.col(1).iter().map(|&i| v.row(i)).collect();
/// assert_eq!(rows, [2, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct RelabeledView<'a> {
    view: CscView<'a>,
    /// `colp⁻¹`: target column → source column; `None` is the identity.
    src_col: Option<Permutation>,
    /// `colp`: source column → target column; `None` is the identity.
    colp: Option<&'a [Vidx]>,
    /// `rowp`: source row → target row; `None` is the identity.
    rowp: Option<&'a [Vidx]>,
}

impl<'a> RelabeledView<'a> {
    /// `view` read through `rowp` and `colp` (`None`: that side keeps its
    /// labels). Costs one inversion of `colp`; the view is not read.
    pub fn new(
        view: CscView<'a>,
        rowp: Option<&'a Permutation>,
        colp: Option<&'a Permutation>,
    ) -> Self {
        assert!(rowp.is_none_or(|p| p.len() == view.nrows()), "rowp must cover the rows");
        assert!(colp.is_none_or(|p| p.len() == view.ncols()), "colp must cover the columns");
        Self {
            view,
            src_col: colp.map(Permutation::inverse),
            colp: colp.map(Permutation::as_slice),
            rowp: rowp.map(Permutation::as_slice),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.view.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.view.ncols()
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.view.nnz()
    }

    /// The stored rows of target column `j`: source column `colp⁻¹(j)`'s
    /// rows, in source labels and source order.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [Vidx] {
        self.view.col(self.src_col.as_ref().map_or(j, |c| c.as_slice()[j] as usize))
    }

    /// The target label of source column `j`.
    #[inline]
    pub fn target_col(&self, j: usize) -> Vidx {
        self.colp.map_or(j as Vidx, |p| p[j])
    }

    /// The target label of stored row `i`.
    #[inline]
    pub fn row(&self, i: Vidx) -> Vidx {
        self.rowp.map_or(i, |p| p[i as usize])
    }

    /// A cache hint for a reader about to seek target columns `far` and,
    /// sooner, `near`: `far`'s column pointer and `near`'s first rows.
    #[inline]
    pub fn prefetch_col(&self, near: Vidx, far: Vidx) {
        let src = |j: Vidx| {
            self.src_col.as_ref().map_or(j as usize, |c| c.as_slice()[j as usize] as usize)
        };
        let colptr = self.view.colptr();
        prefetch(colptr.as_ptr().wrapping_add(src(far)));
        let start = colptr[src(near)] as usize;
        prefetch(self.view.rowind().as_ptr().wrapping_add(start));
    }

    /// The source view, in its own labels.
    #[inline]
    pub fn source(&self) -> &CscView<'a> {
        &self.view
    }

    /// `rowp` as a slice (`None`: rows keep their labels).
    #[inline]
    pub fn row_map(&self) -> Option<&'a [Vidx]> {
        self.rowp
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
