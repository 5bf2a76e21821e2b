//! Doubly compressed sparse columns (DCSC) — the hypersparse format.
//!
//! On a `√p × √p` process grid each local submatrix holds only `m/p`
//! nonzeros over `n/√p` columns; once `p` is large, most columns are empty
//! and the O(ncols) column-pointer array of CSC dominates memory and
//! SpMSpV time. DCSC (Buluç & Gilbert, "On the representation and
//! multiplication of hypersparse matrices") compresses the column dimension
//! too: only the `nzc` nonempty columns appear, in the sorted array `jc`,
//! with `cp[k]..cp[k+1]` delimiting the rows of the `k`-th nonempty column.
//!
//! The paper (§IV-A) uses CombBLAS DCSC storage for all local submatrices;
//! `ablation_storage` in `mcm-bench` measures the CSC-vs-DCSC difference in
//! the hypersparse regime.

use crate::view::RelabeledView;
use crate::{Csc, Triples, Vidx};

/// A pattern-only sparse matrix in doubly-compressed-sparse-column layout.
///
/// # Example
///
/// ```
/// use mcm_sparse::{Dcsc, Triples};
///
/// // 2 nonzeros over 1000 columns: hypersparse, only 2 column entries stored.
/// let t = Triples::from_edges(10, 1000, vec![(3, 5), (7, 800)]);
/// let d = Dcsc::from_triples(&t);
/// assert!(d.is_hypersparse());
/// assert_eq!(d.nzc(), 2);
/// assert_eq!(d.col(5), &[3]);
/// assert!(d.col(6).is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dcsc {
    nrows: usize,
    ncols: usize,
    /// Sorted global (within this matrix) indices of nonempty columns.
    jc: Vec<Vidx>,
    /// `cp.len() == jc.len() + 1`; nonempty column `k` (with index `jc[k]`)
    /// occupies `ir[cp[k]..cp[k+1]]`.
    cp: Vec<usize>,
    /// Row indices, sorted within each column.
    ir: Vec<Vidx>,
}

impl Dcsc {
    /// Builds from triples that are already column-major sorted and
    /// deduplicated.
    pub fn from_sorted_triples(t: &Triples) -> Self {
        let entries = t.entries();
        debug_assert!(
            entries.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
            "triples must be column-major sorted and deduplicated"
        );
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut ir = Vec::with_capacity(entries.len());
        for &(i, j) in entries {
            if jc.last() != Some(&j) {
                jc.push(j);
                cp.push(ir.len());
            }
            ir.push(i);
            *cp.last_mut().unwrap() = ir.len();
        }
        Self { nrows: t.nrows(), ncols: t.ncols(), jc, cp, ir }
    }

    /// Builds from a (possibly unsorted) triple list.
    pub fn from_triples(t: &Triples) -> Self {
        Self::from_unsorted_pairs(t.nrows(), t.ncols(), t.entries())
    }

    /// Builds from unsorted, possibly duplicated `(row, col)` pairs by one
    /// counting scatter: a column histogram places every row index directly
    /// into its column's segment of `ir`, then each (typically tiny)
    /// segment is sorted and deduplicated in place while the DCSC arrays
    /// are emitted. O(nnz · avg-col-sort + ncols), no comparisons across
    /// columns, one allocation of the output itself.
    ///
    /// This is the hot path of `DistMatrix` assembly — the comparison sort
    /// it replaces dominated end-to-end matching time on mid-size inputs.
    pub fn from_unsorted_pairs(nrows: usize, ncols: usize, pairs: &[(Vidx, Vidx)]) -> Self {
        if pairs.is_empty() {
            return Self::empty(nrows, ncols);
        }
        // Column histogram → running cursors. After the scatter, `cursor[j]`
        // is the *end* of column j's segment (and the start of j+1's).
        let mut cursor = vec![0u32; ncols + 1];
        for &(_, j) in pairs {
            cursor[j as usize + 1] += 1;
        }
        for k in 0..ncols {
            cursor[k + 1] += cursor[k];
        }
        let mut ir = vec![0 as Vidx; pairs.len()];
        for &(i, j) in pairs {
            let slot = &mut cursor[j as usize];
            ir[*slot as usize] = i;
            *slot += 1;
        }
        // Per-column sort + in-place dedup compaction. The write cursor
        // never passes a column's read start (dedup only shrinks), so the
        // compaction is safe in one forward pass.
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut w = 0usize;
        let mut seg_start = 0usize;
        #[allow(clippy::needless_range_loop)] // parallel-array cursor walk
        for j in 0..ncols {
            let seg_end = cursor[j] as usize;
            if seg_end == seg_start {
                continue;
            }
            // Columns are short on average; an inlined insertion sort beats
            // the dispatch overhead of the general sort for small segments.
            if seg_end - seg_start <= 24 {
                for k in seg_start + 1..seg_end {
                    let v = ir[k];
                    let mut m = k;
                    while m > seg_start && ir[m - 1] > v {
                        ir[m] = ir[m - 1];
                        m -= 1;
                    }
                    ir[m] = v;
                }
            } else {
                ir[seg_start..seg_end].sort_unstable();
            }
            jc.push(j as Vidx);
            let mut last = Vidx::MAX;
            for k in seg_start..seg_end {
                let i = ir[k];
                if i != last {
                    ir[w] = i;
                    w += 1;
                    last = i;
                }
            }
            cp.push(w);
            seg_start = seg_end;
        }
        ir.truncate(w);
        Self { nrows, ncols, jc, cp, ir }
    }

    /// The transpose of `v` as its index maps read it (entry `(i, j)` of
    /// the view lands at `(colp(j), rowp(i))`), by one counting scatter
    /// straight from the view. The cursors are kept by *source* row: a
    /// sequential pass over the stored rows counts each source row's
    /// degree, one pass over the target rows in ascending order turns the
    /// degrees into the starts of the new columns, and walking the target
    /// columns in ascending order scatters each entry to
    /// `cursor[i]++`, so no entry is mapped through `rowp` and every new
    /// column's rows come out sorted (and, the view being deduplicated,
    /// deduplicated). O(nnz + nrows + ncols), no sorts, no pair list:
    /// equal to [`Dcsc::from_unsorted_pairs`] of the relabeled pairs,
    /// swapped.
    ///
    /// `DistMatrix` assembly on a 1×1 execution grid builds `Aᵀ` this way,
    /// while `A` itself stays the view.
    pub fn transpose_of(v: &RelabeledView<'_>) -> Dcsc {
        let rinv = v.row_map().map(|p| {
            let mut inv = vec![0 as Vidx; p.len()];
            for (i, &t) in p.iter().enumerate() {
                inv[t as usize] = i as Vidx;
            }
            inv
        });
        let src = |t: usize| rinv.as_ref().map_or(t, |inv| inv[t] as usize);
        // `u32` cursors halve the footprint of the array the scatter
        // reads at random; `usize` ones cover more than 2³² nonzeros.
        if u32::try_from(v.nnz()).is_ok() {
            Self::transpose_with::<u32>(v, src)
        } else {
            Self::transpose_with::<usize>(v, src)
        }
    }

    /// [`Dcsc::transpose_of`] with `src(t)` the source row of target row `t`.
    fn transpose_with<C>(v: &RelabeledView<'_>, src: impl Fn(usize) -> usize) -> Dcsc
    where
        C: Copy + Default + Eq + std::ops::AddAssign + TryFrom<usize> + TryInto<usize>,
    {
        let idx = |c: C| c.try_into().ok().expect("cursor fits usize");
        let one = C::try_from(1).ok().expect("one fits the cursor");
        let (nrows, ncols) = (v.nrows(), v.ncols());
        let mut cursor = vec![C::default(); nrows];
        for &i in v.source().rowind() {
            cursor[i as usize] += one;
        }
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut end = C::default();
        for t in 0..nrows {
            let slot = &mut cursor[src(t)];
            if *slot != C::default() {
                let degree = *slot;
                *slot = end;
                end += degree;
                jc.push(t as Vidx);
                cp.push(idx(end));
            }
        }
        let mut t_ir = vec![0 as Vidx; v.nnz()];
        for j in 0..ncols {
            let ahead = |d: usize| (j + d).min(ncols - 1) as Vidx;
            v.prefetch_col(ahead(8), ahead(16));
            for &i in v.col(j) {
                let slot = &mut cursor[i as usize];
                t_ir[idx(*slot)] = j as Vidx;
                *slot += one;
            }
        }
        Dcsc { nrows: ncols, ncols: nrows, jc, cp, ir: t_ir }
    }

    /// An empty matrix.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, jc: Vec::new(), cp: vec![0], ir: Vec::new() }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (logical, including empty ones).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.ir.len()
    }

    /// Number of *nonempty* columns.
    #[inline]
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// `true` when the matrix is hypersparse (`nnz < ncols`), the regime
    /// DCSC is designed for.
    #[inline]
    pub fn is_hypersparse(&self) -> bool {
        self.nnz() < self.ncols
    }

    /// Sorted indices of nonempty columns.
    #[inline]
    pub fn nonzero_cols(&self) -> &[Vidx] {
        &self.jc
    }

    /// Rows of the `k`-th *nonempty* column.
    #[inline]
    pub fn nth_col(&self, k: usize) -> (&[Vidx], Vidx) {
        (&self.ir[self.cp[k]..self.cp[k + 1]], self.jc[k])
    }

    /// Rows of logical column `j`, empty when `j` has no nonzeros.
    /// O(log nzc) via binary search on `jc`.
    pub fn col(&self, j: usize) -> &[Vidx] {
        match self.jc.binary_search(&(j as Vidx)) {
            Ok(k) => &self.ir[self.cp[k]..self.cp[k + 1]],
            Err(_) => &[],
        }
    }

    /// `true` when the entry `(i, j)` is a stored nonzero. Binary search
    /// over column `j`'s sorted rows.
    pub fn contains(&self, i: Vidx, j: usize) -> bool {
        self.col(j).binary_search(&i).is_ok()
    }

    /// Iterates over all `(row, col)` coordinates in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Vidx, Vidx)> + '_ {
        (0..self.nzc()).flat_map(move |k| {
            let (rows, j) = self.nth_col(k);
            rows.iter().map(move |&i| (i, j))
        })
    }

    /// Converts to CSC (materializing the full column-pointer array).
    pub fn to_csc(&self) -> Csc {
        let mut colptr = vec![0u64; self.ncols + 1];
        for k in 0..self.nzc() {
            colptr[self.jc[k] as usize + 1] = (self.cp[k + 1] - self.cp[k]) as u64;
        }
        for j in 0..self.ncols {
            colptr[j + 1] += colptr[j];
        }
        Csc::from_parts(self.nrows, self.ncols, colptr, self.ir.clone())
    }

    /// Degrees of all row vertices.
    pub fn row_degrees(&self) -> Vec<Vidx> {
        let mut deg = vec![0 as Vidx; self.nrows];
        for &i in &self.ir {
            deg[i as usize] += 1;
        }
        deg
    }

    /// Degrees of all column vertices (dense output over logical columns).
    pub fn col_degrees(&self) -> Vec<Vidx> {
        let mut deg = vec![0 as Vidx; self.ncols];
        for k in 0..self.nzc() {
            deg[self.jc[k] as usize] = (self.cp[k + 1] - self.cp[k]) as Vidx;
        }
        deg
    }

    /// Heap memory footprint in bytes (for the storage ablation).
    pub fn memory_bytes(&self) -> usize {
        self.jc.len() * std::mem::size_of::<Vidx>()
            + self.cp.len() * std::mem::size_of::<usize>()
            + self.ir.len() * std::mem::size_of::<Vidx>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Dcsc {
        // 4x6, only columns 1 and 4 nonempty.
        Dcsc::from_triples(&Triples::from_edges(4, 6, vec![(3, 1), (0, 1), (2, 4)]))
    }

    #[test]
    fn compresses_empty_columns() {
        let a = example();
        assert_eq!(a.nzc(), 2);
        assert_eq!(a.nonzero_cols(), &[1, 4]);
        assert_eq!(a.nnz(), 3);
        assert!(a.is_hypersparse());
    }

    #[test]
    fn col_lookup() {
        let a = example();
        assert_eq!(a.col(1), &[0, 3]);
        assert_eq!(a.col(4), &[2]);
        assert_eq!(a.col(0), &[] as &[Vidx]);
        assert_eq!(a.col(5), &[] as &[Vidx]);
        assert!(a.contains(3, 1));
        assert!(!a.contains(1, 1));
    }

    #[test]
    fn csc_roundtrip() {
        let a = example();
        let csc = a.to_csc();
        assert_eq!(csc.nnz(), a.nnz());
        let pairs: Vec<(Vidx, Vidx)> = csc.view().iter().collect();
        assert_eq!(Dcsc::from_unsorted_pairs(4, 6, &pairs), a);
    }

    #[test]
    fn iter_yields_column_major() {
        let a = example();
        let coords: Vec<_> = a.iter().collect();
        assert_eq!(coords, vec![(0, 1), (3, 1), (2, 4)]);
    }

    #[test]
    fn degrees_match_csc() {
        let a = example();
        let csc = a.to_csc();
        assert_eq!(a.row_degrees(), csc.row_degrees());
        assert_eq!(a.col_degrees(), csc.col_degrees());
    }

    #[test]
    fn empty_is_consistent() {
        let a = Dcsc::empty(3, 3);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.nzc(), 0);
        assert_eq!(a.to_csc().nnz(), 0);
    }

    #[test]
    fn counting_sort_build_matches_comparison_sort() {
        // Adversarial mixes: duplicates, reverse order, empty rows/cols,
        // dense-ish and hypersparse shapes.
        #[allow(clippy::type_complexity)]
        let cases: Vec<(usize, usize, Vec<(Vidx, Vidx)>)> = vec![
            (1, 1, vec![(0, 0), (0, 0), (0, 0)]),
            (4, 6, vec![(3, 5), (0, 0), (3, 5), (1, 2), (2, 4), (0, 4), (0, 0)]),
            (10, 1000, vec![(9, 999), (0, 999), (9, 0), (0, 0), (5, 500)]),
            (8, 8, (0..8).flat_map(|i| (0..8).map(move |j| (7 - i, 7 - j))).collect()),
            (3, 3, vec![]),
        ];
        for (nrows, ncols, pairs) in cases {
            let mut sorted = Triples::from_edges(nrows, ncols, pairs.clone());
            sorted.sort_dedup();
            let want = Dcsc::from_sorted_triples(&sorted);
            let got = Dcsc::from_unsorted_pairs(nrows, ncols, &pairs);
            assert_eq!(got, want, "{nrows}x{ncols} {pairs:?}");
        }
    }

    #[test]
    fn unrelabeled_view_matches_from_unsorted_pairs() {
        // With neither map the view reads the source's columns as they are,
        // and its transpose is the sorting builder's of the swapped pairs.
        let t = Triples::from_edges(5, 7, vec![(4, 6), (0, 0), (2, 3), (1, 3), (4, 0)]);
        let csc = t.to_csc();
        let view = crate::CscView::new(csc.nrows(), csc.ncols(), csc.colptr(), csc.rowind());
        let v = RelabeledView::new(view, None, None);
        let v = &v;
        let pairs: Vec<(Vidx, Vidx)> = (0..v.ncols())
            .flat_map(|j| v.col(j).iter().map(move |&i| (v.row(i), j as Vidx)))
            .collect();
        assert_eq!(
            Dcsc::from_unsorted_pairs(5, 7, &pairs),
            Dcsc::from_unsorted_pairs(5, 7, t.entries())
        );
        let swapped: Vec<(Vidx, Vidx)> = t.entries().iter().map(|&(i, j)| (j, i)).collect();
        assert_eq!(Dcsc::transpose_of(v), Dcsc::from_unsorted_pairs(7, 5, &swapped));
    }

    #[test]
    fn transpose_matches_rebuild_from_swapped_pairs() {
        #[allow(clippy::type_complexity)]
        let cases: Vec<(usize, usize, Vec<(Vidx, Vidx)>)> = vec![
            (1, 1, vec![(0, 0)]),
            (4, 6, vec![(3, 5), (0, 0), (1, 2), (2, 4), (0, 4)]),
            (10, 1000, vec![(9, 999), (0, 999), (9, 0), (0, 0), (5, 500)]),
            (8, 8, (0..8).flat_map(|i| (0..8).map(move |j| (7 - i, 7 - j))).collect()),
            (3, 3, vec![]),
        ];
        for (nrows, ncols, pairs) in cases {
            let csc = Triples::from_edges(nrows, ncols, pairs.clone()).to_csc();
            let v = RelabeledView::new(csc.view(), None, None);
            let swapped: Vec<(Vidx, Vidx)> = pairs.iter().map(|&(i, j)| (j, i)).collect();
            let want = Dcsc::from_unsorted_pairs(ncols, nrows, &swapped);
            assert_eq!(Dcsc::transpose_of(&v), want, "{nrows}x{ncols} {pairs:?}");
            // The `usize` cursors serve past 2³² nonzeros; same result.
            let wide = Dcsc::transpose_with::<usize>(&v, |t| t);
            assert_eq!(wide, want, "{nrows}x{ncols} {pairs:?}");
        }
    }

    #[test]
    fn relabeled_gather_keeps_source_order_and_transposes_canonically() {
        // All four (rowp, colp) combinations on seeded shapes, empty and
        // one-entry ones included: target column j' must read source column
        // colp⁻¹(j')'s rows mapped through rowp, in source order, and the
        // counting-scatter transpose must equal the sorting builder's, byte
        // for byte.
        use crate::permute::{Permutation, SplitMix64};
        let mut rng = SplitMix64::new(0xA55E);
        let mut shapes = vec![Triples::new(3, 3), Triples::from_edges(1, 1, vec![(0, 0)])];
        for (n1, n2) in [(40usize, 25usize), (25, 40), (64, 64), (6, 10)] {
            let mut t = Triples::new(n1, n2);
            for _ in 0..3 * n2 {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            t.sort_dedup();
            shapes.push(t);
        }
        let mut unsorted_seen = false;
        for t in &shapes {
            let (n1, n2) = (t.nrows(), t.ncols());
            let csc = t.to_csc();
            let (rp, cp) = (Permutation::random(n1, 7), Permutation::random(n2, 8));
            for (rowp, colp) in
                [(None, None), (Some(&rp), Some(&cp)), (Some(&rp), None), (None, Some(&cp))]
            {
                let tag = format!("{n1}x{n2} rowp={} colp={}", rowp.is_some(), colp.is_some());
                let v = RelabeledView::new(csc.view(), rowp, colp);
                assert_eq!((v.nrows(), v.ncols(), v.nnz()), (n1, n2, t.len()), "{tag}");
                let cinv = colp.map(Permutation::inverse);
                let mut swapped = Vec::new();
                for jp in 0..n2 {
                    let j = cinv.as_ref().map_or(jp as Vidx, |c| c.apply(jp as Vidx));
                    let want: Vec<Vidx> = csc
                        .col(j as usize)
                        .iter()
                        .map(|&i| rowp.map_or(i, |p| p.apply(i)))
                        .collect();
                    let got: Vec<Vidx> = v.col(jp).iter().map(|&i| v.row(i)).collect();
                    assert_eq!(got, want, "{tag}: column {jp}");
                    unsorted_seen |= got.windows(2).any(|w| w[0] > w[1]);
                    swapped.extend(got.iter().map(|&i| (jp as Vidx, i)));
                }
                assert_eq!(
                    Dcsc::transpose_of(&v),
                    Dcsc::from_unsorted_pairs(n2, n1, &swapped),
                    "{tag}: Aᵀ"
                );
            }
        }
        assert!(unsorted_seen, "some relabeled column must read its rows unsorted");
    }

    #[test]
    fn memory_smaller_than_csc_when_hypersparse() {
        // 2 nonzeros across 1000 columns: DCSC stores 2 column entries, CSC 1001.
        let t = Triples::from_edges(10, 1000, vec![(1, 5), (2, 900)]);
        let d = Dcsc::from_triples(&t);
        let csc_colptr_bytes = 1001 * std::mem::size_of::<usize>();
        assert!(d.memory_bytes() < csc_colptr_bytes);
    }
}
