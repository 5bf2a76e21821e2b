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

use crate::permute::Permutation;
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

    /// The transpose, by counting scatter: a row histogram becomes the new
    /// column pointers, and walking the existing columns in ascending order
    /// scatters each `(i, j)` to position `cursor[i]++` — which leaves every
    /// new column's row list sorted (and, the input being deduplicated,
    /// deduplicated) for free. O(nnz + nrows), no sorts.
    ///
    /// `DistMatrix` assembly on a 1×1 execution grid uses this to derive
    /// `Aᵀ` from `A` instead of running a second scatter over the raw edge
    /// list — the transpose reads the already-compacted `nnz` entries with
    /// sequential writes per row segment.
    pub fn transposed(&self) -> Dcsc {
        let mut cursor = vec![0usize; self.nrows + 1];
        for &i in &self.ir {
            cursor[i as usize + 1] += 1;
        }
        for k in 0..self.nrows {
            cursor[k + 1] += cursor[k];
        }
        let mut t_ir = vec![0 as Vidx; self.ir.len()];
        for k in 0..self.jc.len() {
            let j = self.jc[k];
            for &i in &self.ir[self.cp[k]..self.cp[k + 1]] {
                let slot = &mut cursor[i as usize];
                t_ir[*slot] = j;
                *slot += 1;
            }
        }
        // `cursor[i]` is now the end of new-column i's segment.
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut seg_start = 0usize;
        #[allow(clippy::needless_range_loop)] // parallel-array cursor walk
        for i in 0..self.nrows {
            let seg_end = cursor[i];
            if seg_end != seg_start {
                jc.push(i as Vidx);
                cp.push(seg_end);
                seg_start = seg_end;
            }
        }
        Dcsc { nrows: self.ncols, ncols: self.nrows, jc, cp, ir: t_ir }
    }

    /// Converts from a borrowed CSC view, dropping empty columns. A view
    /// over mmap'ed MCSB pages (or an owned [`Csc`]'s arrays, via
    /// [`Csc::view`]) compacts straight into DCSC with one sequential read
    /// and no intermediate triple list.
    pub fn from_csc_view(v: &crate::CscView<'_>) -> Self {
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut ir = Vec::with_capacity(v.nnz());
        for j in 0..v.ncols() {
            let col = v.col(j);
            if !col.is_empty() {
                jc.push(j as Vidx);
                ir.extend_from_slice(col);
                cp.push(ir.len());
            }
        }
        Self { nrows: v.nrows(), ncols: v.ncols(), jc, cp, ir }
    }

    /// The transpose of `v` relabeled by `rowp`/`colp` (entry `(i, j)` of
    /// `v` lands at `(colp(j), rowp(i))`), built without a comparison sort.
    ///
    /// One pass histograms the source row degrees into cursors laid out in
    /// relabeled row order. A second pass walks the *target* columns of `A`,
    /// `j' = 0..ncols`, reads source column `colp⁻¹(j')` and scatters `j'`
    /// into column `rowp(i)` of the result for each of its rows `i`. Entries
    /// therefore arrive in ascending `j'` in every output column, and the
    /// duplicates of an unsorted or duplicated source column land next to
    /// each other, so one linear compaction removes them. The result is the
    /// canonical DCSC of the relabeled `Aᵀ`; [`Dcsc::transposed`] of it is
    /// `A`, so the matching pipeline gets both orientations from two linear
    /// passes each.
    pub fn relabeled_transpose(
        v: &crate::CscView<'_>,
        rowp: Option<&Permutation>,
        colp: Option<&Permutation>,
    ) -> Dcsc {
        let (n1, n2) = (v.nrows(), v.ncols());
        if v.nnz() == 0 {
            return Self::empty(n2, n1);
        }
        let ident_r;
        let rmap = match rowp {
            Some(p) => p.as_slice(),
            None => {
                ident_r = Permutation::identity(n1);
                ident_r.as_slice()
            }
        };
        let cinv = colp.map_or_else(|| Permutation::identity(n2), Permutation::inverse);
        let cinv = cinv.as_slice();

        // Row-degree histogram (sequential read of rowind) → cursors in
        // relabeled order. After the scatter, `cursor[c]` is the *end* of
        // output column c's segment.
        let mut deg = vec![0usize; n1];
        for &i in v.rowind() {
            deg[i as usize] += 1;
        }
        let mut cursor = vec![0usize; n1 + 1];
        for (i, &d) in deg.iter().enumerate() {
            cursor[rmap[i] as usize + 1] = d;
        }
        drop(deg);
        for c in 0..n1 {
            cursor[c + 1] += cursor[c];
        }
        let mut ir = vec![0 as Vidx; v.nnz()];
        for (jp, &j) in cinv.iter().enumerate() {
            for &i in v.col(j as usize) {
                let slot = &mut cursor[rmap[i as usize] as usize];
                ir[*slot] = jp as Vidx;
                *slot += 1;
            }
        }

        // Compaction: drop adjacent duplicates and empty columns. The write
        // cursor never passes a column's read start, so one forward pass is
        // safe in place.
        let mut jc = Vec::new();
        let mut cp = vec![0usize];
        let mut w = 0usize;
        let mut seg_start = 0usize;
        #[allow(clippy::needless_range_loop)] // parallel-array cursor walk
        for c in 0..n1 {
            let seg_end = cursor[c];
            if seg_end == seg_start {
                continue;
            }
            jc.push(c as Vidx);
            let mut last = Vidx::MAX;
            for k in seg_start..seg_end {
                let r = ir[k];
                if r != last {
                    ir[w] = r;
                    w += 1;
                    last = r;
                }
            }
            cp.push(w);
            seg_start = seg_end;
        }
        ir.truncate(w);
        Dcsc { nrows: n2, ncols: n1, jc, cp, ir }
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

    /// `true` when the entry `(i, j)` is a stored nonzero.
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
        assert_eq!(Dcsc::from_csc_view(&csc.view()), a);
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
    fn from_csc_view_matches_from_unsorted_pairs() {
        let t = Triples::from_edges(5, 7, vec![(4, 6), (0, 0), (2, 3), (1, 3), (4, 0)]);
        let csc = t.to_csc();
        let view = crate::CscView::new(csc.nrows(), csc.ncols(), csc.colptr(), csc.rowind());
        assert_eq!(Dcsc::from_csc_view(&view), Dcsc::from_unsorted_pairs(5, 7, t.entries()));
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
            let a = Dcsc::from_unsorted_pairs(nrows, ncols, &pairs);
            let swapped: Vec<(Vidx, Vidx)> = pairs.iter().map(|&(i, j)| (j, i)).collect();
            let want = Dcsc::from_unsorted_pairs(ncols, nrows, &swapped);
            assert_eq!(a.transposed(), want, "{nrows}x{ncols} {pairs:?}");
        }
    }

    /// Sort-based oracle for [`Dcsc::relabeled_transpose`]: relabel every
    /// entry, comparison-sort and deduplicate; returns `(A, Aᵀ)`.
    fn relabeled_oracle(
        v: &crate::CscView<'_>,
        rowp: Option<&Permutation>,
        colp: Option<&Permutation>,
    ) -> (Dcsc, Dcsc) {
        let mut t = Triples::new(v.nrows(), v.ncols());
        for (i, j) in v.iter() {
            t.push(rowp.map_or(i, |p| p.apply(i)), colp.map_or(j, |p| p.apply(j)));
        }
        let mut tt = t.transposed();
        t.sort_dedup();
        tt.sort_dedup();
        (Dcsc::from_sorted_triples(&t), Dcsc::from_sorted_triples(&tt))
    }

    #[test]
    fn relabeled_transpose_matches_sort_based_oracle() {
        use crate::permute::SplitMix64;
        // Raw CSC arrays, so columns may hold unsorted and duplicated rows.
        #[allow(clippy::type_complexity)]
        let mut cases: Vec<(usize, usize, Vec<u64>, Vec<Vidx>)> = vec![
            // Unsorted and duplicated rows; empty column 1; empty row 2.
            (4, 3, vec![0, 4, 4, 7], vec![3, 0, 3, 1, 1, 0, 1]),
            // n1 != n2, hypersparse: most rows and columns empty.
            (6, 10, vec![0, 0, 2, 2, 2, 2, 2, 2, 2, 3, 5], vec![5, 5, 0, 4, 0]),
            (9, 2, vec![0, 3, 6], vec![8, 0, 4, 4, 8, 0]),
            (3, 3, vec![0, 0, 0, 0], vec![]),
            (1, 1, vec![0, 3], vec![0, 0, 0]),
        ];
        let mut rng = SplitMix64::new(0xA55E);
        for (n1, n2) in [(40usize, 25usize), (25, 40), (64, 64)] {
            let mut colptr = vec![0u64];
            let mut rowind = Vec::new();
            for _ in 0..n2 {
                for _ in 0..rng.below(7) {
                    rowind.push(rng.below(n1 as u64) as Vidx);
                }
                colptr.push(rowind.len() as u64);
            }
            cases.push((n1, n2, colptr, rowind));
        }
        for (n1, n2, colptr, rowind) in &cases {
            let v = crate::CscView::new(*n1, *n2, colptr, rowind);
            let perms = [
                (None, None),
                (Some(Permutation::identity(*n1)), Some(Permutation::identity(*n2))),
                (Some(Permutation::random(*n1, 7)), Some(Permutation::random(*n2, 8))),
                (Some(Permutation::random(*n1, 9)), None),
                (None, Some(Permutation::random(*n2, 10))),
            ];
            for (rowp, colp) in &perms {
                let (rowp, colp) = (rowp.as_ref(), colp.as_ref());
                let (want_a, want_at) = relabeled_oracle(&v, rowp, colp);
                let got = Dcsc::relabeled_transpose(&v, rowp, colp);
                let tag = format!("{n1}x{n2} rowp={} colp={}", rowp.is_some(), colp.is_some());
                assert_eq!(got, want_at, "{tag}: Aᵀ");
                assert_eq!(got.transposed(), want_a, "{tag}: A");
            }
        }
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
