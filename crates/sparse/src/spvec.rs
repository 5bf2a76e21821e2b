//! Sparse vectors: sorted `(index, value)` pairs.
//!
//! Frontier sets in the MS-BFS matching algorithm are represented as sparse
//! vectors so that work stays proportional to the frontier size even as it
//! shrinks over iterations (§I of the paper). CombBLAS stores sparse vectors
//! as index/value pair lists; we keep the pairs sorted by index, which makes
//! merging, lookup, and deterministic iteration cheap.

use crate::Vidx;

/// A sparse vector of logical length `len` holding `nnz` explicit
/// `(index, value)` entries, sorted by index with no duplicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpVec<T> {
    len: usize,
    entries: Vec<(Vidx, T)>,
}

impl<T> SpVec<T> {
    /// An empty sparse vector of logical length `len`.
    pub fn new(len: usize) -> Self {
        Self { len, entries: Vec::new() }
    }

    /// Builds from pairs that are already sorted by index and duplicate-free.
    ///
    /// # Panics
    /// Debug-panics when the invariant does not hold or an index is out of
    /// bounds.
    pub fn from_sorted_pairs(len: usize, entries: Vec<(Vidx, T)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "indices must be strictly increasing"
        );
        debug_assert!(entries.last().is_none_or(|&(i, _)| (i as usize) < len));
        Self { len, entries }
    }

    /// Builds from unsorted pairs; sorts by index. On duplicate indices the
    /// *first* occurrence in the input wins (stable sort), matching the
    /// paper's INVERT convention "we keep the first index".
    pub fn from_pairs(len: usize, mut entries: Vec<(Vidx, T)>) -> Self {
        entries.sort_by_key(|&(i, _)| i);
        entries.dedup_by_key(|&mut (i, _)| i);
        Self::from_sorted_pairs(len, entries)
    }

    /// Logical length (`len(x)` in the paper's Table I).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of explicit entries (`nnz(x)` in the paper).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no explicit entries (the `f == φ` test of
    /// Algorithms 1–3).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted `(index, value)` entries.
    #[inline]
    pub fn entries(&self) -> &[(Vidx, T)] {
        &self.entries
    }

    /// The value at index `i`, if explicitly stored. O(log nnz).
    pub fn get(&self, i: Vidx) -> Option<&T> {
        self.entries.binary_search_by_key(&i, |&(idx, _)| idx).ok().map(|k| &self.entries[k].1)
    }

    /// The paper's `IND(x)`: indices of the explicit entries.
    pub fn ind(&self) -> Vec<Vidx> {
        self.entries.iter().map(|&(i, _)| i).collect()
    }

    /// Iterates over `(index, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (Vidx, &T)> {
        self.entries.iter().map(|(i, v)| (*i, v))
    }

    /// Maps values, preserving indices.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> SpVec<U> {
        SpVec { len: self.len, entries: self.entries.iter().map(|(i, v)| (*i, f(v))).collect() }
    }

    /// Keeps only entries whose `(index, value)` satisfies `pred`.
    pub fn filter(&self, mut pred: impl FnMut(Vidx, &T) -> bool) -> SpVec<T>
    where
        T: Clone,
    {
        SpVec {
            len: self.len,
            entries: self.entries.iter().filter(|(i, v)| pred(*i, v)).cloned().collect(),
        }
    }

    /// Appends an entry with index strictly greater than all current ones.
    ///
    /// # Panics
    /// Debug-panics when the ordering invariant would break.
    #[inline]
    pub fn push(&mut self, i: Vidx, v: T) {
        debug_assert!((i as usize) < self.len);
        debug_assert!(self.entries.last().is_none_or(|&(last, _)| last < i));
        self.entries.push((i, v));
    }

    /// Removes all entries, keeping the logical length.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Clears the entries and sets a new logical length, **keeping the
    /// entry allocation** — the reuse primitive of the `spmspv_into`
    /// workspace kernels (`crate::workspace`).
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.entries.clear();
    }

    /// Capacity of the underlying entry buffer. Exposed so steady-state
    /// reuse can be asserted (a workspace kernel must not grow this once
    /// warm).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Pointer identity of the entry buffer (allocation-stability checks in
    /// the zero-allocation regression tests).
    #[inline]
    pub fn as_entries_ptr(&self) -> *const (Vidx, T) {
        self.entries.as_ptr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let x = SpVec::from_pairs(5, vec![(3, 30), (1, 10)]);
        assert_eq!(x.len(), 5);
        assert_eq!(x.nnz(), 2);
        assert_eq!(x.get(1), Some(&10));
        assert_eq!(x.get(3), Some(&30));
        assert_eq!(x.get(0), None);
        assert_eq!(x.ind(), vec![1, 3]);
    }

    #[test]
    fn from_pairs_keeps_first_duplicate() {
        let x = SpVec::from_pairs(4, vec![(2, 'a'), (2, 'b'), (1, 'c')]);
        assert_eq!(x.get(2), Some(&'a'));
        assert_eq!(x.nnz(), 2);
    }

    #[test]
    fn map_and_filter() {
        let x = SpVec::from_pairs(5, vec![(0, 1), (2, 2), (4, 3)]);
        let y = x.map(|v| v * 10);
        assert_eq!(y.entries(), &[(0, 10), (2, 20), (4, 30)]);
        let z = x.filter(|_, &v| v % 2 == 1);
        assert_eq!(z.entries(), &[(0, 1), (4, 3)]);
        assert_eq!(z.len(), 5);
    }

    #[test]
    fn push_in_order() {
        let mut x: SpVec<u8> = SpVec::new(10);
        x.push(1, 9);
        x.push(7, 8);
        assert_eq!(x.entries(), &[(1, 9), (7, 8)]);
        x.clear();
        assert!(x.is_empty());
        assert_eq!(x.len(), 10);
    }
}
