//! Dense vectors with the paper's `-1`-means-missing convention.
//!
//! Algorithm 2 keeps four dense vectors: `mate_r`, `mate_c` (current
//! matching), `π_r` (parents of row vertices visited in the current phase),
//! and `path_c` (endpoints of discovered augmenting paths). All of them hold
//! vertex indices where "-1 denotes missing"; we encode that with the
//! [`NIL`](crate::NIL) sentinel of the unsigned [`Vidx`](crate::Vidx) type.

use crate::{SpVec, Vidx, NIL};

/// A dense vector of vertex indices, `NIL` meaning "missing".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseVec {
    data: Vec<Vidx>,
}

impl DenseVec {
    /// A vector of `len` entries, all `NIL` (the paper's "initialize to -1").
    pub fn nil(len: usize) -> Self {
        Self { data: vec![NIL; len] }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<Vidx>) -> Self {
        Self { data }
    }

    /// Logical length.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the length is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at `i`.
    #[inline]
    pub fn get(&self, i: Vidx) -> Vidx {
        self.data[i as usize]
    }

    /// Sets the value at `i`.
    #[inline]
    pub fn set(&mut self, i: Vidx, v: Vidx) {
        self.data[i as usize] = v;
    }

    /// `true` when entry `i` is a real vertex index.
    #[inline]
    pub fn is_set(&self, i: Vidx) -> bool {
        self.data[i as usize] != NIL
    }

    /// Underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[Vidx] {
        &self.data
    }

    /// Mutable underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Vidx] {
        &mut self.data
    }

    /// Atomic view of the storage, for concurrent one-sided access (the
    /// RMA windows of a thread-per-rank execution backend). Requires the
    /// exclusive borrow, so no non-atomic access can overlap it; `Vidx`
    /// (`u32`) and `AtomicU32` have identical size, alignment, and bit
    /// validity, so the reinterpretation is sound.
    pub fn as_atomic_view(&mut self) -> &[std::sync::atomic::AtomicU32] {
        let slice: *mut [Vidx] = self.data.as_mut_slice();
        unsafe { &*(slice as *const [std::sync::atomic::AtomicU32]) }
    }

    /// Resets every entry to `NIL`.
    pub fn fill_nil(&mut self) {
        self.data.fill(NIL);
    }

    /// Number of non-`NIL` entries.
    pub fn count_set(&self) -> usize {
        self.data.iter().filter(|&&v| v != NIL).count()
    }

    /// Indices of the `NIL` entries (e.g. the unmatched column vertices
    /// seeding a phase of Algorithm 2).
    pub fn nil_indices(&self) -> Vec<Vidx> {
        self.data.iter().enumerate().filter_map(|(i, &v)| (v == NIL).then_some(i as Vidx)).collect()
    }

    /// Extracts the non-`NIL` entries as a sparse vector (used by
    /// Algorithm 3 line 2: "sparse vector from `path_c` by removing entries
    /// with -1").
    pub fn to_sparse(&self) -> SpVec<Vidx> {
        SpVec::from_sorted_pairs(
            self.len(),
            self.data
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| (v != NIL).then_some((i as Vidx, v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_construction() {
        let v = DenseVec::nil(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.count_set(), 0);
        assert_eq!(v.nil_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = DenseVec::nil(4);
        v.set(2, 7);
        assert!(v.is_set(2));
        assert!(!v.is_set(0));
        assert_eq!(v.get(2), 7);
        assert_eq!(v.count_set(), 1);
        v.fill_nil();
        assert_eq!(v.count_set(), 0);
    }

    #[test]
    fn atomic_view_aliases_the_storage() {
        let mut v = DenseVec::nil(3);
        v.set(1, 7);
        {
            let view = v.as_atomic_view();
            assert_eq!(view.len(), 3);
            assert_eq!(view[1].load(std::sync::atomic::Ordering::SeqCst), 7);
            view[2].store(9, std::sync::atomic::Ordering::SeqCst);
        }
        assert_eq!(v.get(2), 9);
        assert!(!v.is_set(0));
    }

    #[test]
    fn sparse_roundtrip() {
        let mut v = DenseVec::nil(5);
        v.set(1, 4);
        v.set(4, 0);
        let s = v.to_sparse();
        assert_eq!(s.entries(), &[(1, 4), (4, 0)]);
        let mut w = DenseVec::nil(5);
        for (i, &x) in s.iter() {
            w.set(i, x);
        }
        assert_eq!(w, v);
    }
}
