//! The matching semirings: `(select2nd, minParent)`, `(select2nd,
//! randParent)`, `(select2nd, randRoot)`.
//!
//! §III-B: the semiring multiply is `select2nd` — exploring column `j` hands
//! each neighbouring row the value `Vertex(parent = j, root = root(f_c[j]))`
//! — and the "addition" selects among candidates arriving at the same row:
//!
//! * **minParent** keeps the candidate with the smallest parent index
//!   (deterministic, the paper's running example),
//! * **randParent** keeps a pseudo-random candidate keyed by parent,
//! * **randRoot** keeps a pseudo-random candidate keyed by root — *"useful
//!   to randomly distribute vertices among alternating trees, ensuring
//!   better balance of tree sizes"*.
//!
//! Randomized selections hash `(seed, candidate index)` instead of drawing
//! from a stateful RNG, so distributed folds and the serial kernel make
//! identical choices regardless of arrival order or process grid.

use crate::vertex::Vertex;
use mcm_sparse::Vidx;

/// Which `(select2nd, ⊕)` semiring MCM-DIST uses for frontier expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SemiringKind {
    /// Keep the minimum parent index.
    #[default]
    MinParent,
    /// Keep the candidate whose hashed parent is smallest (seeded).
    RandParent(u64),
    /// Keep the candidate whose hashed root is smallest (seeded).
    RandRoot(u64),
}

/// A strong 64-bit mix (SplitMix64 finalizer) for order-free tie-breaking.
#[inline]
fn mix(seed: u64, v: Vidx) -> u64 {
    let mut z = seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SemiringKind {
    /// The semiring addition as the SpMSpV fold: `inc` replaces `acc` when
    /// it wins the selection. Every selection is a total order on
    /// candidates, so the fold is associative (the one property the kernels
    /// require) and also arrival-order independent.
    #[inline]
    pub fn fold(&self, acc: &mut Vertex, inc: Vertex) {
        if self.take_incoming(acc, &inc) {
            *acc = inc;
        }
    }

    /// The selection behind [`SemiringKind::fold`]: `true` keeps the
    /// incoming candidate.
    #[inline]
    fn take_incoming(&self, acc: &Vertex, inc: &Vertex) -> bool {
        match *self {
            SemiringKind::MinParent => inc.parent < acc.parent,
            SemiringKind::RandParent(seed) => {
                (mix(seed, inc.parent), inc.parent) < (mix(seed, acc.parent), acc.parent)
            }
            SemiringKind::RandRoot(seed) => {
                (mix(seed, inc.root), inc.root) < (mix(seed, acc.root), acc.root)
            }
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SemiringKind::MinParent => "minParent",
            SemiringKind::RandParent(_) => "randParent",
            SemiringKind::RandRoot(_) => "randRoot",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_parent_selects_smaller_parent() {
        let s = SemiringKind::MinParent;
        let a = Vertex::new(3, 9);
        let b = Vertex::new(1, 5);
        assert!(s.take_incoming(&a, &b));
        assert!(!s.take_incoming(&b, &a));
    }

    #[test]
    fn selections_are_total_orders() {
        // For each semiring and any pair, exactly one of (take a→b, take b→a,
        // equal-key) holds — required for arrival-order independence.
        for s in [SemiringKind::MinParent, SemiringKind::RandParent(42), SemiringKind::RandRoot(42)]
        {
            for pa in 0..6u32 {
                for pb in 0..6u32 {
                    let a = Vertex::new(pa, pa + 10);
                    let b = Vertex::new(pb, pb + 10);
                    let ab = s.take_incoming(&a, &b);
                    let ba = s.take_incoming(&b, &a);
                    assert!(!(ab && ba), "{s:?} not antisymmetric for {pa},{pb}");
                    if pa != pb {
                        assert!(ab || ba, "{s:?} not total for {pa},{pb}");
                    }
                }
            }
        }
    }

    #[test]
    fn rand_semirings_depend_on_seed() {
        let a = Vertex::new(0, 0);
        let b = Vertex::new(1, 1);
        let picks: Vec<bool> =
            (0..32u64).map(|seed| SemiringKind::RandRoot(seed).take_incoming(&a, &b)).collect();
        assert!(picks.iter().any(|&x| x) && picks.iter().any(|&x| !x));
    }

    #[test]
    fn rand_root_ignores_parent() {
        let s = SemiringKind::RandRoot(7);
        let a = Vertex::new(0, 4);
        let b = Vertex::new(9, 4); // same root, different parent
        assert!(!s.take_incoming(&a, &b));
        assert!(!s.take_incoming(&b, &a));
    }
}
