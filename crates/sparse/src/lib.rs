//! # mcm-sparse — sparse matrix/vector substrate
//!
//! This crate provides the sparse linear-algebra substrate on which the
//! matrix-algebraic matching algorithms of Azad & Buluç (IPDPS 2016) are
//! built. It mirrors the pieces of CombBLAS that the paper relies on:
//!
//! * [`Triples`] — a coordinate-format (COO) staging area for graph
//!   construction and I/O,
//! * [`Csc`] — compressed sparse columns, the workhorse local format,
//! * [`CscView`] — a *borrowed* CSC over externally owned arrays (mmap'ed
//!   MCSB files from `mcm-store`), the zero-copy load path,
//! * [`Dcsc`] — *doubly* compressed sparse columns, the format CombBLAS uses
//!   for hypersparse 2D-partitioned submatrices (Buluç & Gilbert),
//! * [`SpVec`] — a sparse vector of `(index, value)` pairs,
//! * [`DenseVec`] — a dense vector with the paper's `-1`-means-missing
//!   convention expressed through the [`NIL`] sentinel,
//! * semiring sparse-matrix × sparse-vector products ([`spmspv`]) used for
//!   frontier expansion in multi-source BFS, whose addition is one
//!   associative fold: one serial local product over any column layout
//!   ([`workspace::Columns`]), plus the simulator's fused kernel,
//! * [`CscOverlay`] — an insert/delete edge overlay over a CSC base with
//!   epoch-based compaction, generic over a value per edge (`()` for a
//!   pattern, `f64` for weights, which inserts re-weight): the storage
//!   layer of both dynamic matching engines (`mcm-dyn`),
//! * [`WCsc`] — the weighted value layer: the same CSC pattern machinery
//!   carrying an `f64` per nonzero, for the weighted (assignment) domain.
//!
//! Bipartite graphs `G = (R, C, E)` are represented as an `n1 × n2` binary
//! matrix `A` where `A[i][j] != 0` iff row vertex `i` is adjacent to column
//! vertex `j` (§II of the paper). Matrices here are *pattern-only*: only the
//! structure is stored, because matching never needs numerical values.

pub mod csc;
pub mod dcsc;
pub mod densevec;
pub mod io;
pub mod overlay;
pub mod permute;
pub mod spmv;
pub mod spvec;
pub mod stats;
pub mod triples;
pub mod view;
pub mod wcsc;
pub mod workspace;

pub use csc::Csc;
pub use dcsc::Dcsc;
pub use densevec::DenseVec;
pub use overlay::CscOverlay;
pub use spmv::spmspv;
pub use spvec::SpVec;
pub use triples::Triples;
pub use view::CscView;
pub use wcsc::WCsc;
pub use workspace::{SpmvWorkspace, WorkspaceStats};

/// Vertex/column index type.
///
/// `u32` halves the memory traffic relative to `usize` on 64-bit targets and
/// comfortably covers every graph this reproduction runs (the paper's largest
/// *executed-here* instances have a few million vertices per side; the
/// scale-30 instances quoted in the paper are reproduced at reduced scale, see
/// DESIGN.md).
pub type Vidx = u32;

/// Sentinel encoding the paper's "-1 denotes unmatched / unvisited / missing".
///
/// Using `u32::MAX` keeps vectors unsigned while preserving the semantics of
/// the dense `mate`, `π` (parents) and `path` vectors of Algorithm 2.
pub const NIL: Vidx = Vidx::MAX;

/// Returns `true` if `v` is a real vertex index (not the [`NIL`] sentinel).
#[inline(always)]
pub fn is_some(v: Vidx) -> bool {
    v != NIL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_is_not_a_vertex() {
        assert!(!is_some(NIL));
        assert!(is_some(0));
        assert!(is_some(Vidx::MAX - 1));
    }
}
