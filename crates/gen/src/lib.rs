//! # mcm-gen — graph/matrix generators
//!
//! Two families of inputs drive the paper's evaluation:
//!
//! 1. **Synthetic RMAT matrices** (§V-B): Graph500 (`a=.57, b=c=.19,
//!    d=.05`, 32 nonzeros/row), SSCA#2 (`a=.6, b=c=d=.4/3`, 16/row) and
//!    Erdős–Rényi (`a=b=c=d=.25`, 32/row) — implemented bit-faithfully in
//!    [`rmat`](mod@rmat).
//! 2. **Real matrices from the UF/SuiteSparse collection** (Table II). The
//!    collection is not available offline, so [`realistic`] provides
//!    structure-class stand-ins — planar meshes for `delaunay_n24`, lattice
//!    road networks for `road_usa`, power-law RMAT for `wikipedia`, banded
//!    diffusion for `cage15`, KKT stencils for `nlpkkt200`, and so on — at
//!    laptop scale. DESIGN.md §2 documents why class-preserving stand-ins
//!    keep the evaluation's shape.
//!
//! All generators are deterministic in their `seed` across platforms
//! (self-contained SplitMix64 streams, no `rand` dependency in the library).

pub mod banded;
pub mod bipartite;
pub mod er;
pub mod hard;
pub mod kkt;
pub mod mesh;
pub mod realistic;
pub mod rmat;
pub mod smallworld;
pub mod suite;
pub mod trace;

pub use realistic::{representative4, table2, StandIn};
pub use rmat::{rmat, rmat_profile, stream_edges, RmatParams, RmatProfile, RMAT_PROFILES};
pub use suite::{simtest_suite, update_trace_suite};
pub use trace::{
    assign_weights, materialize_weighted, update_trace, weighted_update_trace, TraceOp,
    TraceParams, WTraceOp, WTraceParams,
};
