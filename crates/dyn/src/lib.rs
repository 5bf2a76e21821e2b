//! # mcm-dyn — dynamic bipartite graphs, incrementally repaired matchings
//!
//! The paper solves maximum cardinality matching once, on a frozen
//! matrix. This crate keeps that answer live while edges come and go:
//!
//! * [`DynGraph`] — a mutable bipartite graph as two lock-stepped
//!   [`CscOverlay`](mcm_sparse::CscOverlay)s (column and row adjacency),
//!   with epoch-bumping compaction back into frozen CSC; generic over an
//!   edge value, so both engines below share it (`()` and `f64`);
//! * [`DynMatching`] — an always-maximum matching repaired after each
//!   update batch by single-source augmenting searches from the dirtied
//!   vertices, falling back to serial MS-BFS warm-started from the stale
//!   matching (`mcm_core::serial::ms_bfs_serial`, the paper's §V warm
//!   start) when the dirty set is large — the dynamic analogue of the
//!   paper's `k < 2p²` path-vs-level parallelism switch;
//! * [`WDynMatching`] — the weighted sibling: an always-(ε-)optimal
//!   weighted matching whose auction prices persist across batches, so a
//!   batch only re-auctions the columns whose ε-complementary-slackness
//!   it actually violated (cold parallel ε-scaled solve above a dirty
//!   threshold);
//! * [`StateSnapshot`] — the O(1) scalars of the engine's state, the unit
//!   of snapshot isolation in the `mcm-serve` daemon (which also owns the
//!   `mcmd` line protocol, in `mcm_serve::proto`).
//!
//! Every batch ends certified: a Berge check seeded at the batch's dirty
//! region (or a full sweep when the repair itself had to go global).
//! `tests/dyn_oracle.rs` sweeps the engine differentially against
//! from-scratch Hopcroft–Karp over the `mcm-gen` update-trace suite.

pub mod engine;
pub mod graph;
mod phase;
pub mod weighted;

pub use engine::{
    BatchReport, CertScope, DynMatching, DynOptions, DynStats, StateSnapshot, Update,
    FALLBACK_MIN_VERTICES,
};
pub use graph::DynGraph;
pub use weighted::{WBatchReport, WDynMatching, WDynOptions, WDynStats, WStateSnapshot, WUpdate};
