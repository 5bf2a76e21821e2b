//! Serial baselines and references. Every routine reads its graph through
//! `impl Into<CscView>`: an owned [`Csc`](mcm_sparse::Csc) or a borrowed
//! [`CscView`](mcm_sparse::CscView), such as an mmap'ed MCSB file's pages.
//!
//! * [`hopcroft_karp`] — the `O(m√n)` classic; the *oracle* every
//!   distributed run is checked against.
//! * [`pothen_fan`] — multi-source DFS with lookahead (§II-A), the strongest
//!   serial augmenting-path competitor on practical graphs and the second
//!   differential oracle.
//! * [`ms_bfs_serial`] — a direct, pure-graph transliteration of
//!   Algorithm 1, used to cross-check the matrix-algebraic formulation
//!   phase by phase.
//! * [`greedy_serial`] / [`karp_sipser_serial`] — the serial maximal
//!   initializers (§II-A's three flavours; dynamic mindegree's serial twin
//!   is Karp–Sipser-like and covered by those two), the oracles for the
//!   distributed initializers.

mod greedy;
mod hk;
mod karp_sipser;
mod msbfs;
mod pothen_fan;

pub use greedy::greedy_serial;
pub use hk::hopcroft_karp;
pub use karp_sipser::karp_sipser_serial;
pub use msbfs::{ms_bfs_serial, MsBfsStats};
pub use pothen_fan::pothen_fan;
