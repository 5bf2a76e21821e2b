//! Distributed maximal-matching initializers.
//!
//! §VI-A: *"The total runtime of an MCM algorithm often decreases when it is
//! initialized by a maximal matching with high approximation ratio. In our
//! prior work \[21\], we developed distributed-memory Karp-Sipser, dynamic
//! mindegree and greedy algorithms using a subset of the matrix-algebraic
//! primitives."*
//!
//! All three are built from the same SpMSpV/INVERT skeleton: unmatched
//! vertices on one side propose along edges (semiring SpMSpV picks one
//! proposal per receiver), an INVERT resolves the receiver→proposer
//! conflicts, and matched pairs are committed — they differ in *who proposes
//! first* and *how the proposal is chosen*:
//!
//! * [`greedy`]: every unmatched column, minimum-index row wins. Cheapest.
//! * [`dynamic_mindegree`]: rows carry their *current* degree and columns
//!   keep the minimum-degree proposer; degrees are updated each round with a
//!   counting SpMSpV.
//! * [`karp_sipser`]: degree-1 columns are matched first (always safe);
//!   rounds without degree-1 vertices fall back to a random proposal. The
//!   cascading degree updates need extra rounds and counting SpMSpVs — the
//!   reason it is "too expensive to maintain the dynamic order of vertices
//!   needed by Karp-Sipser on distributed memory" (§I).
//!
//! The initializers charge to [`Kernel::Init`](mcm_bsp::Kernel::Init) so
//! Fig. 3 can split init time from MCM time.

mod greedy;
mod karp_sipser;
mod mindegree;

pub use greedy::greedy;
pub use karp_sipser::karp_sipser;
pub use mindegree::dynamic_mindegree;

use crate::matching::Matching;
use mcm_bsp::{Communicator, DistMatrix};

/// Which maximal matching seeds MCM-DIST.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Initializer {
    /// Start from the empty matching.
    None,
    /// Distributed greedy.
    Greedy,
    /// Distributed Karp–Sipser.
    KarpSipser,
    /// Distributed dynamic mindegree — the paper's default (§VI-A: "in the
    /// rest of our experiments, we use only dynamic mindegree").
    #[default]
    DynamicMindegree,
}

impl Initializer {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Initializer::None => "none",
            Initializer::Greedy => "greedy",
            Initializer::KarpSipser => "karp-sipser",
            Initializer::DynamicMindegree => "dynamic-mindegree",
        }
    }

    /// Runs the initializer. `a` is the distributed matrix and `at` its
    /// transpose (needed by the row-proposing variants); pass the same
    /// backend so the cost lands in `Kernel::Init` and the proposal
    /// rounds execute on the caller's simulator or engine.
    pub fn run<C: Communicator>(
        &self,
        comm: &mut C,
        a: &DistMatrix,
        at: &DistMatrix,
        seed: u64,
    ) -> Matching {
        let _span = mcm_obs::kernel_span(self.name(), "Init");
        match self {
            Initializer::None => Matching::empty(a.nrows(), a.ncols()),
            Initializer::Greedy => greedy(comm, a),
            Initializer::KarpSipser => karp_sipser(comm, a, at, seed),
            Initializer::DynamicMindegree => dynamic_mindegree(comm, a, at),
        }
    }
}
