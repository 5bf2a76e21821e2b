//! The centralized gather–compute–scatter baseline (§VI-E, Fig. 9).
//!
//! *"If a graph is already distributed, collecting it on a single node
//! requires expensive communication. The communication cost includes
//! gathering the distributed graph on a selected node and scattering the
//! computed MCM from the selected node to all nodes."*
//!
//! This module models exactly that pipeline: gather `m` edges (two words
//! each) onto rank 0, run the best *serial* MCM there (Hopcroft–Karp as the
//! stand-in for the shared-memory MS-BFS-Graft code of \[7\]), then scatter
//! the two mate vectors. Fig. 9 plots the gather+scatter time against the
//! edge count; §VI-E's argument is that this communication alone exceeds
//! running MCM-DIST in place.

use crate::matching::Matching;
use crate::serial::hopcroft_karp;
use mcm_bsp::{DistCtx, Kernel};
use mcm_sparse::Triples;

/// Modeled costs of the centralized pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CentralizedCost {
    /// Gathering the edge list onto rank 0 (seconds).
    pub gather_s: f64,
    /// Scattering the mate vectors back (seconds).
    pub scatter_s: f64,
}

impl CentralizedCost {
    /// Total communication time of the pipeline.
    pub fn total(&self) -> f64 {
        self.gather_s + self.scatter_s
    }
}

/// Charges and returns the communication cost of gathering a distributed
/// graph with `m_edges` edges onto one rank and scattering `n1 + n2` mate
/// entries back, on the machine of `ctx` (pure cost model — used by the
/// Fig. 9 sweep without materializing the graphs).
pub fn centralized_cost(ctx: &mut DistCtx, m_edges: u64, n1: u64, n2: u64) -> CentralizedCost {
    let gather_s = ctx.charge_gather(Kernel::Gather, 2 * m_edges);
    let scatter_s = ctx.charge_scatter(Kernel::Gather, n1 + n2);
    CentralizedCost { gather_s, scatter_s }
}

/// Runs the full centralized pipeline on an actual graph: charge the
/// gather, solve serially on "rank 0", charge the scatter. Returns the
/// matching and the modeled communication cost.
pub fn centralized_matching(ctx: &mut DistCtx, t: &Triples) -> (Matching, CentralizedCost) {
    let cost = centralized_cost(ctx, t.len() as u64, t.nrows() as u64, t.ncols() as u64);
    let a = t.to_csc();
    let m = hopcroft_karp(&a, None);
    (m, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_bsp::MachineConfig;

    #[test]
    fn cost_grows_linearly_with_edges() {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 1));
        let small = centralized_cost(&mut ctx, 1_000_000, 1000, 1000);
        let large = centralized_cost(&mut ctx, 10_000_000, 1000, 1000);
        let ratio = large.gather_s / small.gather_s;
        assert!((ratio - 10.0).abs() < 0.5, "gather should scale ~linearly, got {ratio}");
    }

    #[test]
    fn single_process_pipeline_is_free() {
        let mut ctx = DistCtx::serial();
        let c = centralized_cost(&mut ctx, 1_000_000, 1000, 1000);
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn pipeline_produces_maximum_matching() {
        use mcm_sparse::Vidx;
        let t = Triples::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 0), (2, 2)]);
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let (m, cost) = centralized_matching(&mut ctx, &t);
        assert_eq!(m.cardinality(), 3);
        assert!(cost.total() > 0.0);
        assert!(ctx.timers.seconds(Kernel::Gather) > 0.0);
        let _ = m.mate_r.get(0 as Vidx);
    }
}
