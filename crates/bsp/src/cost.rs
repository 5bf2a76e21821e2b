//! The α–β–γ communication/computation cost model.
//!
//! §IV-B of the paper: *"The cost of communicating a length m message is
//! α + βm where α is the latency and β is the inverse bandwidth ... an
//! algorithm that performs F arithmetic operations, sends S messages, and
//! moves W words takes T = F + αS + βW time."*
//!
//! All times are in seconds; a *word* is 8 bytes (one `Vidx` index plus
//! padding, or one `(parent, root)` half). Collective formulas follow the
//! algorithms the paper cites: ring allgather \[28\] and personalized
//! all-to-all (alltoallv) \[27\].

/// Machine cost parameters.
///
/// # Example
///
/// ```
/// use mcm_bsp::CostModel;
///
/// let c = CostModel::edison();
/// // An allgather of 1k words over 64 ranks is latency + bandwidth:
/// let t = c.allgather(64, 1024);
/// assert!(t > 0.0 && t < 1e-3);
/// // One-sided RMA ops cost α + β each (the paper's 3(α+β) per path level).
/// assert!(c.rma_op() < 2e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Point-to-point message latency (seconds per message).
    pub alpha: f64,
    /// Per-rank software overhead of *personalized* collectives (seconds per
    /// participating rank): every rank of an alltoallv must set up, pack,
    /// and unpack one buffer per peer, which is linear in the communicator
    /// size even when the network latency combines logarithmically. This
    /// term is what makes the paper's INVERT `αp` cost — and the Fig. 7
    /// flat-MPI penalty — real.
    pub alpha_soft: f64,
    /// Inverse bandwidth (seconds per 8-byte word).
    pub beta: f64,
    /// Cost of one elementary local operation — an edge traversal, a
    /// sparse-accumulator update — on a single core (seconds per op).
    pub gamma: f64,
}

impl CostModel {
    /// Parameters calibrated to NERSC Edison (Cray XC30, Aries dragonfly):
    /// ~1.5 µs MPI latency, ~0.1 µs per-rank collective software overhead,
    /// ~8 GB/s effective per-socket bandwidth (β = 8 B / 8 GB/s = 1 ns/word;
    /// see [`crate::DistCtx`] for node-sharing adjustment), ~8 ns per
    /// irregular edge traversal (≈125M traversed edges/s per core, typical
    /// for memory-bound graph kernels on 2.4 GHz Ivy Bridge).
    pub fn edison() -> Self {
        Self { alpha: 1.5e-6, alpha_soft: 0.1e-6, beta: 1.0e-9, gamma: 8.0e-9 }
    }

    /// A zero-cost model (useful in unit tests that only check data results).
    pub fn free() -> Self {
        Self { alpha: 0.0, alpha_soft: 0.0, beta: 0.0, gamma: 0.0 }
    }

    /// Local computation of `flops` elementary ops on one process using `t`
    /// threads (the paper's kernels are "fully multithreaded using OpenMP").
    #[inline]
    pub fn compute(&self, flops: u64, threads: usize) -> f64 {
        self.gamma * flops as f64 / threads.max(1) as f64
    }

    /// Per-element cost of *streaming* local ops (SELECT/SET/IND sweeps over
    /// contiguous index/value pairs): sequential access runs ~8× faster than
    /// the random-access edge traversals γ models.
    #[inline]
    pub fn gamma_stream(&self) -> f64 {
        self.gamma / 8.0
    }

    /// Allgather over `g` ranks where `total_words` end up replicated on
    /// every rank: `⌈log₂ g⌉·α + total_words·β` per rank.
    ///
    /// Latency is logarithmic (recursive doubling / Bruck): the paper's
    /// asymptotic analysis uses the linear-latency ring bound `(g−1)α`
    /// \[28\], but Cray MPI's combining algorithms deliver log-depth
    /// latency for the small frontier messages matching actually sends —
    /// using the worst-case bound would make latency dominate two orders
    /// of magnitude earlier than the paper's measured scaling shows.
    #[inline]
    pub fn allgather(&self, g: usize, total_words: u64) -> f64 {
        if g <= 1 {
            return 0.0;
        }
        (g as f64).log2().ceil() * self.alpha
            + g as f64 * self.alpha_soft
            + total_words as f64 * self.beta
    }

    /// Personalized all-to-all (alltoallv) over `g` ranks with at most
    /// `max_words` sent or received by any rank. Includes the preliminary
    /// count exchange the paper's AUGMENT analysis charges ("another
    /// personalized all-to-all to communicate the amount of data").
    /// Log-depth latency for the same reason as [`CostModel::allgather`].
    #[inline]
    pub fn alltoallv(&self, g: usize, max_words: u64) -> f64 {
        if g <= 1 {
            return 0.0;
        }
        2.0 * (g as f64).log2().ceil() * self.alpha
            + 2.0 * g as f64 * self.alpha_soft
            + max_words as f64 * self.beta
    }

    /// Gather of `total_words` onto a single root from `g` ranks
    /// (root-bound, bandwidth-dominated: the root must receive everything).
    #[inline]
    pub fn gather(&self, g: usize, total_words: u64) -> f64 {
        if g <= 1 {
            return 0.0;
        }
        (g as f64).log2().ceil() * self.alpha + total_words as f64 * self.beta
    }

    /// Scatter of `total_words` from a single root to `g` ranks.
    #[inline]
    pub fn scatter(&self, g: usize, total_words: u64) -> f64 {
        self.gather(g, total_words)
    }

    /// Allreduce of `words` per rank over `g` ranks (recursive doubling):
    /// `2·⌈log₂ g⌉·α + 2·words·β`.
    #[inline]
    pub fn allreduce(&self, g: usize, words: u64) -> f64 {
        if g <= 1 {
            return 0.0;
        }
        let lg = (g as f64).log2().ceil();
        2.0 * lg * self.alpha + 2.0 * words as f64 * self.beta
    }

    /// One one-sided RMA operation (`MPI_Get` / `MPI_Put` /
    /// `MPI_Fetch_and_op`) moving a single word: `α + β` (§IV-B: "the
    /// communication cost per processor per iteration is 3(α+β)" for the
    /// three calls of a path-parallel augmentation step).
    #[inline]
    pub fn rma_op(&self) -> f64 {
        self.alpha + self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_are_free() {
        let c = CostModel::edison();
        assert_eq!(c.allgather(1, 1000), 0.0);
        assert_eq!(c.alltoallv(1, 1000), 0.0);
        assert_eq!(c.allreduce(1, 10), 0.0);
    }

    #[test]
    fn costs_scale_with_terms() {
        let c = CostModel { alpha: 1.0, alpha_soft: 0.0, beta: 0.5, gamma: 0.1 };
        // log2(4) = 2 latency steps.
        assert!((c.allgather(4, 10) - (2.0 + 5.0)).abs() < 1e-12);
        assert!((c.alltoallv(4, 10) - (4.0 + 5.0)).abs() < 1e-12);
        assert!((c.allreduce(4, 2) - (4.0 + 2.0)).abs() < 1e-12);
        assert!((c.compute(100, 4) - 2.5).abs() < 1e-12);
        assert!((c.rma_op() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn latency_grows_logarithmically() {
        let c = CostModel { alpha: 1.0, alpha_soft: 0.0, beta: 0.0, gamma: 0.0 };
        // Quadrupling the ranks adds a constant 2 steps, not 3x the cost.
        assert!((c.allgather(64, 0) - 6.0).abs() < 1e-12);
        assert!((c.allgather(256, 0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn compute_guards_zero_threads() {
        let c = CostModel { alpha: 0.0, alpha_soft: 0.0, beta: 0.0, gamma: 1.0 };
        assert_eq!(c.compute(7, 0), 7.0);
    }

    #[test]
    fn edison_orders_of_magnitude() {
        let c = CostModel::edison();
        // Latency should dominate tiny messages, bandwidth large ones.
        assert!(c.alpha > 100.0 * c.beta);
        assert!(c.gamma > c.beta);
    }
}
