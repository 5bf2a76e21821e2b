//! Machine and process-grid configuration.
//!
//! The paper (§V-A): *"When p cores are allocated for an experiment, we
//! create a `√(p/t) × √(p/t)` process grid where t is the number of threads
//! per process"* and *"we only used square process grids"*. Edison nodes
//! have two 12-core sockets; the default configuration pins one MPI process
//! per socket with `t = 12` OpenMP threads, except at 24 cores where a 2×2
//! grid of 6-thread processes is used.

/// A square 2D process grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcGrid {
    /// Grid rows (`p_r`).
    pub pr: usize,
    /// Grid columns (`p_c`). Always equals `pr` (paper: CombBLAS supports
    /// only square grids).
    pub pc: usize,
}

impl ProcGrid {
    /// A `dim × dim` square grid.
    pub fn square(dim: usize) -> Self {
        assert!(dim > 0);
        Self { pr: dim, pc: dim }
    }

    /// Total process count `p = pr · pc`.
    #[inline]
    pub fn p(&self) -> usize {
        self.pr * self.pc
    }

    /// Linear rank of grid position `(i, j)` (row-major).
    #[inline]
    pub fn rank(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.pr && j < self.pc);
        i * self.pc + j
    }
}

/// A simulated machine allocation: total cores and the hybrid MPI/OpenMP
/// split.
///
/// # Example
///
/// ```
/// use mcm_bsp::MachineConfig;
///
/// // The paper's 972-core configuration: 9x9 grid, 12 threads/process.
/// let cfg = MachineConfig::from_cores(972, 12).unwrap();
/// assert_eq!(cfg.grid.pr, 9);
/// assert_eq!(cfg.threads_per_process, 12);
/// assert_eq!(cfg.cores(), 972);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Square process grid.
    pub grid: ProcGrid,
    /// Threads per process (the paper's OpenMP threads), modeled only: they
    /// divide charged compute, and no product is split across them.
    pub threads_per_process: usize,
}

impl MachineConfig {
    /// Explicit hybrid configuration: a `dim × dim` grid of processes, each
    /// with `threads` threads. Total cores = `dim² · threads`.
    pub fn hybrid(dim: usize, threads: usize) -> Self {
        assert!(threads > 0);
        Self { grid: ProcGrid::square(dim), threads_per_process: threads }
    }

    /// `p` processes on a `√p × √p` grid, each with `threads` threads.
    ///
    /// # Panics
    /// When `p` is not a positive perfect square.
    pub fn square_ranks(p: usize, threads: usize) -> Self {
        let dim = (p as f64).sqrt().round() as usize;
        assert!(dim * dim == p && p >= 1, "the 2D grid needs a square rank count, got {p}");
        Self::hybrid(dim, threads)
    }

    /// Flat MPI: one thread per process (Fig. 7's non-threaded baseline).
    pub fn flat(dim: usize) -> Self {
        Self::hybrid(dim, 1)
    }

    /// The paper's standard allocation for a given core count: the largest
    /// square grid of ≤`max_threads`-thread processes that uses exactly
    /// `cores` cores, preferring more threads per process (§V-A).
    ///
    /// Examples with `max_threads = 12`: 24 cores → 2×2 grid × 6 threads;
    /// 48 → 2×2 × 12; 108 → 3×3 × 12; 972 → 9×9 × 12.
    ///
    /// Returns `None` when no `dim² · t = cores` decomposition exists with
    /// `1 ≤ t ≤ max_threads`.
    pub fn from_cores(cores: usize, max_threads: usize) -> Option<Self> {
        for t in (1..=max_threads.min(cores)).rev() {
            if !cores.is_multiple_of(t) {
                continue;
            }
            let p = cores / t;
            let dim = (p as f64).sqrt().round() as usize;
            if dim > 0 && dim * dim == p {
                return Some(Self::hybrid(dim, t));
            }
        }
        None
    }

    /// Total core count of the allocation.
    #[inline]
    pub fn cores(&self) -> usize {
        self.grid.p() * self.threads_per_process
    }

    /// Process count `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.grid.p()
    }

    /// The paper's Fig. 4/5/6 sweep: core counts `dim² · 12` for grid
    /// dimensions 2, 3, 4, ... up to (and including) the first configuration
    /// with at least `max_cores` cores, starting with the single-node 24-core
    /// (2×2 × 6) point.
    pub fn paper_sweep(max_cores: usize) -> Vec<Self> {
        let mut v = vec![Self::hybrid(2, 6)]; // 24 cores, the 1-node baseline
        let mut dim = 2;
        loop {
            let cfg = Self::hybrid(dim, 12);
            v.push(cfg);
            if cfg.cores() >= max_cores {
                break;
            }
            dim += 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_ranks_are_row_major() {
        let g = ProcGrid::square(3);
        assert_eq!(g.p(), 9);
        assert_eq!(g.rank(0, 0), 0);
        assert_eq!(g.rank(1, 2), 5);
        assert_eq!(g.rank(2, 2), 8);
    }

    #[test]
    fn from_cores_matches_paper_configs() {
        let c24 = MachineConfig::from_cores(24, 12).unwrap();
        assert_eq!((c24.grid.pr, c24.threads_per_process), (2, 6));
        let c48 = MachineConfig::from_cores(48, 12).unwrap();
        assert_eq!((c48.grid.pr, c48.threads_per_process), (2, 12));
        let c972 = MachineConfig::from_cores(972, 12).unwrap();
        assert_eq!((c972.grid.pr, c972.threads_per_process), (9, 12));
        let c2028 = MachineConfig::from_cores(2028, 12).unwrap();
        assert_eq!((c2028.grid.pr, c2028.threads_per_process), (13, 12));
    }

    #[test]
    fn from_cores_rejects_impossible() {
        assert!(MachineConfig::from_cores(7, 1).is_none());
    }

    #[test]
    fn flat_uses_one_thread() {
        let c = MachineConfig::flat(4);
        assert_eq!(c.threads_per_process, 1);
        assert_eq!(c.cores(), 16);
        assert_eq!(c.p(), 16);
    }

    #[test]
    fn paper_sweep_starts_at_one_node() {
        let sweep = MachineConfig::paper_sweep(2000);
        assert_eq!(sweep[0].cores(), 24);
        assert_eq!(sweep[1].cores(), 48);
        assert!(sweep.last().unwrap().cores() >= 2000);
        // Monotone increasing core counts.
        assert!(sweep.windows(2).all(|w| w[0].cores() < w[1].cores()));
    }
}
