//! The distributed execution context: grid + cost model + timers.

use crate::collectives::{max_count, per_rank_counts};
use crate::cost::CostModel;
use crate::machine::MachineConfig;
use crate::sched::Schedule;
use crate::timers::{Kernel, Timers};
use mcm_sparse::SpVec;

/// Per-collective bytes/calls metrics, recorded at the accounting choke
/// point both backends share (the engine charges its observed volumes
/// through the same helpers). `words` is the *charged* volume: the
/// bottleneck rank for alltoallv, the replicated total for allgather —
/// i.e. the quantity the α–β model prices, 8 bytes per word. No-op unless
/// metrics are enabled.
#[inline]
fn record_collective(op: &'static str, kernel: Kernel, words: u64) {
    if mcm_obs::metrics_enabled() {
        let labels = [("op", op), ("kernel", kernel.name())];
        mcm_obs::counter_add("mcm_comm_calls_total", &labels, 1);
        mcm_obs::counter_add("mcm_comm_bytes_total", &labels, words * 8);
    }
}

/// Former name of the simulator, kept for the benchmark probe; ROADMAP item 1 deletes it.
pub struct SharedComm;

impl SharedComm {
    /// [`DistCtx`] on a `√p × √p` grid with `threads` threads per process.
    #[allow(clippy::new_ret_no_self)] // an alias constructor of `DistCtx`
    pub fn new(p: usize, threads: usize) -> DistCtx {
        DistCtx::new(MachineConfig::square_ranks(p, threads))
    }
}

/// Everything a distributed kernel needs to execute and account for itself:
/// the simulated machine, the α–β–γ cost model, and per-kernel timers.
///
/// One `DistCtx` corresponds to one simulated job allocation. Kernels charge
/// modeled time through the `charge_*` helpers; `timers` can be snapshotted
/// and diffed to time a region (see [`Timers::since`]).
///
/// ## Work scaling
///
/// The Table II stand-ins are 2–3 orders of magnitude smaller than the
/// paper's matrices, while the cost model's latency α is a *physical*
/// machine constant. Run as-is, latency would swamp the shrunken per-process
/// compute and no configuration would ever scale. `work_scale` restores the
/// paper-scale balance: each simulated edge/vertex stands for `work_scale`
/// paper-scale ones, so **compute (γ) and bandwidth (β·words) terms of
/// graph-data operations are multiplied by it**, while **latency terms and
/// scalar control traffic (the allreduce emptiness checks) are not** —
/// message counts do not grow with matrix size. The figure harnesses set
/// `work_scale = paper_nnz / standin_nnz` per matrix (DESIGN.md §2).
#[derive(Clone, Debug)]
pub struct DistCtx {
    /// The simulated allocation (grid shape and threads per process).
    pub machine: MachineConfig,
    /// Cost parameters.
    pub cost: CostModel,
    /// Accumulated modeled time per kernel.
    pub timers: Timers,
    /// Paper-scale multiplier for compute and graph-data bandwidth (≥ 1.0
    /// in the figure harnesses; 1.0 = charge the stand-in at face value).
    pub work_scale: f64,
    /// Schedule perturbation for the simtest harness: when set, kernels
    /// with order freedom (path-parallel augmentation's RMA epochs) execute
    /// under seed-chosen adversarial interleavings instead of program
    /// order. `None` (the default) is the friendly fixed schedule.
    pub sched: Option<Schedule>,
}

impl DistCtx {
    /// A context for `machine` using Edison-calibrated costs, with β
    /// adjusted for node bandwidth sharing: the calibration baseline is one
    /// process per 12-core socket (t = 12); running more processes per
    /// socket divides each one's share of the injection bandwidth, so
    /// `β_eff = β · 12/t`. This is what makes flat MPI lose to hybrid in
    /// Fig. 7 at *every* core count, as the paper measures.
    pub fn new(machine: MachineConfig) -> Self {
        let mut cost = CostModel::edison();
        cost.beta *= (12.0 / machine.threads_per_process as f64).max(1.0);
        Self { machine, cost, timers: Timers::new(), work_scale: 1.0, sched: None }
    }

    /// A context with an explicit cost model.
    pub fn with_cost(machine: MachineConfig, cost: CostModel) -> Self {
        Self { machine, cost, timers: Timers::new(), work_scale: 1.0, sched: None }
    }

    /// Sets the paper-scale work multiplier (see the type docs).
    pub fn with_work_scale(mut self, work_scale: f64) -> Self {
        assert!(work_scale > 0.0 && work_scale.is_finite());
        self.work_scale = work_scale;
        self
    }

    /// Installs a simtest schedule perturbation (see [`crate::sched`]).
    pub fn with_schedule(mut self, sched: Schedule) -> Self {
        self.sched = Some(sched);
        self
    }

    /// A single-process context (serial semantics, zero communication cost).
    pub fn serial() -> Self {
        Self::with_cost(MachineConfig::hybrid(1, 1), CostModel::free())
    }

    /// Process count `p`.
    #[inline]
    pub fn p(&self) -> usize {
        self.machine.p()
    }

    /// Threads per process `t`.
    #[inline]
    pub fn threads(&self) -> usize {
        self.machine.threads_per_process
    }

    /// Charges local computation: the *bottleneck* process performs
    /// `max_flops` elementary ops (work-scaled) with `t`-way intra-process
    /// threading.
    #[inline]
    pub fn charge_compute(&mut self, kernel: Kernel, max_flops: u64) {
        let dt =
            self.cost.gamma * max_flops as f64 * self.work_scale / self.threads().max(1) as f64;
        self.timers.charge(kernel, dt);
    }

    /// Charges streaming local computation (contiguous sweeps — the
    /// SELECT/SET/IND family) at the sequential-access rate
    /// [`CostModel::gamma_stream`], work-scaled and threaded like
    /// [`DistCtx::charge_compute`].
    #[inline]
    pub fn charge_compute_stream(&mut self, kernel: Kernel, max_flops: u64) {
        let dt = self.cost.gamma_stream() * max_flops as f64 * self.work_scale
            / self.threads().max(1) as f64;
        self.timers.charge(kernel, dt);
    }

    /// Charges an allgather of graph data over `g` ranks replicating
    /// `total_words` (work-scaled).
    #[inline]
    pub fn charge_allgather(&mut self, kernel: Kernel, g: usize, total_words: u64) {
        let dt = self.cost.allgather(g, self.scaled(total_words));
        self.timers.charge(kernel, dt);
        record_collective("allgather", kernel, total_words);
    }

    /// Charges a personalized all-to-all of graph data over `g` ranks with
    /// bottleneck volume `max_words` (work-scaled).
    #[inline]
    pub fn charge_alltoallv(&mut self, kernel: Kernel, g: usize, max_words: u64) {
        let dt = self.cost.alltoallv(g, self.scaled(max_words));
        self.timers.charge(kernel, dt);
        record_collective("alltoallv", kernel, max_words);
    }

    /// Charges a root gather of graph data (`total_words`, work-scaled) over
    /// all `p` ranks (the §VI-E centralization baseline).
    #[inline]
    pub fn charge_gather(&mut self, kernel: Kernel, total_words: u64) -> f64 {
        let dt = self.cost.gather(self.p(), self.scaled(total_words));
        self.timers.charge(kernel, dt);
        record_collective("gather", kernel, total_words);
        dt
    }

    /// Charges a root scatter of graph data (`total_words`, work-scaled).
    #[inline]
    pub fn charge_scatter(&mut self, kernel: Kernel, total_words: u64) -> f64 {
        let dt = self.cost.scatter(self.p(), self.scaled(total_words));
        self.timers.charge(kernel, dt);
        record_collective("scatter", kernel, total_words);
        dt
    }

    /// Charges an allreduce of `words` of *control data* per rank over all
    /// `p` processes (e.g. the `f ≠ φ` emptiness checks of Algorithms 1–3).
    /// Control traffic does not grow with the matrix, so it is NOT
    /// work-scaled.
    #[inline]
    pub fn charge_allreduce(&mut self, kernel: Kernel, words: u64) {
        let dt = self.cost.allreduce(self.p(), words);
        self.timers.charge(kernel, dt);
        record_collective("allreduce", kernel, words);
    }

    /// Applies the work scale to a graph-data word count.
    #[inline]
    fn scaled(&self, words: u64) -> u64 {
        (words as f64 * self.work_scale) as u64
    }

    /// Charges the INVERT communication pattern for a sparse vector `x`
    /// whose entries are routed value→owner over all `p` ranks: an
    /// alltoallv whose bottleneck volume is `pair_words · max(send, recv)`
    /// where send/recv counts come from the actual entry placement.
    ///
    /// `dest_of` maps each entry to its destination index in `0..dest_len`.
    pub fn charge_invert_route<T>(
        &mut self,
        kernel: Kernel,
        x: &SpVec<T>,
        dest_len: usize,
        dest_of: impl Fn(&T) -> u32,
    ) {
        let p = self.p();
        let send = per_rank_counts(x, p);
        let recv = crate::collectives::per_rank_index_counts(
            dest_len,
            p,
            x.iter().map(|(_, v)| dest_of(v)),
        );
        // Two words per routed pair (index + value).
        let max_words = 2 * max_count(&send).max(max_count(&recv));
        self.charge_alltoallv(kernel, p, max_words);
        // Local packing/unpacking on the bottleneck rank (streaming sweeps).
        let local = max_count(&send) + max_count(&recv);
        self.charge_compute_stream(kernel, local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_ctx_charges_no_comm() {
        let mut ctx = DistCtx::serial();
        ctx.charge_allgather(Kernel::SpMV, 1, 1000);
        ctx.charge_alltoallv(Kernel::Invert, 1, 1000);
        ctx.charge_allreduce(Kernel::Other, 1);
        assert_eq!(ctx.timers.total(), 0.0);
        // calls are still recorded
        assert_eq!(ctx.timers.calls(Kernel::SpMV), 1);
    }

    #[test]
    fn compute_is_divided_by_threads() {
        let cost = CostModel { alpha: 0.0, alpha_soft: 0.0, beta: 0.0, gamma: 1.0 };
        let mut ctx = DistCtx::with_cost(MachineConfig::hybrid(1, 4), cost);
        ctx.charge_compute(Kernel::SpMV, 100);
        assert!((ctx.timers.seconds(Kernel::SpMV) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn work_scale_multiplies_compute_and_bandwidth_not_latency() {
        let cost = CostModel { alpha: 1.0, alpha_soft: 0.0, beta: 1.0, gamma: 1.0 };
        let mut ctx = DistCtx::with_cost(MachineConfig::hybrid(2, 1), cost).with_work_scale(10.0);
        ctx.charge_compute(Kernel::SpMV, 5);
        assert!((ctx.timers.seconds(Kernel::SpMV) - 50.0).abs() < 1e-9);
        ctx.charge_allgather(Kernel::Prune, 4, 3);
        // log2(4)·α + 30·β = 2 + 30
        assert!((ctx.timers.seconds(Kernel::Prune) - 32.0).abs() < 1e-9);
        // Control allreduce is NOT scaled: 2·log2(4)·α + 2·1·β = 4 + 2.
        ctx.charge_allreduce(Kernel::Other, 1);
        assert!((ctx.timers.seconds(Kernel::Other) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn invert_route_uses_bottleneck_volume() {
        let cost = CostModel { alpha: 0.0, alpha_soft: 0.0, beta: 1.0, gamma: 0.0 };
        let mut ctx = DistCtx::with_cost(MachineConfig::hybrid(2, 1), cost); // p = 4
                                                                             // 4 entries, all destined to index 0 → recv bottleneck = 4 at rank 0.
        let x = SpVec::from_pairs(8, vec![(0, 0u32), (2, 0), (4, 0), (6, 0)]);
        ctx.charge_invert_route(Kernel::Invert, &x, 8, |&v| v);
        // send max = 1 per rank (entries spread: ranks own 2 idx each), recv max = 4
        // → max_words = 8 → beta cost 8.0
        assert!((ctx.timers.seconds(Kernel::Invert) - 8.0).abs() < 1e-12);
    }
}
