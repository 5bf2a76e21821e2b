//! Deterministic schedule perturbation & fault injection (the `simtest`
//! substrate).
//!
//! The channel engine ([`crate::engine`]) and the RMA epochs of
//! [`Communicator::rma_epoch`](crate::comm::Communicator::rma_epoch)
//! normally execute one fixed, friendly schedule: collectives send in group
//! order, and path-parallel augmentation services every one-sided op in
//! program order. Real MPI gives no such guarantee — message delivery
//! reorders, ranks stall, transports retry, and concurrent
//! `MPI_Fetch_and_op` streams interleave arbitrarily. This module makes
//! those adversarial schedules *reproducible*:
//!
//! * [`Schedule`] — a seeded decision stream (SplitMix64). Every
//!   perturbation the harness applies is a pure function of the seed, so
//!   any failing schedule replays exactly from its seed.
//! * [`RankSched`] — per-rank perturbation state for the channel engine:
//!   permuted send/receive service order inside collectives, injected
//!   stalls (`thread::yield_now` bursts), and bounded send retries over the
//!   engine's bounded channels.
//! * [`SimWindow`] + [`run_interleaved`] — a serviced one-sided window:
//!   concurrent origin tasks each issue one RMA call per step and a
//!   [`Schedule`] picks which origin advances next, exploring adversarial
//!   interleavings of `get`/`put`/`fetch_and_put` on shared slots (the
//!   vertex-disjointness invariant of Algorithm 4 lives or dies here).
//! * [`FaultPlan`] — deliberate bug injection (e.g. dropping the fetch half
//!   of `fetch_and_put`), used to prove the harness actually catches
//!   interleaving bugs within its seed budget (DESIGN.md §10).
//!
//! Soundness note: perturbations only permute *service order* and add
//! *delays*; they never drop, duplicate, or corrupt payloads (except under
//! an explicit [`FaultPlan`]). Any observable divergence under a schedule
//! is therefore a real ordering bug in the code under test, not an artifact
//! of the harness.

use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{DenseVec, Vidx, NIL};

/// SplitMix64 finalizer: decorrelates fork streams and phase reseeds.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deliberately injected defects, for harness self-tests only: a plan other
/// than [`FaultPlan::default`] makes the window *wrong on purpose* so tests
/// can assert the differential sweeps detect it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Break [`SimWindow::fetch_and_put`]: perform the put but lose the
    /// fetched previous value (return `NIL`) — the classic "used `MPI_Put`
    /// where `MPI_Fetch_and_op` was required" bug that silently truncates
    /// augmenting paths.
    pub drop_fetch: bool,
}

impl FaultPlan {
    /// The canonical injected bug of the acceptance criteria.
    pub fn broken_fetch_and_put() -> Self {
        Self { drop_fetch: true }
    }

    /// `true` when no fault is armed.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Knobs for how aggressively a [`Schedule`] perturbs execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedConfig {
    /// Permute send/receive/service orders (the core perturbation).
    pub reorder: bool,
    /// Probability (per mille) that any perturbation point stalls.
    pub stall_per_mille: u16,
    /// Longest injected stall, in `thread::yield_now` calls.
    pub max_stall_yields: u32,
    /// Bounded transient-failure retries per engine send (`try_send`
    /// attempts before falling back to a blocking send).
    pub max_send_retries: u32,
    /// Armed faults (must be [`FaultPlan::default`] outside self-tests).
    pub fault: FaultPlan,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            reorder: true,
            stall_per_mille: 250,
            max_stall_yields: 8,
            max_send_retries: 3,
            fault: FaultPlan::default(),
        }
    }
}

/// A seeded, replayable stream of scheduling decisions.
///
/// Every decision (`pick`, `permutation`, `stall_yields`, ...) consumes the
/// internal SplitMix64 stream and folds the outcome into a running trace
/// hash, so two runs from the same seed make byte-identical decisions —
/// and a mismatch in [`Schedule::trace_hash`] proves two runs diverged.
#[derive(Clone, Debug)]
pub struct Schedule {
    seed: u64,
    cfg: SchedConfig,
    rng: SplitMix64,
    decisions: u64,
    trace: u64,
}

impl Schedule {
    /// A schedule with default perturbation strength.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, SchedConfig::default())
    }

    /// A schedule with explicit knobs.
    pub fn with_config(seed: u64, cfg: SchedConfig) -> Self {
        Self {
            seed,
            cfg,
            rng: SplitMix64::new(mix(seed)),
            decisions: 0,
            trace: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// The seed that replays this schedule exactly.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The perturbation knobs.
    pub fn config(&self) -> SchedConfig {
        self.cfg
    }

    /// Armed fault plan (clean by default).
    pub fn fault(&self) -> FaultPlan {
        self.cfg.fault
    }

    /// Number of decisions consumed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// FNV-style hash of every decision taken; equal hashes across two runs
    /// certify the schedules were identical (the replay check).
    pub fn trace_hash(&self) -> u64 {
        self.trace
    }

    /// A decorrelated child schedule (e.g. one per rank): deterministic in
    /// `(seed, stream)`, independent of decisions taken on `self`.
    pub fn fork(&self, stream: u64) -> Schedule {
        Schedule::with_config(mix(self.seed ^ mix(stream.wrapping_add(1))), self.cfg)
    }

    /// Reseeds the decision stream for a new phase/epoch so that later
    /// phases explore different interleavings while staying a pure function
    /// of `(seed, phase)`.
    pub fn next_phase(&mut self, phase: u64) {
        self.rng = SplitMix64::new(mix(self.seed ^ mix(0x5EED ^ phase)));
    }

    #[inline]
    fn draw(&mut self, bound: u64) -> u64 {
        let v = if bound <= 1 { 0 } else { self.rng.below(bound) };
        self.decisions += 1;
        self.trace = (self.trace ^ v.wrapping_add(bound)).wrapping_mul(0x100_0000_01B3);
        v
    }

    /// Uniform pick in `0..n` (`n ≥ 1`).
    #[inline]
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n >= 1, "pick from empty set");
        self.draw(n as u64) as usize
    }

    /// `true` with probability `per_mille / 1000`.
    #[inline]
    pub fn coin(&mut self, per_mille: u16) -> bool {
        self.draw(1000) < per_mille as u64
    }

    /// A service-order permutation of `0..n`: Fisher–Yates when reordering
    /// is enabled, identity otherwise.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        if self.cfg.reorder {
            for k in (1..n).rev() {
                let j = self.draw(k as u64 + 1) as usize;
                p.swap(k, j);
            }
        }
        p
    }

    /// Length of the stall (in yields) to inject at this perturbation
    /// point; usually 0.
    pub fn stall_yields(&mut self) -> u32 {
        if self.cfg.max_stall_yields == 0 || !self.coin(self.cfg.stall_per_mille) {
            return 0;
        }
        1 + self.draw(self.cfg.max_stall_yields as u64) as u32
    }
}

/// Per-rank perturbation state threaded into the channel engine by
/// [`crate::engine::run_ranks_sched`]. Wraps a forked [`Schedule`] and
/// counts what was injected (the engine's accounting tests assert that
/// stalls/retries never change payloads or `sent_elems`).
#[derive(Clone, Debug)]
pub struct RankSched {
    sched: Schedule,
    /// Total injected yields on this rank.
    pub stalls: u64,
    /// Total transient send failures retried on this rank.
    pub retries: u64,
}

impl RankSched {
    /// Perturbation state for one rank.
    pub fn new(sched: Schedule) -> Self {
        Self { sched, stalls: 0, retries: 0 }
    }

    /// Seed of the underlying (forked) schedule.
    pub fn seed(&self) -> u64 {
        self.sched.seed()
    }

    /// Replay certificate for this rank's decision stream.
    pub fn trace_hash(&self) -> u64 {
        self.sched.trace_hash()
    }

    /// Injects a (possibly empty) stall at a perturbation point.
    pub fn maybe_stall(&mut self) {
        let yields = self.sched.stall_yields();
        for _ in 0..yields {
            std::thread::yield_now();
        }
        self.stalls += yields as u64;
    }

    /// Service-order permutation for an `n`-way collective step.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        self.sched.permutation(n)
    }

    /// How many transient failures to tolerate per send.
    pub fn retry_budget(&self) -> u32 {
        self.sched.config().max_send_retries
    }

    /// Records one transient send failure that was retried.
    pub fn note_retry(&mut self) {
        self.retries += 1;
    }
}

/// A serviced one-sided window over a set of dense vectors: the `MPI_Win`
/// of the simulator's RMA epochs.
///
/// Under the friendly schedule an epoch services its origins in program
/// order; under a [`Schedule`] an interleaver (the epoch's own, or
/// [`run_interleaved`] over [`OriginTask`] streams) permutes the *service
/// order* of concurrent origins. Each `get`/`put`/`fetch_and_put` is one
/// atomic service step and counts as one op ([`SimWindow::ops`]);
/// `fetch_and_put` is the read-modify-write the disjointness arguments of
/// Algorithm 4 rely on. The window charges no modeled time: the caller
/// charges the epoch.
pub struct SimWindow<'a> {
    vecs: Vec<&'a mut DenseVec>,
    fault: FaultPlan,
    ops: u64,
}

impl<'a> SimWindow<'a> {
    /// Opens a window over `vecs`; `win` arguments of the op methods index
    /// into this slice.
    pub fn new(vecs: Vec<&'a mut DenseVec>, fault: FaultPlan) -> Self {
        Self { vecs, fault, ops: 0 }
    }

    /// One-sided calls serviced so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// `MPI_Get`.
    #[inline]
    pub fn get(&mut self, win: usize, idx: Vidx) -> Vidx {
        self.ops += 1;
        self.vecs[win].get(idx)
    }

    /// `MPI_Put`.
    #[inline]
    pub fn put(&mut self, win: usize, idx: Vidx, v: Vidx) {
        self.ops += 1;
        self.vecs[win].set(idx, v);
    }

    /// `MPI_Fetch_and_op` with replace: atomically swap in `v` and return
    /// the previous value. Under [`FaultPlan::drop_fetch`] the fetch is
    /// lost (`NIL` returned) while the put still lands — the injected bug
    /// the harness must catch.
    #[inline]
    pub fn fetch_and_put(&mut self, win: usize, idx: Vidx, v: Vidx) -> Vidx {
        self.ops += 1;
        let prev = self.vecs[win].get(idx);
        self.vecs[win].set(idx, v);
        if self.fault.drop_fetch {
            return NIL;
        }
        prev
    }
}

/// A concurrent origin (one simulated rank's op stream) driven by
/// [`run_interleaved`]: each `step` issues exactly one one-sided call and
/// returns `false` once the stream is exhausted.
pub trait OriginTask {
    /// Issues the next one-sided call; `false` = done.
    fn step(&mut self, win: &mut SimWindow<'_>) -> bool;
}

/// Services concurrent origin op-streams in a schedule-chosen order: while
/// any task is live, the schedule picks one and it issues a single call.
/// Returns the number of service steps. Every interleaving a real RMA
/// epoch could produce at per-call granularity is reachable by some seed.
pub fn run_interleaved<T: OriginTask>(
    win: &mut SimWindow<'_>,
    sched: &mut Schedule,
    tasks: &mut [T],
) -> u64 {
    let mut live: Vec<usize> = (0..tasks.len()).collect();
    let mut steps = 0u64;
    while !live.is_empty() {
        let k = sched.pick(live.len());
        steps += 1;
        if !tasks[live[k]].step(win) {
            live.swap_remove(k);
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identical_decisions() {
        let run = |seed: u64| {
            let mut s = Schedule::new(seed);
            let picks: Vec<usize> = (0..50).map(|_| s.pick(7)).collect();
            let perm = s.permutation(9);
            (picks, perm, s.trace_hash(), s.decisions())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).2, run(43).2, "different seeds should diverge");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut s = Schedule::new(7);
        for n in [0usize, 1, 2, 5, 17] {
            let mut p = s.permutation(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reorder_off_gives_identity() {
        let cfg = SchedConfig { reorder: false, ..SchedConfig::default() };
        let mut s = Schedule::with_config(3, cfg);
        assert_eq!(s.permutation(6), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn forks_are_decorrelated_and_deterministic() {
        let base = Schedule::new(5);
        let a1: Vec<usize> = {
            let mut f = base.fork(0);
            (0..20).map(|_| f.pick(100)).collect()
        };
        let a2: Vec<usize> = {
            let mut f = base.fork(0);
            (0..20).map(|_| f.pick(100)).collect()
        };
        let b: Vec<usize> = {
            let mut f = base.fork(1);
            (0..20).map(|_| f.pick(100)).collect()
        };
        assert_eq!(a1, a2, "same fork stream must replay");
        assert_ne!(a1, b, "distinct streams must decorrelate");
    }

    #[test]
    fn next_phase_is_a_function_of_seed_and_phase() {
        let mut s = Schedule::new(9);
        let _ = s.pick(10); // consume some state
        s.next_phase(3);
        let x = s.pick(1000);
        let mut t = Schedule::new(9);
        t.next_phase(3);
        assert_eq!(t.pick(1000), x);
    }

    #[test]
    fn stalls_respect_bounds() {
        let cfg =
            SchedConfig { stall_per_mille: 1000, max_stall_yields: 4, ..SchedConfig::default() };
        let mut s = Schedule::with_config(1, cfg);
        for _ in 0..200 {
            let y = s.stall_yields();
            assert!((1..=4).contains(&y));
        }
        let quiet = SchedConfig { stall_per_mille: 0, ..SchedConfig::default() };
        let mut q = Schedule::with_config(1, quiet);
        assert!((0..200).all(|_| q.stall_yields() == 0));
    }

    /// A racer that issues one fetch_and_put and records what it saw.
    struct Racer {
        id: Vidx,
        slot: Vidx,
        saw: Option<Vidx>,
    }
    impl OriginTask for Racer {
        fn step(&mut self, win: &mut SimWindow<'_>) -> bool {
            self.saw = Some(win.fetch_and_put(0, self.slot, self.id));
            false
        }
    }

    #[test]
    fn fetch_and_put_race_has_exactly_one_winner_under_all_orders() {
        for seed in 0..64 {
            let mut slot = DenseVec::nil(1);
            let mut win = SimWindow::new(vec![&mut slot], FaultPlan::default());
            let mut racers: Vec<Racer> =
                (0..6).map(|id| Racer { id, slot: 0, saw: None }).collect();
            let mut sched = Schedule::new(seed);
            let steps = run_interleaved(&mut win, &mut sched, &mut racers);
            assert_eq!(steps, 6);
            // Exactly one racer observed the initial NIL; the rest saw a
            // unique predecessor — the atomic swap chain.
            let winners = racers.iter().filter(|r| r.saw == Some(NIL)).count();
            assert_eq!(winners, 1, "seed {seed}");
            let mut seen: Vec<Vidx> = racers.iter().map(|r| r.saw.unwrap()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 6, "seed {seed}: lost update in swap chain");
        }
    }

    #[test]
    fn broken_fetch_and_put_is_observable() {
        let mut slot = DenseVec::nil(1);
        let mut win = SimWindow::new(vec![&mut slot], FaultPlan::broken_fetch_and_put());
        let mut racers: Vec<Racer> = (0..4).map(|id| Racer { id, slot: 0, saw: None }).collect();
        let mut sched = Schedule::new(0);
        run_interleaved(&mut win, &mut sched, &mut racers);
        // Every racer "wins": the lost fetch collapses the swap chain.
        assert!(racers.iter().all(|r| r.saw == Some(NIL)));
    }
}
