//! RMA atomicity under adversarial service orders (DESIGN.md §10): the
//! property tests behind Algorithm 4's correctness argument. Concurrent
//! `fetch_and_put` streams racing on one slot must produce exactly one
//! winner under *every* permuted service order; vertex-disjoint streams
//! must commute; and the full path-parallel matching kernel must be
//! schedule-oblivious end to end — while a deliberately broken window
//! (fetch dropped) is reliably detected.

use mcm_bsp::sched::{run_interleaved, OriginTask};
use mcm_bsp::{
    Communicator, DistCtx, EngineComm, FaultPlan, Kernel, MachineConfig, RmaTask, RmaWin,
    SchedConfig, Schedule, SimWindow,
};
use mcm_core::augment::AugmentMode;
use mcm_core::maximal::Initializer;
use mcm_core::serial::hopcroft_karp;
use mcm_core::{maximum_matching, verify, McmOptions, Start};
use mcm_gen::hard::{chain, parallel_chains};
use mcm_sparse::{DenseVec, Vidx, NIL};

/// One simulated origin issuing a single `fetch_and_put` on a shared slot.
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

// The same racer through the backend-agnostic window surface, so the
// trait-routed `Communicator::rma_epoch` path can drive it too.
impl RmaTask for Racer {
    fn step(&mut self, win: &mut dyn RmaWin) -> bool {
        self.saw = Some(win.fetch_and_put(0, self.slot, self.id));
        false
    }
}

#[test]
fn n_rank_fetch_and_put_race_has_one_winner_under_every_service_order() {
    // 8 origins on one slot across a wide seed range: the service order is
    // a schedule-chosen permutation, and in every one of them exactly one
    // origin must observe the initial NIL (it "won" the slot) while the
    // others each observe a distinct predecessor — the atomic swap chain.
    for n in [2 as Vidx, 3, 8] {
        for seed in 0..256u64 {
            let mut slot = DenseVec::nil(1);
            let mut win = SimWindow::new(vec![&mut slot], FaultPlan::default());
            let mut racers: Vec<Racer> =
                (0..n).map(|id| Racer { id, slot: 0, saw: None }).collect();
            let mut sched = Schedule::new(seed);
            let steps = run_interleaved(&mut win, &mut sched, &mut racers);
            assert_eq!(steps, n as u64, "each origin issues exactly one call");

            let winners = racers.iter().filter(|r| r.saw == Some(NIL)).count();
            assert_eq!(winners, 1, "n = {n} seed {seed}: atomicity violated");
            let mut seen: Vec<Vidx> = racers.iter().map(|r| r.saw.unwrap()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), n as usize, "n = {n} seed {seed}: lost update");
            // The final occupant is the one nobody fetched back out.
            let last = slot.get(0);
            assert!(
                racers.iter().all(|r| r.saw != Some(last)),
                "n = {n} seed {seed}: final occupant was also swapped out"
            );
        }
    }
}

#[test]
fn broken_window_collapses_the_swap_chain_under_every_schedule() {
    // With the injected `drop_fetch` bug armed, the put lands but every
    // fetch returns NIL — so every origin believes it won. This is the
    // signal the differential sweeps key on; it must appear under every
    // seed, not just a lucky one.
    for seed in 0..32u64 {
        let mut slot = DenseVec::nil(1);
        let mut win = SimWindow::new(vec![&mut slot], FaultPlan::broken_fetch_and_put());
        let mut racers: Vec<Racer> = (0..5).map(|id| Racer { id, slot: 0, saw: None }).collect();
        let mut sched = Schedule::new(seed);
        run_interleaved(&mut win, &mut sched, &mut racers);
        let winners = racers.iter().filter(|r| r.saw == Some(NIL)).count();
        assert!(winners > 1, "seed {seed}: the injected bug must be observable");
    }
}

/// An origin that walks its own private slot: get, bump, put, repeat.
/// Disjoint origins must commute under any interleaving.
struct DisjointWalker {
    slot: Vidx,
    rounds: u32,
}

impl OriginTask for DisjointWalker {
    fn step(&mut self, win: &mut SimWindow<'_>) -> bool {
        if self.rounds == 0 {
            return false;
        }
        let cur = win.fetch_and_put(0, self.slot, self.slot * 100 + self.rounds as Vidx);
        let _ = cur;
        self.rounds -= 1;
        self.rounds > 0
    }
}

#[test]
fn vertex_disjoint_streams_commute_under_every_interleaving() {
    // The disjointness invariant of Algorithm 4: origins touching disjoint
    // slots must leave the window in the same final state no matter how
    // the schedule interleaves their calls.
    let reference = {
        let mut v = DenseVec::nil(8);
        let mut win = SimWindow::new(vec![&mut v], FaultPlan::default());
        let mut tasks: Vec<DisjointWalker> =
            (0..8).map(|slot| DisjointWalker { slot, rounds: 4 }).collect();
        let mut sched = Schedule::new(0);
        run_interleaved(&mut win, &mut sched, &mut tasks);
        (0..8).map(|i| v.get(i)).collect::<Vec<_>>()
    };
    for seed in 1..64u64 {
        let mut v = DenseVec::nil(8);
        let mut win = SimWindow::new(vec![&mut v], FaultPlan::default());
        let mut tasks: Vec<DisjointWalker> =
            (0..8).map(|slot| DisjointWalker { slot, rounds: 4 }).collect();
        let mut sched = Schedule::new(seed);
        run_interleaved(&mut win, &mut sched, &mut tasks);
        let state: Vec<Vidx> = (0..8).map(|i| v.get(i)).collect();
        assert_eq!(state, reference, "seed {seed}: disjoint streams failed to commute");
    }
}

// ---------------------------------------------------------------------------
// End to end: the path-parallel kernel through MCM-DIST.
// ---------------------------------------------------------------------------

fn path_parallel_opts() -> McmOptions {
    McmOptions {
        augment: AugmentMode::PathParallel,
        init: Initializer::Greedy,
        ..McmOptions::default()
    }
}

#[test]
fn path_parallel_matching_is_schedule_oblivious_end_to_end() {
    let graphs = [("chain_10", chain(10)), ("parallel_chains_4x3", parallel_chains(4, 3))];
    let opts = path_parallel_opts();
    for (name, g) in &graphs {
        let a = g.to_csc();
        let oracle = hopcroft_karp(&a, None).cardinality();
        let friendly = {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
            maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts)
        };
        assert_eq!(friendly.matching.cardinality(), oracle, "{name}: friendly run wrong");
        for seed in 0..24u64 {
            let mut ctx =
                DistCtx::new(MachineConfig::hybrid(2, 1)).with_schedule(Schedule::new(seed));
            let result = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);
            assert_eq!(
                result.matching, friendly.matching,
                "{name} seed {seed}: schedule changed the matching"
            );
            verify::verify(&a, &result.matching)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(result.stats.sched_seed, Some(seed), "{name}: seed not recorded");
            assert!(
                result.stats.sched_interleave_steps > 0,
                "{name} seed {seed}: the interleaver never ran"
            );
        }
    }
}

#[test]
fn broken_window_corrupts_real_matchings_and_replays_from_its_seed() {
    // Arm the injected bug through a real MCM-DIST run: dropped fetches
    // truncate augmenting-path walks, leaving a wrong (smaller or invalid)
    // matching. At least one seed in a small budget must expose it, and
    // that seed must reproduce the identical wrong outcome on replay.
    let g = chain(8);
    let a = g.to_csc();
    let oracle = hopcroft_karp(&a, None).cardinality();
    let opts = path_parallel_opts();
    let cfg = SchedConfig { fault: FaultPlan::broken_fetch_and_put(), ..SchedConfig::default() };

    let run = |seed: u64| {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(1, 1))
            .with_schedule(Schedule::with_config(seed, cfg));
        maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts)
    };

    let caught = (0..8u64).find(|&seed| {
        let r = run(seed);
        r.matching.cardinality() != oracle || verify::verify(&a, &r.matching).is_err()
    });
    let seed = caught.expect("broken fetch_and_put survived every schedule in the budget");

    let first = run(seed);
    let again = run(seed);
    assert_eq!(first.matching, again.matching, "seed {seed} did not replay deterministically");
}

// ---------------------------------------------------------------------------
// The trait-routed path: `Communicator::rma_epoch` on both backends.
// ---------------------------------------------------------------------------

#[test]
fn trait_routed_epoch_consumes_the_same_pick_stream_as_the_legacy_interleaver() {
    // `DistCtx::rma_epoch` must service concurrent origins in the exact
    // order `run_interleaved` picks for the same schedule seed — replay
    // seeds recorded before the comm-trait refactor must stay valid.
    for n in [2 as Vidx, 5, 8] {
        for seed in 0..64u64 {
            let legacy = {
                let mut slot = DenseVec::nil(1);
                let mut win = SimWindow::new(vec![&mut slot], FaultPlan::default());
                let mut racers: Vec<Racer> =
                    (0..n).map(|id| Racer { id, slot: 0, saw: None }).collect();
                let mut sched = Schedule::new(seed);
                run_interleaved(&mut win, &mut sched, &mut racers);
                (racers.iter().map(|r| r.saw).collect::<Vec<_>>(), slot.get(0))
            };
            let routed = {
                let mut ctx =
                    DistCtx::new(MachineConfig::hybrid(1, 1)).with_schedule(Schedule::new(seed));
                let mut slot = DenseVec::nil(1);
                let mut racers: Vec<Racer> =
                    (0..n).map(|id| Racer { id, slot: 0, saw: None }).collect();
                let steps = ctx.rma_epoch(Kernel::Augment, vec![&mut slot], &mut racers);
                assert_eq!(steps, n as u64, "each origin issues exactly one call");
                (racers.iter().map(|r| r.saw).collect::<Vec<_>>(), slot.get(0))
            };
            assert_eq!(routed, legacy, "n = {n} seed {seed}: pick streams diverged");
        }
    }
}

#[test]
fn engine_epoch_swap_chain_holds_under_run_ranks_sched_perturbation() {
    // The engine services its RMA epochs on real atomics while
    // `run_ranks_sched` perturbs every rank's progress; the per-source
    // FIFO stash behind the closing fence must keep the swap chain exact
    // under every seed.
    for n in [2 as Vidx, 6, 9] {
        for seed in 0..24u64 {
            let mut eng = EngineComm::new(4, 1).with_schedule(Schedule::new(seed));
            let mut slot = DenseVec::nil(1);
            let mut racers: Vec<Racer> =
                (0..n).map(|id| Racer { id, slot: 0, saw: None }).collect();
            let steps = eng.rma_epoch(Kernel::Augment, vec![&mut slot], &mut racers);
            assert!(steps > 0, "n = {n} seed {seed}: the perturbed epoch never stalled anyone");

            let winners = racers.iter().filter(|r| r.saw == Some(NIL)).count();
            assert_eq!(winners, 1, "n = {n} seed {seed}: engine atomicity violated");
            let mut seen: Vec<Vidx> = racers.iter().map(|r| r.saw.unwrap()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), n as usize, "n = {n} seed {seed}: engine lost an update");
            let last = slot.get(0);
            assert!(
                racers.iter().all(|r| r.saw != Some(last)),
                "n = {n} seed {seed}: final occupant was also swapped out"
            );
        }
    }
}

#[test]
fn engine_path_parallel_matching_is_schedule_oblivious_end_to_end() {
    // MCM-DIST through the trait-routed engine backend: the matching must
    // not depend on how run_ranks_sched perturbs collectives or on how
    // the atomic window services the walkers — and must equal the
    // simulator's answer for the same options.
    let graphs = [("chain_10", chain(10)), ("parallel_chains_4x3", parallel_chains(4, 3))];
    let opts = path_parallel_opts();
    for (name, g) in &graphs {
        let a = g.to_csc();
        let oracle = hopcroft_karp(&a, None).cardinality();
        let sim = {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
            maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts)
        };
        let friendly = {
            let mut eng = EngineComm::new(4, 1);
            maximum_matching(&mut eng, &a.view(), Start::Cold, &opts)
        };
        assert_eq!(friendly.matching.cardinality(), oracle, "{name}: friendly engine run wrong");
        assert_eq!(friendly.matching, sim.matching, "{name}: engine diverged from simulator");
        for seed in 0..12u64 {
            let mut eng = EngineComm::new(4, 1).with_schedule(Schedule::new(seed));
            let result = maximum_matching(&mut eng, &g.to_csc().view(), Start::Cold, &opts);
            assert_eq!(
                result.matching, friendly.matching,
                "{name} seed {seed}: schedule changed the engine matching"
            );
            verify::verify(&a, &result.matching)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(result.stats.sched_seed, Some(seed), "{name}: seed not recorded");
        }
    }
}

#[test]
fn engine_broken_window_is_caught_by_the_same_checks() {
    // Arming the injected drop-fetch bug on the engine's atomic window
    // must corrupt real matchings within the same small seed budget the
    // simulator harness uses.
    let g = chain(8);
    let a = g.to_csc();
    let oracle = hopcroft_karp(&a, None).cardinality();
    let opts = path_parallel_opts();
    let cfg = SchedConfig { fault: FaultPlan::broken_fetch_and_put(), ..SchedConfig::default() };

    let caught = (0..8u64).any(|seed| {
        let mut eng = EngineComm::new(4, 1).with_schedule(Schedule::with_config(seed, cfg));
        let r = maximum_matching(&mut eng, &a.view(), Start::Cold, &opts);
        r.matching.cardinality() != oracle || verify::verify(&a, &r.matching).is_err()
    });
    assert!(caught, "broken fetch_and_put survived every engine schedule in the budget");
}

// ---------------------------------------------------------------------------
// The simulator's single-address-space epochs under adversarial arrival
// orders (the execution `--backend shared` names).
// ---------------------------------------------------------------------------

/// The simulator on a 2×2 grid, as `--backend shared --ranks 4` runs it.
fn shared_ctx() -> DistCtx {
    DistCtx::new(MachineConfig::hybrid(2, 1))
}

#[test]
fn shared_epoch_swap_chain_holds_under_adversarial_arrival_orders() {
    // The simulator's windows are plain vectors in one address space; the
    // schedule perturbs the order origins arrive at the epoch. The swap
    // chain must stay exact under every arrival order.
    for n in [2 as Vidx, 6, 9] {
        for seed in 0..24u64 {
            let mut shc = shared_ctx().with_schedule(Schedule::new(seed));
            let mut slot = DenseVec::nil(1);
            let mut racers: Vec<Racer> =
                (0..n).map(|id| Racer { id, slot: 0, saw: None }).collect();
            let steps = shc.rma_epoch(Kernel::Augment, vec![&mut slot], &mut racers);
            assert_eq!(steps, n as u64, "each origin issues exactly one call");

            let winners = racers.iter().filter(|r| r.saw == Some(NIL)).count();
            assert_eq!(winners, 1, "n = {n} seed {seed}: shared atomicity violated");
            let mut seen: Vec<Vidx> = racers.iter().map(|r| r.saw.unwrap()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), n as usize, "n = {n} seed {seed}: shared lost an update");
            let last = slot.get(0);
            assert!(
                racers.iter().all(|r| r.saw != Some(last)),
                "n = {n} seed {seed}: final occupant was also swapped out"
            );
        }
    }
}

#[test]
fn shared_matching_and_trace_hash_are_stable_under_epoch_perturbation() {
    // End to end through MCM-DIST on the simulator: adversarial arrival
    // orders at the epoch barrier must not change the matching, and the
    // schedule's trace-hash certificate must replay exactly — the same
    // seed yields the same decision stream, byte for byte.
    let graphs = [("chain_10", chain(10)), ("parallel_chains_4x3", parallel_chains(4, 3))];
    let opts = path_parallel_opts();
    for (name, g) in &graphs {
        let a = g.to_csc();
        let oracle = hopcroft_karp(&a, None).cardinality();
        let friendly = {
            let mut shc = shared_ctx();
            maximum_matching(&mut shc, &a.view(), Start::Cold, &opts)
        };
        assert_eq!(friendly.matching.cardinality(), oracle, "{name}: friendly shared run wrong");
        for seed in 0..12u64 {
            let run = |seed: u64| {
                let mut shc = shared_ctx().with_schedule(Schedule::new(seed));
                let r = maximum_matching(&mut shc, &a.view(), Start::Cold, &opts);
                let cert = shc.ctx().sched.as_ref().map(|s| (s.trace_hash(), s.decisions()));
                (r, cert.expect("schedule must survive the run"))
            };
            let (first, cert) = run(seed);
            assert_eq!(
                first.matching, friendly.matching,
                "{name} seed {seed}: arrival order changed the shared matching"
            );
            verify::verify(&a, &first.matching)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(first.stats.sched_seed, Some(seed), "{name}: seed not recorded");
            assert!(cert.1 > 0, "{name} seed {seed}: the epoch interleaver never ran");

            let (again, cert2) = run(seed);
            assert_eq!(first.matching, again.matching, "{name} seed {seed}: replay diverged");
            assert_eq!(cert, cert2, "{name} seed {seed}: trace-hash certificate diverged");
        }
    }
}
