//! Dynamic-engine benchmark: incremental repair vs full recompute as a
//! function of the dirty fraction (DESIGN.md §11, `BENCH_dynamic.json`).
//!
//! One churn batch dirties a chosen fraction of the `n1 + n2` vertices:
//! matched-edge deletions (each frees both endpoints) stitched back
//! together by inserts among the freed vertices. Three arms per fraction:
//!
//! * `incremental` — `DynMatching::apply_batch` with the fallback
//!   disabled (pure single-source path repair);
//! * `warm_msbfs`  — the same batch with `fallback_threshold = 0`, so
//!   every batch runs the warm-started MS-BFS driver;
//! * `recompute`   — what a static pipeline would do: apply the updates
//!   to the graph and solve from scratch (Hopcroft–Karp).
//!
//! Throughput is annotated in updates per iteration, so `ns_median /
//! throughput_per_iter` is the cost per update. The expected shape (and
//! what EXPERIMENTS.md checks): incremental wins clearly below ~10%
//! dirty, and the gap closes as the batch approaches a full rebuild —
//! the dynamic analogue of the paper's `k < 2p²` crossover.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use mcm_core::serial::hopcroft_karp;
use mcm_dyn::{DynMatching, DynOptions, Update};
use mcm_gen::er::gnm_bipartite;
use mcm_sparse::{Vidx, NIL};
use std::hint::black_box;

/// Instance scale: 2000 + 2000 vertices, average degree 8.
const N: usize = 2000;
const EDGES: usize = 16_000;
const SEED: u64 = 0xD11A_BE7C;

/// The dirty-fraction axis (of `n1 + n2`). 4% and 6% bracket the
/// crossover between incremental repair and warm serial MS-BFS that
/// `DynOptions::fallback_threshold` is set at; 25% is past where
/// recompute should be competitive.
const DIRTY_FRACS: [(f64, &str); 5] =
    [(0.02, "2pct"), (0.04, "4pct"), (0.06, "6pct"), (0.08, "8pct"), (0.25, "25pct")];

fn solved_base(threshold: f64) -> DynMatching {
    let t = gnm_bipartite(N, N, EDGES, SEED);
    DynMatching::from_triples(
        &t,
        DynOptions { fallback_threshold: threshold, ..DynOptions::default() },
    )
}

/// A churn batch dirtying ~`frac · (n1 + n2)` vertices: `k` matched-edge
/// deletions spread across the matching, then `k` inserts pairing each
/// freed row with the next deletion's freed column (so repairs stay in
/// the dirty region — no interior inserts, which have their own arm in
/// the oracle tests).
fn churn_batch(dm: &DynMatching, frac: f64) -> Vec<Update> {
    let matched: Vec<(Vidx, Vidx)> = (0..dm.graph().n1() as Vidx)
        .filter_map(|r| {
            let c = dm.matching().mate_r.get(r);
            (c != NIL).then_some((r, c))
        })
        .collect();
    let k = ((frac * (2 * N) as f64) / 2.0).round().max(1.0) as usize;
    let stride = (matched.len() / k).max(1);
    let picked: Vec<(Vidx, Vidx)> = matched.iter().copied().step_by(stride).take(k).collect();
    let mut ops: Vec<Update> = picked.iter().map(|&(r, c)| Update::Delete(r, c)).collect();
    for i in 0..picked.len() {
        // Leave every fourth freed pair unstitched: those vertices stay
        // dirty and force genuine augmenting-path searches instead of
        // resolving as immediate matches.
        if i % 4 == 3 {
            continue;
        }
        let (r, _) = picked[i];
        let (_, c) = picked[(i + 1) % picked.len()];
        ops.push(Update::Insert(r, c));
    }
    ops
}

fn bench_dynamic(c: &mut Criterion) {
    let base = solved_base(1e9);
    let base_always_fallback = solved_base(0.0);
    eprintln!(
        "[dynamic] base instance: {}x{} nnz {} matching {}",
        N,
        N,
        base.graph().nnz(),
        base.cardinality()
    );

    let mut group = c.benchmark_group("dynamic");
    for (frac, tag) in DIRTY_FRACS {
        let ops = churn_batch(&base, frac);
        group.throughput(Throughput::Elements(ops.len() as u64));

        group.bench_with_input(BenchmarkId::new("incremental", tag), &ops, |b, ops| {
            b.iter_batched(
                || base.clone(),
                |mut dm| black_box(dm.apply_batch(ops).cardinality),
                BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("warm_msbfs", tag), &ops, |b, ops| {
            b.iter_batched(
                || base_always_fallback.clone(),
                |mut dm| black_box(dm.apply_batch(ops).cardinality),
                BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("recompute", tag), &ops, |b, ops| {
            b.iter_batched(
                || base.graph().clone(),
                |mut g| {
                    for &op in ops {
                        match op {
                            Update::Insert(r, c) => {
                                g.insert(r, c, ());
                            }
                            Update::Delete(r, c) => {
                                g.delete(r, c);
                            }
                        }
                    }
                    black_box(hopcroft_karp(&g.to_csc(), None).cardinality())
                },
                BatchSize::LargeInput,
            );
        });

        // Sanity + stderr speedup line: both strategies agree, and the
        // wall-clock ratio is visible without parsing the JSON.
        let mut inc = base.clone();
        let t0 = std::time::Instant::now();
        let rep = inc.apply_batch(&ops);
        let t_inc = t0.elapsed();
        let mut g = base.graph().clone();
        let t0 = std::time::Instant::now();
        for &op in &ops {
            match op {
                Update::Insert(r, c) => {
                    g.insert(r, c, ());
                }
                Update::Delete(r, c) => {
                    g.delete(r, c);
                }
            }
        }
        let full = hopcroft_karp(&g.to_csc(), None).cardinality();
        let t_full = t0.elapsed();
        assert_eq!(rep.cardinality, full, "incremental diverged from recompute at {tag}");
        eprintln!(
            "[dynamic] {tag}: {} updates, dirty {} ({:.2}% of n1+n2) → incremental {:?} vs \
             recompute {:?} ({:.1}x)",
            ops.len(),
            rep.dirty,
            100.0 * rep.dirty as f64 / (2 * N) as f64,
            t_inc,
            t_full,
            t_full.as_secs_f64() / t_inc.as_secs_f64().max(1e-9),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dynamic);
criterion_main!(benches);
