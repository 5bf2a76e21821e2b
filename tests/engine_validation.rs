//! Validates the cost-model simulator against the real message-passing
//! engine: the same distributed kernels run on `p` actual ranks (threads
//! holding only their shard, exchanging through channels) must produce
//! identical results, and the data volumes that really crossed the wire
//! must match what the simulator charged.

use mcm_bsp::collectives::{balanced_owner, max_count, per_rank_counts};
use mcm_bsp::engine::run_ranks;
use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig};
use mcm_core::primitives::invert;
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::triples::block_offsets;
use mcm_sparse::{Dcsc, SpVec, Triples, Vidx};

/// Distributed SpMSpV executed on real ranks of a `pr × pc` grid:
/// rank `(i, j)` holds only block `(i, j)`; the frontier slice for block
/// column `j` starts at rank `(0, j)` and is broadcast down the column;
/// partials are folded onto rank `(i, 0)` per row. Returns the assembled
/// result.
fn rank_parallel_spmspv(t: &Triples, x: &SpVec<Vidx>, pr: usize, pc: usize) -> SpVec<Vidx> {
    let row_off = block_offsets(t.nrows(), pr);
    let col_off = block_offsets(t.ncols(), pc);
    let blocks: Vec<Dcsc> = t.split_blocks(pr, pc).iter().map(Dcsc::from_triples).collect();

    // Pre-slice the frontier per block column (this is rank (0, j)'s data).
    let xs = x.entries();
    let slices: Vec<Vec<(Vidx, Vidx)>> = (0..pc)
        .map(|bj| {
            let lo = xs.partition_point(|&(j, _)| (j as usize) < col_off[bj]);
            let hi = xs.partition_point(|&(j, _)| (j as usize) < col_off[bj + 1]);
            xs[lo..hi].to_vec() // global indices
        })
        .collect();

    let p = pr * pc;
    let outputs = run_ranks::<(Vidx, Vidx), _, _>(p, |mut comm| {
        let rank = comm.rank();
        let (bi, bj) = (rank / pc, rank % pc);
        let block = &blocks[rank];

        // --- Expand: rank (0, bj) broadcasts its slice down the column. ---
        let col_group: Vec<usize> = (0..pr).map(|i| i * pc + bj).collect();
        let contribution = if bi == 0 { slices[bj].clone() } else { Vec::new() };
        let gathered = comm.allgatherv(&col_group, contribution);
        // allgatherv moves (not clones) the self-copy, but sent_elems must
        // still count all `pr` copies — the cost model's allgather volume
        // includes the local one.
        let expected_sent = if bi == 0 { (pr * slices[bj].len()) as u64 } else { 0 };
        assert_eq!(comm.sent_elems(), expected_sent, "allgatherv send accounting");
        let my_x: Vec<(Vidx, Vidx)> = gathered.into_iter().flatten().collect();

        // --- Local multiply on this rank's block only. ---------------------
        let coff = col_off[bj] as Vidx;
        let local_x = SpVec::from_sorted_pairs(
            col_off[bj + 1] - col_off[bj],
            my_x.iter().map(|&(j, v)| (j - coff, v)).collect(),
        );
        let part = mcm_sparse::spmspv(
            block,
            &local_x,
            |lj, _v| lj + coff, // record the global parent column
            |acc: &mut Vidx, inc| *acc = inc.min(*acc),
        );

        // --- Fold: gather partials (global rows) onto rank (bi, 0). --------
        let roff = row_off[bi] as Vidx;
        let mine: Vec<(Vidx, Vidx)> = part.y.iter().map(|(li, &v)| (li + roff, v)).collect();
        let row_group: Vec<usize> = (0..pc).map(|j| bi * pc + j).collect();
        let collected = comm.gather(&row_group, mine);

        if bj != 0 {
            return Vec::new();
        }
        // Merge with the same semiring "addition" (minParent), preserving
        // ascending block-column arrival via stable sort.
        let mut merged: Vec<(Vidx, Vidx)> = collected.into_iter().flatten().collect();
        merged.sort_by_key(|&(i, _)| i);
        let mut out: Vec<(Vidx, Vidx)> = Vec::new();
        for (i, v) in merged {
            match out.last_mut() {
                Some((last, acc)) if *last == i => {
                    if v < *acc {
                        *acc = v;
                    }
                }
                _ => out.push((i, v)),
            }
        }
        out
    });

    let mut entries: Vec<(Vidx, Vidx)> = outputs.into_iter().flatten().collect();
    entries.sort_unstable_by_key(|&(i, _)| i);
    SpVec::from_sorted_pairs(t.nrows(), entries)
}

#[test]
fn rank_parallel_spmspv_matches_simulator() {
    let t = rmat(RmatParams::g500(9), 17);
    let n = t.ncols();
    let x: SpVec<Vidx> =
        SpVec::from_sorted_pairs(n, (0..n).step_by(3).map(|j| (j as Vidx, j as Vidx)).collect());

    for (pr, pc) in [(1, 1), (2, 2), (3, 3), (4, 4)] {
        let real = rank_parallel_spmspv(&t, &x, pr, pc);

        let mut ctx = DistCtx::new(MachineConfig::hybrid(pr, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let simulated =
            a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| *acc = inc.min(*acc));
        assert_eq!(real, simulated, "grid {pr}x{pc}");
    }
}

/// INVERT on real ranks: every rank owns a balanced block of the vector and
/// routes each of its pairs to the owner of the pair's value.
fn rank_parallel_invert(
    x: &SpVec<Vidx>,
    result_len: usize,
    p: usize,
) -> (SpVec<Vidx>, Vec<u64>, Vec<u64>) {
    let n = x.len();
    let per_rank_pairs: Vec<Vec<(Vidx, Vidx)>> = {
        let mut v: Vec<Vec<(Vidx, Vidx)>> = (0..p).map(|_| Vec::new()).collect();
        for (i, &val) in x.iter() {
            v[balanced_owner(n, p, i as usize)].push((i, val));
        }
        v
    };

    let results = run_ranks::<(Vidx, Vidx), _, _>(p, |mut comm| {
        let rank = comm.rank();
        let group: Vec<usize> = (0..p).collect();
        // Route (value → destination owner), carrying (new_index, new_value).
        let mut sends: Vec<Vec<(Vidx, Vidx)>> = (0..p).map(|_| Vec::new()).collect();
        for &(i, val) in &per_rank_pairs[rank] {
            let dst = balanced_owner(result_len, p, val as usize);
            sends[dst].push((val, i));
        }
        let received = comm.alltoallv(&group, sends);
        let recv_count: u64 = received.iter().map(|m| m.len() as u64).sum();
        // Keep-first-original-index on duplicates, like the simulator: sort
        // by (new_index, new_value) — new_value is the original index.
        let mut mine: Vec<(Vidx, Vidx)> = received.into_iter().flatten().collect();
        mine.sort_unstable();
        mine.dedup_by_key(|&mut (k, _)| k);
        (mine, comm.sent_elems(), recv_count)
    });

    let mut entries = Vec::new();
    let mut sent = Vec::new();
    let mut recvd = Vec::new();
    for (mine, s, r) in results {
        entries.extend(mine);
        sent.push(s);
        recvd.push(r);
    }
    entries.sort_unstable_by_key(|&(i, _)| i);
    (SpVec::from_sorted_pairs(result_len, entries), sent, recvd)
}

#[test]
fn rank_parallel_invert_matches_simulator_and_charged_volumes() {
    use mcm_sparse::permute::SplitMix64;
    let mut rng = SplitMix64::new(33);
    let n = 256;
    // An injective sparse vector (as the matching algorithms produce).
    let mut vals: Vec<Vidx> = (0..n as Vidx).collect();
    for k in (1..n).rev() {
        let j = rng.below(k as u64 + 1) as usize;
        vals.swap(k, j);
    }
    let x = SpVec::from_sorted_pairs(n, (0..n).step_by(2).map(|i| (i as Vidx, vals[i])).collect());

    for p_dim in [2usize, 3, 4] {
        let p = p_dim * p_dim;
        let (real, sent, recvd) = rank_parallel_invert(&x, n, p);

        let mut ctx = DistCtx::new(MachineConfig::hybrid(p_dim, 1));
        let simulated = invert(&mut ctx, Kernel::Invert, &x, n);
        assert_eq!(real, simulated, "p = {p}");

        // Volume validation: the simulator charges the bottleneck from
        // per-rank send/recv pair counts; the engine counted what really
        // moved. (Engine elements are pairs; the model's "words" are
        // 2 × pairs.)
        let model_send = per_rank_counts(&x, p);
        let model_recv =
            mcm_bsp::collectives::per_rank_index_counts(n, p, x.iter().map(|(_, &v)| v));
        assert_eq!(sent, model_send, "sent pairs diverge at p = {p}");
        assert_eq!(recvd, model_recv, "received pairs diverge at p = {p}");
        let modeled_bottleneck = 2 * max_count(&model_send).max(max_count(&model_recv));
        let real_bottleneck = 2 * sent.iter().chain(recvd.iter()).copied().max().unwrap_or(0);
        assert_eq!(modeled_bottleneck, real_bottleneck);
    }
}
