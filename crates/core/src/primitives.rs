//! The matrix-algebraic primitives of Table I: `IND`, `SELECT`, `SET`,
//! `INVERT`, `PRUNE`.
//!
//! Every primitive is written once against the backend-agnostic
//! [`Communicator`] trait, so the same code executes on the cost-model
//! simulator ([`mcm_bsp::DistCtx`]) and on the thread-per-rank engine
//! ([`mcm_bsp::EngineComm`]). Each function performs the operation on the
//! (logically or physically distributed) vectors and charges the
//! communication/computation the paper's Table I and §IV-B attribute to it:
//!
//! | op     | communication                         | computation        |
//! |--------|---------------------------------------|--------------------|
//! | IND    | none                                  | O(nnz(x))          |
//! | SELECT | none (sparse and dense are aligned)   | O(nnz(x))          |
//! | SET    | none                                  | O(nnz(x))          |
//! | INVERT | personalized all-to-all (value→owner) | O(nnz(x))          |
//! | PRUNE  | allgather of the root set             | sort + binary search |
//!
//! Computation is charged at the *bottleneck rank* (max entries owned by any
//! of the `p` ranks), divided by the threads-per-process. The communicating
//! primitives (`INVERT`, `PRUNE`) route their payloads through
//! [`Communicator::alltoallv`] / [`Communicator::allgatherv`], which move
//! real message buffers on the engine backend and charge the identical
//! α–β–γ formulas on both.

use mcm_bsp::collectives::{balanced_owner, max_count, per_rank_counts};
use mcm_bsp::{Communicator, Kernel};
use mcm_sparse::triples::block_offsets;
use mcm_sparse::{DenseVec, SpVec, Vidx};

/// `SELECT(x, y, expr)`: keep the entries of sparse `x` whose aligned dense
/// entry satisfies `pred`. Purely local (vectors share the same block
/// distribution).
pub fn select<C: Communicator, T: Clone>(
    comm: &mut C,
    kernel: Kernel,
    x: &SpVec<T>,
    y: &DenseVec,
    pred: impl Fn(Vidx) -> bool,
) -> SpVec<T> {
    let _span = mcm_obs::kernel_span("select", kernel.name());
    assert_eq!(x.len(), y.len(), "SELECT requires aligned vectors");
    charge_local(comm, kernel, x);
    x.filter(|i, _| pred(y.get(i)))
}

/// `SET(y, x)` with a dense target: `y[i] ← f(x[i])` for every explicit
/// entry of `x`. Local.
pub fn set_dense<C: Communicator, T>(
    comm: &mut C,
    kernel: Kernel,
    y: &mut DenseVec,
    x: &SpVec<T>,
    f: impl Fn(&T) -> Vidx,
) {
    let _span = mcm_obs::kernel_span("set_dense", kernel.name());
    assert_eq!(x.len(), y.len(), "SET requires aligned vectors");
    charge_local(comm, kernel, x);
    for (i, v) in x.iter() {
        y.set(i, f(v));
    }
}

/// `SET(x, y)` with a sparse target: replace every explicit value of `x`
/// with the aligned dense value `y[i]`. Local.
pub fn set_sparse<C: Communicator>(
    comm: &mut C,
    kernel: Kernel,
    x: &SpVec<Vidx>,
    y: &DenseVec,
) -> SpVec<Vidx> {
    let _span = mcm_obs::kernel_span("set_sparse", kernel.name());
    assert_eq!(x.len(), y.len(), "SET requires aligned vectors");
    charge_local(comm, kernel, x);
    x.map_indexed(y)
}

/// `INVERT(x)`: swap indices and values. Entry `(i, v)` of `x` becomes entry
/// `(key(v), value(i, v))` of the result, which has logical length
/// `result_len`. On repeated keys the entry with the smallest original index
/// wins ("If x has repeated nonzero values, only one of them is used ... we
/// keep the first index").
///
/// Communication: every pair is routed to the rank owning its *new* index —
/// a personalized all-to-all over all `p` ranks (§IV-B). The pairs really
/// travel through [`Communicator::alltoallv`], which hands each
/// destination its pairs source-ascending; draining the destinations in
/// order reproduces the original index order per key, so the keep-first
/// dedup is bit-identical on both backends.
pub fn invert_by<C: Communicator, T, U: Send + Clone>(
    comm: &mut C,
    kernel: Kernel,
    x: &SpVec<T>,
    result_len: usize,
    key: impl Fn(&T) -> Vidx,
    value: impl Fn(Vidx, &T) -> U,
) -> SpVec<U> {
    let _span = mcm_obs::kernel_span("invert", kernel.name());
    let p = comm.p();
    let n = x.len();
    let mut sends: Vec<Vec<(usize, (Vidx, U))>> = (0..p).map(|_| Vec::new()).collect();
    for (i, v) in x.iter() {
        let src = balanced_owner(n.max(1), p, i as usize);
        let k = key(v);
        let dst = balanced_owner(result_len.max(1), p, k as usize);
        sends[src].push((dst, (k, value(i, v))));
    }
    let send_max = sends.iter().map(|list| list.len() as u64).max().unwrap_or(0);
    let recvd = comm.alltoallv(kernel, 2, sends);
    let recv_max = recvd.iter().map(|list| list.len() as u64).max().unwrap_or(0);
    // Local packing/unpacking on the bottleneck rank (streaming sweeps).
    comm.ctx_mut().charge_compute_stream(kernel, send_max + recv_max);

    // Drain destination-major, source-ascending: sources own contiguous
    // ascending index ranges, so each key's candidates appear in original
    // index order and the stable keep-first dedup matches the serial INVERT.
    SpVec::from_pairs(result_len, recvd.into_iter().flatten().collect())
}

/// `INVERT` for plain index-valued vectors: `z[x[i]] = i`.
pub fn invert<C: Communicator>(
    comm: &mut C,
    kernel: Kernel,
    x: &SpVec<Vidx>,
    result_len: usize,
) -> SpVec<Vidx> {
    invert_by(comm, kernel, x, result_len, |&v| v, |i, _| i)
}

/// `PRUNE(x, q)`: remove the entries of `x` whose `key` appears in `q` (the
/// roots of trees that discovered augmenting paths this iteration).
///
/// Communication: `q` is allgathered on all ranks — `αp + βµ` (§IV-B). Each
/// rank contributes its balanced block of the root set; the concatenation
/// every rank receives is the full `q`.
/// Computation: `min(sort(ψ) + µ·log ψ, sort(µ) + ψ·log µ)` from Table I;
/// we sort the (usually much smaller) root set `q` and binary-search each of
/// the ψ frontier entries into it.
pub fn prune<C: Communicator, T: Clone>(
    comm: &mut C,
    kernel: Kernel,
    x: &SpVec<T>,
    q: &[Vidx],
    key: impl Fn(&T) -> Vidx,
) -> SpVec<T> {
    let _span = mcm_obs::kernel_span("prune", kernel.name());
    let p = comm.p();
    let mu = q.len() as u64;
    let off = block_offsets(q.len(), p);
    let chunks: Vec<Vec<Vidx>> = (0..p).map(|r| q[off[r]..off[r + 1]].to_vec()).collect();
    let gathered = comm.allgatherv(kernel, 1, chunks);
    let roots: Vec<Vidx> = gathered.into_iter().flatten().collect();
    debug_assert_eq!(roots, q, "allgathered root set must reassemble q");

    let psi_max = max_count(&per_rank_counts(x, p));
    let log_mu = (mu.max(2) as f64).log2().ceil() as u64;
    let sort_mu = mu * log_mu;
    comm.ctx_mut().charge_compute_stream(kernel, sort_mu + psi_max * log_mu);

    let mut sorted = roots;
    sorted.sort_unstable();
    sorted.dedup();
    x.filter(|_, v| sorted.binary_search(&key(v)).is_err())
}

/// Charges `O(nnz)` streaming local work at the bottleneck rank.
fn charge_local<C: Communicator, T>(comm: &mut C, kernel: Kernel, x: &SpVec<T>) {
    let counts = per_rank_counts(x, comm.p());
    comm.ctx_mut().charge_compute_stream(kernel, max_count(&counts));
}

/// Extension trait hosting the aligned-gather used by [`set_sparse`].
trait MapIndexed {
    fn map_indexed(&self, y: &DenseVec) -> SpVec<Vidx>;
}

impl MapIndexed for SpVec<Vidx> {
    fn map_indexed(&self, y: &DenseVec) -> SpVec<Vidx> {
        SpVec::from_sorted_pairs(self.len(), self.iter().map(|(i, _)| (i, y.get(i))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_bsp::{DistCtx, EngineComm};
    use mcm_sparse::NIL;

    fn ctx() -> DistCtx {
        DistCtx::new(mcm_bsp::MachineConfig::hybrid(2, 1))
    }

    #[test]
    fn select_keeps_matching_entries() {
        // Table I example: x = [3,-,2,2,-] (explicit at 0,2,3),
        // y = [1,-1,-1,2,1]; SELECT(x, y == -1) keeps index 2 only... in the
        // paper's example SELECT(x,y) with expr y[i]=-1 yields [-,-,2,-,-].
        let mut c = ctx();
        let x = SpVec::from_pairs(5, vec![(0, 3u32), (2, 2), (3, 2)]);
        let y = DenseVec::from_vec(vec![1, NIL, NIL, 2, 1]);
        let z = select(&mut c, Kernel::Select, &x, &y, |v| v == NIL);
        assert_eq!(z.entries(), &[(2, 2)]);
    }

    #[test]
    fn set_dense_writes_values() {
        let mut c = ctx();
        let mut y = DenseVec::nil(5);
        let x = SpVec::from_pairs(5, vec![(1, 7u32), (4, 2)]);
        set_dense(&mut c, Kernel::Select, &mut y, &x, |&v| v);
        assert_eq!(y.as_slice(), &[NIL, 7, NIL, NIL, 2]);
    }

    #[test]
    fn set_sparse_gathers_dense_values() {
        let mut c = ctx();
        let x = SpVec::from_pairs(4, vec![(0, 99u32), (2, 99)]);
        let y = DenseVec::from_vec(vec![5, 6, 7, 8]);
        let z = set_sparse(&mut c, Kernel::Select, &x, &y);
        assert_eq!(z.entries(), &[(0, 5), (2, 7)]);
    }

    #[test]
    fn invert_matches_table1_example() {
        // Table I: x = [3,-,2,2,-] → INVERT(x) has z[3]=0, z[2]=2 (first
        // index kept for the duplicate value 2).
        let mut c = ctx();
        let x = SpVec::from_pairs(5, vec![(0, 3u32), (2, 2), (3, 2)]);
        let z = invert(&mut c, Kernel::Invert, &x, 5);
        assert_eq!(z.entries(), &[(2, 2), (3, 0)]);
    }

    #[test]
    fn invert_charges_alltoall() {
        let mut c = ctx(); // p = 4, edison costs
        let x = SpVec::from_pairs(8, vec![(0, 7u32), (5, 1)]);
        let before = c.timers.seconds(Kernel::Invert);
        let _ = invert(&mut c, Kernel::Invert, &x, 8);
        assert!(c.timers.seconds(Kernel::Invert) > before);
    }

    #[test]
    fn invert_charges_match_the_direct_route_formula() {
        // The trait-routed INVERT must charge exactly what the hard-wired
        // charge_invert_route always charged: an alltoallv at the
        // bottleneck pair volume plus a streaming pack/unpack sweep. The
        // second case runs on a 64×64 grid (p = 4096).
        // A quarter of its entries share key 5, so one rank receives most.
        let wide: Vec<(Vidx, u32)> = (0..20_000)
            .step_by(3)
            .map(|i| (i, if i % 4 == 0 { 5 } else { (i * 7) % 9_000 }))
            .collect();
        let cases = [
            (ctx(), SpVec::from_pairs(8, vec![(0, 0u32), (2, 0), (4, 0), (6, 0)]), 8),
            (
                DistCtx::new(mcm_bsp::MachineConfig::hybrid(64, 12)),
                SpVec::from_pairs(20_000, wide),
                9_000,
            ),
        ];
        for (base, x, len) in cases {
            let mut direct = base.clone();
            direct.charge_invert_route(Kernel::Invert, &x, len, |&v| v);
            let mut routed = base;
            let _ = invert(&mut routed, Kernel::Invert, &x, len);
            assert_eq!(
                direct.timers.seconds(Kernel::Invert),
                routed.timers.seconds(Kernel::Invert),
                "routed INVERT drifted from the modeled charge at p = {}",
                routed.p()
            );
            assert_eq!(direct.timers.calls(Kernel::Invert), routed.timers.calls(Kernel::Invert));
        }
    }

    #[test]
    fn invert_and_prune_agree_across_backends() {
        let x = SpVec::from_pairs(10, vec![(0, 3u32), (2, 7), (3, 7), (5, 1), (7, 3), (9, 0)]);
        for p in [1usize, 4, 9] {
            let dim = (p as f64).sqrt() as usize;
            let mut sim = DistCtx::new(mcm_bsp::MachineConfig::hybrid(dim, 1));
            let mut eng = EngineComm::new(p, 1);
            let a = invert(&mut sim, Kernel::Invert, &x, 10);
            let b = invert(&mut eng, Kernel::Invert, &x, 10);
            assert_eq!(a, b, "INVERT diverged at p = {p}");
            let q = [7u32, 0];
            let pa = prune(&mut sim, Kernel::Prune, &x, &q, |&v| v);
            let pb = prune(&mut eng, Kernel::Prune, &x, &q, |&v| v);
            assert_eq!(pa, pb, "PRUNE diverged at p = {p}");
            assert_eq!(pa.entries(), &[(0, 3), (5, 1), (7, 3)]);
        }
    }

    #[test]
    fn prune_removes_keyed_entries() {
        let mut c = ctx();
        let x = SpVec::from_pairs(6, vec![(0, 10u32), (2, 20), (4, 10), (5, 30)]);
        let z = prune(&mut c, Kernel::Prune, &x, &[10, 30], |&v| v);
        assert_eq!(z.entries(), &[(2, 20)]);
    }

    #[test]
    fn prune_with_empty_root_set_is_identity() {
        let mut c = ctx();
        let x = SpVec::from_pairs(3, vec![(1, 5u32)]);
        let z = prune(&mut c, Kernel::Prune, &x, &[], |&v| v);
        assert_eq!(z, x);
    }
}
