//! The motivating application (§I): matching as a *preprocessing step for
//! distributed sparse solvers*.
//!
//! Direct solvers need a structurally nonsingular pivot sequence — a
//! zero-free diagonal. A perfect matching of the bipartite rows-vs-columns
//! graph of a square matrix *is* a row permutation that places a nonzero on
//! every diagonal position. This example builds a KKT saddle-point matrix
//! (whose (2,2) block is structurally zero, so the natural diagonal is
//! deficient), computes an MCM with the distributed algorithm, and applies
//! the induced row permutation.
//!
//! ```text
//! cargo run --release --example solver_preprocess
//! ```

use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::kkt::kkt_stencil;
use mcm_sparse::permute::{permute_triples, Permutation};
use mcm_sparse::{Triples, Vidx};

/// Counts structurally nonzero diagonal entries.
fn diagonal_nonzeros(t: &Triples) -> usize {
    let c = t.to_csc();
    (0..t.ncols().min(t.nrows())).filter(|&j| c.contains(j as Vidx, j)).count()
}

fn main() {
    // A KKT system: 12^3 = 1728 Hessian nodes + 600 constraint rows whose
    // diagonal block is structurally zero.
    let a = kkt_stencil(12, 600, 3, 42);
    let n = a.nrows();
    println!("KKT matrix: {n} x {n}, {} nonzeros", a.len());
    println!("diagonal nonzeros before permutation: {}/{}", diagonal_nonzeros(&a), n);

    // Distributed MCM on a simulated 4x4 grid of 12-thread processes.
    let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 12));
    let opts = McmOptions::default();
    let csc = a.to_csc();
    let result = maximum_matching(&mut ctx, &csc.view(), Start::Cold, &opts);
    let m = &result.matching;
    println!(
        "maximum matching: {} of {} columns matched ({} phases, {} iterations)",
        m.cardinality(),
        n,
        result.stats.phases,
        result.stats.iterations
    );

    // Row permutation from the matching: row mate_c[j] moves to position j.
    // (A perfect matching gives a complete permutation; KKT stencils are
    // structurally nonsingular, so expect one.)
    assert_eq!(m.cardinality(), n, "KKT stencil should have a perfect matching");
    let forward = {
        // mate_r[i] = j means row i must land at position j.
        let f: Vec<Vidx> = (0..n).map(|i| m.mate_r.get(i as Vidx)).collect();
        Permutation::from_forward(f)
    };
    let permuted = permute_triples(&a, &forward, &Permutation::identity(n));
    println!("diagonal nonzeros after permutation:  {}/{}", diagonal_nonzeros(&permuted), n);
    assert_eq!(diagonal_nonzeros(&permuted), n);

    println!(
        "\nmodeled distributed time: {:.3} ms on {} cores ({} processes x {} threads)",
        ctx.timers.total() * 1e3,
        ctx.machine.cores(),
        ctx.p(),
        ctx.threads()
    );
    println!("\nthe solver can now factorize without structural pivoting.");
}
