//! Quickstart: build a small bipartite graph, run distributed MCM, verify.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::serial::hopcroft_karp;
use mcm_core::verify::assert_maximum;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_sparse::Triples;

fn main() {
    // The worked example of the paper's Fig. 2: 4 row vertices (r1..r4),
    // 5 column vertices (c1..c5), 9 edges.
    let g = Triples::from_edges(
        4,
        5,
        vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
    );

    // The solver reads a CSC view; an edge list is compressed once here
    // (an mmap'ed MCSB file would lend the same view with no copy).
    let a = g.to_csc();

    // Simulate a 2x2 process grid with 2 threads per process (8 cores).
    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 2));
    let opts = McmOptions::default();
    let result = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);

    println!("graph: {} rows x {} cols, {} edges", g.nrows(), g.ncols(), g.len());
    println!("maximum matching cardinality: {}", result.matching.cardinality());
    println!(
        "phases: {}, BFS iterations: {}, augmenting paths: {} (init contributed {})",
        result.stats.phases,
        result.stats.iterations,
        result.stats.augmentations,
        result.stats.init_cardinality
    );
    println!("\nmatched pairs (row -> column):");
    for r in 0..g.nrows() as u32 {
        let c = result.matching.mate_r.get(r);
        if c != mcm_sparse::NIL {
            println!("  r{} -> c{}", r + 1, c + 1);
        }
    }

    // Verify against the independent certificate and the serial oracle.
    assert_maximum(&a, &result.matching);
    assert_eq!(result.matching.cardinality(), hopcroft_karp(&a, None).cardinality());
    println!("\nverified: no augmenting path exists (Berge) and cardinality matches Hopcroft-Karp");

    println!("\nmodeled kernel breakdown on the simulated machine:\n{}", ctx.timers);
}
