//! Strong-scaling demo: one graph, a sweep of simulated machine sizes.
//!
//! Reproduces in miniature what Figs. 4 and 6 of the paper measure: modeled
//! MCM-DIST time as the core count grows from one node (24 cores) upward,
//! with the paper's hybrid layout (square process grid, 12 threads per
//! process).
//!
//! ```text
//! cargo run --release --example scaling_demo
//! ```

use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::rmat::{rmat, RmatParams};

fn main() {
    // A scale-14 G500 matrix (16384^2, ~380k edges after dedup): small
    // enough to sweep quickly, skewed like the paper's G500 inputs.
    let scale = 14;
    let g = rmat(RmatParams::g500(scale), 2016);
    println!("G500 scale {}: {} x {} with {} edges\n", scale, g.nrows(), g.ncols(), g.len());

    println!(
        "{:>7} {:>9} {:>12} {:>9} {:>10} {:>10}",
        "cores", "grid", "modeled(ms)", "speedup", "|M|", "phases"
    );
    // Each stand-in edge represents `work_scale` edges of the paper's
    // scale-26 G500 runs (see DistCtx::work_scale).
    let paper_edges = 32.0 * (1u64 << 26) as f64;
    let work_scale = paper_edges / g.len() as f64;
    let a = g.to_csc();
    let opts = McmOptions::default();
    let mut base: Option<f64> = None;
    for cfg in MachineConfig::paper_sweep(2028) {
        let mut ctx = DistCtx::new(cfg).with_work_scale(work_scale);
        let result = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);
        let secs = ctx.timers.total();
        let speedup = base.get_or_insert(secs).max(1e-12) / secs.max(1e-12);
        println!(
            "{:>7} {:>9} {:>12.3} {:>9.2} {:>10} {:>10}",
            cfg.cores(),
            format!("{}x{}x{}", cfg.grid.pr, cfg.grid.pc, cfg.threads_per_process),
            secs * 1e3,
            speedup,
            result.matching.cardinality(),
            result.stats.phases
        );
    }
    println!("\n(speedups are modeled; the cardinality must be identical on every grid)");
}
