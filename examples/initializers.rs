//! Compare the three maximal-matching initializers (§VI-A, Fig. 3).
//!
//! For each initializer: its approximation quality (fraction of the maximum
//! cardinality delivered before any augmentation), its modeled init time,
//! and the modeled MCM time needed to finish the job.
//!
//! ```text
//! cargo run --release --example initializers
//! ```

use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_core::maximal::Initializer;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::mesh::triangulated_grid;

fn main() {
    let g = triangulated_grid(96, 96, 7);
    println!("delaunay-like mesh: {} x {} with {} edges\n", g.nrows(), g.ncols(), g.len());

    let a = g.to_csc();
    let cfg = MachineConfig::hybrid(4, 12); // 192 cores
    println!(
        "{:<20} {:>8} {:>9} {:>12} {:>12} {:>12}",
        "initializer", "init |M|", "final |M|", "init(ms)", "mcm(ms)", "total(ms)"
    );
    for init in [
        Initializer::None,
        Initializer::Greedy,
        Initializer::KarpSipser,
        Initializer::DynamicMindegree,
    ] {
        // Charge the mesh as if it were delaunay_n24-sized (~100M nonzeros).
        let mut ctx = DistCtx::new(cfg).with_work_scale(1.0e8 / g.len() as f64);
        let opts = McmOptions { init, ..Default::default() };
        let result = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);
        let init_s = ctx.timers.seconds(Kernel::Init);
        let total_s = ctx.timers.total();
        println!(
            "{:<20} {:>8} {:>9} {:>12.3} {:>12.3} {:>12.3}",
            init.name(),
            result.stats.init_cardinality,
            result.matching.cardinality(),
            init_s * 1e3,
            (total_s - init_s) * 1e3,
            total_s * 1e3
        );
    }
    println!("\n(the paper's conclusion: dynamic mindegree gives the best total time —");
    println!(" Karp-Sipser matches slightly more but pays for its synchronization cascade)");
}
