//! Structural analysis of a sparse matrix via matching — the full
//! sparse-solver preprocessing pipeline the paper's introduction motivates:
//!
//! 1. maximum cardinality matching (distributed MCM-DIST),
//! 2. König minimum vertex cover (an optimality certificate),
//! 3. coarse Dulmage–Mendelsohn decomposition (structural rank / singularity),
//! 4. fine decomposition: block triangular form for the factorization.
//!
//! ```text
//! cargo run --release --example structural_analysis
//! ```

use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::btf::block_triangular_form;
use mcm_core::cover::{cover_certifies, koenig_cover};
use mcm_core::dm::{dulmage_mendelsohn, DmBlock};
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::kkt::kkt_stencil;
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::Triples;

fn analyze(name: &str, t: &Triples) {
    println!("== {name}: {} x {}, {} nonzeros", t.nrows(), t.ncols(), t.len());

    // 1. Maximum matching on a simulated 4x4 x 12 allocation.
    let a = t.to_csc();
    let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 12));
    let opts = McmOptions::default();
    let result = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);
    let m = &result.matching;
    println!(
        "   structural rank {} of {} (modeled {:.2} ms on {} cores)",
        m.cardinality(),
        t.nrows().min(t.ncols()),
        ctx.timers.total() * 1e3,
        ctx.machine.cores()
    );

    // 2. König certificate.
    let cover = koenig_cover(&a, m);
    assert!(cover_certifies(&a, m));
    println!(
        "   König cover: {} rows + {} cols = {} (= |M|, certifies optimality)",
        cover.rows.len(),
        cover.cols.len(),
        cover.size()
    );

    // 3. Coarse DM.
    let dm = dulmage_mendelsohn(&a, m);
    for b in [DmBlock::Horizontal, DmBlock::Square, DmBlock::Vertical] {
        println!(
            "   DM {:<10} {:>7} rows {:>7} cols",
            format!("{b:?}"),
            dm.rows_in(b).len(),
            dm.cols_in(b).len()
        );
    }

    // 4. Fine decomposition (square nonsingular matrices only).
    if t.nrows() == t.ncols() && dm.is_structurally_nonsingular() {
        let btf = block_triangular_form(&a, m);
        println!(
            "   BTF: {} diagonal blocks, largest {} ({}% of n)",
            btf.num_blocks(),
            btf.max_block(),
            100 * btf.max_block() / t.nrows()
        );
    } else {
        println!("   structurally singular or rectangular: no BTF");
    }
    println!();
}

fn weighted_step(t: &Triples) {
    use mcm_core::weighted::auction_mwm;
    use mcm_sparse::permute::SplitMix64;
    use mcm_sparse::WCsc;
    // 5. The MC64-style follow-up: put numerically large entries on the
    //    diagonal by maximizing total weight (here: synthetic magnitudes).
    let mut rng = SplitMix64::new(2);
    let entries = t.entries().iter().map(|&(i, j)| (i, j, 1.0 + rng.below(1000) as f64)).collect();
    let w = WCsc::from_weighted_triples(t.nrows(), t.ncols(), entries);
    let n = t.nrows().max(t.ncols());
    let r = auction_mwm(&w, 0.5 / (n as f64 + 1.0));
    println!(
        "   weighted (MC64-style): |M| {} with total weight {:.0} ({} auction bids)",
        r.matching.cardinality(),
        r.weight,
        r.bids
    );
    println!();
}

fn main() {
    // A structurally nonsingular KKT system: full analysis incl. BTF.
    let kkt = kkt_stencil(10, 300, 3, 7);
    analyze("nlpkkt-like", &kkt);
    weighted_step(&kkt);
    // A skewed RMAT graph: structurally singular, DM splits it.
    analyze("G500 scale 11", &rmat(RmatParams::g500(11), 13));
}
