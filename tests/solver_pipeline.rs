//! End-to-end solver preprocessing pipeline across crates: distributed
//! matching → König certificate → Dulmage–Mendelsohn → block triangular
//! form, on the generator families — the consumer workflow of §I.

use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::btf::block_triangular_form;
use mcm_core::cover::{cover_certifies, koenig_cover};
use mcm_core::dm::{dulmage_mendelsohn, DmBlock};
use mcm_core::serial::hopcroft_karp;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::hard::{chain, crown, parallel_chains, staircase};
use mcm_gen::kkt::kkt_stencil;
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::Triples;

fn pipeline(t: &Triples) {
    let a = t.to_csc();
    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 2));
    let m = maximum_matching(&mut ctx, &a.view(), Start::Cold, &McmOptions::default()).matching;
    m.validate(&a).unwrap();

    // Certificate: a König cover of exactly |M| vertices.
    let cover = koenig_cover(&a, &m);
    assert!(cover.covers(&a));
    assert_eq!(cover.size(), m.cardinality());
    assert!(cover_certifies(&a, &m));

    // Coarse DM: blocks are consistent and the square part matches
    // perfectly within itself.
    let dm = dulmage_mendelsohn(&a, &m);
    let sr = dm.rows_in(DmBlock::Square);
    let sc = dm.cols_in(DmBlock::Square);
    assert_eq!(sr.len(), sc.len());
    for &r in &sr {
        let c = m.mate_r.get(r);
        assert_eq!(dm.col_block[c as usize], DmBlock::Square);
    }

    // Fine DM: BTF only for square structurally nonsingular inputs.
    if t.nrows() == t.ncols() && m.cardinality() == t.ncols() {
        let btf = block_triangular_form(&a, &m);
        assert_eq!(*btf.block_ptr.last().unwrap(), t.ncols());
        // Diagonal stays zero-free under the BTF permutation.
        for k in 0..t.ncols() {
            assert!(a.contains(btf.row_order[k], btf.col_order[k] as usize));
        }
    }
}

#[test]
fn kkt_pipeline_is_nonsingular() {
    let t = kkt_stencil(6, 60, 3, 5);
    let a = t.to_csc();
    let m = hopcroft_karp(&a, None);
    assert_eq!(m.cardinality(), t.ncols(), "KKT stencils must be nonsingular");
    let dm = dulmage_mendelsohn(&a, &m);
    assert!(dm.is_structurally_nonsingular());
    pipeline(&t);
}

#[test]
fn rmat_pipeline_is_deficient_but_certified() {
    let t = rmat(RmatParams::g500(10), 3);
    let a = t.to_csc();
    let m = hopcroft_karp(&a, None);
    assert!(m.cardinality() < t.ncols(), "G500 should be structurally singular");
    pipeline(&t);
    let dm = dulmage_mendelsohn(&a, &m);
    assert!(!dm.rows_in(DmBlock::Horizontal).is_empty());
    assert!(!dm.rows_in(DmBlock::Vertical).is_empty());
}

#[test]
fn hard_instances_pipeline() {
    pipeline(&chain(50));
    pipeline(&parallel_chains(8, 12));
    pipeline(&staircase(40));
    pipeline(&crown(12));
}

#[test]
fn hard_instances_have_their_designed_shapes() {
    // chain: perfect matching exists; greedy from column order is fooled.
    let c = chain(30).to_csc();
    assert_eq!(hopcroft_karp(&c, None).cardinality(), 30);

    // staircase: perfect.
    let s = staircase(30).to_csc();
    assert_eq!(hopcroft_karp(&s, None).cardinality(), 30);

    // crown: perfect via derangement.
    let k = crown(9).to_csc();
    assert_eq!(hopcroft_karp(&k, None).cardinality(), 9);
}

#[test]
fn long_chain_exercises_long_augmenting_paths() {
    // Seed the chain with the adversarial off-diagonal matching
    // (r_i, c_{i+1}): the only augmenting path ripples the entire chain, so
    // both augmentation kernels must process a maximal-length path.
    use mcm_bsp::DistMatrix;
    use mcm_core::augment::AugmentMode;
    use mcm_core::mcm::run_phases;
    use mcm_core::Matching;
    let k = 64usize;
    let t = chain(k);
    let a_csc = t.to_csc();
    for mode in [AugmentMode::LevelParallel, AugmentMode::PathParallel] {
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let mut m = Matching::empty(k, k);
        for i in 0..(k - 1) as u32 {
            m.add(i, i + 1);
        }
        let opts = McmOptions { augment: mode, permute_seed: None, ..Default::default() };
        let mut stats = mcm_core::McmStats::default();
        run_phases(&mut ctx, &a, None, &mut m, &opts, &mut stats);
        assert_eq!(m.cardinality(), k, "{mode:?}");
        m.validate(&a_csc).unwrap();
        // One path of 2k-1 edges: ⌈h/2⌉ = k level-iterations (§IV-B).
        let max_levels = stats.augment_reports.iter().map(|r| r.levels).max().unwrap();
        assert_eq!(max_levels, k, "{mode:?}");
    }
}
