//! Full verification sweep over every Table II stand-in: the distributed
//! algorithm must reach the Hopcroft–Karp cardinality and pass the Berge
//! certificate on all 13 matrices.
//!
//! These are the heaviest tests in the suite (~200K-edge graphs each);
//! they are `#[ignore]`d so `cargo test` in debug mode stays fast. Run
//! them with:
//!
//! ```text
//! cargo test --release --test standin_verification -- --ignored
//! ```

use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::serial::hopcroft_karp;
use mcm_core::verify::is_maximum;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::table2;

#[test]
#[ignore = "heavy: run with --release -- --ignored"]
fn all_standins_reach_the_maximum() {
    for s in table2() {
        let t = s.generate();
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None);
        assert!(is_maximum(&a, &want), "{}: HK oracle not maximum?!", s.name);

        let mut ctx = DistCtx::new(MachineConfig::hybrid(4, 4));
        let r = maximum_matching(&mut ctx, &a.view(), Start::Cold, &McmOptions::default());
        r.matching.validate(&a).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert_eq!(
            r.matching.cardinality(),
            want.cardinality(),
            "{}: distributed cardinality diverges from Hopcroft-Karp",
            s.name
        );
        assert!(is_maximum(&a, &r.matching), "{}: Berge certificate failed", s.name);
    }
}

#[test]
#[ignore = "heavy: run with --release -- --ignored"]
fn serial_family_agrees_on_standins() {
    use mcm_core::serial::pothen_fan;
    for s in table2().into_iter().take(4) {
        let t = s.generate();
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        assert_eq!(pothen_fan(&a, None).cardinality(), want, "{} (PF)", s.name);
    }
}
