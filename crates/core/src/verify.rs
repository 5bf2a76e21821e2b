//! Independent verification of matchings.
//!
//! * [`is_maximal`] — no edge joins two unmatched vertices (the guarantee of
//!   the greedy/Karp–Sipser/mindegree initializers).
//! * [`is_maximum`] — no augmenting path exists with respect to `M`, which
//!   by Berge's theorem certifies maximum cardinality. The check runs one
//!   alternating BFS from all unmatched columns — independent of the
//!   algorithms under test, so it catches agreement-in-error with the
//!   Hopcroft–Karp oracle.
//! * [`is_maximum_from`] — the same Berge check seeded from a caller-chosen
//!   set of free columns (the *dirty region*), the per-batch running
//!   certificate of the incremental engine (`mcm-dyn`).
//! * [`verify`] — both checks as a `Result<(), VerifyError>` so sweep
//!   harnesses can report *which* check failed (and under which schedule
//!   seed) without aborting; [`assert_maximum`] is the panicking wrapper.
//! * [`verify_eps_cs`] — the weighted analogue of the Berge certificate:
//!   ε-complementary-slackness of a matching against a price vector, the
//!   independent check of the auction engines (`mcm-core::weighted`) and
//!   of the price-carrying dynamic repair (`mcm-dyn`).

use crate::matching::Matching;
use mcm_sparse::{CscView, Vidx, WCsc, NIL};
use std::fmt;

/// Why a matching failed verification. `Display` gives the same diagnostic
/// the old panicking API printed, so harnesses (the simtest sweeps) can
/// attach context — notably the schedule seed — instead of aborting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Structural violation: inconsistent mates, out-of-range indices, or a
    /// matched pair that is not an edge (from [`Matching::validate`]).
    Invalid(String),
    /// The matching is valid but admits an augmenting path (not maximum).
    NotMaximum {
        /// Cardinality of the non-maximum matching.
        cardinality: usize,
    },
    /// The weighted ε-complementary-slackness certificate failed: the
    /// matching/price pair does not bound the optimum within `n·ε`.
    EpsCs(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Invalid(e) => write!(f, "invalid matching: {e}"),
            VerifyError::NotMaximum { cardinality } => {
                write!(f, "matching of cardinality {cardinality} admits an augmenting path")
            }
            VerifyError::EpsCs(e) => write!(f, "eps-CS certificate failed: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Full verification as a `Result`: structural validity plus the Berge
/// maximality certificate. Takes an owned [`Csc`](mcm_sparse::Csc) or a
/// borrowed [`CscView`] (MCSB-backed runs verify against the mapped pages
/// themselves). The panicking [`assert_maximum`] wraps this for benches
/// and examples.
pub fn verify<'a>(a: impl Into<CscView<'a>>, m: &Matching) -> Result<(), VerifyError> {
    let a = a.into();
    m.validate(a).map_err(VerifyError::Invalid)?;
    if !is_maximum(a, m) {
        return Err(VerifyError::NotMaximum { cardinality: m.cardinality() });
    }
    Ok(())
}

/// [`verify`] under its older view-only name, kept for the benchmark's
/// library probe (`perfbench/probe`).
pub fn verify_view(v: &CscView<'_>, m: &Matching) -> Result<(), VerifyError> {
    verify(v, m)
}

/// `true` when no edge connects an unmatched row to an unmatched column.
pub fn is_maximal<'a>(a: impl Into<CscView<'a>>, m: &Matching) -> bool {
    let a = a.into();
    for c in 0..a.ncols() {
        if m.col_matched(c as Vidx) {
            continue;
        }
        for &r in a.col(c) {
            if !m.row_matched(r) {
                return false;
            }
        }
    }
    true
}

/// `true` when `m` admits no augmenting path (Berge: `m` is maximum).
///
/// Alternating BFS over columns: start from all unmatched columns; from a
/// column go to any unvisited row neighbour; from a matched row go to its
/// mate column. Reaching an unmatched row ⇔ an augmenting path exists.
pub fn is_maximum<'a>(a: impl Into<CscView<'a>>, m: &Matching) -> bool {
    let seeds: Vec<Vidx> = m.unmatched_cols();
    is_maximum_from(a, m, &seeds)
}

/// Dirty-region Berge certificate: `true` when no augmenting path starts
/// at any of `seed_cols` (matched seeds are skipped).
///
/// This is [`is_maximum`] restricted to a caller-chosen set of free
/// columns. It certifies *global* maximality only under an invariant the
/// caller must supply — namely that every free column **not** in
/// `seed_cols` already had no augmenting path and nothing since has
/// created one (the incremental engine's per-batch situation: updates
/// only dirtied `seed_cols`' trees, and augmenting elsewhere never
/// creates new paths from a settled free vertex). The sweep harnesses
/// cross-check it against the full [`is_maximum`].
pub fn is_maximum_from<'a>(a: impl Into<CscView<'a>>, m: &Matching, seed_cols: &[Vidx]) -> bool {
    let a = a.into();
    let mut visited_col = vec![false; a.ncols()];
    let mut visited_row = vec![false; a.nrows()];
    let mut queue: Vec<Vidx> = Vec::new();
    for &c in seed_cols {
        if !m.col_matched(c) && !visited_col[c as usize] {
            visited_col[c as usize] = true;
            queue.push(c);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let c = queue[head];
        head += 1;
        for &r in a.col(c as usize) {
            if visited_row[r as usize] {
                continue;
            }
            visited_row[r as usize] = true;
            let mate = m.mate_r.get(r);
            if mate == NIL {
                return false; // augmenting path found
            }
            if !visited_col[mate as usize] {
                visited_col[mate as usize] = true;
                queue.push(mate);
            }
        }
    }
    true
}

/// Weighted ε-complementary-slackness certificate — the weighted analogue
/// of the Berge check, verified against the auction's dual variables
/// (`prices`) instead of by path search.
///
/// Four conditions, together bounding `W(M) ≥ OPT − |M|·ε` (exact for
/// integer weights once `|M|·ε < 1`, the classic auction guarantee):
///
/// 1. **Edge ε-CS** — every matched column is within ε of its best net
///    value: `w(r, c) − p[r] ≥ max_{r'} (w(r', c) − p[r']) − ε`.
/// 2. **Individual rationality** — every matched column is within ε of
///    the implicit stay-unmatched option: `w(r, c) − p[r] ≥ −ε`.
/// 3. **Retirement** — every unmatched column's best net value is ≤ 0
///    (no profitable row at these prices).
/// 4. **Unmatched rows are free** — `p[r] = 0` for every unmatched row.
///
/// The proof is an exchange argument over `M Δ M*`: conditions 1/3 charge
/// each `M*` edge against an `M` edge plus ε, condition 4 zeroes the one
/// possible `M*`-only endpoint row of each alternating path, and
/// condition 2 floors components where `M` covers vertices `M*` skips.
/// A small floating-point tolerance absorbs price accumulation error.
pub fn verify_eps_cs(a: &WCsc, m: &Matching, prices: &[f64], eps: f64) -> Result<(), VerifyError> {
    const TOL: f64 = 1e-9;
    m.validate(a.pattern()).map_err(VerifyError::Invalid)?;
    if prices.len() != a.nrows() {
        return Err(VerifyError::EpsCs(format!(
            "price vector has {} entries for {} rows",
            prices.len(),
            a.nrows()
        )));
    }
    if eps.is_nan() || eps <= 0.0 {
        return Err(VerifyError::EpsCs(format!("eps must be positive, got {eps}")));
    }
    for c in 0..a.ncols() as Vidx {
        let best = a
            .col_entries(c as usize)
            .map(|(r, w)| w - prices[r as usize])
            .fold(f64::NEG_INFINITY, f64::max);
        let r = m.mate_c.get(c);
        if r == NIL {
            if best > TOL {
                return Err(VerifyError::EpsCs(format!(
                    "unmatched column {c} has profitable best net value {best}"
                )));
            }
            continue;
        }
        let net = a.weight(r, c as usize).expect("validated matched edge") - prices[r as usize];
        if net + eps < best - TOL {
            return Err(VerifyError::EpsCs(format!(
                "column {c} matched to row {r} at net {net} but best is {best} (eps {eps})"
            )));
        }
        if net + eps < -TOL {
            return Err(VerifyError::EpsCs(format!(
                "column {c} matched to row {r} at net {net} below the unmatched option (eps {eps})"
            )));
        }
    }
    for r in 0..a.nrows() as Vidx {
        if !m.row_matched(r) && prices[r as usize].abs() > TOL {
            return Err(VerifyError::EpsCs(format!(
                "unmatched row {r} has nonzero price {}",
                prices[r as usize]
            )));
        }
    }
    Ok(())
}

/// Panics with a diagnostic unless `m` is a valid maximum matching of `a`
/// (the [`verify`] wrapper for benches, examples, and tests).
pub fn assert_maximum<'a>(a: impl Into<CscView<'a>>, m: &Matching) {
    if let Err(e) = verify(a, m) {
        panic!("{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::{Csc, Triples};

    fn z_graph() -> Csc {
        // r0-c0, r0-c1, r1-c0: maximum = 2.
        Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc()
    }

    #[test]
    fn maximal_but_not_maximum() {
        let a = z_graph();
        let mut m = Matching::empty(2, 2);
        m.add(0, 0);
        assert!(is_maximal(&a, &m));
        assert!(!is_maximum(&a, &m));
    }

    #[test]
    fn maximum_detected() {
        let a = z_graph();
        let mut m = Matching::empty(2, 2);
        m.add(0, 1);
        m.add(1, 0);
        assert!(is_maximum(&a, &m));
        assert_maximum(&a, &m);
    }

    #[test]
    fn not_even_maximal() {
        let a = z_graph();
        let m = Matching::empty(2, 2);
        assert!(!is_maximal(&a, &m));
        assert!(!is_maximum(&a, &m));
    }

    #[test]
    fn empty_graph_empty_matching_is_maximum() {
        let a = Triples::new(2, 2).to_csc();
        let m = Matching::empty(2, 2);
        assert!(is_maximal(&a, &m));
        assert!(is_maximum(&a, &m));
    }

    #[test]
    fn deficiency_is_recognized() {
        // Star: one row, three columns — cardinality 1 is maximum.
        let a = Triples::from_edges(1, 3, vec![(0, 0), (0, 1), (0, 2)]).to_csc();
        let mut m = Matching::empty(1, 3);
        m.add(0, 2);
        assert!(is_maximum(&a, &m));
    }

    #[test]
    #[should_panic]
    fn assert_maximum_panics_on_suboptimal() {
        let a = z_graph();
        let mut m = Matching::empty(2, 2);
        m.add(0, 0);
        assert_maximum(&a, &m);
    }

    #[test]
    fn seeded_certificate_matches_full_berge() {
        use mcm_sparse::permute::SplitMix64;
        // On random instances: seeding from *all* free columns must agree
        // with is_maximum, and seeding from a free column with a path must
        // find it while settled free columns certify clean.
        let mut rng = SplitMix64::new(0x5EEDED);
        for trial in 0..20 {
            let (n1, n2) = (12usize, 12usize);
            let mut t = Triples::new(n1, n2);
            for _ in 0..30 {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            let a = t.to_csc();
            // Greedy (possibly suboptimal) matching.
            let mut m = Matching::empty(n1, n2);
            for j in 0..n2 {
                for &i in a.col(j) {
                    if !m.row_matched(i) && !m.col_matched(j as Vidx) {
                        m.add(i, j as Vidx);
                        break;
                    }
                }
            }
            let free: Vec<Vidx> = m.unmatched_cols();
            assert_eq!(is_maximum_from(&a, &m, &free), is_maximum(&a, &m), "trial {trial}");
            assert!(is_maximum_from(&a, &m, &[]), "empty seed set certifies vacuously");
        }
    }

    #[test]
    fn seeded_certificate_finds_path_only_from_its_tree() {
        let a = z_graph();
        let mut m = Matching::empty(2, 2);
        m.add(0, 0); // augmenting path exists from free column 1
        assert!(!is_maximum_from(&a, &m, &[1]));
        assert!(is_maximum_from(&a, &m, &[0]), "matched seeds are skipped");
    }

    #[test]
    fn eps_cs_certifies_the_auction_and_rejects_corruption() {
        use crate::weighted::auction_mwm;
        use mcm_sparse::WCsc;
        let a = WCsc::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 10.0)],
        );
        let r = auction_mwm(&a, 1.0 / 6.0);
        assert_eq!(verify_eps_cs(&a, &r.matching, &r.prices, r.eps), Ok(()));

        // A suboptimal matching (light diagonal) with zero prices breaks
        // edge ε-CS: both columns see a far better alternative.
        let mut light = Matching::empty(2, 2);
        light.add(0, 1);
        light.add(1, 0);
        let zeros = vec![0.0; 2];
        assert!(matches!(verify_eps_cs(&a, &light, &zeros, 1.0 / 6.0), Err(VerifyError::EpsCs(_))));

        // Corrupting a matched row's price below its weight is caught by
        // the unmatched-column profitability check on the evicted column.
        let mut prices = r.prices.clone();
        prices[0] = 0.0;
        let mut partial = Matching::empty(2, 2);
        partial.add(1, 1);
        assert!(matches!(verify_eps_cs(&a, &partial, &prices, r.eps), Err(VerifyError::EpsCs(_))));

        // A nonzero price on an unmatched row is a dual-feasibility bug.
        let empty = Matching::empty(2, 2);
        assert!(matches!(
            verify_eps_cs(&a, &empty, &[5.0, 20.0], 1.0 / 6.0),
            Err(VerifyError::EpsCs(_))
        ));
    }

    #[test]
    fn eps_cs_accepts_weight_sacrificing_cardinality() {
        use crate::weighted::auction_mwm;
        use mcm_sparse::WCsc;
        // MWM leaves c1 unmatched (10 beats 1 + 1); the certificate must
        // accept the deliberately unmatched column.
        let a = WCsc::from_weighted_triples(1, 2, vec![(0, 0, 10.0), (0, 1, 1.0)]);
        let r = auction_mwm(&a, 1.0 / 6.0);
        assert_eq!(r.matching.cardinality(), 1);
        assert_eq!(verify_eps_cs(&a, &r.matching, &r.prices, r.eps), Ok(()));
    }

    #[test]
    fn verify_returns_typed_errors() {
        let a = z_graph();
        let mut good = Matching::empty(2, 2);
        good.add(0, 1);
        good.add(1, 0);
        assert_eq!(verify(&a, &good), Ok(()));

        let mut suboptimal = Matching::empty(2, 2);
        suboptimal.add(0, 0);
        assert_eq!(verify(&a, &suboptimal), Err(VerifyError::NotMaximum { cardinality: 1 }));

        let mut broken = Matching::empty(2, 2);
        broken.mate_c.set(0, 1); // mate_r[1] left NIL: inconsistent
        let err = verify(&a, &broken).unwrap_err();
        assert!(matches!(err, VerifyError::Invalid(_)));
        assert!(err.to_string().starts_with("invalid matching:"));
    }
}
