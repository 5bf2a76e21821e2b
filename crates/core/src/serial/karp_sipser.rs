//! Serial Karp–Sipser maximal matching.
//!
//! §II-A flavour (b): process degree-1 vertices first — matching a degree-1
//! vertex to its only neighbour is always safe (some maximum matching
//! contains that edge) — and fall back to a random edge when no degree-1
//! vertex exists. `O(m)` with lazy degree maintenance; usually the highest
//! approximation ratio of the three maximal flavours (§VI-A), which is why
//! its slow *distributed* behaviour (Fig. 3) is interesting.

use crate::matching::Matching;
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Csc, CscView, Vidx};
use std::collections::VecDeque;

/// Karp–Sipser maximal matching; `seed` drives the random-edge fallback.
pub fn karp_sipser_serial<'a>(a: impl Into<CscView<'a>>, seed: u64) -> Matching {
    let a = a.into();
    let at = a.transpose(); // row → columns adjacency
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut m = Matching::empty(n1, n2);
    let mut rng = SplitMix64::new(seed);

    // Dynamic degrees = number of *unmatched* neighbours.
    let mut deg_r: Vec<u32> = at.col_degrees();
    let mut deg_c: Vec<u32> = (0..n2).map(|c| a.col_nnz(c) as u32).collect();

    // Queues of (possibly stale) degree-1 vertices; staleness is re-checked
    // on pop, keeping the whole pass O(m).
    let mut q1_rows: VecDeque<Vidx> = (0..n1 as Vidx).filter(|&r| deg_r[r as usize] == 1).collect();
    let mut q1_cols: VecDeque<Vidx> = (0..n2 as Vidx).filter(|&c| deg_c[c as usize] == 1).collect();

    // Random processing order of columns for the fallback phase.
    let mut order: Vec<Vidx> = (0..n2 as Vidx).collect();
    for k in (1..order.len()).rev() {
        let j = rng.below(k as u64 + 1) as usize;
        order.swap(k, j);
    }
    let mut cursor = 0usize;

    loop {
        // --- Degree-1 rule, both sides. -----------------------------------
        let mut progressed = true;
        while progressed {
            progressed = false;
            while let Some(r) = q1_rows.pop_front() {
                if m.row_matched(r) || deg_r[r as usize] != 1 {
                    continue;
                }
                // Find the unique unmatched column neighbour.
                if let Some(&c) = at.col(r as usize).iter().find(|&&c| !m.col_matched(c)) {
                    do_match(
                        &mut m,
                        a,
                        &at,
                        r,
                        c,
                        &mut deg_r,
                        &mut deg_c,
                        &mut q1_rows,
                        &mut q1_cols,
                    );
                    progressed = true;
                }
            }
            while let Some(c) = q1_cols.pop_front() {
                if m.col_matched(c) || deg_c[c as usize] != 1 {
                    continue;
                }
                if let Some(&r) = a.col(c as usize).iter().find(|&&r| !m.row_matched(r)) {
                    do_match(
                        &mut m,
                        a,
                        &at,
                        r,
                        c,
                        &mut deg_r,
                        &mut deg_c,
                        &mut q1_rows,
                        &mut q1_cols,
                    );
                    progressed = true;
                }
            }
        }

        // --- Random fallback: match the next random column. ---------------
        let mut matched_random = false;
        while cursor < order.len() {
            let c = order[cursor];
            cursor += 1;
            if m.col_matched(c) || deg_c[c as usize] == 0 {
                continue;
            }
            if let Some(&r) = a.col(c as usize).iter().find(|&&r| !m.row_matched(r)) {
                do_match(&mut m, a, &at, r, c, &mut deg_r, &mut deg_c, &mut q1_rows, &mut q1_cols);
                matched_random = true;
                break;
            }
        }
        if !matched_random && q1_rows.is_empty() && q1_cols.is_empty() {
            break;
        }
    }
    m
}

/// Matches `(r, c)` and decrements the dynamic degrees of their unmatched
/// neighbours, enqueueing the ones that drop to 1.
#[allow(clippy::too_many_arguments)]
fn do_match(
    m: &mut Matching,
    a: CscView<'_>,
    at: &Csc,
    r: Vidx,
    c: Vidx,
    deg_r: &mut [u32],
    deg_c: &mut [u32],
    q1_rows: &mut VecDeque<Vidx>,
    q1_cols: &mut VecDeque<Vidx>,
) {
    m.add(r, c);
    for &c2 in at.col(r as usize) {
        if !m.col_matched(c2) {
            deg_c[c2 as usize] -= 1;
            if deg_c[c2 as usize] == 1 {
                q1_cols.push_back(c2);
            }
        }
    }
    for &r2 in a.col(c as usize) {
        if !m.row_matched(r2) {
            deg_r[r2 as usize] -= 1;
            if deg_r[r2 as usize] == 1 {
                q1_rows.push_back(r2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{greedy_serial, hopcroft_karp};
    use crate::verify::is_maximal;
    use mcm_sparse::Triples;

    #[test]
    fn result_is_maximal_and_valid() {
        let a = Triples::from_edges(
            5,
            5,
            vec![(0, 0), (0, 1), (1, 0), (2, 2), (3, 2), (3, 3), (1, 3), (4, 4), (0, 4)],
        )
        .to_csc();
        let m = karp_sipser_serial(&a, 1);
        m.validate(&a).unwrap();
        assert!(is_maximal(&a, &m));
    }

    #[test]
    fn degree_one_rule_is_optimal_on_paths() {
        // A path: KS's degree-1 rule finds the perfect matching where plain
        // greedy order can miss it.
        let a = Triples::from_edges(2, 2, vec![(0, 0), (0, 1), (1, 0)]).to_csc();
        let ks = karp_sipser_serial(&a, 3);
        assert_eq!(ks.cardinality(), 2);
    }

    #[test]
    fn beats_or_ties_greedy_on_random_graphs_in_aggregate() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(77);
        let (mut ks_total, mut greedy_total, mut max_total) = (0usize, 0usize, 0usize);
        for _ in 0..20 {
            let n = 40;
            let mut t = Triples::new(n, n);
            for _ in 0..3 * n {
                t.push(rng.below(n as u64) as Vidx, rng.below(n as u64) as Vidx);
            }
            let a = t.to_csc();
            let ks = karp_sipser_serial(&a, 5);
            ks.validate(&a).unwrap();
            assert!(is_maximal(&a, &ks));
            ks_total += ks.cardinality();
            greedy_total += greedy_serial(&a).cardinality();
            max_total += hopcroft_karp(&a, None).cardinality();
        }
        assert!(ks_total >= greedy_total, "KS {ks_total} vs greedy {greedy_total}");
        // ≥ 1/2-approximation in aggregate, usually much closer to optimal.
        assert!(2 * ks_total >= max_total);
    }
}
