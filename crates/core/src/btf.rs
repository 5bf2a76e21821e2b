//! Block triangular form (fine Dulmage–Mendelsohn decomposition).
//!
//! For a structurally nonsingular square matrix, sparse direct solvers go
//! one step beyond the zero-free diagonal the matching provides: permuting
//! rows *and* columns so the matrix is **block upper triangular** lets the
//! solver factorize only the diagonal blocks. The construction is the
//! classic one (Duff/Reid `MC13`, Pothen–Fan): with a perfect matching `M`,
//! build the directed graph on columns with an arc `c → c'` whenever row
//! `mate(c)` has a nonzero in column `c'`; the strongly connected
//! components of that digraph, in reverse topological order, are the
//! diagonal blocks.
//!
//! This is the "fine" decomposition of the square DM part; [`crate::dm`]
//! provides the coarse one.

use crate::matching::Matching;
use mcm_sparse::{CscView, Vidx};

/// A block-triangular permutation of a square, structurally nonsingular
/// matrix.
#[derive(Clone, Debug)]
pub struct Btf {
    /// Column order: `col_order[k]` is the original column at permuted
    /// position `k`. Rows follow their matched columns (`mate_c`), keeping
    /// the diagonal zero-free.
    pub col_order: Vec<Vidx>,
    /// Row order aligned with `col_order` through the matching.
    pub row_order: Vec<Vidx>,
    /// Block boundaries: block `b` spans permuted positions
    /// `block_ptr[b]..block_ptr[b + 1]`.
    pub block_ptr: Vec<usize>,
}

impl Btf {
    /// Number of diagonal blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// Size of the largest diagonal block (the factorization bottleneck).
    pub fn max_block(&self) -> usize {
        (0..self.num_blocks()).map(|b| self.block_ptr[b + 1] - self.block_ptr[b]).max().unwrap_or(0)
    }
}

/// Computes the block triangular form of a square matrix from a **perfect**
/// matching.
///
/// # Panics
/// Panics when the matrix is not square or the matching is not perfect
/// (run [`crate::dm::dulmage_mendelsohn`] first for the general case).
///
/// # Example
///
/// ```
/// use mcm_core::btf::block_triangular_form;
/// use mcm_core::serial::hopcroft_karp;
/// use mcm_sparse::Triples;
///
/// // Diagonal + superdiagonal: already triangular, n singleton blocks.
/// let a = Triples::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]).to_csc();
/// let m = hopcroft_karp(&a, None);
/// let btf = block_triangular_form(&a, &m);
/// assert_eq!(btf.num_blocks(), 3);
/// assert_eq!(btf.max_block(), 1);
/// ```
pub fn block_triangular_form<'a>(a: impl Into<CscView<'a>>, m: &Matching) -> Btf {
    let a = a.into();
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "BTF requires a square matrix");
    assert_eq!(m.cardinality(), n, "BTF requires a perfect matching");

    // Tarjan's SCC over the implicit column digraph: c → c' iff
    // A(mate_c(c), c') != 0 and c' != c. Iterative to survive deep chains.
    // SCCs pop in reverse topological order, which is exactly the diagonal
    // block order for an upper triangular arrangement.
    let at = a.transpose(); // row adjacency: at.col(r) = columns of row r
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<Vidx> = Vec::new();
    let mut next_index = 0u32;

    let mut col_order: Vec<Vidx> = Vec::with_capacity(n);
    let mut block_ptr = vec![0usize];

    // Explicit DFS frames: (column, adjacency cursor).
    let mut frames: Vec<(Vidx, usize)> = Vec::new();
    for start in 0..n as Vidx {
        if index[start as usize] != UNSET {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (c, ref mut cursor)) = frames.last_mut() {
            let r = m.mate_c.get(c); // pivot row of column c
            let adj = at.col(r as usize);
            if *cursor < adj.len() {
                let c2 = adj[*cursor];
                *cursor += 1;
                if c2 == c {
                    continue; // the diagonal (matched) entry
                }
                if index[c2 as usize] == UNSET {
                    index[c2 as usize] = next_index;
                    lowlink[c2 as usize] = next_index;
                    next_index += 1;
                    stack.push(c2);
                    on_stack[c2 as usize] = true;
                    frames.push((c2, 0));
                } else if on_stack[c2 as usize] {
                    lowlink[c as usize] = lowlink[c as usize].min(index[c2 as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[c as usize]);
                }
                if lowlink[c as usize] == index[c as usize] {
                    // c is an SCC root: pop the component.
                    loop {
                        let v = stack.pop().expect("SCC stack underflow");
                        on_stack[v as usize] = false;
                        col_order.push(v);
                        if v == c {
                            break;
                        }
                    }
                    block_ptr.push(col_order.len());
                }
            }
        }
    }

    // Tarjan emits components sinks-first (reverse topological order);
    // upper triangular wants sources first, so flip blocks and entries.
    col_order.reverse();
    let total = *block_ptr.last().unwrap();
    let sizes: Vec<usize> = block_ptr.windows(2).rev().map(|w| w[1] - w[0]).collect();
    let mut block_ptr = Vec::with_capacity(sizes.len() + 1);
    block_ptr.push(0);
    let mut acc = 0;
    for s in sizes {
        acc += s;
        block_ptr.push(acc);
    }
    debug_assert_eq!(acc, total);

    let row_order = col_order.iter().map(|&c| m.mate_c.get(c)).collect();
    Btf { col_order, row_order, block_ptr }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use mcm_sparse::{Csc, Triples};

    fn btf_of(t: &Triples) -> (Csc, Matching, Btf) {
        let a = t.to_csc();
        let m = hopcroft_karp(&a, None);
        let b = block_triangular_form(&a, &m);
        (a, m, b)
    }

    /// Asserts the permuted matrix is block upper triangular with a
    /// zero-free diagonal.
    fn assert_block_upper_triangular(a: &Csc, btf: &Btf) {
        let n = a.ncols();
        // position of each original row/col in the permuted order
        let mut row_pos = vec![0usize; n];
        let mut col_pos = vec![0usize; n];
        for (k, (&r, &c)) in btf.row_order.iter().zip(&btf.col_order).enumerate() {
            row_pos[r as usize] = k;
            col_pos[c as usize] = k;
        }
        // block id of each permuted position
        let mut block_of = vec![0usize; n];
        for b in 0..btf.num_blocks() {
            for k in btf.block_ptr[b]..btf.block_ptr[b + 1] {
                block_of[k] = b;
            }
        }
        // Diagonal is zero-free by construction.
        for k in 0..n {
            assert!(a.contains(btf.row_order[k], btf.col_order[k] as usize));
        }
        // Every entry lies on or above the block diagonal.
        for (r, c) in a.iter() {
            let (br, bc) = (block_of[row_pos[r as usize]], block_of[col_pos[c as usize]]);
            assert!(br <= bc, "entry ({r},{c}) falls below the block diagonal ({br} > {bc})");
        }
    }

    #[test]
    fn diagonal_matrix_gives_singleton_blocks() {
        let t = Triples::from_edges(3, 3, vec![(0, 0), (1, 1), (2, 2)]);
        let (a, _, btf) = btf_of(&t);
        assert_eq!(btf.num_blocks(), 3);
        assert_eq!(btf.max_block(), 1);
        assert_block_upper_triangular(&a, &btf);
    }

    #[test]
    fn cycle_is_one_block() {
        // Column digraph cycle: c0 → c1 → c2 → c0.
        let t = Triples::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]);
        let (a, _, btf) = btf_of(&t);
        assert_eq!(btf.num_blocks(), 1);
        assert_eq!(btf.max_block(), 3);
        assert_block_upper_triangular(&a, &btf);
    }

    #[test]
    fn chain_gives_triangular_singletons() {
        // Already upper triangular: diagonal + superdiagonal.
        let n = 10;
        let mut t = Triples::new(n, n);
        for i in 0..n as Vidx {
            t.push(i, i);
            if (i as usize) + 1 < n {
                t.push(i, i + 1);
            }
        }
        let (a, _, btf) = btf_of(&t);
        assert_eq!(btf.num_blocks(), n);
        assert_block_upper_triangular(&a, &btf);
    }

    #[test]
    fn kkt_matrix_btf_holds() {
        let t = mcm_gen_free_kkt();
        let (a, _, btf) = btf_of(&t);
        assert!(btf.num_blocks() >= 1);
        assert_block_upper_triangular(&a, &btf);
    }

    /// Small KKT-like structurally nonsingular matrix without depending on
    /// mcm-gen (dev-dependency direction).
    fn mcm_gen_free_kkt() -> Triples {
        let mut t = Triples::new(8, 8);
        for i in 0..6 as Vidx {
            t.push(i, i);
            if i + 1 < 6 {
                t.push(i, i + 1);
                t.push(i + 1, i);
            }
        }
        // two constraint rows/cols with zero diagonal, representative cols 0, 3
        t.push(6, 0);
        t.push(0, 6);
        t.push(7, 3);
        t.push(3, 7);
        t
    }

    #[test]
    fn random_nonsingular_matrices() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(909);
        for _ in 0..30 {
            let n = 4 + (rng.next_u64() % 30) as usize;
            let mut t = Triples::new(n, n);
            // Full diagonal guarantees a perfect matching...
            for i in 0..n as Vidx {
                t.push(i, i);
            }
            // ...plus random off-diagonal structure.
            for _ in 0..2 * n {
                t.push(rng.below(n as u64) as Vidx, rng.below(n as u64) as Vidx);
            }
            let (a, _, btf) = btf_of(&t);
            assert_block_upper_triangular(&a, &btf);
            // Block sizes partition n.
            assert_eq!(*btf.block_ptr.last().unwrap(), n);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_imperfect_matching() {
        let t = Triples::from_edges(2, 2, vec![(0, 0), (0, 1)]);
        let a = t.to_csc();
        let m = hopcroft_karp(&a, None); // cardinality 1 < 2
        let _ = block_triangular_form(&a, &m);
    }
}
