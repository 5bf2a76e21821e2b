//! Structural statistics for graphs/matrices.
//!
//! Backs Table II of the paper (matrix inventory: dimensions, nonzero
//! counts) and the DESIGN.md claims about the stand-in generators (degree
//! skew, empty rows/columns, average degree).

use crate::{CscView, Triples};

/// Summary statistics of a pattern matrix / bipartite graph.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixStats {
    /// Number of row vertices.
    pub nrows: usize,
    /// Number of column vertices.
    pub ncols: usize,
    /// Number of edges (nonzeros).
    pub nnz: usize,
    /// Average nonzeros per row.
    pub avg_row_degree: f64,
    /// Average nonzeros per column.
    pub avg_col_degree: f64,
    /// Largest row degree.
    pub max_row_degree: usize,
    /// Largest column degree.
    pub max_col_degree: usize,
    /// Rows with no nonzeros (structurally unmatchable row vertices).
    pub empty_rows: usize,
    /// Columns with no nonzeros.
    pub empty_cols: usize,
}

impl MatrixStats {
    /// Computes statistics from a CSC matrix, owned ([`Csc`](crate::Csc))
    /// or borrowed ([`CscView`], such as a mapped MCSB file's).
    pub fn from_csc<'a>(a: impl Into<CscView<'a>>) -> Self {
        let a = a.into();
        let cd: Vec<usize> = (0..a.ncols()).map(|j| a.col_nnz(j)).collect();
        let mut rd = vec![0usize; a.nrows()];
        for &i in a.rowind() {
            rd[i as usize] += 1;
        }
        let nnz = a.nnz();
        Self {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz,
            avg_row_degree: if a.nrows() == 0 { 0.0 } else { nnz as f64 / a.nrows() as f64 },
            avg_col_degree: if a.ncols() == 0 { 0.0 } else { nnz as f64 / a.ncols() as f64 },
            max_row_degree: rd.iter().copied().max().unwrap_or(0),
            max_col_degree: cd.iter().copied().max().unwrap_or(0),
            empty_rows: rd.iter().filter(|&&d| d == 0).count(),
            empty_cols: cd.iter().filter(|&&d| d == 0).count(),
        }
    }

    /// Computes statistics from a triple list (deduplicating first).
    pub fn from_triples(t: &Triples) -> Self {
        Self::from_csc(&t.to_csc())
    }
}

/// Degree histogram in powers of two: bucket `k` counts vertices of degree
/// in `[2^k, 2^{k+1})`; bucket for degree 0 is separate. Used to sanity-check
/// that G500-style stand-ins are skewed and ER ones are not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// Vertices with degree zero.
    pub zeros: usize,
    /// `buckets[k]` counts vertices with degree in `[2^k, 2^{k+1})`.
    pub buckets: Vec<usize>,
}

impl DegreeHistogram {
    /// Builds the histogram from per-vertex degrees.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        let mut h = DegreeHistogram::default();
        for &d in degrees {
            if d == 0 {
                h.zeros += 1;
            } else {
                let k = (31 - d.leading_zeros()) as usize;
                if h.buckets.len() <= k {
                    h.buckets.resize(k + 1, 0);
                }
                h.buckets[k] += 1;
            }
        }
        h
    }

    /// A crude skewness proxy: max degree divided by mean degree; heavy
    /// tails (G500) yield large values, uniform graphs (ER) small ones.
    pub fn skew(degrees: &[u32]) -> f64 {
        let n = degrees.len();
        if n == 0 {
            return 0.0;
        }
        let sum: u64 = degrees.iter().map(|&d| d as u64).sum();
        if sum == 0 {
            return 0.0;
        }
        let mean = sum as f64 / n as f64;
        let max = *degrees.iter().max().unwrap() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triples;

    #[test]
    fn stats_basic() {
        let t = Triples::from_edges(3, 4, vec![(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]);
        let s = MatrixStats::from_triples(&t);
        assert_eq!(s.nnz, 5);
        assert_eq!(s.max_row_degree, 3);
        assert_eq!(s.max_col_degree, 2);
        assert_eq!(s.empty_rows, 1); // row 2
        assert_eq!(s.empty_cols, 1); // col 3
        assert!((s.avg_row_degree - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let h = DegreeHistogram::from_degrees(&[0, 1, 1, 2, 3, 4, 8, 9]);
        assert_eq!(h.zeros, 1);
        assert_eq!(h.buckets, vec![2, 2, 1, 2]); // [1,2): 2, [2,4): 2, [4,8): 1, [8,16): 2
    }

    #[test]
    fn skew_detects_heavy_tail() {
        let uniform = vec![10u32; 100];
        let mut skewed = vec![1u32; 99];
        skewed.push(1000);
        assert!(DegreeHistogram::skew(&uniform) < 1.5);
        assert!(DegreeHistogram::skew(&skewed) > 50.0);
    }
}
