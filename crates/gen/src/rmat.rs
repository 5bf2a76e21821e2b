//! The Recursive MATrix (RMAT) generator.
//!
//! §V-B of the paper: *"we used RMAT, the Recursive MATrix generator to
//! generate three different classes of synthetic matrices: (a) G500 ...
//! (b) SSCA ... and (c) ER ... We use the following RMAT seed parameters:
//! (a) a=.57, b=c=.19, and d=.05 for G500, (b) a=.6, b=c=d=.4/3 for SSCA,
//! and (c) a=b=c=d=.25 for ER. A scale n synthetic matrix is 2^n-by-2^n.
//! On average, G500 and ER matrices have 32 nonzeros, and SSCA matrices
//! have 16 nonzeros per row and column."*

use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Triples, Vidx};

/// RMAT quadrant probabilities plus size parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Probability of the bottom-right quadrant.
    pub d: f64,
    /// The matrix is `2^scale × 2^scale`.
    pub scale: u32,
    /// Edges generated = `edge_factor · 2^scale` (before deduplication).
    pub edge_factor: usize,
}

impl RmatParams {
    /// Graph 500 parameters: skewed degree distribution, 32 edges/vertex.
    pub fn g500(scale: u32) -> Self {
        rmat_profile("g500").unwrap().params(scale)
    }

    /// HPCS SSCA#2 parameters: mildly skewed, 16 edges/vertex.
    pub fn ssca(scale: u32) -> Self {
        rmat_profile("ssca").unwrap().params(scale)
    }

    /// Erdős–Rényi via uniform quadrants: flat degree distribution,
    /// 32 edges/vertex.
    pub fn er(scale: u32) -> Self {
        rmat_profile("er").unwrap().params(scale)
    }

    /// Matrix dimension `2^scale`.
    pub fn n(&self) -> usize {
        1usize << self.scale
    }

    fn validate(&self) {
        let sum = self.a + self.b + self.c + self.d;
        assert!((sum - 1.0).abs() < 1e-9, "RMAT quadrant probabilities must sum to 1, got {sum}");
        assert!(
            [self.a, self.b, self.c, self.d].iter().all(|&q| q >= 0.0),
            "RMAT quadrant probabilities must be nonnegative"
        );
        assert!(self.scale >= 1 && self.scale < 31, "scale must be in 1..31");
    }
}

/// A named RMAT parameter profile: quadrant probabilities plus edge factor,
/// without a scale. One table serves every consumer — the in-RAM Table II
/// stand-ins (`realistic.rs`), the streaming MCSB writer behind
/// `mcm gen --format mcsb`, and anything else that wants "the wikipedia
/// shape at scale N" — so the numbers exist in exactly one place.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatProfile {
    /// Profile name (the UF matrix the shape imitates, or a family name).
    pub name: &'static str,
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
    /// Edges sampled per vertex.
    pub edge_factor: usize,
}

impl RmatProfile {
    /// Instantiates the profile at a concrete scale.
    pub fn params(&self, scale: u32) -> RmatParams {
        RmatParams {
            a: self.a,
            b: self.b,
            c: self.c,
            d: self.d,
            scale,
            edge_factor: self.edge_factor,
        }
    }
}

/// The named profiles: the three paper families (§V-B) plus the four
/// power-law Table II stand-ins that are RMAT-shaped.
pub const RMAT_PROFILES: &[RmatProfile] = &[
    RmatProfile { name: "g500", a: 0.57, b: 0.19, c: 0.19, d: 0.05, edge_factor: 32 },
    RmatProfile { name: "ssca", a: 0.6, b: 0.4 / 3.0, c: 0.4 / 3.0, d: 0.4 / 3.0, edge_factor: 16 },
    RmatProfile { name: "er", a: 0.25, b: 0.25, c: 0.25, d: 0.25, edge_factor: 32 },
    RmatProfile { name: "cit-Patents", a: 0.45, b: 0.22, c: 0.22, d: 0.11, edge_factor: 6 },
    RmatProfile { name: "ljournal-2008", a: 0.52, b: 0.2, c: 0.2, d: 0.08, edge_factor: 14 },
    RmatProfile { name: "wb-edu", a: 0.57, b: 0.19, c: 0.19, d: 0.05, edge_factor: 10 },
    RmatProfile { name: "wikipedia-20070206", a: 0.55, b: 0.2, c: 0.2, d: 0.05, edge_factor: 12 },
];

/// Looks up a named profile from [`RMAT_PROFILES`].
pub fn rmat_profile(name: &str) -> Option<&'static RmatProfile> {
    RMAT_PROFILES.iter().find(|p| p.name == name)
}

/// Samples one edge by recursive quadrant descent.
///
/// Each level draws the noise and the uniform `r` and picks the quadrant
/// from three compares against the running sums `a`, `a + b`, `a + b + c`,
/// turned into the two coordinate bits without a branch: G500's skewed
/// odds (.57/.19/.19/.05) would defeat a branch predictor on every level.
/// With `b, c ≥ 0` (checked by `validate`) the sums are monotone, so this
/// picks what an `if`/`else if` chain over the same float expressions
/// picks; the tests pin the two together.
#[inline]
fn sample_edge(p: &RmatParams, rng: &mut SplitMix64) -> (Vidx, Vidx) {
    let (mut i, mut j) = (0u32, 0u32);
    // Per-level parameter noise (±10%) as in the Graph500 reference
    // implementation, which prevents exact self-similarity artifacts.
    for _ in 0..p.scale {
        let noise = 0.9 + 0.2 * rng.next_f64();
        let (a, b, c) = (p.a * noise, p.b, p.c);
        let total = a + b + c + p.d * (2.0 - noise);
        let r = rng.next_f64() * total;
        let ge_a = r >= a;
        let ge_ab = r >= a + b;
        let ge_abc = r >= a + b + c;
        // Quadrants in order: top-left, top-right (j), bottom-left (i),
        // bottom-right (both).
        i = (i << 1) | ge_ab as u32;
        j = (j << 1) | ((ge_a & !ge_ab) | ge_abc) as u32;
    }
    (i, j)
}

/// Generates an RMAT matrix: `edge_factor · 2^scale` samples, deduplicated.
///
/// Sampling is embarrassingly parallel (`mcm-par`) with per-chunk SplitMix64
/// streams derived from `seed`, so the result is deterministic regardless of
/// thread count.
///
/// # Example
///
/// ```
/// use mcm_gen::rmat::{rmat, RmatParams};
///
/// let g = rmat(RmatParams::g500(8), 42); // 256 x 256, skewed degrees
/// assert_eq!(g.nrows(), 256);
/// assert_eq!(g, rmat(RmatParams::g500(8), 42)); // deterministic in the seed
/// ```
pub fn rmat(p: RmatParams, seed: u64) -> Triples {
    p.validate();
    let n = p.n();
    let mut edges: Vec<(Vidx, Vidx)> = Vec::with_capacity(p.edge_factor * n);
    stream_edges(&p, seed, |chunk| edges.extend_from_slice(chunk));
    let mut t = Triples::from_edges(n, n, edges);
    t.sort_dedup();
    t
}

/// Sampling chunk size shared by [`rmat`] and [`stream_edges`]. The
/// per-chunk SplitMix64 seed is a pure function of (`seed`, chunk index),
/// so the two entry points produce the identical edge stream.
const CHUNK: usize = 1 << 16;

/// Streams the RMAT edge list to `sink` in chunks without materializing it.
///
/// The edges delivered (values and order) are exactly those [`rmat`]
/// deduplicates into a [`Triples`], so an out-of-core consumer (the MCSB
/// stream writer behind `mcm gen --format mcsb`) sees the same graph as the
/// in-RAM generator. Chunks are *sampled* in parallel (`mcm-par`) a batch at
/// a time, so peak memory is `O(threads · CHUNK)` edges regardless of scale.
pub fn stream_edges(p: &RmatParams, seed: u64, mut sink: impl FnMut(&[(Vidx, Vidx)])) {
    p.validate();
    let m = p.edge_factor * p.n();
    let chunks = m.div_ceil(CHUNK);
    let threads = mcm_par::max_threads();
    let batch = threads.max(1) * 4;
    let mut next = 0usize;
    while next < chunks {
        let take = batch.min(chunks - next);
        let base = next;
        let sampled: Vec<Vec<(Vidx, Vidx)>> = mcm_par::par_map_range(take, threads, |k| {
            let chunk = base + k;
            let mut rng = SplitMix64::new(
                seed ^ (0x9E37_79B9 + chunk as u64).wrapping_mul(0xABCD_EF12_3456_789B),
            );
            let count = CHUNK.min(m - chunk * CHUNK);
            (0..count).map(|_| sample_edge(p, &mut rng)).collect::<Vec<_>>()
        });
        for chunk in &sampled {
            sink(chunk);
        }
        next += take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::stats::{DegreeHistogram, MatrixStats};

    #[test]
    fn dimensions_and_density() {
        let t = rmat(RmatParams::er(10), 1);
        assert_eq!(t.nrows(), 1024);
        assert_eq!(t.ncols(), 1024);
        // 32 * 1024 samples minus duplicates: still well above 20/row.
        let s = MatrixStats::from_triples(&t);
        assert!(s.avg_row_degree > 20.0, "avg degree {}", s.avg_row_degree);
    }

    #[test]
    fn deterministic_across_calls() {
        let a = rmat(RmatParams::g500(8), 42);
        let b = rmat(RmatParams::g500(8), 42);
        assert_eq!(a, b);
        let c = rmat(RmatParams::g500(8), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn g500_is_more_skewed_than_er() {
        let g = rmat(RmatParams::g500(11), 7);
        let e = rmat(RmatParams::er(11), 7);
        let gs = DegreeHistogram::skew(&g.to_csc().row_degrees());
        let es = DegreeHistogram::skew(&e.to_csc().row_degrees());
        assert!(gs > 2.0 * es, "expected G500 skew ({gs:.1}) well above ER skew ({es:.1})");
    }

    #[test]
    fn ssca_has_half_the_edges() {
        let s = rmat(RmatParams::ssca(10), 3);
        let e = rmat(RmatParams::er(10), 3);
        let ss = MatrixStats::from_triples(&s);
        let es = MatrixStats::from_triples(&e);
        assert!(ss.avg_row_degree < 0.7 * es.avg_row_degree);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probabilities() {
        let p = RmatParams { a: 0.5, b: 0.5, c: 0.5, d: 0.5, scale: 4, edge_factor: 4 };
        let _ = rmat(p, 0);
    }

    #[test]
    fn stream_edges_matches_in_ram_generator() {
        // Multiple batches (scale 12 × ef 32 = 131072 samples = 2 chunks at
        // least) and a partial tail chunk must reproduce rmat() exactly.
        for p in [RmatParams::g500(12), RmatParams::ssca(9)] {
            let mut streamed: Vec<(Vidx, Vidx)> = Vec::new();
            stream_edges(&p, 42, |chunk| streamed.extend_from_slice(chunk));
            assert_eq!(streamed.len(), p.edge_factor * p.n());
            let mut t = Triples::from_edges(p.n(), p.n(), streamed);
            t.sort_dedup();
            assert_eq!(t, rmat(p, 42));
        }
    }

    /// The descent as a three-way `if`/`else if` chain, kept to pin the
    /// branch-free [`sample_edge`] to it.
    fn sample_edge_branchy(p: &RmatParams, rng: &mut SplitMix64) -> (Vidx, Vidx) {
        let (mut i, mut j) = (0u32, 0u32);
        for _ in 0..p.scale {
            i <<= 1;
            j <<= 1;
            let noise = 0.9 + 0.2 * rng.next_f64();
            let (a, b, c) = (p.a * noise, p.b, p.c);
            let total = a + b + c + p.d * (2.0 - noise);
            let r = rng.next_f64() * total;
            if r < a {
            } else if r < a + b {
                j |= 1;
            } else if r < a + b + c {
                i |= 1;
            } else {
                i |= 1;
                j |= 1;
            }
        }
        (i, j)
    }

    #[test]
    fn branch_free_descent_equals_the_branchy_one() {
        for profile in RMAT_PROFILES {
            for scale in 1..=12 {
                let p = profile.params(scale);
                for seed in 0..64u64 {
                    let mut fast = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 11);
                    let mut slow = fast.clone();
                    for k in 0..128 {
                        assert_eq!(
                            sample_edge(&p, &mut fast),
                            sample_edge_branchy(&p, &mut slow),
                            "{} scale {scale} seed {seed} sample {k}",
                            profile.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn rejects_negative_probabilities() {
        let p = RmatParams { a: 0.7, b: -0.1, c: 0.2, d: 0.2, scale: 4, edge_factor: 4 };
        let _ = rmat(p, 0);
    }

    #[test]
    fn g500_has_isolated_vertices() {
        // The skewed distribution leaves some rows empty — these make the
        // maximum matching deficient, which is what gives the MCM algorithm
        // real work to do (§V-B selection criterion).
        let t = rmat(RmatParams::g500(12), 5);
        let s = MatrixStats::from_triples(&t);
        assert!(s.empty_rows > 0);
    }
}
