//! # mcm-bench — harness utilities for regenerating the paper's evaluation
//!
//! Each table/figure of Azad & Buluç (IPDPS 2016) has a binary in
//! `src/bin/` (see DESIGN.md §4 for the index); Criterion micro-benches for
//! the kernels and ablations live in `benches/`. This library holds the
//! shared plumbing: running MCM-DIST on a simulated machine and collecting
//! modeled times, aligned-table/CSV emission, and synthetic augmenting-path
//! builders for the augmentation ablation.

use mcm_bsp::{DistCtx, Kernel, MachineConfig, Timers};
use mcm_core::{maximum_matching, Matching, McmOptions, McmStats, SolverPool, Start};
use mcm_sparse::{DenseVec, Triples, Vidx};
use std::io::Write;
use std::path::PathBuf;

/// Outcome of one simulated MCM-DIST run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Modeled elapsed seconds (sum over kernel charges; bulk-synchronous
    /// max-rank accounting happens inside each charge).
    pub modeled_s: f64,
    /// Per-kernel modeled timers.
    pub timers: Timers,
    /// Run counters.
    pub stats: McmStats,
    /// Cardinality of the maximum matching found.
    pub cardinality: usize,
}

/// Runs MCM-DIST on `t` over the machine `cfg` and returns modeled times.
pub fn run_mcm(cfg: MachineConfig, t: &Triples, opts: &McmOptions) -> RunOutcome {
    run_mcm_scaled(cfg, t, opts, 1.0)
}

/// Like [`run_mcm`] with an explicit paper-scale work multiplier: the
/// stand-in is charged as if each edge/vertex represented `work_scale`
/// paper-scale ones (see `DistCtx::work_scale`). Figure harnesses pass
/// `paper_nnz / standin_nnz`.
pub fn run_mcm_scaled(
    cfg: MachineConfig,
    t: &Triples,
    opts: &McmOptions,
    work_scale: f64,
) -> RunOutcome {
    let mut ctx = DistCtx::new(cfg).with_work_scale(work_scale);
    let a = t.to_csc();
    let result = maximum_matching(&mut ctx, &a.view(), Start::Cold, opts, &mut SolverPool::new());
    RunOutcome {
        modeled_s: ctx.timers.total(),
        timers: ctx.timers.clone(),
        stats: result.stats,
        cardinality: result.matching.cardinality(),
    }
}

/// The per-matrix paper-scale multiplier for a Table II stand-in.
pub fn standin_scale(s: &mcm_gen::StandIn, t: &Triples) -> f64 {
    (s.paper_nnz as f64 / t.len().max(1) as f64).max(1.0)
}

/// A simple aligned-text + CSV table emitter. Every figure binary prints the
/// series it regenerates and drops a CSV under `target/figures/`.
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report with the given figure name and column header.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Prints the aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.header));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            println!("{}", line(row));
        }
    }

    /// Writes `target/figures/<name>.csv`; returns the path.
    pub fn write_csv(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()?;
        Ok(path)
    }

    /// Prints the table and persists the CSV, reporting where it went.
    pub fn finish(&self) {
        self.print();
        match self.write_csv() {
            Ok(p) => println!("\n[csv] {}", p.display()),
            Err(e) => eprintln!("\n[csv] write failed: {e}"),
        }
    }
}

/// Builds `k` vertex-disjoint synthetic augmenting paths, each with
/// `half_len` (row, column) pairs to flip, in the exact representation
/// Algorithms 3/4 consume: `path_c[root] = end_row`, parent pointers in
/// `parent_r`, and the partial matching of the interior path edges.
///
/// Path `q` uses columns `q*half_len .. (q+1)*half_len` and the same row
/// range; column `q*half_len` is the root. Returns
/// `(path_c, parent_r, matching)` for an `n × n` instance with
/// `n = k * half_len`.
pub fn synthetic_paths(k: usize, half_len: usize) -> (DenseVec, DenseVec, Matching) {
    assert!(k > 0 && half_len > 0);
    let n = k * half_len;
    let mut path_c = DenseVec::nil(n);
    let mut parent_r = DenseVec::nil(n);
    let mut m = Matching::empty(n, n);
    for q in 0..k {
        let base = (q * half_len) as Vidx;
        // Alternating path: c_base - r_base = c_{base+1} - r_{base+1} = ...
        // ... - r_{base+half_len-1} (unmatched end row).
        for s in 0..half_len as Vidx {
            parent_r.set(base + s, base + s); // r_{base+s} discovered by c_{base+s}
            if s + 1 < half_len as Vidx {
                m.add(base + s, base + s + 1); // matched interior edge
            }
        }
        path_c.set(base, base + half_len as Vidx - 1);
    }
    (path_c, parent_r, m)
}

/// The paper's strong-scaling machine sweep capped at `max_cores`.
pub fn sweep(max_cores: usize) -> Vec<MachineConfig> {
    MachineConfig::paper_sweep(max_cores)
}

/// Percentage share of `kernel` in the total modeled time.
pub fn share(timers: &Timers, kernel: Kernel) -> f64 {
    let total = timers.total();
    if total <= 0.0 {
        0.0
    } else {
        100.0 * timers.seconds(kernel) / total
    }
}

/// Modeled MCM-phase seconds of a run: total minus initialization. The
/// paper's Figs. 4–8 report the MCM algorithm itself (the initializer
/// trade-off is Fig. 3's subject), so the scaling harnesses use this.
pub fn mcm_time(out: &RunOutcome) -> f64 {
    (out.modeled_s - out.timers.seconds(Kernel::Init)).max(0.0)
}

/// Percentage share of `kernel` within the MCM phase (init excluded).
pub fn share_mcm(timers: &Timers, kernel: Kernel) -> f64 {
    let total = timers.total() - timers.seconds(Kernel::Init);
    if total <= 0.0 {
        0.0
    } else {
        100.0 * timers.seconds(kernel) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_core::augment::{augment, AugmentMode};
    use mcm_core::verify::is_maximum;

    #[test]
    fn synthetic_paths_augment_cleanly() {
        let (path_c, parent_r, mut m) = synthetic_paths(3, 4);
        let before = m.cardinality();
        let mut ctx = DistCtx::serial();
        let rep = augment(&mut ctx, AugmentMode::LevelParallel, &path_c, &parent_r, &mut m);
        assert_eq!(rep.paths, 3);
        assert_eq!(rep.levels, 4);
        assert_eq!(m.cardinality(), before + 3);
        // Every vertex of every path is now matched.
        for i in 0..m.n1() as Vidx {
            assert!(m.row_matched(i));
            assert!(m.col_matched(i));
        }
    }

    #[test]
    fn run_mcm_produces_verified_maximum() {
        let t = mcm_gen::mesh::triangulated_grid(12, 12, 3);
        let out = run_mcm(MachineConfig::hybrid(2, 2), &t, &McmOptions::default());
        let a = t.to_csc();
        let serial = mcm_core::serial::hopcroft_karp(&a, None);
        assert_eq!(out.cardinality, serial.cardinality());
        assert!(is_maximum(&a, &serial));
        assert!(out.modeled_s > 0.0);
    }

    #[test]
    fn report_roundtrip() {
        let mut r = Report::new("test_report", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        let path = r.write_csv().unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
    }
}
