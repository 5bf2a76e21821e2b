//! # mcm-bench — harness utilities for regenerating the paper's evaluation
//!
//! Shared plumbing for the `figures` binary (Table II and Figs. 3–9 of Azad
//! & Buluç, IPDPS 2016, checked against `crates/bench/goldens/`; DESIGN.md
//! §4) and the Criterion benches in `benches/`: simulated MCM-DIST runs with
//! modeled times, the [`Report`] and its golden check, and synthetic
//! augmenting paths for the augmentation ablation.

use mcm_bsp::{DistCtx, Kernel, MachineConfig, Timers};
use mcm_core::{maximum_matching, Matching, McmOptions, McmStats, Start};
use mcm_sparse::{DenseVec, Triples, Vidx};
use std::path::Path;

/// `"<cores> cores, <CPU model>, <OS>"`: the host line of a BENCH record.
pub fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    format!("{cores} cores, {model}, {}", std::env::consts::OS)
}

/// The checkout's commit, `-dirty` when the tree has local edits: the
/// commit line of a BENCH record.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A `/proc/self/status` size field (`key` such as `"VmRSS:"` or
/// `"VmHWM:"`) in bytes; `None` where the file or the field is missing.
pub fn proc_status_bytes(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse::<u64>().ok().map(|kb| kb * 1024)
}

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
/// The stand-in is charged as if each edge/vertex represented `work_scale`
/// paper-scale ones (see `DistCtx::work_scale`; 1.0 charges it at face
/// value). Figure harnesses pass `paper_nnz / standin_nnz`.
pub fn run_mcm_scaled(
    cfg: MachineConfig,
    t: &Triples,
    opts: &McmOptions,
    work_scale: f64,
) -> RunOutcome {
    let mut ctx = DistCtx::new(cfg).with_work_scale(work_scale);
    let a = t.to_csc();
    let result = maximum_matching(&mut ctx, &a.view(), Start::Cold, opts);
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

/// One regenerated table or figure: a title, an aligned table that is also
/// written as CSV, and notes printed under it (summary numbers and the
/// paper's shape to check). The table and the notes are pinned by goldens.
pub struct Report {
    name: String,
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report with the given figure name, title and column header.
    pub fn new(name: &str, title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Appends one line to print under the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the title and the aligned table to stdout.
    fn print(&self) {
        println!("{}\n", self.title);
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

    /// Prints the report, writes `<out>/<name>.csv` and `<name>.txt` (the
    /// notes), and compares both with the goldens of the same names in
    /// `goldens`. A difference is described by the
    /// figure, the row (the header is row 0) and the column, or the notes
    /// line.
    pub fn finish(&self, out: &Path, goldens: &Path) -> Result<(), String> {
        self.print();
        let csv: String = std::iter::once(&self.header)
            .chain(&self.rows)
            .map(|cells| cells.join(",") + "\n")
            .collect();
        let notes: String = self.notes.iter().map(|l| format!("{l}\n")).collect();
        let file = |dir: &Path, ext: &str| dir.join(format!("{}.{ext}", self.name));
        let written = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(file(out, "csv"), &csv))
            .and_then(|()| std::fs::write(file(out, "txt"), &notes));
        match written {
            Ok(()) => println!("\n[csv] {}", file(out, "csv").display()),
            Err(e) => eprintln!("\n[csv] write failed: {e}"),
        }
        if !notes.is_empty() {
            print!("\n{notes}");
        }

        let golden = |ext: &str| {
            std::fs::read_to_string(file(goldens, ext))
                .map_err(|e| format!("{}: {e}", file(goldens, ext).display()))
        };
        let want_csv = golden("csv")?;
        if let Some((r, want, got)) = first_diff(&want_csv, &csv) {
            let want: Vec<&str> = want.map_or(Vec::new(), |l| l.split(',').collect());
            let got: Vec<&str> = got.map_or(Vec::new(), |l| l.split(',').collect());
            let c =
                (0..want.len().max(got.len())).find(|&c| want.get(c) != got.get(c)).unwrap_or(0);
            let column = want_csv.lines().next().and_then(|h| h.split(',').nth(c)).unwrap_or("?");
            let (w, g) = (want.get(c).unwrap_or(&"(none)"), got.get(c).unwrap_or(&"(none)"));
            return Err(format!(
                "{} row {r} column `{column}`: golden `{w}`, got `{g}`",
                self.name
            ));
        }
        if let Some((k, want, got)) = first_diff(&golden("txt")?, &notes) {
            return Err(format!(
                "{} note line {}: golden `{}`, got `{}`",
                self.name,
                k + 1,
                want.unwrap_or("(none)"),
                got.unwrap_or("(none)")
            ));
        }
        Ok(())
    }
}

/// The first line where `want` and `got` differ: its index and both lines.
fn first_diff<'a>(
    want: &'a str,
    got: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut w, mut g) = (want.lines(), got.lines());
    (0..)
        .map(|k| (k, w.next(), g.next()))
        .take_while(|(_, a, b)| a.is_some() || b.is_some())
        .find(|(_, a, b)| a != b)
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

/// Percentage share of `kernel` in the total modeled time.
pub fn share(timers: &Timers, kernel: Kernel) -> f64 {
    percent(timers.seconds(kernel), timers.total())
}

/// Modeled MCM-phase seconds of a run: total minus initialization. The
/// paper's Figs. 4–8 report the MCM algorithm itself (the initializer
/// trade-off is Fig. 3's subject), so the scaling harnesses use this.
pub fn mcm_time(out: &RunOutcome) -> f64 {
    (out.modeled_s - out.timers.seconds(Kernel::Init)).max(0.0)
}

/// Percentage share of `kernel` within the MCM phase (init excluded).
pub fn share_mcm(timers: &Timers, kernel: Kernel) -> f64 {
    percent(timers.seconds(kernel), timers.total() - timers.seconds(Kernel::Init))
}

fn percent(part: f64, total: f64) -> f64 {
    if total <= 0.0 {
        0.0
    } else {
        100.0 * part / total
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
        let out = run_mcm_scaled(MachineConfig::hybrid(2, 2), &t, &McmOptions::default(), 1.0);
        let a = t.to_csc();
        let serial = mcm_core::serial::hopcroft_karp(&a, None);
        assert_eq!(out.cardinality, serial.cardinality());
        assert!(is_maximum(&a, &serial));
        assert!(out.modeled_s > 0.0);
    }

    #[test]
    fn report_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mcm-bench-report-{}", std::process::id()));
        let (goldens, out) = (dir.join("goldens"), dir.join("out"));
        let report = |cells: [&str; 2], rows: usize, note: &str| {
            let mut r = Report::new("test_report", "Test", &["a", "b"]);
            (0..rows).for_each(|_| r.row(cells.iter().map(|c| c.to_string()).collect()));
            r.note(note);
            r
        };
        // Written files double as goldens, and match themselves.
        assert_eq!(report(["1", "2"], 1, "sum 3").finish(&goldens, &goldens), Ok(()));
        assert_eq!(std::fs::read_to_string(goldens.join("test_report.csv")).unwrap(), "a,b\n1,2\n");
        assert_eq!(std::fs::read_to_string(goldens.join("test_report.txt")).unwrap(), "sum 3\n");

        // Each difference names the figure and where it is.
        for (r, want) in [
            (report(["1", "3"], 1, "sum 3"), "test_report row 1 column `b`: golden `2`, got `3`"),
            (
                report(["1", "2"], 2, "sum 3"),
                "test_report row 2 column `a`: golden `(none)`, got `1`",
            ),
            (
                report(["1", "2"], 1, "sum 4"),
                "test_report note line 1: golden `sum 3`, got `sum 4`",
            ),
        ] {
            assert_eq!(r.finish(&out, &goldens), Err(want.to_string()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
