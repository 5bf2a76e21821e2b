//! The repair engines behind `mcmd`, and the protocol answers both modes
//! share.
//!
//! [`Repair`] is the one interface the daemon's writer and the stdin
//! session drive: stage runs of updates, close the batch, publish the
//! O(1) scalars of the state, copy the live edges. [`DynMatching`]
//! (maximum cardinality) and [`WDynMatching`] (maximum weight) implement
//! it, and everything else in this crate is generic over it:
//!
//! * [`Admission`] — the one check an update line passes before it is
//!   staged (stdin) or queued (socket): vertices in range, and a weight
//!   other than 1.0 only for an engine that keeps weights;
//! * [`answer_read`] — the one answer to each scalar read verb (`query`,
//!   `state`, `sync`, `stats`, `metrics`) from a [`Published`] state:
//!   taken on demand from the live engine (stdin loop) or published by
//!   the writer (socket readers, snapshot-isolated);
//! * `answer_snapshot` — the one answer to `snapshot <path>`, from an
//!   edge copy the live engine makes on demand (in the daemon, at a
//!   writer barrier).

use crate::proto::Command;
use mcm_dyn::{
    BatchReport, DynMatching, StateSnapshot, WBatchReport, WDynMatching, WStateSnapshot, WUpdate,
};
use mcm_sparse::io::{write_matrix_market_file, write_matrix_market_weighted_file};
use mcm_sparse::{Triples, Vidx};
use std::io::Write;

/// A dynamic matching engine that repairs in batches: what `mcmd` serves.
///
/// A batch is staged in any number of runs and closed once; staging it in
/// pieces gives the same matching and report as staging it whole.
pub trait Repair: Send + 'static {
    /// The O(1) scalars of the state that the read verbs answer from.
    type State: Send + Sync + 'static;
    /// What closing a batch reports.
    type Report;
    /// An owned copy of the live edge set: what `snapshot <path>` writes.
    type Edges: Send + 'static;
    /// Whether the engine keeps edge weights: only then is an insert with
    /// a weight other than 1.0 admitted.
    const WEIGHTED: bool;

    /// Row and column vertex counts.
    fn dims(&self) -> (usize, usize);
    /// Stages one run of updates into the open batch: graph edits only,
    /// no repair. Updates arrive in the weighted vocabulary; an engine
    /// without weights drops them.
    fn stage(&mut self, run: &[WUpdate]);
    /// Closes the open batch: repair, certificate and accounting.
    fn close(&mut self) -> Self::Report;
    /// The `batch ...` line the stdin session prints for a closed batch.
    fn batch_line(report: &Self::Report) -> String;
    /// The scalars of the current state, for publication; O(1).
    fn state(&self) -> Self::State;
    /// Cardinality, weight, edge count, epoch and batch count of a state.
    fn summary(state: &Self::State) -> Summary;
    /// The `stats` response line of a state.
    fn stats_line(state: &Self::State) -> String;
    /// Copies the live edge set, O(n2 + nnz).
    fn edges(&self) -> Self::Edges;
    /// Writes `edges` to `path` as Matrix Market (pattern, or real when
    /// weighted) and returns the edge count.
    fn write(edges: &Self::Edges, path: &str) -> std::io::Result<usize>;
    /// Re-verifies the whole state from scratch: the Berge certificate
    /// for cardinality, ε-CS for weights.
    fn verify(&self) -> Result<(), String>;
}

impl Repair for DynMatching {
    type State = StateSnapshot;
    type Report = BatchReport;
    type Edges = Triples;
    const WEIGHTED: bool = false;

    fn dims(&self) -> (usize, usize) {
        (self.graph().n1(), self.graph().n2())
    }

    fn stage(&mut self, run: &[WUpdate]) {
        DynMatching::stage(self, run);
    }

    fn close(&mut self) -> BatchReport {
        DynMatching::close(self)
    }

    fn batch_line(rep: &BatchReport) -> String {
        format!(
            "batch applied {} dirty {} repaired {} path_edges {} sweeps {} fallback {} \
             cert {:?} seeds {} cardinality {}",
            rep.applied,
            rep.dirty,
            rep.repaired,
            rep.repair_path_edges,
            rep.global_sweeps,
            rep.fallback,
            rep.cert_scope,
            rep.cert_seeds,
            rep.cardinality,
        )
    }

    fn state(&self) -> StateSnapshot {
        self.snapshot_state()
    }

    fn summary(s: &StateSnapshot) -> Summary {
        Summary {
            cardinality: s.cardinality,
            weight: None,
            nnz: s.nnz,
            epoch: s.epoch,
            batches: s.stats.batches as u64,
        }
    }

    /// Asserted by `tests/cli.rs`. The `algo` token names the fallback
    /// engine, warm serial MS-BFS, in `mcm match --algo msbfs`'s spelling;
    /// `dirty` is the running sum of the batches' dirty sets, as on the
    /// weighted line.
    fn stats_line(st: &StateSnapshot) -> String {
        let s = &st.stats;
        format!(
            "stats batches {} updates {} inserts {} deletes {} matched_deletes {} \
             dirty {} immediate {} searches {} repaired {} path_edges {} max_path {} \
             interior {} sweeps {} fallbacks {} cert_seeds {} cardinality {} \
             nnz {} epoch {} incremental {} warm_start {} scanned {} algo msbfs-serial",
            s.batches,
            s.updates,
            s.inserts,
            s.deletes,
            s.matched_deletes,
            s.dirty,
            s.immediate_matches,
            s.local_searches,
            s.repaired,
            s.repair_path_edges,
            s.max_repair_path,
            s.interior_inserts,
            s.global_sweeps,
            s.fallbacks,
            s.cert_seeds,
            st.cardinality,
            st.nnz,
            st.epoch,
            s.batches - s.fallbacks,
            s.fallbacks,
            s.scanned,
        )
    }

    fn edges(&self) -> Triples {
        self.graph().to_triples()
    }

    fn write(edges: &Triples, path: &str) -> std::io::Result<usize> {
        write_matrix_market_file(edges, path).map(|()| edges.len())
    }

    fn verify(&self) -> Result<(), String> {
        self.verify_full().map_err(|e| e.to_string())
    }
}

impl Repair for WDynMatching {
    type State = WStateSnapshot;
    type Report = WBatchReport;
    /// Row count, column count and the `(row, col, weight)` edges,
    /// column-major.
    type Edges = (usize, usize, Vec<(Vidx, Vidx, f64)>);
    const WEIGHTED: bool = true;

    fn dims(&self) -> (usize, usize) {
        (self.graph().n1(), self.graph().n2())
    }

    fn stage(&mut self, run: &[WUpdate]) {
        WDynMatching::stage(self, run);
    }

    fn close(&mut self) -> WBatchReport {
        WDynMatching::close(self)
    }

    fn batch_line(rep: &WBatchReport) -> String {
        format!(
            "batch applied {} dirty {} repaired {} rebids {} budget {} cold {} \
             weight_delta {} weight {} cardinality {} reverse_bids {}",
            rep.applied,
            rep.dirty,
            rep.repaired,
            rep.rebids,
            rep.budget,
            rep.cold,
            rep.weight_delta,
            rep.weight,
            rep.cardinality,
            rep.reverse_bids,
        )
    }

    fn state(&self) -> WStateSnapshot {
        self.snapshot_state()
    }

    fn summary(s: &WStateSnapshot) -> Summary {
        Summary {
            cardinality: s.cardinality,
            weight: Some(s.weight),
            nnz: s.nnz,
            epoch: s.epoch,
            batches: s.stats.batches,
        }
    }

    /// Price-repair counters plus the weight ledger.
    fn stats_line(st: &WStateSnapshot) -> String {
        let s = &st.stats;
        format!(
            "stats batches {} updates {} inserts {} deletes {} matched_deletes {} \
             dirty {} rebids {} incremental {} cold {} budget_exhausted {} weight_gained {} \
             weight_lost {} cardinality {} weight {} nnz {} epoch {} reverse_bids {} algo wauction",
            s.batches,
            s.updates,
            s.inserts,
            s.deletes,
            s.matched_deletes,
            s.dirty_bidders,
            s.rebids,
            s.incremental_batches,
            s.cold_solves,
            s.budget_exhausted,
            s.weight_gained,
            s.weight_lost,
            st.cardinality,
            st.weight,
            st.nnz,
            st.epoch,
            s.reverse_bids,
        )
    }

    fn edges(&self) -> Self::Edges {
        let g = self.graph().cols();
        (g.nrows(), g.ncols(), g.to_weighted_triples())
    }

    fn write((nrows, ncols, edges): &Self::Edges, path: &str) -> std::io::Result<usize> {
        write_matrix_market_weighted_file(*nrows, *ncols, edges, path).map(|()| edges.len())
    }

    fn verify(&self) -> Result<(), String> {
        self.verify_full().map_err(|e| e.to_string())
    }
}

/// Stages `run` into `engine`'s open batch, timed into
/// `mcmd_batch_stage_seconds`: the one staging call of both modes.
pub(crate) fn stage_run<R: Repair>(engine: &mut R, run: &[WUpdate]) {
    let sw = mcm_obs::Stopwatch::new();
    engine.stage(run);
    mcm_obs::observe_ns("mcmd_batch_stage_seconds", &[], sw.elapsed_ns());
}

/// Closes `engine`'s open batch of `size` staged updates, timed into
/// `mcmd_batch_apply_seconds` and counted in `mcmd_batch_size`: the one
/// closing call of both modes.
pub(crate) fn close_batch<R: Repair>(engine: &mut R, size: usize) -> R::Report {
    let sw = mcm_obs::Stopwatch::new();
    let report = engine.close();
    mcm_obs::observe_ns("mcmd_batch_apply_seconds", &[], sw.elapsed_ns());
    mcm_obs::observe_ns("mcmd_batch_size", &[], size as u64);
    report
}

/// Copies `engine`'s live edges for `snapshot`, timed into
/// `mcmd_snapshot_seconds`.
pub(crate) fn copy_edges<R: Repair>(engine: &R) -> R::Edges {
    let _span = mcm_obs::span("mcmd_snapshot");
    let sw = mcm_obs::Stopwatch::new();
    let edges = engine.edges();
    mcm_obs::observe_ns("mcmd_snapshot_seconds", &[], sw.elapsed_ns());
    edges
}

/// `mcmd_request_seconds{verb}` handles, registered on first use (a
/// no-op unless metrics are enabled). A registry lookup takes the global
/// lock and allocates its label strings; an observation on a held handle
/// does neither.
#[derive(Default)]
pub(crate) struct RequestTimers(Vec<(&'static str, mcm_obs::Histogram)>);

impl RequestTimers {
    pub(crate) fn observe(&mut self, verb: &'static str, ns: u64) {
        if !mcm_obs::metrics_enabled() {
            return;
        }
        let i = match self.0.iter().position(|(v, _)| *v == verb) {
            Some(i) => i,
            None => {
                let h = mcm_obs::registry().histogram("mcmd_request_seconds", &[("verb", verb)]);
                self.0.push((verb, h));
                self.0.len() - 1
            }
        };
        self.0[i].1.observe_ns(ns);
    }
}

/// What the writer publishes after each batch; readers answer from this.
pub struct Published<R: Repair> {
    /// Batches applied-and-published so far (0 = the initial state).
    pub seq: u64,
    /// Immutable engine state as of `seq`.
    pub snap: R::State,
}

/// Validates update lines against an engine's shape and kind.
#[derive(Clone, Copy, Debug)]
pub struct Admission {
    n1: usize,
    n2: usize,
    /// Whether the engine keeps edge weights.
    weights: bool,
}

impl Admission {
    /// The admission check for updates to `engine`.
    pub fn of<R: Repair>(engine: &R) -> Admission {
        let (n1, n2) = engine.dims();
        Admission { n1, n2, weights: R::WEIGHTED }
    }

    /// Admits an update command as the update both engines' batches
    /// carry (a missing weight is 1.0): `None` for a command that is not
    /// an update, `Err` with the reason for one that is refused.
    pub fn admit(&self, cmd: &Command) -> Option<Result<WUpdate, String>> {
        let (r, c) = match *cmd {
            Command::Insert(r, c, _) | Command::Delete(r, c) => (r, c),
            _ => return None,
        };
        Some(if r as usize >= self.n1 || c as usize >= self.n2 {
            Err(format!("vertex out of range ({r}, {c})"))
        } else {
            match *cmd {
                Command::Insert(_, _, Some(w)) if !self.weights && w != 1.0 => {
                    Err("weighted insert needs a --weighted daemon".to_string())
                }
                Command::Insert(_, _, w) => Ok(WUpdate::Insert(r, c, w.unwrap_or(1.0))),
                _ => Ok(WUpdate::Delete(r, c)),
            }
        })
    }
}

/// The scalars the read verbs report.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Matching cardinality.
    pub cardinality: usize,
    /// Matching weight (weighted engine only).
    pub weight: Option<f64>,
    /// Live edge count.
    pub nnz: usize,
    /// Overlay compaction epoch.
    pub epoch: u64,
    /// Batches closed so far.
    pub batches: u64,
}

impl Summary {
    /// `" weight <w>"` for the weighted engine, empty otherwise: the field
    /// the weighted protocol adds to cardinality lines.
    pub fn weight_field(&self) -> String {
        self.weight.map(|w| format!(" weight {w}")).unwrap_or_default()
    }
}

/// Answers a scalar read verb (`query`, `state`, `sync`, `stats`,
/// `metrics`) from the published state `p`. Updates, `snapshot` (see
/// `answer_snapshot`) and the session verbs (`quit`, `shutdown`) write
/// nothing: the caller owns them.
pub fn answer_read<R: Repair>(cmd: &Command, p: &Published<R>, out: &mut dyn Write) {
    let (seq, s) = (p.seq, R::summary(&p.snap));
    match cmd {
        Command::Query => writeln!(out, "matching {}{}", s.cardinality, s.weight_field()),
        Command::State => writeln!(
            out,
            "state seq {seq} epoch {} cardinality {} nnz {}{}",
            s.epoch,
            s.cardinality,
            s.nnz,
            s.weight_field()
        ),
        Command::Sync => writeln!(out, "synced seq {seq} cardinality {}", s.cardinality),
        Command::Stats => writeln!(out, "{}", R::stats_line(&p.snap)),
        Command::Metrics => out
            .write_all(mcm_obs::prom::expose(mcm_obs::registry()).as_bytes())
            .and_then(|()| writeln!(out, "# EOF")),
        Command::Insert(..)
        | Command::Delete(..)
        | Command::Snapshot(_)
        | Command::Quit
        | Command::Shutdown => Ok(()),
    }
    .ok();
}

/// Writes `edges` to `path` and answers `snapshot <path> nnz <N>`. A
/// failed write returns its error text, which the caller reports in its
/// mode's error form.
pub(crate) fn answer_snapshot<R: Repair>(
    path: &str,
    edges: &R::Edges,
    out: &mut dyn Write,
) -> Result<(), String> {
    let nnz = R::write(edges, path).map_err(|e| format!("{path}: {e}"))?;
    writeln!(out, "snapshot {path} nnz {nnz}").ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_dyn::{DynOptions, WDynOptions};

    fn card() -> DynMatching {
        DynMatching::new(3, 2, DynOptions::default())
    }

    fn weighted() -> WDynMatching {
        WDynMatching::new(3, 2, WDynOptions::default())
    }

    /// One batch staged whole and closed; its `batch ...` line.
    fn apply<R: Repair>(engine: &mut R, batch: &[WUpdate]) -> String {
        engine.stage(batch);
        R::batch_line(&engine.close())
    }

    #[test]
    fn admission_checks_range_and_weights_once_for_both_engines() {
        let (c, w) = (Admission::of(&card()), Admission::of(&weighted()));
        assert_eq!(card().dims(), (3, 2));
        for a in [c, w] {
            assert!(a.admit(&Command::Query).is_none());
            assert_eq!(
                a.admit(&Command::Insert(3, 0, None)),
                Some(Err("vertex out of range (3, 0)".to_string()))
            );
            assert_eq!(
                a.admit(&Command::Delete(0, 2)),
                Some(Err("vertex out of range (0, 2)".to_string()))
            );
            assert_eq!(a.admit(&Command::Delete(2, 1)), Some(Ok(WUpdate::Delete(2, 1))));
            assert_eq!(
                a.admit(&Command::Insert(2, 1, Some(1.0))),
                Some(Ok(WUpdate::Insert(2, 1, 1.0)))
            );
        }
        assert_eq!(
            c.admit(&Command::Insert(0, 0, Some(5.0))),
            Some(Err("weighted insert needs a --weighted daemon".to_string()))
        );
        assert_eq!(
            w.admit(&Command::Insert(0, 0, Some(5.0))),
            Some(Ok(WUpdate::Insert(0, 0, 5.0)))
        );
        assert_eq!(w.admit(&Command::Insert(0, 0, None)), Some(Ok(WUpdate::Insert(0, 0, 1.0))));
    }

    fn answers<R: Repair>(engine: &R, seq: u64) -> String {
        answers_from(&Published::<R> { seq, snap: engine.state() })
    }

    fn answers_from<R: Repair>(p: &Published<R>) -> String {
        let mut out = Vec::new();
        for cmd in [Command::Query, Command::State, Command::Sync, Command::Stats] {
            answer_read(&cmd, p, &mut out);
        }
        String::from_utf8(out).unwrap()
    }

    fn check_isolation<R: Repair>(mut engine: R) {
        let line = apply(
            &mut engine,
            &[WUpdate::Insert(0, 0, 4.0), WUpdate::Insert(1, 1, 1.0), WUpdate::Insert(2, 0, 1.0)],
        );
        assert!(line.starts_with("batch applied 3 "), "{line}");
        let published = Published::<R> { seq: 1, snap: engine.state() };
        let text = answers_from(&published);
        assert!(text.starts_with("matching 2"), "{text}");
        assert!(text.contains("synced seq 1 cardinality 2\n"), "{text}");
        assert!(text.contains(" nnz 3"), "{text}");
        // A later batch moves the engine but not the published copy.
        apply(&mut engine, &[WUpdate::Delete(0, 0)]);
        assert_ne!(answers(&engine, 1), text);
        assert_eq!(answers_from(&published), text);
    }

    #[test]
    fn published_snapshot_is_isolated_from_later_batches() {
        check_isolation(card());
        check_isolation(weighted());
    }

    fn check_snapshot<R: Repair>(kind: &str, mut engine: R, want: [&str; 3]) {
        apply(&mut engine, &[WUpdate::Insert(2, 1, 3.0), WUpdate::Insert(0, 0, 1.0)]);
        let edges = copy_edges(&engine);
        let path =
            std::env::temp_dir().join(format!("mcm-serve-edges-{kind}-{}.mtx", std::process::id()));
        let path = path.to_str().unwrap();
        let mut out = Vec::new();
        answer_snapshot::<R>(path, &edges, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), format!("snapshot {path} nnz 2\n"));
        assert_eq!(R::summary(&engine.state()).nnz, 2);
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        let body: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(body, want, "{kind}: {text}");
    }

    #[test]
    fn snapshot_writes_the_live_edges_of_either_engine() {
        check_snapshot("card", card(), ["3 2 2", "1 1", "3 2"]);
        check_snapshot("weighted", weighted(), ["3 2 2", "1 1 1", "3 2 3"]);
    }

    #[test]
    fn weighted_answers_carry_the_weight_field() {
        let mut engine = weighted();
        apply(&mut engine, &[WUpdate::Insert(0, 0, 4.0), WUpdate::Insert(1, 1, 2.5)]);
        let text = answers(&engine, 1);
        assert!(text.starts_with("matching 2 weight 6.5\nstate seq 1 epoch 0 "), "{text}");
        assert!(text.contains(" nnz 2 weight 6.5\n"), "{text}");
        assert!(text.trim_end().ends_with("algo wauction"), "{text}");
    }

    #[test]
    fn weighted_batch_and_stats_lines_end_with_the_reverse_bids() {
        let mut engine = weighted();
        apply(
            &mut engine,
            &[WUpdate::Insert(0, 0, 10.0), WUpdate::Insert(0, 1, 8.0), WUpdate::Insert(1, 1, 5.0)],
        );
        // Freed r0 takes c1 by a reverse bid; the displaced r1 retires.
        let line = apply(&mut engine, &[WUpdate::Delete(0, 0)]);
        assert!(line.ends_with(" weight 8 cardinality 1 reverse_bids 2"), "{line}");
        let text = answers(&engine, 1);
        assert!(text.trim_end().ends_with(" reverse_bids 2 algo wauction"), "{text}");
    }

    #[test]
    fn failed_snapshot_write_returns_the_error_text() {
        let mut out = Vec::new();
        let cmd = Command::Snapshot("/nonexistent-dir/x.mtx".to_string());
        let Command::Snapshot(path) = &cmd else { unreachable!() };
        let edges = copy_edges(&card());
        let err = answer_snapshot::<DynMatching>(path, &edges, &mut out).unwrap_err();
        assert!(err.starts_with("/nonexistent-dir/x.mtx: "), "{err}");
        assert!(out.is_empty());
    }
}
