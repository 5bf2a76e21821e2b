//! The engine behind `mcmd`, and the protocol answers both modes share.
//!
//! [`Engine`] (the live engine), [`Snap`] (the O(1) scalars of its state)
//! and `EdgeSet` (an owned copy of its edges) are the only places that
//! ask which engine is running. All else goes through what they hand out:
//!
//! * [`Admission`] — the one check an update line passes before it is
//!   staged (stdin) or queued (socket): vertices in range, and a weight
//!   other than 1.0 only for an engine that keeps weights;
//! * [`answer_read`] — the one answer to each scalar read verb (`query`,
//!   `state`, `sync`, `stats`, `metrics`) from a [`Snap`]: taken on
//!   demand from the live engine (stdin loop) or published by the writer
//!   (socket readers, snapshot-isolated);
//! * `answer_snapshot` — the one answer to `snapshot <path>`, from an
//!   `EdgeSet` the live engine copies on demand (in the daemon, at a
//!   writer barrier).

use crate::proto::Command;
use mcm_dyn::{
    DynMatching, DynStats, StateSnapshot, WDynMatching, WDynStats, WStateSnapshot, WUpdate,
};
use mcm_sparse::io::{write_matrix_market_file, write_matrix_market_weighted_file};
use mcm_sparse::{Triples, Vidx};
use std::io::Write;

/// The engine behind a daemon: cardinality or weighted, one protocol.
pub enum Engine {
    /// Maximum cardinality ([`DynMatching`]).
    Card(Box<DynMatching>),
    /// Maximum weight ([`WDynMatching`]).
    Weighted(Box<WDynMatching>),
}

impl Engine {
    /// Applies one batch, given in the weighted update vocabulary (a
    /// cardinality engine drops the weights), and returns the `batch ...`
    /// report line the stdin loop prints. The same as
    /// [`stage`](Self::stage) then [`close`](Self::close).
    pub fn apply_batch(&mut self, batch: &[WUpdate]) -> String {
        match self {
            Engine::Card(dm) => {
                let rep = dm.apply_batch(batch);
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
            Engine::Weighted(wm) => {
                let rep = wm.apply_batch(batch);
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
        }
    }

    /// Stages one run of updates into the open batch: graph edits only,
    /// no repair (see [`DynMatching::stage`], [`WDynMatching::stage`]).
    pub fn stage(&mut self, run: &[WUpdate]) {
        match self {
            Engine::Card(dm) => dm.stage(run),
            Engine::Weighted(wm) => wm.stage(run),
        }
    }

    /// Closes the open batch: repair, certificate and accounting.
    pub fn close(&mut self) {
        match self {
            Engine::Card(dm) => {
                dm.close();
            }
            Engine::Weighted(wm) => {
                wm.close();
            }
        }
    }

    /// The scalars of the current state, for publication; O(1).
    pub fn snapshot(&self) -> Snap {
        match self {
            Engine::Card(dm) => Snap::Card(dm.snapshot_state()),
            Engine::Weighted(wm) => Snap::Weighted(wm.snapshot_state()),
        }
    }

    /// An owned copy of the live edge set, O(n2 + nnz): what `snapshot`
    /// writes. Timed into `mcmd_snapshot_seconds`.
    pub(crate) fn edges(&self) -> EdgeSet {
        let _span = mcm_obs::span("mcmd_snapshot");
        let sw = mcm_obs::Stopwatch::new();
        let edges = match self {
            Engine::Card(dm) => EdgeSet::Card(dm.graph().to_triples()),
            Engine::Weighted(wm) => {
                let g = wm.graph().cols();
                EdgeSet::Weighted {
                    nrows: g.nrows(),
                    ncols: g.ncols(),
                    edges: g.to_weighted_triples(),
                }
            }
        };
        mcm_obs::observe_ns("mcmd_snapshot_seconds", &[], sw.elapsed_ns());
        edges
    }

    /// The admission check for updates to this engine.
    pub fn admission(&self) -> Admission {
        match self {
            Engine::Card(dm) => {
                Admission { n1: dm.graph().n1(), n2: dm.graph().n2(), weights: false }
            }
            Engine::Weighted(wm) => {
                Admission { n1: wm.graph().n1(), n2: wm.graph().n2(), weights: true }
            }
        }
    }

    /// Unwraps the cardinality engine; panics on a weighted daemon.
    pub fn expect_card(self) -> DynMatching {
        match self {
            Engine::Card(dm) => *dm,
            Engine::Weighted(_) => panic!("daemon was running the weighted engine"),
        }
    }

    /// Unwraps the weighted engine; panics on a cardinality daemon.
    pub fn expect_weighted(self) -> WDynMatching {
        match self {
            Engine::Weighted(wm) => *wm,
            Engine::Card(_) => panic!("daemon was running the cardinality engine"),
        }
    }
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

/// The scalars of an engine's state that the read verbs answer from.
pub enum Snap {
    /// Cardinality engine state.
    Card(StateSnapshot),
    /// Weighted engine state.
    Weighted(WStateSnapshot),
}

impl Snap {
    /// Cardinality, weight, edge count and epoch.
    pub fn summary(&self) -> Summary {
        match self {
            Snap::Card(s) => {
                Summary { cardinality: s.cardinality, weight: None, nnz: s.nnz, epoch: s.epoch }
            }
            Snap::Weighted(s) => Summary {
                cardinality: s.cardinality,
                weight: Some(s.weight),
                nnz: s.nnz,
                epoch: s.epoch,
            },
        }
    }

    /// The `stats` response line.
    pub fn stats_line(&self) -> String {
        match self {
            Snap::Card(s) => format_stats_line(&s.stats, s.cardinality, s.nnz, s.epoch),
            Snap::Weighted(s) => {
                format_wstats_line(&s.stats, s.cardinality, s.weight, s.nnz, s.epoch)
            }
        }
    }
}

/// An owned copy of an engine's live edge set: what `snapshot <path>`
/// writes. The daemon's writer hands one to the connection that asked,
/// which writes the file off the writer thread.
pub(crate) enum EdgeSet {
    /// The cardinality engine's edges.
    Card(Triples),
    /// The weighted engine's shape and `(row, col, weight)` edges.
    Weighted {
        /// Row count.
        nrows: usize,
        /// Column count.
        ncols: usize,
        /// The live edges, column-major.
        edges: Vec<(Vidx, Vidx, f64)>,
    },
}

impl EdgeSet {
    /// Number of edges.
    pub(crate) fn nnz(&self) -> usize {
        match self {
            EdgeSet::Card(t) => t.len(),
            EdgeSet::Weighted { edges, .. } => edges.len(),
        }
    }

    /// Writes the edges as Matrix Market (pattern, or real when weighted).
    pub(crate) fn write(&self, path: &str) -> std::io::Result<()> {
        match self {
            EdgeSet::Card(t) => write_matrix_market_file(t, path),
            EdgeSet::Weighted { nrows, ncols, edges } => {
                write_matrix_market_weighted_file(*nrows, *ncols, edges, path)
            }
        }
    }
}

/// What the writer publishes after each batch; readers answer from this.
pub struct Published {
    /// Batches applied-and-published so far (0 = the initial state).
    pub seq: u64,
    /// Immutable engine state as of `seq`.
    pub snap: Snap,
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
    /// Row and column vertex counts.
    pub fn dims(&self) -> (usize, usize) {
        (self.n1, self.n2)
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
}

impl Summary {
    /// `" weight <w>"` for the weighted engine, empty otherwise: the field
    /// the weighted protocol adds to cardinality lines.
    pub fn weight_field(&self) -> String {
        self.weight.map(|w| format!(" weight {w}")).unwrap_or_default()
    }
}

/// Answers a scalar read verb (`query`, `state`, `sync`, `stats`,
/// `metrics`) from `snap` as of writer sequence `seq`. Updates, `snapshot`
/// (see `answer_snapshot`) and the session verbs (`quit`, `shutdown`)
/// write nothing: the caller owns them.
pub fn answer_read(cmd: &Command, seq: u64, snap: &Snap, out: &mut dyn Write) {
    let s = snap.summary();
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
        Command::Stats => writeln!(out, "{}", snap.stats_line()),
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
pub(crate) fn answer_snapshot(
    path: &str,
    edges: &EdgeSet,
    out: &mut dyn Write,
) -> Result<(), String> {
    edges.write(path).map_err(|e| format!("{path}: {e}"))?;
    writeln!(out, "snapshot {path} nnz {}", edges.nnz()).ok();
    Ok(())
}

/// The `stats` response line of the cardinality engine (asserted by
/// `tests/cli.rs`). Its `algo` token names the fallback engine, warm
/// serial MS-BFS, in `mcm match --algo msbfs`'s spelling; `dirty` is the
/// running sum of the batches' dirty sets, as on the weighted line.
pub fn format_stats_line(s: &DynStats, cardinality: usize, nnz: usize, epoch: u64) -> String {
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
        cardinality,
        nnz,
        epoch,
        s.batches - s.fallbacks,
        s.fallbacks,
        s.scanned,
    )
}

/// The `stats` response line of the weighted engine: price-repair
/// counters plus the weight ledger.
pub fn format_wstats_line(
    s: &WDynStats,
    cardinality: usize,
    weight: f64,
    nnz: usize,
    epoch: u64,
) -> String {
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
        cardinality,
        weight,
        nnz,
        epoch,
        s.reverse_bids,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_dyn::{DynOptions, WDynOptions};

    fn card() -> Engine {
        Engine::Card(Box::new(DynMatching::new(3, 2, DynOptions::default())))
    }

    fn weighted() -> Engine {
        Engine::Weighted(Box::new(WDynMatching::new(3, 2, WDynOptions::default())))
    }

    #[test]
    fn admission_checks_range_and_weights_once_for_both_engines() {
        let (c, w) = (card().admission(), weighted().admission());
        assert_eq!(c.dims(), (3, 2));
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

    fn answers(engine: &Engine, seq: u64) -> String {
        answers_from(&engine.snapshot(), seq)
    }

    fn answers_from(snap: &Snap, seq: u64) -> String {
        let mut out = Vec::new();
        for cmd in [Command::Query, Command::State, Command::Sync, Command::Stats] {
            answer_read(&cmd, seq, snap, &mut out);
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn published_snapshot_is_isolated_from_later_batches() {
        for mut engine in [card(), weighted()] {
            let line = engine.apply_batch(&[
                WUpdate::Insert(0, 0, 4.0),
                WUpdate::Insert(1, 1, 1.0),
                WUpdate::Insert(2, 0, 1.0),
            ]);
            assert!(line.starts_with("batch applied 3 "), "{line}");
            let snap = engine.snapshot();
            let text = answers_from(&snap, 1);
            assert!(text.starts_with("matching 2"), "{text}");
            assert!(text.contains("synced seq 1 cardinality 2\n"), "{text}");
            assert!(text.contains(" nnz 3"), "{text}");
            // A later batch moves the engine but not the published copy.
            engine.apply_batch(&[WUpdate::Delete(0, 0)]);
            assert_ne!(answers(&engine, 1), text);
            assert_eq!(answers_from(&snap, 1), text);
        }
    }

    #[test]
    fn snapshot_writes_the_live_edges_of_either_engine() {
        let dir = std::env::temp_dir();
        for (kind, mut engine) in [("card", card()), ("weighted", weighted())] {
            engine.apply_batch(&[WUpdate::Insert(2, 1, 3.0), WUpdate::Insert(0, 0, 1.0)]);
            let edges = engine.edges();
            assert_eq!(edges.nnz(), engine.snapshot().summary().nnz);
            let path = dir.join(format!("mcm-serve-edges-{kind}-{}.mtx", std::process::id()));
            let path = path.to_str().unwrap();
            let mut out = Vec::new();
            answer_snapshot(path, &edges, &mut out).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), format!("snapshot {path} nnz 2\n"));
            let text = std::fs::read_to_string(path).unwrap();
            std::fs::remove_file(path).ok();
            let body: Vec<&str> = text.lines().skip(1).collect();
            let want =
                if kind == "card" { ["3 2 2", "1 1", "3 2"] } else { ["3 2 2", "1 1 1", "3 2 3"] };
            assert_eq!(body, want, "{kind}: {text}");
        }
    }

    #[test]
    fn weighted_answers_carry_the_weight_field() {
        let mut engine = weighted();
        engine.apply_batch(&[WUpdate::Insert(0, 0, 4.0), WUpdate::Insert(1, 1, 2.5)]);
        let text = answers(&engine, 1);
        assert!(text.starts_with("matching 2 weight 6.5\nstate seq 1 epoch 0 "), "{text}");
        assert!(text.contains(" nnz 2 weight 6.5\n"), "{text}");
        assert!(text.trim_end().ends_with("algo wauction"), "{text}");
    }

    #[test]
    fn weighted_batch_and_stats_lines_end_with_the_reverse_bids() {
        let mut engine = weighted();
        engine.apply_batch(&[
            WUpdate::Insert(0, 0, 10.0),
            WUpdate::Insert(0, 1, 8.0),
            WUpdate::Insert(1, 1, 5.0),
        ]);
        // Freed r0 takes c1 by a reverse bid; the displaced r1 retires.
        let line = engine.apply_batch(&[WUpdate::Delete(0, 0)]);
        assert!(line.ends_with(" weight 8 cardinality 1 reverse_bids 2"), "{line}");
        let text = answers(&engine, 1);
        assert!(text.trim_end().ends_with(" reverse_bids 2 algo wauction"), "{text}");
    }

    #[test]
    fn failed_snapshot_write_returns_the_error_text() {
        let mut out = Vec::new();
        let cmd = Command::Snapshot("/nonexistent-dir/x.mtx".to_string());
        let Command::Snapshot(path) = &cmd else { unreachable!() };
        let err = answer_snapshot(path, &card().edges(), &mut out).unwrap_err();
        assert!(err.starts_with("/nonexistent-dir/x.mtx: "), "{err}");
        assert!(out.is_empty());
    }
}
