//! The serial session behind `mcmd` without `--listen`: commands from
//! stdin (or `--input <file>`), answers on stdout.
//!
//! Updates are *batched*: nothing is repaired until a read verb or
//! `quit` forces a flush, so a burst of inserts costs one repair pass.
//! Each flush prints the engine's `batch ...` report line (unless
//! `quiet`), and read verbs answer from the live engine through the same
//! [`answer_read`] and `answer_snapshot` the socket daemon uses. Errors
//! are reported as `error line <n>: ...` and never end the session.

use crate::engine::{answer_read, answer_snapshot, Admission, Engine};
use crate::proto::{parse_command, verb_of, Command, LineFramer};
use mcm_dyn::WUpdate;
use std::io::{BufRead, Write};

/// Runs one session over `input` until `quit`, `shutdown` or EOF. Updates
/// still staged at the end are applied, so piped traces that end in
/// updates still repair. Fails only when `input` cannot be read.
pub fn run_session(
    engine: &mut Engine,
    mut input: impl BufRead,
    out: impl Write,
    quiet: bool,
) -> Result<(), String> {
    let mut s = Session {
        admission: engine.admission(),
        engine,
        out: std::io::BufWriter::new(out),
        staged: Vec::new(),
        seq: 0,
        quiet,
    };
    let mut framer = LineFramer::new();
    'session: loop {
        let chunk = input.fill_buf().map_err(|e| format!("read error: {e}"))?;
        if chunk.is_empty() {
            // EOF. A half-received final command is reported, never run.
            if let Err(e) = framer.finish() {
                writeln!(s.out, "error line {}: {e}", framer.lines_seen() + 1).ok();
            }
            break;
        }
        let n = chunk.len();
        let lines = framer.push(chunk);
        input.consume(n);
        let mut lineno = framer.lines_seen() - lines.len() as u64;
        for line in lines {
            lineno += 1;
            if s.handle_line(&line, lineno) {
                break 'session;
            }
            s.out.flush().ok();
        }
    }
    s.flush();
    s.out.flush().ok();
    Ok(())
}

struct Session<'a, W: Write> {
    engine: &'a mut Engine,
    admission: Admission,
    out: std::io::BufWriter<W>,
    staged: Vec<WUpdate>,
    /// Batches applied: the stdin analogue of the daemon's writer
    /// sequence number.
    seq: u64,
    quiet: bool,
}

impl<W: Write> Session<'_, W> {
    /// Handles one line; returns `true` when the session ends.
    fn handle_line(&mut self, line: &str, lineno: u64) -> bool {
        let cmd = match parse_command(line) {
            Ok(Some(cmd)) => cmd,
            Ok(None) => return false,
            Err(e) => {
                writeln!(self.out, "error line {lineno}: {e}").ok();
                return false;
            }
        };
        let sw = mcm_obs::Stopwatch::new();
        let ends = match self.admission.admit(&cmd) {
            Some(Ok(u)) => {
                self.staged.push(u);
                false
            }
            Some(Err(e)) => {
                writeln!(self.out, "error line {lineno}: {e}").ok();
                false
            }
            None => {
                self.flush();
                if let Command::Snapshot(path) = &cmd {
                    if let Err(e) = answer_snapshot(path, &self.engine.edges(), &mut self.out) {
                        writeln!(self.out, "error line {lineno}: {e}").ok();
                    }
                } else {
                    answer_read(&cmd, self.seq, &self.engine.snapshot(), &mut self.out);
                }
                matches!(cmd, Command::Quit | Command::Shutdown)
            }
        };
        mcm_obs::observe_ns("mcmd_request_seconds", &[("verb", verb_of(&cmd))], sw.elapsed_ns());
        ends
    }

    /// Applies the staged updates as one batch.
    fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let line = self.engine.apply_batch(&self.staged);
        self.staged.clear();
        self.seq += 1;
        if !self.quiet {
            writeln!(self.out, "{line}").ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_dyn::{DynMatching, DynOptions};

    fn session(script: &str, quiet: bool) -> (String, Engine) {
        let mut engine = Engine::Card(Box::new(DynMatching::new(4, 4, DynOptions::default())));
        let mut out = Vec::new();
        run_session(&mut engine, script.as_bytes(), &mut out, quiet).unwrap();
        (String::from_utf8(out).unwrap(), engine)
    }

    #[test]
    fn reads_flush_staged_updates_as_one_batch() {
        let (text, _) = session("insert 0 0\ninsert 1 1\nquery\nquery\nquit\n", false);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("batch applied 2 "), "{text}");
        assert_eq!(&lines[1..], ["matching 2", "matching 2"]);
    }

    #[test]
    fn errors_name_the_line_and_the_session_goes_on() {
        let (text, _) = session("frobnicate\ninsert 9 0\ninsert 0 0 3\ninsert 0 0\nsync\n", true);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("error line 1: "), "{text}");
        assert_eq!(lines[1], "error line 2: vertex out of range (9, 0)");
        assert_eq!(lines[2], "error line 3: weighted insert needs a --weighted daemon");
        assert_eq!(lines[3], "synced seq 1 cardinality 1");
    }

    #[test]
    fn eof_applies_staged_updates_and_reports_a_truncated_tail() {
        let (text, engine) = session("insert 0 0\ninsert 1 1\nque", true);
        assert!(text.starts_with("error line 3: "), "{text}");
        assert_eq!(engine.snapshot().summary().cardinality, 2);
    }

    #[test]
    fn quit_ends_the_session_before_later_lines() {
        let (text, engine) = session("insert 0 0\nquit\ninsert 1 1\nquery\n", true);
        assert_eq!(text, "");
        assert_eq!(engine.snapshot().summary().nnz, 1);
    }
}
