//! The `mcmd` wire protocol: one command per line, shared by the stdin
//! loop and the socket daemon.
//!
//! Two spellings are accepted and can be mixed freely on one stream:
//!
//! * plain text — `insert 3 5`, `delete 3 5`, `query`, `state`, `sync`,
//!   `stats`, `metrics`, `snapshot out.mtx`, `quit`, `shutdown`; blank
//!   lines and `#` comments ignored;
//! * JSONL — `{"op": "insert", "u": 3, "v": 5}` and friends. The parser
//!   is deliberately a tokenizer, not a JSON library (the workspace has
//!   no serde and the grammar is a handful of fixed shapes): structural
//!   punctuation is stripped and `u`/`v`/`w`/`path` keys are honoured,
//!   so key order does not matter.
//!
//! `insert` optionally carries an edge weight — `insert 3 5 2.5` or
//! `{"op": "insert", "u": 3, "v": 5, "w": 2.5}` — for daemons running
//! the weighted engine (`mcmd --weighted`). A missing weight means 1.0
//! there, so unweighted clients interoperate unchanged; re-inserting a
//! live edge with a new weight re-weights it.
//!
//! Row/column indices are 0-based, matching the rest of the workspace
//! (`mcm-sparse` converts at the Matrix Market boundary only).
//!
//! [`LineFramer`] is the byte-to-line layer both paths read through: it
//! hands out lines as slices of its own buffer, tolerates partial lines
//! (a read boundary mid-line), pipelined bursts (many lines per read),
//! and `\r\n`, and its [`LineFramer::finish`]
//! reports an unterminated tail at EOF as a structured
//! [`FrameError::TruncatedTail`] instead of silently dropping (or worse,
//! executing) a half-received command.

use mcm_sparse::Vidx;
use std::borrow::Cow;

/// One parsed `mcmd` command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Stage edge (row, col) for insertion, optionally weighted.
    /// `None` means "not spelled out" — 1.0 to a weighted engine.
    Insert(Vidx, Vidx, Option<f64>),
    /// Stage edge (row, col) for deletion.
    Delete(Vidx, Vidx),
    /// Report the matching cardinality (socket mode: from the published
    /// snapshot, never blocking behind a repair).
    Query,
    /// Report the writer sequence number, overlay epoch, cardinality and
    /// live edge count of the published snapshot.
    State,
    /// Barrier: ack once every update admitted before it has been
    /// applied and published.
    Sync,
    /// Report cumulative engine statistics.
    Stats,
    /// Dump the metrics registry in Prometheus text exposition,
    /// terminated by a `# EOF` line.
    Metrics,
    /// Barrier like [`Command::Sync`], then write the live graph as
    /// Matrix Market to the path.
    Snapshot(String),
    /// Close this session (stdin: flush and exit; socket: this
    /// connection only — the daemon keeps serving).
    Quit,
    /// Gracefully stop the whole daemon: drain admitted updates, publish,
    /// then exit. In stdin mode equivalent to `quit`.
    Shutdown,
}

/// Parses one input line. `Ok(None)` for blank lines and `#` comments;
/// `Err` carries a message suitable for an `error <msg>` response line.
///
/// JSON punctuation counts as a separator, so both spellings reduce to
/// the same tokens. Lines of up to 12 tokens (every shape the grammar
/// defines) are tokenized into a stack array; the success path
/// allocates only a `snapshot` path.
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut inline = [""; INLINE_TOKENS];
    let mut n = 0;
    let mut spill: Vec<&str> = Vec::new();
    for t in tokens(trimmed) {
        if n < INLINE_TOKENS {
            inline[n] = t;
            n += 1;
        } else {
            if spill.is_empty() {
                spill.extend_from_slice(&inline);
            }
            spill.push(t);
        }
    }
    let toks = if spill.is_empty() { &inline[..n] } else { &spill[..] };
    parse_tokens(trimmed, toks)
}

/// Tokens kept on the stack by [`parse_command`]; longer lines spill to
/// the heap with the same result.
const INLINE_TOKENS: usize = 12;

/// Whitespace-separated tokens with JSON structure (`{}[]"':,`) treated
/// as whitespace.
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    line.split(|ch: char| {
        ch.is_whitespace() || matches!(ch, '{' | '}' | '[' | ']' | '"' | '\'' | ',' | ':')
    })
    .filter(|t| !t.is_empty())
}

/// The verbs, matched case-insensitively.
const VERBS: [&str; 11] = [
    "insert", "delete", "query", "state", "sync", "stats", "metrics", "snapshot", "quit", "exit",
    "shutdown",
];

/// The grammar over a line's tokens; `trimmed` is quoted in errors.
fn parse_tokens(trimmed: &str, toks: &[&str]) -> Result<Option<Command>, String> {
    let (verb_pos, verb) = toks
        .iter()
        .enumerate()
        .find_map(|(i, t)| VERBS.iter().find(|v| t.eq_ignore_ascii_case(v)).map(|&v| (i, v)))
        .ok_or_else(|| format!("unrecognized command: {trimmed}"))?;
    match verb {
        "query" => Ok(Some(Command::Query)),
        "state" => Ok(Some(Command::State)),
        "sync" => Ok(Some(Command::Sync)),
        "stats" => Ok(Some(Command::Stats)),
        "metrics" => Ok(Some(Command::Metrics)),
        "quit" | "exit" => Ok(Some(Command::Quit)),
        "shutdown" => Ok(Some(Command::Shutdown)),
        "snapshot" => {
            let path = value_after_key(toks, "path")
                .or_else(|| toks.get(verb_pos + 1).copied())
                .filter(|p| !p.eq_ignore_ascii_case("path"))
                .ok_or_else(|| "snapshot needs a path".to_string())?;
            Ok(Some(Command::Snapshot(path.to_string())))
        }
        verb @ ("insert" | "delete") => {
            let (u, v) = match (keyed_index(toks, "u"), keyed_index(toks, "v")) {
                (Some(u), Some(v)) => (u, v),
                _ => positional_pair(toks, verb_pos)
                    .ok_or_else(|| format!("{verb} needs two vertex indices: {trimmed}"))?,
            };
            if verb == "insert" {
                let w = match value_after_key(toks, "w") {
                    Some(t) => {
                        Some(t.parse::<f64>().map_err(|_| format!("bad insert weight: {t}"))?)
                    }
                    None => positional_weight(toks, verb_pos),
                };
                if w.is_some_and(|w| !w.is_finite()) {
                    return Err(format!("insert weight must be finite: {trimmed}"));
                }
                Ok(Some(Command::Insert(u, v, w)))
            } else {
                Ok(Some(Command::Delete(u, v)))
            }
        }
        _ => unreachable!("VERBS lists only the verbs above"),
    }
}

/// The metrics label for a command (one latency histogram per verb).
pub fn verb_of(cmd: &Command) -> &'static str {
    match cmd {
        Command::Insert(..) => "insert",
        Command::Delete(..) => "delete",
        Command::Query => "query",
        Command::State => "state",
        Command::Sync => "sync",
        Command::Stats => "stats",
        Command::Metrics => "metrics",
        Command::Snapshot(..) => "snapshot",
        Command::Quit => "quit",
        Command::Shutdown => "shutdown",
    }
}

/// The token following key `k` (for JSONL `"u": 3` / `"path": "x"` pairs).
fn value_after_key<'a>(toks: &[&'a str], k: &str) -> Option<&'a str> {
    toks.iter().position(|t| t.eq_ignore_ascii_case(k)).and_then(|i| toks.get(i + 1)).copied()
}

fn keyed_index(toks: &[&str], k: &str) -> Option<Vidx> {
    value_after_key(toks, k).and_then(|t| t.parse::<Vidx>().ok())
}

/// The first two integer tokens after the verb (plain-text spelling).
fn positional_pair(toks: &[&str], verb_pos: usize) -> Option<(Vidx, Vidx)> {
    let mut ints = toks[verb_pos + 1..].iter().filter_map(|t| t.parse::<Vidx>().ok());
    Some((ints.next()?, ints.next()?))
}

/// The third numeric token after the verb, if any — the plain-text
/// spelling of an insert weight (`insert 3 5 2.5`). Keys like `u`/`v`
/// don't parse as numbers, so JSONL lines without a `w` key yield none.
fn positional_weight(toks: &[&str], verb_pos: usize) -> Option<f64> {
    toks[verb_pos + 1..].iter().filter_map(|t| t.parse::<f64>().ok()).nth(2)
}

/// Framing failure surfaced by [`LineFramer::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-line; the unterminated bytes are carried so
    /// the caller can report (never execute) them.
    TruncatedTail(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedTail(tail) => {
                write!(f, "truncated line at EOF (missing newline): {tail:?}")
            }
        }
    }
}

/// Incremental byte-stream-to-line decoder for one connection (or stdin).
///
/// Feed whatever each read returned via [`push`](LineFramer::push); it
/// yields every newline-terminated line seen so far, as slices of its own
/// buffer, and keeps the rest for the next push. Call
/// [`finish`](LineFramer::finish) at EOF to learn whether the stream
/// ended cleanly.
#[derive(Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Bytes of `buf` up to and including its last newline: the lines the
    /// last push handed out, dropped at the next push.
    framed: usize,
    lines_seen: u64,
}

impl LineFramer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lines handed out so far (1-based numbering for error reporting).
    pub fn lines_seen(&self) -> u64 {
        self.lines_seen
    }

    /// Feeds freshly read bytes; yields each completed line with its
    /// terminator (and any trailing `\r`) stripped. A valid UTF-8 line is
    /// borrowed from the buffer; invalid UTF-8 is replaced rather than
    /// rejected (an owned copy), and the tokenizer surfaces it as an
    /// unrecognized command.
    pub fn push(&mut self, bytes: &[u8]) -> Lines<'_> {
        self.buf.drain(..self.framed);
        self.buf.extend_from_slice(bytes);
        self.framed = self.buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        Lines { rest: &self.buf[..self.framed], lines_seen: &mut self.lines_seen }
    }

    /// EOF check: `Ok` for a cleanly terminated stream, otherwise the
    /// unterminated tail as a structured error. Resets the buffer either
    /// way, so a framer can be reused after reporting.
    pub fn finish(&mut self) -> Result<(), FrameError> {
        let tail = &self.buf[self.framed..];
        let res = if tail.is_empty() {
            Ok(())
        } else {
            Err(FrameError::TruncatedTail(String::from_utf8_lossy(tail).into_owned()))
        };
        self.buf.clear();
        self.framed = 0;
        res
    }
}

/// The lines completed by one [`LineFramer::push`].
pub struct Lines<'a> {
    /// Whole lines, each ending in `\n`.
    rest: &'a [u8],
    lines_seen: &'a mut u64,
}

impl<'a> Iterator for Lines<'a> {
    type Item = Cow<'a, str>;

    fn next(&mut self) -> Option<Cow<'a, str>> {
        let end = self.rest.iter().position(|&b| b == b'\n')?;
        let line = &self.rest[..end];
        self.rest = &self.rest[end + 1..];
        *self.lines_seen += 1;
        Some(String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mcm_sparse::permute::SplitMix64;

    fn lines(f: &mut LineFramer, bytes: &[u8]) -> Vec<String> {
        f.push(bytes).map(Cow::into_owned).collect()
    }

    #[test]
    fn plain_text_commands_parse() {
        assert_eq!(parse_command("insert 3 5").unwrap(), Some(Command::Insert(3, 5, None)));
        assert_eq!(parse_command("  delete 0 12 ").unwrap(), Some(Command::Delete(0, 12)));
        assert_eq!(parse_command("query").unwrap(), Some(Command::Query));
        assert_eq!(parse_command("state").unwrap(), Some(Command::State));
        assert_eq!(parse_command("sync").unwrap(), Some(Command::Sync));
        assert_eq!(parse_command("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse_command("metrics").unwrap(), Some(Command::Metrics));
        assert_eq!(
            parse_command("snapshot /tmp/x.mtx").unwrap(),
            Some(Command::Snapshot("/tmp/x.mtx".into()))
        );
        assert_eq!(parse_command("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("exit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("shutdown").unwrap(), Some(Command::Shutdown));
    }

    #[test]
    fn weighted_inserts_parse_in_both_spellings() {
        assert_eq!(
            parse_command("insert 3 5 2.5").unwrap(),
            Some(Command::Insert(3, 5, Some(2.5)))
        );
        assert_eq!(
            parse_command("insert 3 5 -4").unwrap(),
            Some(Command::Insert(3, 5, Some(-4.0)))
        );
        assert_eq!(
            parse_command(r#"{"op": "insert", "u": 3, "v": 5, "w": 2.5}"#).unwrap(),
            Some(Command::Insert(3, 5, Some(2.5)))
        );
        // Key order does not matter, including `w` before the verb.
        assert_eq!(
            parse_command(r#"{"w": 7, "v": 5, "u": 3, "op": "insert"}"#).unwrap(),
            Some(Command::Insert(3, 5, Some(7.0)))
        );
        assert!(parse_command("insert 3 5 nan").is_err(), "non-finite weights are rejected");
        assert!(parse_command(r#"{"op":"insert","u":3,"v":5,"w":"x"}"#).is_err());
    }

    #[test]
    fn jsonl_commands_parse_in_any_key_order() {
        assert_eq!(
            parse_command(r#"{"op": "insert", "u": 3, "v": 5}"#).unwrap(),
            Some(Command::Insert(3, 5, None))
        );
        assert_eq!(
            parse_command(r#"{"v": 5, "u": 3, "op": "delete"}"#).unwrap(),
            Some(Command::Delete(3, 5))
        );
        assert_eq!(parse_command(r#"{"op": "query"}"#).unwrap(), Some(Command::Query));
        assert_eq!(parse_command(r#"{"op": "metrics"}"#).unwrap(), Some(Command::Metrics));
        assert_eq!(parse_command(r#"{"op": "sync"}"#).unwrap(), Some(Command::Sync));
        assert_eq!(
            parse_command(r#"{"op": "snapshot", "path": "out.mtx"}"#).unwrap(),
            Some(Command::Snapshot("out.mtx".into()))
        );
    }

    #[test]
    fn blanks_and_comments_are_skipped() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   ").unwrap(), None);
        assert_eq!(parse_command("# warmup done").unwrap(), None);
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(parse_command("frobnicate 1 2").is_err());
        assert!(parse_command("insert 1").is_err());
        assert!(parse_command("insert x y").is_err());
        assert!(parse_command("snapshot").is_err());
    }

    #[test]
    fn framer_reassembles_partial_lines_and_splits_pipelined_bursts() {
        let mut f = LineFramer::new();
        assert_eq!(lines(&mut f, b"ins"), Vec::<&str>::new());
        assert_eq!(lines(&mut f, b"ert 1 2\nquery\ndel"), ["insert 1 2", "query"]);
        assert_eq!(lines(&mut f, b"ete 1 2\r\n"), ["delete 1 2"]);
        assert_eq!(f.lines_seen(), 3);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn framer_reports_a_truncated_tail_instead_of_dropping_it() {
        let mut f = LineFramer::new();
        assert_eq!(lines(&mut f, b"insert 1 2\ninsert 3"), ["insert 1 2"]);
        match f.finish() {
            Err(FrameError::TruncatedTail(tail)) => assert_eq!(tail, "insert 3"),
            other => panic!("expected TruncatedTail, got {other:?}"),
        }
        // The framer is reusable after reporting.
        assert_eq!(f.finish(), Ok(()));
        assert_eq!(lines(&mut f, b"query\n"), ["query"]);
    }
    /// The parser as it was before tokenizing in place: normalize JSON
    /// punctuation to spaces in a copy, split, lowercase each candidate
    /// verb. Kept only to pin [`parse_command`] to it.
    fn reference_parse(line: &str) -> Result<Option<Command>, String> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        let norm: String = trimmed
            .chars()
            .map(|ch| {
                if matches!(ch, '{' | '}' | '[' | ']' | '"' | '\'' | ',' | ':') {
                    ' '
                } else {
                    ch
                }
            })
            .collect();
        let toks: Vec<&str> = norm.split_whitespace().collect();
        let verbs = [
            "insert", "delete", "query", "state", "sync", "stats", "metrics", "snapshot", "quit",
            "exit", "shutdown",
        ];
        let verb_pos = toks
            .iter()
            .position(|t| verbs.contains(&t.to_ascii_lowercase().as_str()))
            .ok_or_else(|| format!("unrecognized command: {trimmed}"))?;
        let verb = toks[verb_pos].to_ascii_lowercase();
        match verb.as_str() {
            "query" => Ok(Some(Command::Query)),
            "state" => Ok(Some(Command::State)),
            "sync" => Ok(Some(Command::Sync)),
            "stats" => Ok(Some(Command::Stats)),
            "metrics" => Ok(Some(Command::Metrics)),
            "quit" | "exit" => Ok(Some(Command::Quit)),
            "shutdown" => Ok(Some(Command::Shutdown)),
            "snapshot" => {
                let path = value_after_key(&toks, "path")
                    .or_else(|| toks.get(verb_pos + 1).copied())
                    .filter(|p| !p.eq_ignore_ascii_case("path"))
                    .ok_or_else(|| "snapshot needs a path".to_string())?;
                Ok(Some(Command::Snapshot(path.to_string())))
            }
            verb => {
                let (u, v) = match (keyed_index(&toks, "u"), keyed_index(&toks, "v")) {
                    (Some(u), Some(v)) => (u, v),
                    _ => positional_pair(&toks, verb_pos)
                        .ok_or_else(|| format!("{verb} needs two vertex indices: {trimmed}"))?,
                };
                if verb == "insert" {
                    let w = match value_after_key(&toks, "w") {
                        Some(t) => {
                            Some(t.parse::<f64>().map_err(|_| format!("bad insert weight: {t}"))?)
                        }
                        None => positional_weight(&toks, verb_pos),
                    };
                    if w.is_some_and(|w| !w.is_finite()) {
                        return Err(format!("insert weight must be finite: {trimmed}"));
                    }
                    Ok(Some(Command::Insert(u, v, w)))
                } else {
                    Ok(Some(Command::Delete(u, v)))
                }
            }
        }
    }

    /// Seed lines for the differential test: both spellings, mixed case,
    /// Unicode whitespace, CRLF, weights, extra tokens and errors.
    const TABLE: &[&[u8]] = &[
        b"insert 3 5",
        b"INSERT 3 5 2.5",
        b"  Delete 0 12 \r",
        b"insert 3 5\r\n",
        b"insert\xc2\xa03\xe2\x80\x835",
        b"\xe3\x80\x80query\xe3\x80\x80",
        b"{\"op\": \"insert\", \"u\": 3, \"v\": 5, \"w\": 2.5}",
        b"{\"w\": 7, \"v\": 5, \"u\": 3, \"op\": \"INSERT\"}",
        b"{\"v\":5,\"u\":3,\"op\":\"delete\"}",
        b"{'op': 'snapshot', 'path': 'out.mtx'}",
        b"snapshot /tmp/x.mtx",
        b"snapshot path",
        b"SyNc",
        b"stats metrics query",
        b"exit",
        b"shutdown now please",
        b"# comment insert 1 2",
        b"insert 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15",
        b"{\"op\":\"insert\",\"a\":1,\"b\":2,\"c\":3,\"d\":4,\"e\":5,\"u\":9,\"v\":8,\"w\":1e3}",
        b"insert 3 5 nan",
        b"insert 3 5 -inf",
        b"insert 1",
        b"insert x y",
        b"frobnicate 1 2",
        b"ins\xffert 1 2",
        b"insert 1 \xfe\xfe 2",
        b"",
        b"   ",
    ];

    /// Characters mutations splice in: separators, digits, verb letters,
    /// Unicode whitespace, comment and number syntax, a replacement char.
    const ALPHABET: &[char] = &[
        ' ',
        '\t',
        '{',
        '}',
        '[',
        ']',
        '"',
        '\'',
        ',',
        ':',
        '#',
        '0',
        '1',
        '7',
        '.',
        '-',
        '+',
        'e',
        'E',
        'i',
        'I',
        'n',
        's',
        'u',
        'v',
        'w',
        'x',
        'q',
        '\u{a0}',
        '\u{2003}',
        '\u{3000}',
        '\u{fffd}',
        '\r',
        '\u{1f600}',
    ];

    fn framed(bytes: &[u8]) -> String {
        let mut f = LineFramer::new();
        let mut line = bytes.to_vec();
        if !line.ends_with(b"\n") {
            line.push(b'\n');
        }
        let out = lines(&mut f, &line);
        assert_eq!(out.len(), 1);
        out.into_iter().next().unwrap()
    }

    fn mutate(rng: &mut SplitMix64, line: &str, other: &str) -> String {
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..=rng.below(3) {
            let at = rng.below(chars.len() as u64 + 1) as usize;
            match rng.below(5) {
                0 | 1 => chars.insert(at, ALPHABET[rng.below(ALPHABET.len() as u64) as usize]),
                2 if at < chars.len() => {
                    chars.remove(at);
                }
                3 if at < chars.len() => {
                    let c = chars[at];
                    chars[at] = if c.is_ascii_lowercase() {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    };
                }
                _ => chars.extend(" ".chars().chain(other.chars())),
            }
        }
        chars.into_iter().collect()
    }

    #[test]
    fn tokenizer_matches_the_reference_parser_on_a_seeded_table_and_mutations() {
        let seed =
            std::env::var("MCM_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x70C3u64);
        let table: Vec<String> = TABLE.iter().map(|b| framed(b)).collect();
        for line in &table {
            assert_eq!(parse_command(line), reference_parse(line), "table line {line:?}");
        }
        let mut rng = SplitMix64::new(seed);
        let mut long = 0;
        for i in 0..20_000 {
            let base = &table[rng.below(table.len() as u64) as usize];
            let other = &table[rng.below(table.len() as u64) as usize];
            let line = mutate(&mut rng, base, other);
            long += usize::from(tokens(&line).count() > INLINE_TOKENS);
            assert_eq!(
                parse_command(&line),
                reference_parse(&line),
                "mutation {i} of {base:?} (seed {seed}): {line:?}"
            );
        }
        assert!(long > 0, "no mutation spilled past the inline token array");
    }
}
