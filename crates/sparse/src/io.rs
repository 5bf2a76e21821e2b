//! Matrix Market I/O for pattern and weighted matrices.
//!
//! The paper evaluates on matrices from the University of Florida (now
//! SuiteSparse) collection, distributed in Matrix Market format. The
//! collection is not available offline in this environment (see DESIGN.md for
//! the synthetic stand-ins), but the reader/writer lets downstream users run
//! the library on the *actual* UF matrices: matching only needs the pattern,
//! so `pattern`, `real`, `integer`, and `complex` fields are all accepted.
//! Values are kept only by the weighted readers, but every reader requires
//! them to be finite.
//!
//! Every text loader goes through one parser, [`MmReader`]. It reads the
//! banner and the size line a line at a time, then the body in fixed-size
//! byte blocks, parsing entries in place (no `String` per line) and handing
//! them, mirror-expanded, to a sink in chunks. The in-memory readers collect
//! the chunks; the streaming MCSB converter (`mcm-store`) pushes them
//! straight into its spill writer, so its memory holds one block of text,
//! never the file.

use crate::{Triples, Vidx};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from Matrix Market parsing. Every parse variant carries the
/// 1-based line number it was found on.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure (including header lines that are not UTF-8).
    Io(std::io::Error),
    /// The first line is not a `%%MatrixMarket matrix <format> <field>
    /// <symmetry>` banner (empty when the file is).
    BadBanner {
        /// Line number.
        line: usize,
        /// The banner as written.
        text: String,
    },
    /// The banner names a storage format other than `coordinate`.
    UnsupportedFormat {
        /// Line number.
        line: usize,
        /// The format, lowercased.
        format: String,
    },
    /// The banner names a symmetry other than `general`, `symmetric` or
    /// `skew-symmetric`.
    UnsupportedSymmetry {
        /// Line number.
        line: usize,
        /// The symmetry, lowercased.
        symmetry: String,
    },
    /// The size line is missing (`text` is empty) or does not start with
    /// three unsigned integers.
    BadSizeLine {
        /// Line number.
        line: usize,
        /// The size line as written.
        text: String,
    },
    /// The size line declares dimensions past the vertex index type.
    TooLarge {
        /// Line number.
        line: usize,
        /// Declared row count.
        nrows: usize,
        /// Declared column count.
        ncols: usize,
    },
    /// An entry line without two unsigned indices or, when the field is
    /// not `pattern`, without a number after them.
    BadEntry {
        /// Line number.
        line: usize,
        /// The entry line, trimmed.
        entry: String,
    },
    /// An entry whose 1-based coordinates lie outside the declared shape.
    OutOfBounds {
        /// Line number.
        line: usize,
        /// 1-based row.
        row: usize,
        /// 1-based column.
        col: usize,
    },
    /// An entry whose value is infinite or NaN. Matching weights must be
    /// finite: an infinite one makes the auction bid forever.
    NonFinite {
        /// Line number.
        line: usize,
        /// The value field as written.
        value: String,
        /// The entry line, trimmed.
        entry: String,
    },
    /// The body holds a different number of entry lines than the size line
    /// declares.
    CountMismatch {
        /// Line number of the size line.
        line: usize,
        /// Entries the size line declares.
        declared: usize,
        /// Entry lines the body holds.
        found: usize,
    },
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let line = match self {
            MmError::Io(e) => return write!(f, "I/O error: {e}"),
            MmError::BadBanner { line, .. }
            | MmError::UnsupportedFormat { line, .. }
            | MmError::UnsupportedSymmetry { line, .. }
            | MmError::BadSizeLine { line, .. }
            | MmError::TooLarge { line, .. }
            | MmError::BadEntry { line, .. }
            | MmError::OutOfBounds { line, .. }
            | MmError::NonFinite { line, .. }
            | MmError::CountMismatch { line, .. } => line,
        };
        write!(f, "Matrix Market parse error: line {line}: ")?;
        match self {
            MmError::Io(_) => Ok(()),
            MmError::BadBanner { text, .. } if text.is_empty() => write!(f, "empty file"),
            MmError::BadBanner { text, .. } => write!(f, "bad header: {text}"),
            MmError::UnsupportedFormat { format, .. } => {
                write!(f, "only coordinate (sparse) format is supported, not {format}")
            }
            MmError::UnsupportedSymmetry { symmetry, .. } => {
                write!(f, "unsupported symmetry: {symmetry}")
            }
            MmError::BadSizeLine { text, .. } if text.is_empty() => write!(f, "missing size line"),
            MmError::BadSizeLine { text, .. } => write!(f, "bad size line: {text}"),
            MmError::TooLarge { nrows, ncols, .. } => write!(
                f,
                "matrix dimensions {nrows}x{ncols} exceed the vertex index limit {}",
                Vidx::MAX - 1
            ),
            MmError::BadEntry { entry, .. } => write!(f, "bad entry line: {entry}"),
            MmError::OutOfBounds { row, col, .. } => {
                write!(f, "entry ({row}, {col}) out of bounds (1-based)")
            }
            MmError::NonFinite { value, entry, .. } => {
                write!(f, "non-finite value {value} in entry: {entry}")
            }
            MmError::CountMismatch { declared, found, .. } => {
                write!(f, "expected {declared} entries, found {found}")
            }
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

/// Reads a Matrix Market `coordinate` file into a pattern [`Triples`] list.
///
/// Supports the `general`, `symmetric`, and `skew-symmetric` symmetry kinds
/// (off-diagonal entries of the latter two are mirrored). Values are
/// discarded.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Triples, MmError> {
    read_pattern(reader, None)
}

fn read_pattern<R: Read>(reader: R, input_len: Option<u64>) -> Result<Triples, MmError> {
    let (h, edges) = collect(reader, input_len, BLOCK_BYTES, |(i, j, _)| (i, j))?;
    Ok(Triples::from_edges(h.nrows, h.ncols, edges))
}

/// Reads a Matrix Market `coordinate` file *with values* into a
/// [`WCsc`](crate::WCsc). `pattern` files get weight 1.0 per entry;
/// `symmetric` mirrors carry the same value, `skew-symmetric` the negated
/// one. `complex` entries use the real part.
pub fn read_matrix_market_weighted<R: Read>(reader: R) -> Result<crate::WCsc, MmError> {
    read_weighted(reader, None)
}

fn read_weighted<R: Read>(reader: R, input_len: Option<u64>) -> Result<crate::WCsc, MmError> {
    let (h, entries) = collect(reader, input_len, BLOCK_BYTES, |e| e)?;
    Ok(crate::WCsc::from_weighted_triples(h.nrows, h.ncols, entries))
}

/// Reads a weighted Matrix Market file from disk.
pub fn read_matrix_market_weighted_file(path: impl AsRef<Path>) -> Result<crate::WCsc, MmError> {
    let (file, len) = open_with_len(path)?;
    read_weighted(file, Some(len))
}

/// Reads a Matrix Market file from disk.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<Triples, MmError> {
    let (file, len) = open_with_len(path)?;
    read_pattern(file, Some(len))
}

fn open_with_len(path: impl AsRef<Path>) -> Result<(std::fs::File, u64), MmError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    Ok((file, len))
}

/// Entries preallocated for a reader of unknown length; past this the
/// entry list grows as lines actually arrive.
const UNSIZED_PREALLOC: usize = 1 << 16;

/// Body bytes read per block.
const BLOCK_BYTES: usize = 1 << 20;

/// Mirror-expanded entries handed to a sink per call (one more when the
/// last entry's mirror lands past the mark).
const CHUNK_ENTRIES: usize = 1 << 16;

/// Reads every entry of a file into one list, mapped through `map`. The
/// header is untrusted: the list never preallocates more entry lines than
/// `input_len` bytes can hold (the shortest, `1 1\n`, takes four bytes).
fn collect<R: Read, T>(
    reader: R,
    input_len: Option<u64>,
    block: usize,
    map: impl Fn((Vidx, Vidx, f64)) -> T,
) -> Result<(MmHeader, Vec<T>), MmError> {
    let reader = MmReader::new(reader)?;
    let h = *reader.header();
    let holdable = match input_len {
        Some(len) => usize::try_from(len.saturating_add(1) / 4).unwrap_or(usize::MAX),
        None => UNSIZED_PREALLOC,
    };
    let mut out =
        Vec::with_capacity(h.nnz.min(holdable).saturating_mul(if h.mirror { 2 } else { 1 }));
    reader.read_blocks(block, |chunk| {
        out.extend(chunk.iter().map(|&e| map(e)));
        Ok::<_, MmError>(())
    })?;
    Ok((h, out))
}

/// What the banner and size line of a `coordinate` file declare.
#[derive(Clone, Copy, Debug)]
pub struct MmHeader {
    /// Row count.
    pub nrows: usize,
    /// Column count.
    pub ncols: usize,
    /// Entry lines the size line declares.
    pub nnz: usize,
    /// Whether entries carry a value field (the field is not `pattern`).
    pub has_value: bool,
    /// Whether off-diagonal entries are mirrored (`symmetric` and
    /// `skew-symmetric`).
    pub mirror: bool,
    /// The factor a mirrored value takes (`-1` for `skew-symmetric`).
    pub mirror_sign: f64,
}

impl MmHeader {
    /// The mirror image of an entry, when the symmetry asks for one.
    fn mirrored(&self, (i, j, w): (Vidx, Vidx, f64)) -> Option<(Vidx, Vidx, f64)> {
        (self.mirror && i != j).then_some((j, i, w * self.mirror_sign))
    }
}

/// `true` for the header lines the size-line search skips: blank and `%`
/// comments.
fn is_mm_comment(line: &str) -> bool {
    let trimmed = line.trim();
    trimmed.is_empty() || trimmed.starts_with('%')
}

/// Reads the banner and the size line from `lines`, leaving it at the
/// first entry line, and returns the header with the size line's number.
/// Only `coordinate` files with `general`, `symmetric` or `skew-symmetric`
/// symmetry are accepted, and dimensions must fit the vertex index type.
fn parse_mm_header(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<(MmHeader, usize), MmError> {
    let Some(header) = lines.next().transpose()? else {
        return Err(MmError::BadBanner { line: 1, text: String::new() });
    };
    let head_l = header.to_ascii_lowercase();
    let fields: Vec<&str> = head_l.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(MmError::BadBanner { line: 1, text: header });
    }
    if fields[2] != "coordinate" {
        return Err(MmError::UnsupportedFormat { line: 1, format: fields[2].to_string() });
    }
    let (mirror, mirror_sign) = match fields[4] {
        "general" => (false, 1.0),
        "symmetric" => (true, 1.0),
        "skew-symmetric" => (true, -1.0),
        other => return Err(MmError::UnsupportedSymmetry { line: 1, symmetry: other.to_string() }),
    };
    let has_value = fields[3] != "pattern";

    // Skip comments; first non-comment line is the size line.
    let mut line = 1;
    let mut size_line = None;
    for text in lines.by_ref() {
        let text = text?;
        line += 1;
        if !is_mm_comment(&text) {
            size_line = Some(text);
            break;
        }
    }
    let Some(size_line) = size_line else {
        return Err(MmError::BadSizeLine { line: line + 1, text: String::new() });
    };
    let mut it = size_line.split_whitespace();
    let mut dim = || it.next().and_then(|s| s.parse::<usize>().ok());
    let (Some(nrows), Some(ncols), Some(nnz)) = (dim(), dim(), dim()) else {
        return Err(MmError::BadSizeLine { line, text: size_line.trim().to_string() });
    };
    if nrows >= Vidx::MAX as usize || ncols >= Vidx::MAX as usize {
        return Err(MmError::TooLarge { line, nrows, ncols });
    }
    Ok((MmHeader { nrows, ncols, nnz, has_value, mirror, mirror_sign }, line))
}

/// A Matrix Market `coordinate` file with its header read: the one parser
/// behind every text loader.
///
/// [`MmReader::new`] reads the banner and the size line;
/// [`MmReader::for_each_chunk`] reads the body in fixed-size byte blocks,
/// carrying a line cut at a block edge into the next block. Blank and `%`
/// lines are skipped and tokens split on ASCII whitespace (so `\r\n` line
/// ends and tabs read as they should). Indices are checked unsigned
/// decimals with an optional `+`; values go through `str::parse::<f64>`.
/// Entries come out 0-based, `pattern` entries with value 1.0, and
/// mirror-expanded.
pub struct MmReader<R> {
    src: BufReader<R>,
    header: MmHeader,
    /// The size line's 1-based number; entry lines follow it.
    size_line: usize,
}

impl<R: Read> MmReader<R> {
    /// Reads the banner and the size line.
    pub fn new(reader: R) -> Result<Self, MmError> {
        let mut src = BufReader::new(reader);
        let (header, size_line) = parse_mm_header(&mut (&mut src).lines())?;
        Ok(Self { src, header, size_line })
    }

    /// What the banner and the size line declare.
    pub fn header(&self) -> &MmHeader {
        &self.header
    }

    /// Reads the body, handing the entries to `sink` in chunks in file
    /// order, each entry followed by its mirror. The first error, the
    /// reader's or the sink's, ends the read; a body holding other than
    /// the declared number of entry lines is a
    /// [`MmError::CountMismatch`], raised before the last chunk is handed
    /// over.
    pub fn for_each_chunk<E: From<MmError>>(
        self,
        sink: impl FnMut(&[(Vidx, Vidx, f64)]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.read_blocks(BLOCK_BYTES, sink)
    }

    fn read_blocks<E: From<MmError>>(
        mut self,
        block: usize,
        mut sink: impl FnMut(&[(Vidx, Vidx, f64)]) -> Result<(), E>,
    ) -> Result<(), E> {
        let h = self.header;
        let mut line = self.size_line;
        let mut seen = 0usize;
        let mut chunk = Vec::with_capacity(CHUNK_ENTRIES + 1);
        // `buf[..filled]` is text not yet parsed: at most one partial line
        // before a read, that line plus up to `block` new bytes after it.
        let mut buf: Vec<u8> = Vec::new();
        let mut filled = 0;
        loop {
            if buf.len() < filled + block {
                buf.resize(filled + block, 0);
            }
            let n = match self.src.read(&mut buf[filled..filled + block]) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(MmError::Io(e).into()),
            };
            filled += n;
            // Complete lines end at the last newline; at the end of input
            // the last line needs none.
            let end = if n == 0 {
                filled
            } else {
                match buf[filled - n..filled].iter().rposition(|&b| b == b'\n') {
                    Some(p) => filled - n + p + 1,
                    None => continue,
                }
            };
            if end > 0 {
                let body = buf[..end].strip_suffix(b"\n").unwrap_or(&buf[..end]);
                for text in body.split(|&b| b == b'\n') {
                    line += 1;
                    let Some(e) = parse_entry(text, &h, line)? else { continue };
                    seen += 1;
                    chunk.push(e);
                    chunk.extend(h.mirrored(e));
                    if chunk.len() >= CHUNK_ENTRIES {
                        sink(&chunk)?;
                        chunk.clear();
                    }
                }
            }
            buf.copy_within(end..filled, 0);
            filled -= end;
            if n == 0 {
                break;
            }
        }
        if seen != h.nnz {
            let e = MmError::CountMismatch { line: self.size_line, declared: h.nnz, found: seen };
            return Err(e.into());
        }
        if !chunk.is_empty() {
            sink(&chunk)?;
        }
        Ok(())
    }
}

/// The separators of entry tokens: ASCII whitespace, vertical tab included
/// (as `char::is_whitespace` has it).
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// Splits the next token off `rest`.
fn next_token<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let start = rest.iter().position(|&b| !is_space(b))?;
    let tail = &rest[start..];
    let len = tail.iter().position(|&b| is_space(b)).unwrap_or(tail.len());
    *rest = &tail[len..];
    Some(&tail[..len])
}

/// An unsigned decimal with an optional `+`, as `usize::from_str` reads it.
fn parse_index(tok: &[u8]) -> Option<usize> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |v, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v.checked_mul(10)?.checked_add(usize::from(d))
    })
}

/// A value token as `f64::from_str` reads it.
fn parse_value(tok: &[u8]) -> Option<f64> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

/// The text of an entry line for an error message.
fn entry_text(text: &[u8]) -> String {
    String::from_utf8_lossy(text.trim_ascii()).into_owned()
}

/// Parses one body line into a 0-based `(row, col, value)`, or `None` for a
/// blank or `%` line. Coordinates must lie inside the declared shape and
/// values must be finite; tokens past the value are ignored.
fn parse_entry(
    text: &[u8],
    h: &MmHeader,
    line: usize,
) -> Result<Option<(Vidx, Vidx, f64)>, MmError> {
    let mut rest = text;
    let Some(first) = next_token(&mut rest) else { return Ok(None) };
    if first[0] == b'%' {
        return Ok(None);
    }
    let bad = || MmError::BadEntry { line, entry: entry_text(text) };
    let i = parse_index(first).ok_or_else(bad)?;
    let j = next_token(&mut rest).and_then(parse_index).ok_or_else(bad)?;
    let w = if h.has_value {
        let tok = next_token(&mut rest).ok_or_else(bad)?;
        let w = parse_value(tok).ok_or_else(bad)?;
        if !w.is_finite() {
            let value = String::from_utf8_lossy(tok).into_owned();
            return Err(MmError::NonFinite { line, value, entry: entry_text(text) });
        }
        w
    } else {
        1.0
    };
    if i == 0 || j == 0 || i > h.nrows || j > h.ncols {
        return Err(MmError::OutOfBounds { line, row: i, col: j });
    }
    Ok(Some(((i - 1) as Vidx, (j - 1) as Vidx, w)))
}

/// `true` when `entries` are strictly ascending in `(column, row)` order:
/// column-major sorted with no duplicate coordinates.
fn strictly_column_major<E>(entries: &[E], key: impl Fn(&E) -> (Vidx, Vidx)) -> bool {
    entries.windows(2).all(|w| key(&w[0]) < key(&w[1]))
}

/// Text bytes a writer gathers before handing them to its sink.
const WRITE_BYTES: usize = 1 << 16;

/// Appends the decimal digits of `v`.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Writes a `coordinate <field> general` file: the banner, the size line
/// and one line per entry, each starting with its 1-based coordinates and
/// finished by `tail` (which writes the newline).
fn write_coordinate<W: Write, E>(
    mut writer: W,
    field: &str,
    (nrows, ncols): (usize, usize),
    entries: &[E],
    coords: impl Fn(&E) -> (Vidx, Vidx),
    tail: impl Fn(&mut Vec<u8>, &E) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(WRITE_BYTES + 64);
    writeln!(buf, "%%MatrixMarket matrix coordinate {field} general")?;
    writeln!(buf, "{} {} {}", nrows, ncols, entries.len())?;
    for e in entries {
        let (i, j) = coords(e);
        push_decimal(&mut buf, u64::from(i) + 1);
        buf.push(b' ');
        push_decimal(&mut buf, u64::from(j) + 1);
        tail(&mut buf, e)?;
        if buf.len() >= WRITE_BYTES {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    writer.flush()
}

/// Writes a pattern matrix in Matrix Market `coordinate pattern general`
/// format (sorted, deduplicated, 1-based). Entries already in that order
/// (every overlay snapshot's are) are written as they are, with no copy.
pub fn write_matrix_market<W: Write>(t: &Triples, writer: W) -> std::io::Result<()> {
    let sorted;
    let t = if strictly_column_major(t.entries(), |&(i, j)| (j, i)) {
        t
    } else {
        let mut s = t.clone();
        s.sort_dedup();
        sorted = s;
        &sorted
    };
    write_coordinate(
        writer,
        "pattern",
        (t.nrows(), t.ncols()),
        t.entries(),
        |&e| e,
        |buf, _| {
            buf.push(b'\n');
            Ok(())
        },
    )
}

/// Writes a pattern matrix to a file on disk.
pub fn write_matrix_market_file(t: &Triples, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_matrix_market(t, std::fs::File::create(path)?)
}

/// Writes a weighted matrix in Matrix Market `coordinate real general`
/// format (sorted, 1-based; already sorted entries are not copied).
/// Entries must already be unique — the
/// weighted containers ([`WCsc`](crate::WCsc),
/// [`CscOverlay<f64>`](crate::CscOverlay)) guarantee that.
pub fn write_matrix_market_weighted<W: Write>(
    nrows: usize,
    ncols: usize,
    entries: &[(Vidx, Vidx, f64)],
    writer: W,
) -> std::io::Result<()> {
    let mut sorted = Vec::new();
    let entries = if strictly_column_major(entries, |&(i, j, _)| (j, i)) {
        entries
    } else {
        sorted.extend_from_slice(entries);
        sorted.sort_unstable_by_key(|&(i, j, _)| (j, i));
        &sorted
    };
    write_coordinate(
        writer,
        "real",
        (nrows, ncols),
        entries,
        |&(i, j, _)| (i, j),
        |buf, &(_, _, v)| writeln!(buf, " {v}"),
    )
}

/// Writes a weighted matrix to a file on disk.
pub fn write_matrix_market_weighted_file(
    nrows: usize,
    ncols: usize,
    entries: &[(Vidx, Vidx, f64)],
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    write_matrix_market_weighted(nrows, ncols, entries, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permute::SplitMix64;

    /// Parsed Matrix Market body: dimensions plus 0-based weighted entries.
    type MmBody = (usize, usize, Vec<(Vidx, Vidx, f64)>);

    /// The body through the block reader at block size `block`.
    fn block_read(src: &[u8], block: usize) -> Result<MmBody, MmError> {
        let (h, entries) = collect(src, None, block, |e| e)?;
        Ok((h.nrows, h.ncols, entries))
    }

    /// The line parser the block reader replaced, kept as its reference:
    /// `BufRead::lines`, Unicode `trim`/`split_whitespace` and `str::parse`
    /// per line. The header goes through the shared header parser.
    mod reference {
        use super::super::{parse_mm_header, MmHeader};
        use super::MmBody;
        use crate::Vidx;
        use std::io::{BufRead, BufReader};

        fn is_comment(line: &str) -> bool {
            let trimmed = line.trim();
            trimmed.is_empty() || trimmed.starts_with('%')
        }

        fn entry(line: &str, h: &MmHeader) -> Result<(Vidx, Vidx, f64), String> {
            let trimmed = line.trim();
            let mut it = trimmed.split_whitespace();
            let mut index = || -> Result<usize, String> {
                it.next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad entry line: {trimmed}"))
            };
            let (i, j) = (index()?, index()?);
            let w = if h.has_value {
                let tok = it.next().unwrap_or_default();
                let w: f64 = tok.parse().map_err(|_| format!("missing value field: {trimmed}"))?;
                if !w.is_finite() {
                    return Err(format!("non-finite value {tok}"));
                }
                w
            } else {
                1.0
            };
            if i == 0 || j == 0 || i > h.nrows || j > h.ncols {
                return Err(format!("entry ({i}, {j}) out of bounds (1-based)"));
            }
            Ok(((i - 1) as Vidx, (j - 1) as Vidx, w))
        }

        pub fn parse(src: &[u8]) -> Result<MmBody, String> {
            let mut lines = BufReader::new(src).lines();
            let (h, _) = parse_mm_header(&mut lines).map_err(|e| e.to_string())?;
            let mut entries = Vec::new();
            let mut seen = 0usize;
            for line in lines {
                let line = line.map_err(|e| e.to_string())?;
                if is_comment(&line) {
                    continue;
                }
                let e = entry(&line, &h)?;
                entries.push(e);
                entries.extend(h.mirrored(e));
                seen += 1;
            }
            if seen != h.nnz {
                return Err(format!("expected {} entries, found {seen}", h.nnz));
            }
            Ok((h.nrows, h.ncols, entries))
        }
    }

    /// Block sizes every differential case is read at: lines cut at every
    /// edge (1), cut mid-token (7), several lines a block (64), and the
    /// production size.
    const BLOCKS: [usize; 4] = [1, 7, 64, BLOCK_BYTES];

    /// `Ok` values equal bit for bit, or an error on both sides.
    fn same(got: &Result<MmBody, MmError>, want: &Result<MmBody, String>) -> bool {
        let bits = |b: &MmBody| {
            (b.0, b.1, b.2.iter().map(|&(i, j, w)| (i, j, w.to_bits())).collect::<Vec<_>>())
        };
        match (got, want) {
            (Ok(g), Ok(w)) => bits(g) == bits(w),
            (Err(_), Err(_)) => true,
            _ => false,
        }
    }

    /// Suite seed; `MCM_TEST_SEED` (decimal or `0x` hex) replays a run.
    fn suite_seed() -> u64 {
        let Ok(raw) = std::env::var("MCM_TEST_SEED") else { return 0x4D4D };
        let parsed = match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        parsed.unwrap_or_else(|_| panic!("MCM_TEST_SEED={raw} is not a u64"))
    }

    /// Value tokens: small and long integers, signed zeros, decimals,
    /// exponents, non-finite spellings and malformed numbers.
    const VALUES: &[&str] = &[
        "1",
        "-3",
        "+2",
        "0",
        "-0",
        "+0",
        "-0.0",
        "0.0",
        "2.5",
        "-7.25",
        "1e3",
        "-1E-2",
        ".5",
        "5.",
        "+.5e+2",
        "123456789012345",
        "-999999999999999",
        "000000000000042",
        "1234567890123456",
        "9007199254740993",
        "0.1",
        "3.141592653589793",
        "1e-310",
        "1e400",
        "inf",
        "-inf",
        "+inf",
        "nan",
        "NaN",
        "infinity",
        "0x10",
        "1.5.2",
        "+-1",
        "--1",
        "1e",
        "e5",
        "-",
        "+",
        ".",
    ];

    /// Bytes a mutation inserts: separators, line structure, number
    /// syntax, and bytes that are whitespace to neither parser.
    const INSERTS: &[u8] = b" \t\r\n\x0b\x0c\x00\x1f%+-.e0919x";

    fn pick<'a, T>(rng: &mut SplitMix64, from: &'a [T]) -> &'a T {
        &from[rng.below(from.len() as u64) as usize]
    }

    /// A small valid-ish document: any field and symmetry, CRLF or LF,
    /// comments and blank lines between entries, tabs, vertical tabs, form
    /// feeds and runs of spaces,
    /// `+` and zero-padded indices, trailing tokens, a miscounted size
    /// line now and then, and sometimes no final newline.
    fn document(rng: &mut SplitMix64) -> Vec<u8> {
        let field = *pick(rng, &["pattern", "real", "integer", "complex"]);
        let symmetry = *pick(rng, &["general", "symmetric", "skew-symmetric"]);
        let (nrows, ncols) = (1 + rng.below(5), 1 + rng.below(5));
        let k = rng.below(7);
        let declared = match rng.below(8) {
            0 => k + 1,
            1 if k > 0 => k - 1,
            _ => k,
        };
        let eol = if rng.below(3) == 0 { "\r\n" } else { "\n" };
        let mut doc = format!("%%MatrixMarket matrix coordinate {field} {symmetry}{eol}");
        if rng.below(2) == 0 {
            doc += &format!("% header comment{eol}");
        }
        doc += &format!("{nrows} {ncols} {declared}{eol}");
        for e in 0..k {
            match rng.below(6) {
                0 => doc += &format!("{}{eol}", pick(rng, &["% mid", "  % indented", "%%", "%"])),
                1 => doc += &format!("{}{eol}", pick(rng, &["", "  ", "\t", " \t ", "\x0b"])),
                _ => {}
            }
            let sep = *pick(rng, &[" ", "\t", "  ", " \t ", "\x0b", " \x0c"]);
            let lead = *pick(rng, &["", "", "", " ", "\t", "\x0c"]);
            let index = |rng: &mut SplitMix64, n: u64| match rng.below(12) {
                0 => format!("+{}", 1 + rng.below(n)),
                1 => format!("0{}", 1 + rng.below(n)),
                2 => format!("{}", rng.below(n + 2)),
                _ => format!("{}", 1 + rng.below(n)),
            };
            let (i, j) = (index(rng, nrows), index(rng, ncols));
            doc += &format!("{lead}{i}{sep}{j}");
            if field != "pattern" && rng.below(16) != 0 {
                doc += &format!("{sep}{}", pick(rng, VALUES));
            }
            if field == "complex" || rng.below(6) == 0 {
                doc += &format!("{sep}{}", pick(rng, &["7", "-1.5", "x", "1 2"]));
            }
            let last = e + 1 == k;
            if !(last && rng.below(3) == 0) {
                doc += if rng.below(10) == 0 { " \t" } else { "" };
                doc += eol;
            }
        }
        doc.into_bytes()
    }

    /// Up to three byte-level mutations, ASCII only (the parsers differ on
    /// some non-ASCII input by design; see
    /// `deliberate_differences_from_the_line_parser`).
    fn mutate(rng: &mut SplitMix64, doc: &mut Vec<u8>) {
        for _ in 0..rng.below(4) {
            let at = rng.below(doc.len() as u64 + 1) as usize;
            match rng.below(6) {
                0 if at < doc.len() => {
                    doc.remove(at);
                }
                1 => doc.insert(at, *pick(rng, INSERTS)),
                2 => doc.truncate(at),
                3 => {
                    let digits = *pick(rng, &["18446744073709551616", "99999999999999999999"]);
                    doc.splice(at..at, digits.bytes());
                }
                4 => {
                    // Duplicate the line around `at`.
                    let start = doc[..at].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                    let end = doc[at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(doc.len(), |p| at + p + 1);
                    let line = doc[start..end].to_vec();
                    doc.splice(end..end, line);
                }
                _ => {
                    if let Some(p) = doc[at.min(doc.len())..].iter().position(|&b| b == b'\n') {
                        doc.insert(at + p, b'\r');
                    }
                }
            }
        }
    }

    #[test]
    fn block_reader_matches_the_line_parser_on_a_seeded_corpus() {
        let seed = suite_seed();
        let mut rng = SplitMix64::new(seed);
        let (mut ok, mut err) = (0, 0);
        for case in 0..4000 {
            let mut doc = document(&mut rng);
            if rng.below(3) != 0 {
                mutate(&mut rng, &mut doc);
            }
            let want = reference::parse(&doc);
            for block in BLOCKS {
                let got = block_read(&doc, block);
                assert!(
                    same(&got, &want),
                    "case {case} (MCM_TEST_SEED={seed:#x}) at block {block}: \
                     {got:?} vs {want:?} on {:?}",
                    String::from_utf8_lossy(&doc)
                );
            }
            if want.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
        }
        assert!(ok > 400 && err > 400, "a one-sided corpus: {ok} ok, {err} errors");
    }

    #[test]
    fn block_reader_reads_the_same_at_every_block_edge() {
        // Every block size from one byte to past the file cuts some line at
        // every position: CRLF, tabs, a mid-body comment and blank line,
        // both fast-path and general values, a skew mirror, and no final
        // newline.
        let good = "%%MatrixMarket matrix coordinate real skew-symmetric\r\n\
                    % c\r\n\
                    4 4 5\r\n\
                    2 1 -7\r\n\
                    \r\n\
                    \t3\t1\t1e-3 trailing\r\n\
                    % mid-body\n\
                    +4 2 123456789012345\n\
                    4 4 -0.0\n\
                    1 3 0.1";
        let want = reference::parse(good.as_bytes()).unwrap();
        assert_eq!(want.2.len(), 9, "{want:?}");
        let bad = format!("{good}\n4 5 1.0\n");
        for block in 1..=good.len() + 1 {
            assert!(same(&block_read(good.as_bytes(), block), &Ok(want.clone())), "block {block}");
            // The entry past the shape is on line 11, whatever the cut.
            let err = block_read(bad.as_bytes(), block).unwrap_err();
            assert!(
                matches!(err, MmError::OutOfBounds { line: 11, row: 4, col: 5 }),
                "block {block}: {err}"
            );
        }
    }

    #[test]
    fn deliberate_differences_from_the_line_parser() {
        // The block reader splits on ASCII whitespace and reads bytes; the
        // line parser checked UTF-8 per line and trimmed Unicode
        // whitespace. These inputs are read differently on purpose; the
        // seeded corpus is ASCII so that it stays clear of them.
        let banner = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n";
        let doc = |body: &[u8]| [banner.as_bytes(), body].concat();
        // 1. Bytes that are not UTF-8 in a `%` comment or in a token past
        //    the ones an entry uses: the block reader never reads them.
        for body in [&b"% caf\xe9\n1 2\n"[..], b"1 2 \xff\xfe\n"] {
            assert!(reference::parse(&doc(body)).is_err());
            assert_eq!(block_read(&doc(body), BLOCK_BYTES).unwrap().2, vec![(0, 1, 1.0)]);
        }
        // 2. Non-ASCII whitespace (U+0085, U+00A0, U+3000) is a separator
        //    to the line parser but part of a token to the block reader.
        for body in ["1\u{a0}2\n", "\u{3000}1 2\n", "1 2\u{85}\n", "\u{a0}% note\n1 2\n"] {
            assert!(reference::parse(&doc(body.as_bytes())).is_ok(), "{body:?}");
            let err = block_read(&doc(body.as_bytes()), BLOCK_BYTES).unwrap_err();
            assert!(matches!(err, MmError::BadEntry { line: 3, .. }), "{body:?}: {err}");
        }
    }

    #[test]
    fn errors_are_typed_with_their_line_numbers() {
        let read = |src: &str| read_matrix_market_weighted(src.as_bytes()).map(|_| ()).unwrap_err();
        let banner = "%%MatrixMarket matrix coordinate real general\n";
        type Check = fn(&MmError) -> bool;
        let cases: Vec<(String, Check)> = vec![
            (
                String::new(),
                |e| matches!(e, MmError::BadBanner { line: 1, text } if text.is_empty()),
            ),
            ("garbage\n1 1 0\n".into(), |e| matches!(e, MmError::BadBanner { line: 1, .. })),
            (
                "%%MatrixMarket matrix array real general\n1 1 1\n1.0\n".into(),
                |e| matches!(e, MmError::UnsupportedFormat { line: 1, format } if format == "array"),
            ),
            (
                "%%MatrixMarket matrix coordinate real hermitian\n".into(),
                |e| matches!(e, MmError::UnsupportedSymmetry { line: 1, symmetry } if symmetry == "hermitian"),
            ),
            (
                format!("{banner}% only comments\n\n"),
                |e| matches!(e, MmError::BadSizeLine { line: 4, text } if text.is_empty()),
            ),
            (format!("{banner}%\n2 x 1\n"), |e| matches!(e, MmError::BadSizeLine { line: 3, .. })),
            (format!("{banner}4294967295 1 0\n"), |e| {
                matches!(e, MmError::TooLarge { line: 2, nrows: 4294967295, ncols: 1 })
            }),
            (
                format!("{banner}2 2 2\n1 1 1\n\n1 -2 1\n"),
                |e| matches!(e, MmError::BadEntry { line: 5, entry } if entry == "1 -2 1"),
            ),
            (format!("{banner}2 2 1\n%\n1 1\n"), |e| {
                matches!(e, MmError::BadEntry { line: 4, .. })
            }),
            (format!("{banner}2 2 1\n3 1 1\n"), |e| {
                matches!(e, MmError::OutOfBounds { line: 3, row: 3, col: 1 })
            }),
            (
                format!("{banner}2 2 2\n1 1 1\n2 2 -inf\n"),
                |e| matches!(e, MmError::NonFinite { line: 4, value, .. } if value == "-inf"),
            ),
            (format!("{banner}% c\n2 2 3\n1 1 1\n"), |e| {
                matches!(e, MmError::CountMismatch { line: 3, declared: 3, found: 1 })
            }),
        ];
        for (src, want) in cases {
            let err = read(&src);
            assert!(want(&err), "{src:?}: {err:?}");
            assert!(err.to_string().starts_with("Matrix Market parse error: line "), "{err}");
        }
        let io = read_matrix_market(&b"%%MatrixMarket \xff\n"[..]).unwrap_err();
        assert!(matches!(io, MmError::Io(_)), "{io:?}");
    }

    #[test]
    fn chunks_arrive_in_file_order_with_mirrors_and_bounded_size() {
        // 3 × CHUNK_ENTRIES / 2 symmetric off-diagonal entries: each chunk
        // holds at most CHUNK_ENTRIES + 1 entries, mirrors follow their
        // entry, and the chunks concatenate to the in-memory read.
        let n = 3 * CHUNK_ENTRIES / 2;
        let mut src = format!("%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {n}\n");
        for k in 1..=n {
            src += &format!("{} {}\n", k % n + 1, k);
        }
        let reader = MmReader::new(src.as_bytes()).unwrap();
        let (mut sizes, mut all) = (Vec::new(), Vec::new());
        reader
            .for_each_chunk(|c| {
                sizes.push(c.len());
                all.extend_from_slice(c);
                Ok::<_, MmError>(())
            })
            .unwrap();
        assert!(sizes.iter().all(|&s| s <= CHUNK_ENTRIES + 1), "{sizes:?}");
        assert_eq!(all.len(), 2 * n);
        assert_eq!(&all[..2], &[(1, 0, 1.0), (0, 1, 1.0)]);
        assert_eq!(block_read(src.as_bytes(), BLOCK_BYTES).unwrap().2, all);
    }

    #[test]
    fn integer_formatter_writes_what_writeln_wrote() {
        for v in [0u64, 1, 9, 10, 99, 100, 4294967295, 4294967296, u64::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
        let t = Triples::from_edges(5, 4, vec![(0, 0), (4, 1), (2, 3), (3, 3)]);
        let mut out = Vec::new();
        write_matrix_market(&t, &mut out).unwrap();
        let mut want = String::from("%%MatrixMarket matrix coordinate pattern general\n5 4 4\n");
        for &(i, j) in t.entries() {
            want += &format!("{} {}\n", i + 1, j + 1);
        }
        assert_eq!(String::from_utf8(out).unwrap(), want);
        let w = [(0, 0, 2.5), (1, 0, -0.0), (0, 2, 1e-7), (2, 2, 3.0)];
        let mut out = Vec::new();
        write_matrix_market_weighted(3, 3, &w, &mut out).unwrap();
        let mut want = String::from("%%MatrixMarket matrix coordinate real general\n3 3 4\n");
        for &(i, j, v) in &w {
            want += &format!("{} {} {}\n", i + 1, j + 1, v);
        }
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }

    #[test]
    fn parses_pattern_general() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   % a comment\n\
                   3 4 2\n\
                   1 1\n\
                   3 4\n";
        let t = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!((t.nrows(), t.ncols(), t.len()), (3, 4, 2));
        assert_eq!(t.entries(), &[(0, 0), (2, 3)]);
    }

    #[test]
    fn parses_real_values_and_ignores_them() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 2\n\
                   1 2 3.5\n\
                   2 1 -1e-3\n";
        let t = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(t.entries(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn mirrors_symmetric() {
        let src = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                   3 3 2\n\
                   2 1\n\
                   3 3\n";
        let t = read_matrix_market(src.as_bytes()).unwrap();
        // (1,0) mirrored to (0,1); diagonal (2,2) not mirrored.
        let mut e = t.entries().to_vec();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (1, 0), (2, 2)]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1 1\n1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_out_of_bounds_and_count_mismatch() {
        let oob = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(read_matrix_market(oob.as_bytes()).is_err());
        let short = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n";
        assert!(read_matrix_market(short.as_bytes()).is_err());
    }

    #[test]
    fn hostile_headers_are_typed_errors_not_aborts() {
        // A declared nnz of ~1e17 once asked the allocator for exabytes.
        let huge_nnz =
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 99999999999999999\n1 1\n";
        let err = read_matrix_market(huge_nnz.as_bytes()).unwrap_err();
        let mismatch = |e: &MmError| {
            matches!(e, MmError::CountMismatch { declared: 99999999999999999, found: 1, .. })
        };
        assert!(mismatch(&err), "{err}");
        let path = std::env::temp_dir().join("mcm_io_huge_nnz.mtx");
        std::fs::write(&path, huge_nnz).unwrap();
        let from_file = read_matrix_market_file(&path).map(|_| ());
        let weighted = read_matrix_market_weighted_file(&path).map(|_| ());
        std::fs::remove_file(&path).ok();
        assert!(from_file.as_ref().is_err_and(mismatch), "{from_file:?}");
        assert!(weighted.as_ref().is_err_and(mismatch), "{weighted:?}");

        // Dimensions past the vertex index type were an assert! panic.
        for size in ["4294967295 2 1", "2 4294967296 1", "99999999999999999 2 1"] {
            let src = format!("%%MatrixMarket matrix coordinate pattern general\n{size}\n1 1\n");
            let err = read_matrix_market(src.as_bytes()).unwrap_err();
            assert!(matches!(err, MmError::TooLarge { line: 2, .. }), "{err}");
            assert!(err.to_string().contains("vertex index"), "{err}");
            assert!(read_matrix_market_weighted(src.as_bytes()).is_err());
        }
    }

    #[test]
    fn non_finite_values_are_typed_errors() {
        for value in ["inf", "-inf", "NaN", "nan", "infinity"] {
            let src =
                format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 {value}\n");
            for err in [
                read_matrix_market_weighted(src.as_bytes()).map(|_| ()).unwrap_err(),
                read_matrix_market(src.as_bytes()).map(|_| ()).unwrap_err(),
            ] {
                assert!(
                    matches!(err, MmError::NonFinite { value: ref v, .. } if v == value),
                    "{err}"
                );
                assert!(err.to_string().contains(value), "{err}");
            }
        }
    }

    #[test]
    fn weighted_read_keeps_values() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   2 2 3\n\
                   1 1 2.5\n\
                   2 1 -4\n\
                   2 2 1e2\n";
        let a = read_matrix_market_weighted(src.as_bytes()).unwrap();
        assert_eq!(a.weight(0, 0), Some(2.5));
        assert_eq!(a.weight(1, 0), Some(-4.0));
        assert_eq!(a.weight(1, 1), Some(100.0));
    }

    #[test]
    fn weighted_pattern_defaults_to_one() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let a = read_matrix_market_weighted(src.as_bytes()).unwrap();
        assert_eq!(a.weight(0, 1), Some(1.0));
    }

    #[test]
    fn skew_symmetric_negates_the_mirror() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 1 3.0\n";
        let a = read_matrix_market_weighted(src.as_bytes()).unwrap();
        assert_eq!(a.weight(1, 0), Some(3.0));
        assert_eq!(a.weight(0, 1), Some(-3.0));
    }

    #[test]
    fn sorted_and_shuffled_inputs_write_identical_bytes() {
        // The sorted fast path writes exactly what the sorting path writes,
        // for both formats; the shuffled pattern input also carries a
        // duplicate, which the sorting path drops.
        let sorted = vec![(0, 0), (2, 0), (1, 1), (0, 3), (3, 3)];
        let mut shuffled = vec![(3, 3), (1, 1), (0, 0), (0, 3), (2, 0), (1, 1)];
        let bytes = |t: &Triples| {
            let mut out = Vec::new();
            write_matrix_market(t, &mut out).unwrap();
            out
        };
        let want = bytes(&Triples::from_edges(4, 5, sorted.clone()));
        assert_eq!(bytes(&Triples::from_edges(4, 5, shuffled.clone())), want);
        assert!(String::from_utf8(want).unwrap().contains("\n4 5 5\n"));
        shuffled.pop();
        let weigh = |e: &[(Vidx, Vidx)]| -> Vec<(Vidx, Vidx, f64)> {
            e.iter().map(|&(i, j)| (i, j, f64::from(i * 10 + j) + 0.5)).collect()
        };
        let wbytes = |e: &[(Vidx, Vidx, f64)]| {
            let mut out = Vec::new();
            write_matrix_market_weighted(4, 5, e, &mut out).unwrap();
            out
        };
        assert_eq!(wbytes(&weigh(&shuffled)), wbytes(&weigh(&sorted)));
    }

    #[test]
    fn write_read_roundtrip() {
        let t = Triples::from_edges(4, 3, vec![(3, 2), (0, 0), (1, 2)]);
        let mut buf = Vec::new();
        write_matrix_market(&t, &mut buf).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        let mut want = t.clone();
        want.sort_dedup();
        assert_eq!(back, want);
    }

    #[test]
    fn file_roundtrip_at_buffered_scale() {
        // Large enough that the write spans many BufWriter flushes and
        // the read spans many BufReader refills; deterministic entries so
        // the file is identical across platforms.
        let (n1, n2) = (211usize, 193usize);
        let mut t = Triples::new(n1, n2);
        let mut x = 0x9E37u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t.push(((x >> 33) % n1 as u64) as Vidx, (x % n2 as u64) as Vidx);
        }
        let path = std::env::temp_dir().join("mcm_io_file_roundtrip.mtx");
        write_matrix_market_file(&t, &path).unwrap();
        let back = read_matrix_market_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut want = t.clone();
        want.sort_dedup();
        assert_eq!(back, want);
        assert!(want.len() > 4000, "dedup collapsed the instance: {}", want.len());
    }

    #[test]
    fn weighted_write_read_roundtrip() {
        let entries = vec![(0, 0, 2.5), (2, 1, -1.0), (1, 2, 7.0)];
        let mut buf = Vec::new();
        write_matrix_market_weighted(3, 3, &entries, &mut buf).unwrap();
        let back = read_matrix_market_weighted(&buf[..]).unwrap();
        assert_eq!(back.nnz(), 3);
        for &(i, j, v) in &entries {
            assert_eq!(back.weight(i, j as usize), Some(v));
        }
    }
}
