//! Matrix Market I/O for pattern matrices.
//!
//! The paper evaluates on matrices from the University of Florida (now
//! SuiteSparse) collection, distributed in Matrix Market format. The
//! collection is not available offline in this environment (see DESIGN.md for
//! the synthetic stand-ins), but the reader/writer lets downstream users run
//! the library on the *actual* UF matrices: matching only needs the pattern,
//! so `pattern`, `real`, `integer`, and `complex` fields are all accepted.
//! Values are kept only by the weighted readers, but every reader requires
//! them to be finite. The header and entry parsers are public so the
//! streaming MCSB converter (`mcm-store`) parses exactly the same way.

use crate::{Triples, Vidx};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file, with a human-readable explanation.
    Parse(String),
    /// An entry whose value is infinite or NaN. Matching weights must be
    /// finite: an infinite one makes the auction bid forever.
    NonFinite {
        /// The value field as written.
        value: String,
        /// The entry line it appeared on.
        entry: String,
    },
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
            MmError::NonFinite { value, entry } => {
                write!(f, "Matrix Market parse error: non-finite value {value} in entry: {entry}")
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

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Reads a Matrix Market `coordinate` file into a pattern [`Triples`] list.
///
/// Supports the `general`, `symmetric`, and `skew-symmetric` symmetry kinds
/// (symmetric entries are mirrored; diagonal entries of skew files are
/// dropped, as the format mandates they are absent). Values are discarded.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Triples, MmError> {
    read_pattern(reader, None)
}

fn read_pattern<R: Read>(reader: R, input_len: Option<u64>) -> Result<Triples, MmError> {
    let (nrows, ncols, entries) = parse_mm(reader, input_len)?;
    Ok(Triples::from_edges(nrows, ncols, entries.into_iter().map(|(i, j, _)| (i, j)).collect()))
}

/// Reads a Matrix Market `coordinate` file *with values* into a
/// [`WCsc`](crate::WCsc). `pattern` files get weight 1.0 per entry;
/// `symmetric` mirrors carry the same value, `skew-symmetric` the negated
/// one. `complex` entries use the real part.
pub fn read_matrix_market_weighted<R: Read>(reader: R) -> Result<crate::WCsc, MmError> {
    read_weighted(reader, None)
}

fn read_weighted<R: Read>(reader: R, input_len: Option<u64>) -> Result<crate::WCsc, MmError> {
    let (nrows, ncols, entries) = parse_mm(reader, input_len)?;
    Ok(crate::WCsc::from_weighted_triples(nrows, ncols, entries))
}

/// Reads a weighted Matrix Market file from disk.
pub fn read_matrix_market_weighted_file(path: impl AsRef<Path>) -> Result<crate::WCsc, MmError> {
    let (file, len) = open_with_len(path)?;
    read_weighted(file, Some(len))
}

fn open_with_len(path: impl AsRef<Path>) -> Result<(std::fs::File, u64), MmError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    Ok((file, len))
}

/// Entries preallocated for a reader of unknown length; past this the
/// entry list grows as lines actually arrive.
const UNSIZED_PREALLOC: usize = 1 << 16;

/// Parsed Matrix Market body: dimensions plus 0-based weighted entries.
type MmBody = (usize, usize, Vec<(Vidx, Vidx, f64)>);

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
    pub fn mirrored(&self, (i, j, w): (Vidx, Vidx, f64)) -> Option<(Vidx, Vidx, f64)> {
        (self.mirror && i != j).then_some((j, i, w * self.mirror_sign))
    }
}

/// `true` for the lines a Matrix Market body skips: blank and `%` comments.
pub fn is_mm_comment(line: &str) -> bool {
    let trimmed = line.trim();
    trimmed.is_empty() || trimmed.starts_with('%')
}

/// Reads the banner and the size line from `lines`, leaving it at the
/// first entry line. Only `coordinate` files with `general`, `symmetric`
/// or `skew-symmetric` symmetry are accepted, and dimensions must fit the
/// vertex index type.
pub fn parse_mm_header(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<MmHeader, MmError> {
    let header = lines.next().ok_or_else(|| parse_err("empty file"))??;
    let head_l = header.to_ascii_lowercase();
    let fields: Vec<&str> = head_l.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(format!("bad header: {header}")));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err("only coordinate (sparse) format is supported"));
    }
    let (mirror, mirror_sign) = match fields[4] {
        "general" => (false, 1.0),
        "symmetric" => (true, 1.0),
        "skew-symmetric" => (true, -1.0),
        other => return Err(parse_err(format!("unsupported symmetry: {other}"))),
    };
    let has_value = fields[3] != "pattern";

    // Skip comments; first non-comment line is the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        if !is_mm_comment(&line) {
            size_line = Some(line);
            break;
        }
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let mut it = size_line.split_whitespace();
    let mut dim = || -> Result<usize, MmError> {
        it.next().and_then(|s| s.parse().ok()).ok_or_else(|| parse_err("bad size line"))
    };
    let (nrows, ncols, nnz) = (dim()?, dim()?, dim()?);
    if nrows >= Vidx::MAX as usize || ncols >= Vidx::MAX as usize {
        return Err(parse_err(format!(
            "matrix dimensions {nrows}x{ncols} exceed the vertex index limit {}",
            Vidx::MAX - 1
        )));
    }
    Ok(MmHeader { nrows, ncols, nnz, has_value, mirror, mirror_sign })
}

/// Parses one entry line (not a comment) into a 0-based `(row, col,
/// value)`; `pattern` entries get value 1.0. Coordinates must lie inside
/// the declared shape and values must be finite.
pub fn parse_mm_entry(line: &str, h: &MmHeader) -> Result<(Vidx, Vidx, f64), MmError> {
    let trimmed = line.trim();
    let mut it = trimmed.split_whitespace();
    let mut index = || -> Result<usize, MmError> {
        it.next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(format!("bad entry line: {trimmed}")))
    };
    let (i, j) = (index()?, index()?);
    let w = if h.has_value {
        let tok = it.next().unwrap_or_default();
        let w: f64 =
            tok.parse().map_err(|_| parse_err(format!("missing value field: {trimmed}")))?;
        if !w.is_finite() {
            return Err(MmError::NonFinite { value: tok.to_string(), entry: trimmed.to_string() });
        }
        w
    } else {
        1.0
    };
    if i == 0 || j == 0 || i > h.nrows || j > h.ncols {
        return Err(parse_err(format!("entry ({i}, {j}) out of bounds (1-based)")));
    }
    Ok(((i - 1) as Vidx, (j - 1) as Vidx, w))
}

/// The shared parser: dimensions plus 0-based `(row, col, value)` entries
/// with symmetry already expanded. `input_len` is the input's byte length
/// when known; it bounds the entries a header may make the parser
/// preallocate.
fn parse_mm<R: Read>(reader: R, input_len: Option<u64>) -> Result<MmBody, MmError> {
    let mut lines = BufReader::new(reader).lines();
    let h = parse_mm_header(&mut lines)?;
    // The header is untrusted: never preallocate more entry lines than the
    // input can hold (the shortest, `1 1\n`, takes four bytes).
    let holdable = match input_len {
        Some(len) => usize::try_from(len.saturating_add(1) / 4).unwrap_or(usize::MAX),
        None => UNSIZED_PREALLOC,
    };
    let mut entries: Vec<(Vidx, Vidx, f64)> =
        Vec::with_capacity(h.nnz.min(holdable).saturating_mul(if h.mirror { 2 } else { 1 }));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        if is_mm_comment(&line) {
            continue;
        }
        let e = parse_mm_entry(&line, &h)?;
        entries.push(e);
        entries.extend(h.mirrored(e));
        seen += 1;
    }
    if seen != h.nnz {
        return Err(parse_err(format!("expected {} entries, found {seen}", h.nnz)));
    }
    Ok((h.nrows, h.ncols, entries))
}

/// Reads a Matrix Market file from disk.
pub fn read_matrix_market_file(path: impl AsRef<Path>) -> Result<Triples, MmError> {
    let (file, len) = open_with_len(path)?;
    read_pattern(file, Some(len))
}

/// `true` when `entries` are strictly ascending in `(column, row)` order:
/// column-major sorted with no duplicate coordinates.
fn strictly_column_major<E>(entries: &[E], key: impl Fn(&E) -> (Vidx, Vidx)) -> bool {
    entries.windows(2).all(|w| key(&w[0]) < key(&w[1]))
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
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(w, "{} {} {}", t.nrows(), t.ncols(), t.len())?;
    for &(i, j) in t.entries() {
        writeln!(w, "{} {}", i + 1, j + 1)?;
    }
    w.flush()
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
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", nrows, ncols, entries.len())?;
    for &(i, j, v) in entries {
        writeln!(w, "{} {} {}", i + 1, j + 1, v)?;
    }
    w.flush()
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
        assert!(matches!(err, MmError::Parse(ref m) if m.contains("expected")), "{err}");
        let path = std::env::temp_dir().join("mcm_io_huge_nnz.mtx");
        std::fs::write(&path, huge_nnz).unwrap();
        let from_file = read_matrix_market_file(&path).map(|_| ());
        let weighted = read_matrix_market_weighted_file(&path).map(|_| ());
        std::fs::remove_file(&path).ok();
        assert!(matches!(from_file, Err(MmError::Parse(_))), "{from_file:?}");
        assert!(matches!(weighted, Err(MmError::Parse(_))), "{weighted:?}");

        // Dimensions past the vertex index type were an assert! panic.
        for size in ["4294967295 2 1", "2 4294967296 1", "99999999999999999 2 1"] {
            let src = format!("%%MatrixMarket matrix coordinate pattern general\n{size}\n1 1\n");
            let err = read_matrix_market(src.as_bytes()).unwrap_err();
            assert!(matches!(err, MmError::Parse(ref m) if m.contains("vertex index")), "{err}");
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
