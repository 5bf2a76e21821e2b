//! Bounded-memory streaming ingest: edges in, sorted MCSB out.
//!
//! [`McsbStreamWriter`] accepts `(row, col[, weight])` edges in arbitrary
//! order and any quantity, and produces a sorted, deduplicated MCSB file
//! while holding only O(ncols + nnz / buckets) memory:
//!
//! 1. **Scatter**: each pushed chunk is grouped by column range with one
//!    counting pass into a scratch buffer the writer keeps, and each
//!    bucket's run is appended to its spill file with one write. A record
//!    is the packed key `(col << 32) | row` (little-endian, so the row
//!    bytes come first), followed on a weighted ingest by the weight.
//! 2. **Sort + merge**: `finish()` walks the buckets in column order — each
//!    bucket is small enough to sort and deduplicate in RAM (buckets are
//!    read back straight into decoded records and sorted in place, in
//!    parallel, `mcm-par`, a group at a time, as plain `u64` keys) — and
//!    appends each bucket's row indices (and values) with one write
//!    straight into their final position in the output file. Only the
//!    column-count array spans the whole graph.
//! 3. **Seal**: column counts become the colptr section, the payload is
//!    re-read once sequentially to compute its checksum, and the header is
//!    written last. The file is built under a temporary name beside the
//!    target and renamed over it only once sealed, so the target path
//!    always holds either the old graph or the new one: a reader that has
//!    the old file mapped keeps reading the old bytes, and a killed ingest
//!    leaves the old file untouched.
//!
//! This is what lets `mcm gen --format mcsb` emit scale-20+ RMAT graphs and
//! `mcm convert` ingest Matrix Market files larger than RAM.

use crate::format::{fnv1a, Header, StoreError, FNV_OFFSET};
use crate::write::pad_to;
use mcm_sparse::triples::{block_offsets, block_owner};
use mcm_sparse::Vidx;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Default number of column-range spill buckets.
///
/// Peak memory at `finish()` is roughly `threads × nnz/buckets` records
/// (12 bytes each on a pattern ingest, 28 on a weighted one), e.g.
/// ≈ 1.5 MB per thread for a 16M-edge graph at the default 128 buckets.
pub const DEFAULT_BUCKETS: usize = 128;

/// What [`McsbStreamWriter::finish`] produced.
#[derive(Clone, Copy, Debug)]
pub struct StreamSummary {
    /// Nonzeros after sorting and deduplication.
    pub nnz: u64,
    /// Final file size in bytes.
    pub bytes: u64,
}

/// A bounded-memory writer producing a sorted MCSB file from unsorted edges.
pub struct McsbStreamWriter {
    path: PathBuf,
    tmp_dir: PathBuf,
    nrows: usize,
    ncols: usize,
    weighted: bool,
    /// Column-range boundaries, one bucket per `block_offsets` slot.
    bounds: Vec<usize>,
    buckets: Vec<BufWriter<File>>,
    /// Records pushed per bucket (pre-dedup), for exact read-back sizing.
    pushed: Vec<u64>,
    /// Scratch kept across pushes: each edge's bucket, the buckets' run
    /// ends in `runs`, and the chunk's records grouped by bucket.
    owner: Vec<u32>,
    ends: Vec<usize>,
    runs: Vec<u8>,
}

impl McsbStreamWriter {
    /// Starts an ingest into `path` with [`DEFAULT_BUCKETS`] spill buckets.
    pub fn create(
        path: impl AsRef<Path>,
        nrows: usize,
        ncols: usize,
        weighted: bool,
    ) -> Result<Self, StoreError> {
        Self::create_with(path, nrows, ncols, weighted, DEFAULT_BUCKETS)
    }

    /// Starts an ingest with an explicit bucket count (≥ 1). More buckets
    /// lower peak memory at `finish()`; fewer buckets mean fewer open files.
    pub fn create_with(
        path: impl AsRef<Path>,
        nrows: usize,
        ncols: usize,
        weighted: bool,
        buckets: usize,
    ) -> Result<Self, StoreError> {
        if nrows >= Vidx::MAX as usize || ncols >= Vidx::MAX as usize {
            return Err(StoreError::Format(format!(
                "dimensions {nrows}x{ncols} exceed the 32-bit vertex index space"
            )));
        }
        let path = path.as_ref().to_path_buf();
        let tmp_dir = PathBuf::from(format!("{}.ingest-tmp", path.display()));
        std::fs::create_dir_all(&tmp_dir)?;
        let k = buckets.max(1).min(ncols.max(1));
        let bounds = block_offsets(ncols, k);
        let mut bucket_files = Vec::with_capacity(k);
        for b in 0..k {
            let f = File::create(tmp_dir.join(format!("bucket{b}.bin")))?;
            bucket_files.push(BufWriter::new(f));
        }
        Ok(Self {
            path,
            tmp_dir,
            nrows,
            ncols,
            weighted,
            bounds,
            buckets: bucket_files,
            pushed: vec![0; k],
            owner: Vec::new(),
            ends: vec![0; k],
            runs: Vec::new(),
        })
    }

    /// Number of records pushed so far (pre-dedup).
    pub fn pushed(&self) -> u64 {
        self.pushed.iter().sum()
    }

    /// Appends a chunk of pattern edges. Rejects out-of-bounds coordinates
    /// (naming the first, and spilling nothing of the chunk) and, on a
    /// weighted ingest, missing weights.
    pub fn push_edges(&mut self, edges: &[(Vidx, Vidx)]) -> Result<(), StoreError> {
        if self.weighted {
            return Err(StoreError::Format(
                "this ingest is weighted; use push_weighted_edges".to_string(),
            ));
        }
        self.spill(edges, |&(i, j)| (i, j), |&(i, j)| key(i, j).to_le_bytes())
    }

    /// Appends a chunk of weighted edges.
    pub fn push_weighted_edges(&mut self, edges: &[(Vidx, Vidx, f64)]) -> Result<(), StoreError> {
        if !self.weighted {
            return Err(StoreError::Format(
                "this ingest is unweighted; use push_edges".to_string(),
            ));
        }
        self.spill(
            edges,
            |&(i, j, _)| (i, j),
            |&(i, j, w)| {
                let mut rec = [0u8; 16];
                rec[..8].copy_from_slice(&key(i, j).to_le_bytes());
                rec[8..].copy_from_slice(&w.to_le_bytes());
                rec
            },
        )
    }

    /// Groups `edges` by bucket (one counting pass, which also checks the
    /// bounds before anything is spilled) and appends each bucket's run of
    /// `L`-byte records with one write.
    fn spill<T, const L: usize>(
        &mut self,
        edges: &[T],
        coords: impl Fn(&T) -> (Vidx, Vidx),
        record: impl Fn(&T) -> [u8; L],
    ) -> Result<(), StoreError> {
        self.owner.clear();
        self.ends.fill(0);
        for e in edges {
            let (i, j) = coords(e);
            let b = self.route(i, j)?;
            self.owner.push(b as u32);
            self.ends[b] += 1;
        }
        // Exclusive prefix sums: `ends[b]` becomes bucket b's first slot,
        // and the placement below advances it to the run's end.
        let mut at = 0;
        for e in &mut self.ends {
            at += std::mem::replace(e, at);
        }
        self.runs.resize(edges.len() * L, 0);
        for (e, &b) in edges.iter().zip(&self.owner) {
            let slot = &mut self.ends[b as usize];
            self.runs[*slot * L..(*slot + 1) * L].copy_from_slice(&record(e));
            *slot += 1;
        }
        let mut lo = 0;
        for (b, &hi) in self.ends.iter().enumerate() {
            if hi > lo {
                self.buckets[b].write_all(&self.runs[lo * L..hi * L])?;
                self.pushed[b] += (hi - lo) as u64;
            }
            lo = hi;
        }
        Ok(())
    }

    fn route(&self, i: Vidx, j: Vidx) -> Result<usize, StoreError> {
        if (i as usize) >= self.nrows || (j as usize) >= self.ncols {
            return Err(StoreError::Format(format!(
                "edge ({i}, {j}) out of bounds for a {}x{} graph",
                self.nrows, self.ncols
            )));
        }
        Ok(block_owner(&self.bounds, j as usize))
    }

    /// Reads spill bucket `b` back as decoded records, through `buf`.
    fn read_bucket(&self, b: usize, buf: &mut Vec<u8>) -> Result<Spilled, StoreError> {
        let rec_len = if self.weighted { 16 } else { 8 };
        let want = self.pushed[b] * rec_len as u64;
        let mut f = File::open(self.tmp_dir.join(format!("bucket{b}.bin")))?;
        let got = f.metadata()?.len();
        if got != want {
            return Err(StoreError::Format(format!(
                "spill bucket {b} is {got} bytes, expected {want}"
            )));
        }
        let n = self.pushed[b] as usize;
        let mut spilled = if self.weighted {
            Spilled::Weighted(Vec::with_capacity(n))
        } else {
            Spilled::Pattern(Vec::with_capacity(n))
        };
        buf.resize(rec_len * SPILL_READ_RECORDS, 0);
        let mut left = n;
        while left > 0 {
            let bytes = &mut buf[..rec_len * left.min(SPILL_READ_RECORDS)];
            f.read_exact(bytes)?;
            match &mut spilled {
                Spilled::Pattern(keys) => keys.extend(bytes.chunks_exact(8).map(word)),
                Spilled::Weighted(recs) => recs.extend(
                    bytes.chunks_exact(16).map(|r| (word(&r[..8]), f64::from_bits(word(&r[8..])))),
                ),
            }
            left -= bytes.len() / rec_len;
        }
        Ok(spilled)
    }

    /// Sorts, deduplicates, and seals the MCSB file. `threads` bounds the
    /// bucket-sort parallelism (and the transient memory: `threads` buckets
    /// are resident at once).
    pub fn finish(mut self, threads: usize) -> Result<StreamSummary, StoreError> {
        for b in &mut self.buckets {
            b.flush()?;
        }
        let nbuckets = self.buckets.len();
        self.buckets.clear(); // close the spill files

        // The rowind section's start is independent of the final nnz, so row
        // indices stream straight into place while counts accumulate.
        let provisional = Header::layout(self.nrows as u64, self.ncols as u64, 0, self.weighted);
        // Read+write: the checksum pass re-reads the payload at the end.
        let sealing = self.tmp_dir.join("sealing.mcsb");
        let mut out_file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&sealing)?;
        out_file.seek(SeekFrom::Start(provisional.rowind_off))?;
        let mut out = BufWriter::new(out_file);
        let mut values_tmp = if self.weighted {
            Some(BufWriter::new(File::create(self.tmp_dir.join("values.bin"))?))
        } else {
            None
        };

        let mut counts = vec![0u64; self.ncols + 1];
        let mut nnz = 0u64;
        let mut buf = Vec::new();
        let threads = threads.max(1);
        for group_start in (0..nbuckets).step_by(threads) {
            let group_end = (group_start + threads).min(nbuckets);
            // Read the group's spill files serially (I/O), decoding straight
            // into records; sort in parallel, in place.
            let mut spilled = Vec::with_capacity(group_end - group_start);
            for b in group_start..group_end {
                spilled.push(self.read_bucket(b, &mut buf)?);
            }
            let bounds = &self.bounds;
            let sorted: Vec<SortedBucket> =
                mcm_par::par_for_each_mut(&mut spilled, threads, |k, recs| {
                    let b = group_start + k;
                    sort_bucket(recs, bounds[b]..bounds[b + 1])
                });
            drop(spilled);
            for (k, bucket) in sorted.iter().enumerate() {
                let b = group_start + k;
                counts[self.bounds[b] + 1..self.bounds[b + 1] + 1]
                    .copy_from_slice(&bucket.col_counts);
                out.write_all(&bucket.rows)?;
                if let Some(vt) = &mut values_tmp {
                    vt.write_all(&bucket.values)?;
                }
                nnz += bucket.rows.len() as u64 / 4;
            }
        }

        // Seal: values after rowind, then colptr, then the checksummed header.
        let mut header = Header::layout(self.nrows as u64, self.ncols as u64, nnz, self.weighted);
        let mut pos = header.rowind_off + header.rowind_len;
        if let Some(vt) = values_tmp.take() {
            vt.into_inner().map_err(|e| StoreError::Format(format!("spill flush: {e}")))?;
            pos = pad_to(&mut out, pos, header.values_off)?;
            let mut src = BufReader::new(File::open(self.tmp_dir.join("values.bin"))?);
            let copied = std::io::copy(&mut src, &mut out)?;
            if copied != header.values_len {
                return Err(StoreError::Format(format!(
                    "values spill is {copied} bytes, expected {}",
                    header.values_len
                )));
            }
            pos += copied;
        }
        debug_assert_eq!(pos, header.file_len());
        out.flush()?;
        let mut out_file =
            out.into_inner().map_err(|e| StoreError::Format(format!("output flush: {e}")))?;
        // An empty rowind section leaves the file short of its declared
        // extent (nothing was written past the seek); extend explicitly.
        out_file.set_len(header.file_len())?;
        let bytes = header.file_len();

        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        out_file.seek(SeekFrom::Start(header.colptr_off))?;
        let mut out = BufWriter::new(out_file);
        let mut checksum = FNV_OFFSET;
        for &c in &counts {
            let le = c.to_le_bytes();
            checksum = fnv1a(checksum, &le);
            out.write_all(&le)?;
        }
        out.flush()?;
        let mut out_file =
            out.into_inner().map_err(|e| StoreError::Format(format!("output flush: {e}")))?;

        // One sequential re-read of the payload finishes the checksum (FNV
        // is order-dependent and the rowind bytes were written before the
        // colptr bytes existed).
        checksum = hash_section(&mut out_file, header.rowind_off, header.rowind_len, checksum)?;
        if self.weighted {
            checksum = hash_section(&mut out_file, header.values_off, header.values_len, checksum)?;
        }
        header.payload_checksum = checksum;
        out_file.seek(SeekFrom::Start(0))?;
        out_file.write_all(&header.encode())?;
        out_file.flush()?;
        drop(out_file);
        std::fs::rename(&sealing, &self.path)?;
        Ok(StreamSummary { nnz, bytes })
    }
}

impl Drop for McsbStreamWriter {
    fn drop(&mut self) {
        // Finished or abandoned, the spill directory goes; an abandoned
        // ingest never touched the target path.
        std::fs::remove_dir_all(&self.tmp_dir).ok();
    }
}

/// The spill record key of edge `(i, j)`: sorting keys sorts by column,
/// then row, and a key's little-endian bytes are the row's, then the
/// column's.
fn key(i: Vidx, j: Vidx) -> u64 {
    ((j as u64) << 32) | i as u64
}

/// Records read back per `read` call when a spill bucket is decoded.
const SPILL_READ_RECORDS: usize = 1 << 13;

/// A little-endian `u64` from 8 bytes.
fn word(r: &[u8]) -> u64 {
    u64::from_le_bytes(r.try_into().unwrap())
}

/// One spill bucket's records, decoded: keys, or keys with weights.
enum Spilled {
    Pattern(Vec<u64>),
    Weighted(Vec<(u64, f64)>),
}

/// One sorted, deduplicated spill bucket, ready to drain: its row indices
/// and (for weighted files) values as file bytes, and the entry count of
/// each column in its range.
struct SortedBucket {
    rows: Vec<u8>,
    values: Vec<u8>,
    col_counts: Vec<u64>,
}

/// Sorts and deduplicates one spill bucket holding the columns `cols`, in
/// place. Duplicate coordinates keep the largest weight, matching
/// `WCsc::from_weighted_triples`.
fn sort_bucket(spilled: &mut Spilled, cols: Range<usize>) -> SortedBucket {
    let (keys, values): (Vec<u64>, Vec<u8>) = match spilled {
        Spilled::Pattern(keys) => {
            keys.sort_unstable();
            keys.dedup();
            (std::mem::take(keys), Vec::new())
        }
        Spilled::Weighted(recs) => {
            // Records equal under this order are equal bit for bit, so the
            // unstable sort leaves nothing to chance.
            recs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
            recs.dedup_by_key(|r| r.0);
            let values = recs.iter().flat_map(|r| r.1.to_le_bytes()).collect();
            (std::mem::take(recs).into_iter().map(|r| r.0).collect(), values)
        }
    };
    let mut col_counts = vec![0u64; cols.len()];
    let mut rows = Vec::with_capacity(keys.len() * 4);
    for &k in &keys {
        col_counts[(k >> 32) as usize - cols.start] += 1;
        rows.extend_from_slice(&(k as Vidx).to_le_bytes());
    }
    SortedBucket { rows, values, col_counts }
}

/// Streams `len` bytes at `off` through the FNV state.
fn hash_section(f: &mut File, off: u64, len: u64, mut h: u64) -> Result<u64, StoreError> {
    f.seek(SeekFrom::Start(off))?;
    let mut remaining = len;
    let mut buf = vec![0u8; 1 << 16];
    while remaining > 0 {
        let want = remaining.min(buf.len() as u64) as usize;
        f.read_exact(&mut buf[..want])?;
        h = fnv1a(h, &buf[..want]);
        remaining -= want as u64;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::{write_csc_file, write_wcsc_file};
    use mcm_sparse::permute::SplitMix64;
    use mcm_sparse::{Triples, WCsc};

    const NROWS: usize = 200;
    const NCOLS: usize = 301;

    /// A path no other test (or call) in this process uses.
    fn tmp(name: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("mcm_stream_{name}_{}_{n}", std::process::id()))
    }

    /// Weighted edges with many duplicate coordinates, some of them with
    /// different weights (and ±0.0, which `total_cmp` tells apart).
    fn edges(seed: u64) -> Vec<(Vidx, Vidx, f64)> {
        let mut rng = SplitMix64::new(seed);
        let mut e: Vec<(Vidx, Vidx, f64)> = (0..4000)
            .map(|_| {
                let i = rng.below(NROWS as u64) as Vidx;
                let j = rng.below(NCOLS as u64) as Vidx;
                (i, j, (rng.below(9) as f64 - 4.0) * 0.5)
            })
            .collect();
        for k in 0..800 {
            let (i, j, _) = e[rng.below(e.len() as u64) as usize];
            let w = [0.0, -0.0, 7.25, -1.0][k % 4];
            e.push((i, j, w));
        }
        e
    }

    /// Chunkings of `n` edges: one at a time, all at once (with empty
    /// chunks around it), and random splits.
    fn chunkings(n: usize) -> Vec<Vec<Range<usize>>> {
        let mut out = vec![(0..n).map(|k| k..k + 1).collect(), vec![0..0, 0..n, n..n]];
        for seed in 1..4 {
            let mut rng = SplitMix64::new(seed);
            let (mut ranges, mut at) = (Vec::new(), 0);
            while at < n {
                let len = (rng.below(700) as usize).min(n - at);
                ranges.push(at..at + len);
                at += len;
            }
            out.push(ranges);
        }
        out
    }

    /// Streams `edges` in `chunks` through `buckets` spill buckets and
    /// returns the sealed file's bytes.
    fn ingest(
        edges: &[(Vidx, Vidx, f64)],
        weighted: bool,
        buckets: usize,
        chunks: &[Range<usize>],
    ) -> Vec<u8> {
        let path = tmp("ingest");
        let mut w = McsbStreamWriter::create_with(&path, NROWS, NCOLS, weighted, buckets).unwrap();
        for r in chunks {
            let chunk = &edges[r.clone()];
            if weighted {
                w.push_weighted_edges(chunk).unwrap();
            } else {
                let pairs: Vec<_> = chunk.iter().map(|&(i, j, _)| (i, j)).collect();
                w.push_edges(&pairs).unwrap();
            }
        }
        assert_eq!(w.pushed(), chunks.iter().map(|r| r.len() as u64).sum::<u64>());
        w.finish(2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// The one-shot writer's file for the deduplicated graph: the bytes
    /// every chunking must reproduce.
    fn one_shot(edges: &[(Vidx, Vidx, f64)], weighted: bool) -> Vec<u8> {
        let path = tmp("one_shot");
        if weighted {
            write_wcsc_file(&path, &WCsc::from_weighted_triples(NROWS, NCOLS, edges.to_vec()))
                .unwrap();
        } else {
            let mut t =
                Triples::from_edges(NROWS, NCOLS, edges.iter().map(|&(i, j, _)| (i, j)).collect());
            t.sort_dedup();
            write_csc_file(&path, &t.to_csc()).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn output_does_not_depend_on_chunking() {
        let edges = edges(17);
        for weighted in [false, true] {
            let want = one_shot(&edges, weighted);
            for buckets in [1, 3, 7, DEFAULT_BUCKETS] {
                for chunks in chunkings(edges.len()) {
                    assert!(
                        ingest(&edges, weighted, buckets, &chunks) == want,
                        "weighted {weighted}, {buckets} buckets, {} chunks",
                        chunks.len()
                    );
                }
            }
        }
    }

    #[test]
    fn a_chunk_inside_one_bucket_spills_one_run() {
        // Order the edges so the first chunk holds exactly bucket 0's
        // columns (of 7), then push the rest in one go.
        let mut edges = edges(29);
        let bounds = block_offsets(NCOLS, 7);
        edges.sort_by_key(|&(_, j, _)| (j as usize) >= bounds[1]);
        let split = edges.iter().position(|&(_, j, _)| j as usize >= bounds[1]).unwrap();
        for weighted in [false, true] {
            let chunks = [0..split, split..split, split..edges.len()];
            assert!(ingest(&edges, weighted, 7, &chunks) == one_shot(&edges, weighted));
        }
    }

    #[test]
    fn an_out_of_bounds_edge_spills_nothing_of_its_chunk() {
        let edges = edges(41);
        let (head, tail) = edges.split_at(2000);
        // In-bounds edges of the rejected chunks, at coordinates and with a
        // weight the graph does not have, so a spilled one would show.
        let fresh: Vec<(Vidx, Vidx, f64)> = (0..NROWS as Vidx)
            .map(|i| (i, (i * 7) % NCOLS as Vidx, 99.0))
            .filter(|&(i, j, _)| !edges.iter().any(|e| (e.0, e.1) == (i, j)))
            .take(3)
            .collect();
        let bad_chunks = [
            (
                vec![fresh[0], (NROWS as Vidx, 3, 1.0), fresh[1]],
                format!("edge ({NROWS}, 3) out of bounds for a {NROWS}x{NCOLS} graph"),
            ),
            (
                vec![edges[3], fresh[2], (4, NCOLS as Vidx, 1.0), (NROWS as Vidx, 0, 1.0)],
                format!("edge (4, {NCOLS}) out of bounds for a {NROWS}x{NCOLS} graph"),
            ),
        ];
        for weighted in [false, true] {
            let path = tmp("oob");
            let mut w = McsbStreamWriter::create_with(&path, NROWS, NCOLS, weighted, 5).unwrap();
            let push = |w: &mut McsbStreamWriter, chunk: &[(Vidx, Vidx, f64)]| {
                if weighted {
                    w.push_weighted_edges(chunk)
                } else {
                    w.push_edges(&chunk.iter().map(|&(i, j, _)| (i, j)).collect::<Vec<_>>())
                }
            };
            push(&mut w, head).unwrap();
            for (chunk, msg) in &bad_chunks {
                match push(&mut w, chunk) {
                    Err(StoreError::Format(got)) => assert_eq!(&got, msg),
                    other => panic!("expected a format error, got {other:?}"),
                }
                assert_eq!(w.pushed(), head.len() as u64);
            }
            push(&mut w, tail).unwrap();
            w.finish(2).unwrap();
            assert!(std::fs::read(&path).unwrap() == one_shot(&edges, weighted), "{weighted}");
            std::fs::remove_file(&path).ok();
        }
    }
}
