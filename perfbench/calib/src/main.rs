//! The benchmark's host-speed reference.
//!
//! Builds one fixed random graph (the same bytes on every host), then
//! answers each `run` line on stdin with `<seconds> <checksum>`: the wall
//! time of one fixed task over that graph, timed inside the process, and
//! a checksum that must read the same on every run. The task mixes what a
//! matching solve does: breadth-first searches with scattered reads over
//! arrays larger than the caches, and a pass of integer work over a
//! frontier. An empty line or end of input ends the process.

use std::io::{self, BufRead, Write};
use std::time::Instant;

const LOG_N: u32 = 18;
const DEGREE: usize = 8;
const SEARCHES: usize = 2;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A graph in compressed sparse rows with skewed degrees: an endpoint's
/// index is the AND of two uniform draws, so low indices are hubs.
struct Graph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

fn build() -> Graph {
    let n = 1usize << LOG_N;
    let mask = (n - 1) as u64;
    let mut rng = SplitMix64(0x5EED_CA11B);
    let m = n * DEGREE;
    let mut edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            let a = rng.next();
            let b = rng.next();
            let u = (a & (a >> 20) & mask) as u32;
            let v = (rng.next() & mask) as u32;
            // Keep every vertex reachable from vertex 0 in a few hops.
            if b % 4 == 0 {
                ((v >> 2), v)
            } else {
                (u, v)
            }
        })
        .collect();
    edges.sort_unstable();
    let mut offsets = vec![0u32; n + 1];
    for &(u, _) in &edges {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let targets = edges.iter().map(|&(_, v)| v).collect();
    Graph { offsets, targets }
}

/// The fixed task: `SEARCHES` breadth-first searches, each followed by a
/// pass that folds the parent array into the checksum.
fn task(g: &Graph, parent: &mut [u32], frontier: &mut Vec<u32>, next: &mut Vec<u32>) -> u64 {
    let mut sum = 0u64;
    for s in 0..SEARCHES as u32 {
        parent.fill(u32::MAX);
        parent[s as usize] = s;
        frontier.clear();
        frontier.push(s);
        while !frontier.is_empty() {
            next.clear();
            for &u in frontier.iter() {
                let (lo, hi) = (g.offsets[u as usize] as usize, g.offsets[u as usize + 1] as usize);
                for &v in &g.targets[lo..hi] {
                    if parent[v as usize] == u32::MAX {
                        parent[v as usize] = u;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(frontier, next);
        }
        for (i, &p) in parent.iter().enumerate() {
            sum = sum.wrapping_mul(31).wrapping_add(p as u64 ^ i as u64);
        }
    }
    sum
}

fn main() {
    let g = build();
    let n = g.offsets.len() - 1;
    let mut parent = vec![0u32; n];
    let (mut frontier, mut next) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let stdout = io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "ready {} vertices {} edges", n, g.targets.len()).unwrap();
    out.flush().unwrap();
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() != "run" {
            break;
        }
        let t0 = Instant::now();
        let sum = task(&g, &mut parent, &mut frontier, &mut next);
        let dt = t0.elapsed().as_secs_f64();
        if writeln!(out, "{dt:.9} {sum:016x}").and_then(|_| out.flush()).is_err() {
            break;
        }
    }
}
