"""The end-to-end runner: four workloads that drive the shipped `mcm` and
`mcmd` binaries through their command-line flags and line protocol only.

Every run does a fixed amount of seeded work (the op count scales with
`--seconds`, never with elapsed time), checks every output against an
oracle, and counts ops attempted and failed. Times are scaled by the
host-speed reference (`common.HostScale`), timed between blocks of ops.
"""

import hashlib
import os
import time

from common import (
    BenchError,
    SplitMix64,
    REF_NOMINAL_S,
    HostScale,
    check_ok,
    log,
    median,
    parse_convert_nnz,
    parse_gen_nnz,
    parse_match,
    parse_query,
    parse_synced,
    parse_weighted_match,
    read_mtx_edges,
    run_proc,
    write_weighted_mtx,
    Daemon,
)

SETUP_REPS = 3
# Ops per measured second at the commit that defined the benchmark (2-core
# x86 host): they fix the work of a run, so a faster program finishes a
# run sooner instead of doing more ops.
OPS_PER_SECOND = {
    "solve-rmat": 2.0,
    "solve-portfolio": 0.6,
    "serve-card": 7.0,
    "serve-weighted": 2.4,
}
# Ops are scaled in blocks of at least this many measured seconds: short
# enough that the host's speed holds over a block, long enough that the
# reference task and its pause add under a fifth to a run.
BLOCK_S = 0.5
# A run stops starting ops once its measured time passes this multiple of
# `--seconds`, so a pathological slowdown still exits within the time limit.
DEADLINE_FACTOR = 6.0

RMAT_SCALE = 17
SOLVE_ARGS = ["--algo", "dist", "--backend", "shared", "--ranks", "4", "--threads", "1"]
PORTFOLIO = (("road", 16), ("mesh", 16), ("ssca", 16), ("er", 15))
AUTO_ARGS = ["--algo", "auto", "--backend", "shared", "--ranks", "4", "--threads", "2"]

SERVE_SCALE = 15
# A window's fixed cost (sync round trip, snapshot publish) is about 14 ms
# on the defining host and does not slow down with the host as the
# reference task does; at 4096 lines the repair of its 3584 updates is
# most of the op, so scaled window times stay near proportional.
WINDOW_LINES = 4096
QUERY_EVERY = 8
MAX_WEIGHT = 50
# Watermarks high enough that only `sync` closes a batch: one window is
# exactly one repair batch. The admission queue holds a whole window.
DAEMON_ARGS = ["--listen", "127.0.0.1:0", "--max-delay-ms", "1000", "--max-batch", str(WINDOW_LINES),
               "--queue-cap", str(2 * WINDOW_LINES)]
INSERT_SEED_SALT = 0x9E3779B9
STREAM_SEED_SALT = 0x5EED57AE
WEIGHT_SEED_SALT = 0x77E16475


class Ctx:
    """One run: where the binaries and scratch files are, the seed and the
    op ledger."""

    def __init__(self, bins, work, seed, seconds, ref):
        self.mcm = os.path.join(bins, "mcm")
        self.mcmd = os.path.join(bins, "mcmd")
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.ref = ref
        # Every set-up rep is scaled on its own.
        self.setup = HostScale(ref.time, 0.0)
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def op_scale(self):
        return HostScale(self.ref.time, BLOCK_S)

    def n_ops(self, workload, minimum):
        return max(minimum, round(self.seconds * OPS_PER_SECOND[workload]))

    def over_deadline(self, measured_s):
        return measured_s > DEADLINE_FACTOR * self.seconds

    def mcm_run(self, *args):
        return run_proc([self.mcm, *args], self.work)

    def fail(self, msg, wrong=True):
        """A failed op; `wrong` also marks the run's outputs incorrect (a
        refused request is a failure but not a wrong answer)."""
        self.failed += 1
        if wrong:
            self.wrong.append(msg)
        log(f"FAILED: {msg}")

    def check(self, ok, msg):
        if not ok:
            self.wrong.append(msg)
            log(f"CHECK FAILED: {msg}")

    @property
    def correct(self):
        return not self.wrong


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------- solves


def solve(ctx, path, args, want):
    """One checked `mcm match`; returns the process record (None on a
    failed op)."""
    ctx.attempted += 1
    p = ctx.mcm_run("match", path, *args)
    if p.code != 0:
        ctx.fail(f"mcm match {path} exited {p.code}: {p.err.strip()[-300:]}")
        return None
    try:
        got = parse_match(p.out)
    except ValueError as e:
        ctx.fail(f"mcm match {path}: {e}")
        return None
    if got != want:
        ctx.fail(f"mcm match {path}: cardinality {got}, oracle {want}")
        return None
    return p


def hk_oracle(ctx, path):
    """Serial Hopcroft-Karp cardinality and its wall time (outside
    `setup_s`)."""
    p = check_ok(ctx.mcm_run("match", path, "--algo", "hk"), f"hk oracle on {path}")
    return parse_match(p.out), p.wall


def setup_rmat(ctx):
    """`mcm gen g500 --format mcsb`, SETUP_REPS times; every rep must write
    the same bytes. Returns (path, nnz); the set-up times are in
    `ctx.setup`."""
    digests = set()
    for rep in range(SETUP_REPS):
        path = f"g500_s{RMAT_SCALE}_{rep}.mcsb"
        ctx.setup.start()
        p = check_ok(
            ctx.mcm_run("gen", "g500", "--scale", str(RMAT_SCALE), "--seed", str(ctx.seed),
                        "--format", "mcsb", "--out", path),
            "mcm gen",
        )
        ctx.setup.add(p.wall)
        nnz = parse_gen_nnz(p.out)
        digests.add(file_digest(os.path.join(ctx.work, path)))
        if rep + 1 < SETUP_REPS:
            os.remove(os.path.join(ctx.work, path))
    ctx.check(len(digests) == 1, "mcm gen wrote different bytes for one seed")
    return path, nnz


def setup_portfolio(ctx):
    """`mcm gen` + `mcm convert` of the four instances, SETUP_REPS times.
    Returns (per-rep gen and convert seconds, the instances as (name, mcsb
    path, nnz)); the set-up times are in `ctx.setup`."""
    gens, converts = [], []
    for rep in range(SETUP_REPS):
        insts, gen_s, conv_s = [], 0.0, 0.0
        ctx.setup.start()
        for fam, scale in PORTFOLIO:
            mtx, mcsb = f"{fam}{scale}_{rep}.mtx", f"{fam}{scale}_{rep}.mcsb"
            g = check_ok(
                ctx.mcm_run("gen", fam, "--scale", str(scale), "--seed", str(ctx.seed), "--out", mtx),
                f"mcm gen {fam}",
            )
            c = check_ok(ctx.mcm_run("convert", mtx, "--out", mcsb), f"mcm convert {fam}")
            nnz = parse_convert_nnz(c.out)
            ctx.check(nnz == parse_gen_nnz(g.out), f"{fam}: convert kept {nnz} nonzeros")
            gen_s += g.wall
            conv_s += c.wall
            insts.append((f"{fam}{scale}", mcsb, nnz))
            os.remove(os.path.join(ctx.work, mtx))
        ctx.setup.add(gen_s + conv_s)
        gens.append(gen_s)
        converts.append(conv_s)
        if rep + 1 < SETUP_REPS:
            for _, mcsb, _ in insts:
                os.remove(os.path.join(ctx.work, mcsb))
    return gens, converts, insts


def run_solve_rmat(ctx):
    path, nnz = setup_rmat(ctx)
    want, _ = hk_oracle(ctx, path)
    solve(ctx, path, SOLVE_ARGS, want)  # warm-up: checked, not timed
    scale = ctx.op_scale()
    lat, rss, spent = [], [], 0.0
    for _ in range(ctx.n_ops("solve-rmat", 5)):
        if ctx.over_deadline(spent):
            break
        scale.start()
        p = solve(ctx, path, SOLVE_ARGS, want)
        if p is not None:
            scale.add(p.wall)
            lat.append(p.wall)
            rss.append(p.rss_mb)
            spent += p.wall
    scale.flush()
    if not lat:
        raise BenchError("no solve succeeded")
    return report(ctx, scale, nnz, max(rss)), run_info(ctx, scale, nnz)


def run_solve_portfolio(ctx):
    _, _, insts = setup_portfolio(ctx)
    oracle = {name: hk_oracle(ctx, path)[0] for name, path, _ in insts}
    round_nnz = sum(nnz for _, _, nnz in insts)

    def one_round():
        total, peak = 0.0, 0.0
        for name, path, _ in insts:
            p = solve(ctx, path, AUTO_ARGS, oracle[name])
            if p is None:
                return None, peak
            total += p.wall
            peak = max(peak, p.rss_mb)
        return total, peak

    one_round()  # warm-up
    scale = ctx.op_scale()
    lat, rss, spent = [], [], 0.0
    for _ in range(ctx.n_ops("solve-portfolio", 3)):
        if ctx.over_deadline(spent):
            break
        scale.start()
        t, peak = one_round()
        rss.append(peak)
        if t is not None:
            scale.add(t)
            lat.append(t)
            spent += t
    scale.flush()
    if not lat:
        raise BenchError("no portfolio round succeeded")
    return report(ctx, scale, round_nnz, max(rss)), run_info(ctx, scale, round_nnz)


def report(ctx, scale, work_per_op, rss_mb):
    """The end-to-end metrics: times scaled to the defining host, the
    median op's work per second, and peak RSS."""
    op_s = median(scale.scaled)
    return {
        "setup_s": median(ctx.setup.scaled),
        "latency_p50_ms": op_s * 1e3,
        "throughput_per_s": work_per_op / op_s,
        "peak_rss_mb": rss_mb,
    }


def run_info(ctx, scale, nnz):
    """The run record's unscaled figures next to the reference times."""
    return {
        "samples": len(scale.walls),
        "nnz": nnz,
        "latency_ms": [x * 1e3 for x in scale.scaled],
        "raw_latency_p50_ms": median(scale.walls) * 1e3,
        "raw_setup_s": median(ctx.setup.walls),
        "ref_ms": median(scale.refs) * 1e3,
        "ref_nominal_ms": REF_NOMINAL_S * 1e3,
    }


# ---------------------------------------------------------------- serving


def build_stream(seed, ncols, base_edges, insert_edges, n_windows, weighted):
    """The seeded update stream: `n_windows` pipelined windows of
    WINDOW_LINES lines, every QUERY_EVERY-th a `query` and the rest
    alternating insert/delete, each closed by `sync`.

    Inserts take the edges of `insert_edges` in a seeded order, skipping
    edges that are live; deletes pick a uniformly random live edge, so
    every delete hits an edge the client knows is present. Returns
    (windows, final live edge count) where a window is
    (payload bytes, request kinds, update lines).
    """
    rng = SplitMix64(seed ^ STREAM_SEED_SALT)
    live, where = [], {}
    for r, c in base_edges:
        k = r * ncols + c
        if k not in where:
            where[k] = len(live)
            live.append(k)
    order = list(range(len(insert_edges)))
    rng.shuffle(order)
    next_ins = 0
    windows = []
    for _ in range(n_windows):
        lines, kinds, updates = [], [], []
        for i in range(WINDOW_LINES):
            if i % QUERY_EVERY == QUERY_EVERY - 1:
                lines.append("query")
                kinds.append("q")
                continue
            if len(updates) % 2 == 0:
                while True:
                    if next_ins == len(order):
                        raise BenchError("insert source graph exhausted")
                    r, c = insert_edges[order[next_ins]]
                    next_ins += 1
                    k = r * ncols + c
                    if k not in where:
                        break
                where[k] = len(live)
                live.append(k)
                line = f"insert {r} {c}"
                if weighted:
                    line += f" {1 + rng.below(MAX_WEIGHT)}"
            else:
                i_del = rng.below(len(live))
                k = live[i_del]
                last = live.pop()
                if i_del < len(live):
                    live[i_del] = last
                    where[last] = i_del
                del where[k]
                line = f"delete {k // ncols} {k % ncols}"
            lines.append(line)
            updates.append(line)
            kinds.append("u")
        lines.append("sync")
        kinds.append("s")
        windows.append((("\n".join(lines) + "\n").encode(), kinds, updates))
    return windows, len(live)


def weight_edges(seed, edges):
    """Integer weights 1..MAX_WEIGHT for the weighted base graph."""
    rng = SplitMix64(seed ^ WEIGHT_SEED_SALT)
    return [(r, c, 1 + rng.below(MAX_WEIGHT)) for r, c in edges]


class ServeSetup:
    """The base graph, the insert source and a loaded daemon."""

    def __init__(self, gens, converts, readies, daemon, base, nnz, insert_edges, ncols):
        self.gens, self.converts, self.readies = gens, converts, readies
        self.daemon, self.base, self.nnz = daemon, base, nnz
        self.insert_edges, self.ncols = insert_edges, ncols


def setup_serve(ctx, weighted):
    """SETUP_REPS times: `mcm gen` the base graph, `mcm convert` it to MCSB
    and start `mcmd --load` until it prints `listening`. The last daemon
    stays up. Writing weights and reading edges is benchmark input
    preparation and is not part of the set-up time, which is in
    `ctx.setup`."""
    gens, converts, readies = [], [], []
    daemon, digest = None, None
    for rep in range(SETUP_REPS):
        mtx, mcsb = f"base_{rep}.mtx", f"base_{rep}.mcsb"
        if daemon is not None:
            daemon.shutdown(daemon.connect())
        ctx.setup.start()
        g = check_ok(
            ctx.mcm_run("gen", "g500", "--scale", str(SERVE_SCALE), "--seed", str(ctx.seed), "--out", mtx),
            "mcm gen",
        )
        path = os.path.join(ctx.work, mtx)
        if rep == 0:
            digest = file_digest(path)
            nrows, ncols, edges = read_mtx_edges(path)
            if weighted:
                # Every rep generates the same bytes (checked below), so the
                # weighted copy is written once.
                write_weighted_mtx(os.path.join(ctx.work, "wbase.mtx"), nrows, ncols,
                                   weight_edges(ctx.seed, edges))
        else:
            ctx.check(file_digest(path) == digest, "mcm gen wrote different bytes for one seed")
        src = "wbase.mtx" if weighted else mtx
        c = check_ok(ctx.mcm_run("convert", src, "--out", mcsb), "mcm convert")
        nnz = parse_convert_nnz(c.out)
        os.remove(path)
        cmd = [ctx.mcmd, *(["--weighted"] if weighted else []), "--load", mcsb, *DAEMON_ARGS]
        daemon = Daemon(cmd, ctx.work)
        ctx.setup.add(g.wall + c.wall + daemon.ready_s)
        ctx.check(daemon.loaded is not None and f" nnz {nnz} " in daemon.loaded + " ",
                  f"mcmd loaded {daemon.loaded!r}, convert wrote {nnz} nonzeros")
        gens.append(g.wall)
        converts.append(c.wall)
        readies.append(daemon.ready_s)
    ins = f"insert_src.mtx"
    check_ok(
        ctx.mcm_run("gen", "g500", "--scale", str(SERVE_SCALE), "--seed",
                    str(ctx.seed ^ INSERT_SEED_SALT), "--out", ins),
        "mcm gen (insert source)",
    )
    _, _, insert_edges = read_mtx_edges(os.path.join(ctx.work, ins))
    os.remove(os.path.join(ctx.work, ins))
    return ServeSetup(gens, converts, readies, daemon, edges, nnz, insert_edges, ncols)


class Session:
    """Client side of one serve run: sends windows and checks responses."""

    def __init__(self, ctx, conn, weighted):
        self.ctx, self.conn, self.weighted = ctx, conn, weighted
        self.seq = -1
        self.cardinality = None
        self.update_failures = 0

    def send(self, win):
        """Sends one window; returns (seconds from first byte to `synced`,
        updates applied)."""
        payload, kinds, _ = win
        t0 = time.perf_counter()
        lines = self.conn.request(payload, len(kinds))
        dt = time.perf_counter() - t0
        return dt, self.check(kinds, lines)

    def check(self, kinds, lines):
        ctx = self.ctx
        ctx.attempted += len(kinds)
        applied = 0
        for kind, line in zip(kinds, lines):
            if kind == "u":
                if line == "ok":
                    applied += 1
                    continue
                # Every update in the stream is valid, so only `busy` is a
                # refusal rather than a wrong answer.
                self.update_failures += 1
                ctx.fail(f"update answered {line!r}", wrong=line != "busy")
            elif kind == "q":
                try:
                    card, w = parse_query(line)
                    if (w is None) == self.weighted:
                        raise ValueError(f"query answer {line!r} has the wrong shape")
                except ValueError as e:
                    ctx.fail(str(e))
            else:
                try:
                    seq, card = parse_synced(line)
                    if seq <= self.seq:
                        raise ValueError(f"synced seq went from {self.seq} to {seq}")
                    self.seq, self.cardinality = seq, card
                except ValueError as e:
                    ctx.fail(f"sync answered {line!r}: {e}", wrong=line != "busy")
        return applied


def finish_serve(ctx, setup, session, conn, live_edges):
    """Final checks: the daemon's snapshot re-solved offline must match its
    last `synced` answer, and the daemon must exit cleanly. Returns the
    daemon's peak RSS (MB) and its final weight (None when unweighted)."""
    card_q, weight_q = parse_query(conn.request(b"query\n", 1)[0])
    ctx.check(card_q == session.cardinality,
              f"query after sync says {card_q}, sync said {session.cardinality}")
    snap = "final.mtx"
    line = conn.request(f"snapshot {snap}\n".encode(), 1)[0]
    w = line.split()
    ctx.check(len(w) == 4 and w[0] == "snapshot" and w[2] == "nnz", f"snapshot answered {line!r}")
    if session.update_failures == 0 and len(w) == 4:
        ctx.check(int(w[3]) == live_edges, f"snapshot has {w[3]} edges, client expects {live_edges}")
    if session.weighted:
        # Maximum-weight matchings of one graph can differ in cardinality,
        # so only the weight is compared.
        p = check_ok(ctx.mcm_run("match", snap, "--weighted", "--threads", "1"), "weighted re-solve")
        _, weight = parse_weighted_match(p.out)
        ctx.check(abs(weight - weight_q) <= 1e-6 * max(1.0, abs(weight)),
                  f"daemon weight {weight_q}, offline re-solve {weight}")
    else:
        p = check_ok(ctx.mcm_run("match", snap, "--algo", "hk"), "hk re-solve")
        card = parse_match(p.out)
        ctx.check(card == session.cardinality, f"daemon cardinality {session.cardinality}, offline {card}")
    os.remove(os.path.join(ctx.work, snap))
    code, rss, last = setup.daemon.shutdown(conn)
    ctx.check(code == 0, f"mcmd exited {code}")
    ctx.check(last.startswith(f"shutdown cardinality {session.cardinality} "),
              f"mcmd shutdown line {last!r}")
    return rss, weight_q


def run_serve(ctx, workload, weighted):
    setup = setup_serve(ctx, weighted)
    n = ctx.n_ops(workload, 20)
    warm = max(2, n // 20)
    windows, live = build_stream(ctx.seed, setup.ncols, setup.base, setup.insert_edges, warm + n,
                                 weighted)
    conn = setup.daemon.connect()
    session = Session(ctx, conn, weighted)
    scale = ctx.op_scale()
    applied, spent = 0, 0.0
    for i, win in enumerate(windows):
        if ctx.over_deadline(spent):
            # Stop early: the rest of the stream is never sent, so the
            # client's view of the live edges no longer applies.
            session.update_failures += 1
            break
        if i >= warm:
            scale.start()
        dt, ok = session.send(win)
        if i >= warm:
            scale.add(dt)
            applied += ok
            spent += dt
    scale.flush()
    rss, _ = finish_serve(ctx, setup, session, conn, live)
    if not scale.walls or applied == 0:
        raise BenchError("no window completed")
    return report(ctx, scale, applied / len(scale.walls), rss), run_info(ctx, scale, setup.nnz)


WORKLOADS = {
    "solve-rmat": run_solve_rmat,
    "solve-portfolio": run_solve_portfolio,
    "serve-card": lambda ctx: run_serve(ctx, "serve-card", False),
    "serve-weighted": lambda ctx: run_serve(ctx, "serve-weighted", True),
}

UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
