"""Shared pieces of the benchmark: statistics, the seeded generator, the
build, child-process and daemon handling, the host-speed reference, and
parsers for the lines the `mcm` and `mcmd` binaries print.

Nothing here calls into the library: the end-to-end runner reaches the
program only through its command line and its line protocol.
"""

import hashlib
import math
import os
import platform
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

# ---------------------------------------------------------------- statistics

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First quartile, median, third quartile, as the steadiness rule takes
    them (`statistics.quantiles(xs, n=4)`, exclusive method)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def percentile(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = max(1, math.ceil(p / 100.0 * len(s)))
    return s[k - 1]


def tail_percentile(n):
    """The highest percentile of the ladder that leaves at least
    `MIN_BEYOND` samples beyond it out of `n`, or None when even p75 does
    not."""
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


# ---------------------------------------------------------------- seeded RNG


class SplitMix64:
    """SplitMix64, the same generator family the workspace uses for its
    schedules; spelled out so the stream does not depend on the Python
    version's `random` internals."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n) (multiply-shift reduction)."""
        return (self.next_u64() * n) >> 64

    def shuffle(self, xs):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


# ---------------------------------------------------------------- host/build


class BenchError(Exception):
    """A condition that makes the run unusable: no result is printed."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def host_info():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "model": model,
        "os": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
    }


SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "src", "crates")


def source_digest(root):
    """SHA-256 over the program's sources, the commit identity when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    paths = []
    for entry in SOURCE_ROOTS:
        p = os.path.join(root, entry)
        if os.path.isfile(p):
            paths.append(p)
        for d, dirs, files in os.walk(p):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths.extend(os.path.join(d, f) for f in files if f.endswith((".rs", ".toml", ".lock")))
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(root):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def target_dir(root):
    return os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def cargo_build(root, manifest, bins, timeout):
    """`cargo build --release` of `bins` from `manifest`; returns the release
    directory. Build output goes to stderr so stdout stays the report."""
    if not os.path.isfile(manifest):
        raise BenchError(f"no Cargo manifest at {os.path.relpath(manifest, root)}")
    tdir = target_dir(root)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    for b in bins:
        cmd += ["--bin", b]
    env = dict(os.environ, CARGO_TARGET_DIR=tdir)
    t0 = time.perf_counter()
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)} exited {r.returncode}")
    log(f"built {', '.join(bins)} in {time.perf_counter() - t0:.1f} s")
    rel = os.path.join(tdir, "release")
    for b in bins:
        if not os.path.isfile(os.path.join(rel, b)):
            raise BenchError(f"build produced no {b} binary")
    return rel


# ---------------------------------------------------------------- processes


class Proc:
    """Result of one child process: wall seconds, peak RSS (MB, from the
    child's own `ru_maxrss`), exit code and output."""

    __slots__ = ("wall", "rss_mb", "code", "out", "err")

    def __init__(self, wall, rss_mb, code, out, err):
        self.wall, self.rss_mb, self.code, self.out, self.err = wall, rss_mb, code, out, err


def run_proc(cmd, cwd, timeout=170.0):
    """Runs `cmd` to completion. Output goes through files in `cwd` rather
    than pipes so the child can be reaped with `wait4`, which returns its
    resource usage."""
    out_path = os.path.join(cwd, ".proc.out")
    err_path = os.path.join(cwd, ".proc.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL)
        ru, timed_out = _reap(p, timeout)
        wall = time.perf_counter() - t0
    if timed_out:
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    with open(out_path, encoding="utf-8", errors="replace") as f:
        out = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        err = f.read()
    return Proc(wall, ru.ru_maxrss / 1024.0, p.returncode, out, err)


def _reap(p, timeout):
    """Waits for `p` with `wait4` (killing it after `timeout` seconds),
    sets its exit code and returns (rusage, timed out)."""
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return ru, p.returncode == -signal.SIGKILL


def check_ok(proc, what):
    if proc.code != 0:
        raise BenchError(f"{what} exited {proc.code}: {proc.err.strip()[-400:]}")
    return proc


class Daemon:
    """An `mcmd --listen` child. `ready_s` is spawn-to-`listening` time.
    Every daemon not yet shut down is in `Daemon.live`, so the entry point
    can stop them all when a run aborts."""

    live = set()

    def __init__(self, cmd, cwd, timeout=120.0):
        self.err_file = open(os.path.join(cwd, ".mcmd.err"), "wb")
        t0 = time.perf_counter()
        self.p = subprocess.Popen(
            cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=self.err_file, stdin=subprocess.DEVNULL
        )
        Daemon.live.add(self)
        self.addr = None
        self.loaded = None
        deadline = t0 + timeout
        buf = b""
        while self.addr is None:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([self.p.stdout], [], [], left)[0]:
                self.kill()
                raise BenchError(f"mcmd not listening within {timeout:.0f} s")
            chunk = os.read(self.p.stdout.fileno(), 4096)
            if not chunk:
                self.kill()
                raise BenchError(f"mcmd exited before listening: {self.stderr_tail()}")
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                text = line.decode("utf-8", "replace")
                if text.startswith("loaded "):
                    self.loaded = text
                elif text.startswith("listening "):
                    self.addr = parse_listening(text)
        self.ready_s = time.perf_counter() - t0
        self.rest = buf

    def connect(self):
        s = socket.create_connection(self.addr, timeout=120)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Conn(s)

    def stderr_tail(self):
        try:
            with open(self.err_file.name, encoding="utf-8", errors="replace") as f:
                return f.read()[-400:]
        except OSError:
            return ""

    def shutdown(self, conn, timeout=60.0):
        """Sends `shutdown`, waits for the exit, and returns
        `(exit code, peak RSS MB, final stdout line)`."""
        conn.request(b"shutdown\n", 1)
        conn.close()
        ru, timed_out = _reap(self.p, timeout)
        Daemon.live.discard(self)
        if timed_out:
            raise BenchError("mcmd did not exit after shutdown")
        tail = (self.rest + self.p.stdout.read()).decode("utf-8", "replace").strip().splitlines()
        self.p.stdout.close()
        self.err_file.close()
        return self.p.returncode, ru.ru_maxrss / 1024.0, tail[-1] if tail else ""

    def kill(self):
        Daemon.live.discard(self)
        if self.p.returncode is None and self.p.poll() is None:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()
        self.err_file.close()


class Reference:
    """The host-speed reference: a `perfbench-calib` child that runs one
    fixed task per request and answers with the task's own wall time. It
    shares no code with the program, so only the host moves that time.
    Every reference not yet closed is in `Reference.live`, so the entry
    point can stop them all when a run aborts."""

    live = set()

    def __init__(self, exe, cwd):
        self.p = subprocess.Popen(
            [exe], cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        Reference.live.add(self)
        self.checksum = None
        if not self.p.stdout.readline().startswith("ready "):
            self.close()
            raise BenchError("reference task did not start")

    def time(self):
        """Runs the task once; returns its seconds. The task's checksum must
        read the same on every run."""
        try:
            self.p.stdin.write("run\n")
            self.p.stdin.flush()
        except OSError:
            raise BenchError("reference task exited")
        w = self.p.stdout.readline().split()
        if len(w) != 2:
            raise BenchError("reference task gave no time")
        if self.checksum is None:
            self.checksum = w[1]
        elif w[1] != self.checksum:
            raise BenchError(f"reference task checksum went from {self.checksum} to {w[1]}")
        return float(w[0])

    def close(self):
        Reference.live.discard(self)
        if self.p.poll() is None:
            try:
                self.p.stdin.close()
                self.p.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.p.kill()
                self.p.wait()
        self.p.stdout.close()


# The reference task's time on the host that defined the benchmark (2-vCPU
# Intel Xeon VM, in a fast phase). Scaled times read in that host's seconds.
REF_NOMINAL_S = 0.033
# Pause before each reference: just after an op ends the program can still
# be busy (a daemon frees its last snapshot, worker threads park), and the
# reference task must not share the host with it. Without the pause, a
# probe on `serve-card` found window times falling as reference times rose.
SETTLE_S = 0.05


class HostScale:
    """Scales op times to the defining host. Ops are taken in blocks of at
    least `block_s` measured seconds; the reference task runs before and
    after each block (each after a `SETTLE_S` pause), and every op of the
    block is scaled by
    `REF_NOMINAL_S` over the mean of those two reference times. A host
    that runs everything 1.5x slower for a while then leaves the scaled
    times as they were."""

    def __init__(self, timer, block_s):
        self.timer, self.block_s = timer, block_s
        self.before = None
        self.pending = []
        self.walls = []
        self.scaled = []
        self.refs = []

    def reference(self):
        time.sleep(SETTLE_S)
        return self.timer()

    def start(self):
        """Call before each op: times the reference unless the block
        already has its opening reference."""
        if self.before is None:
            self.before = self.reference()

    def add(self, wall):
        """Call right after each op with its wall seconds."""
        if self.before is None:
            raise BenchError("op timed without an opening reference")
        self.pending.append(wall)
        self.walls.append(wall)
        if sum(self.pending) >= self.block_s:
            self.flush()

    def flush(self):
        """Closes the open block."""
        if not self.pending:
            return
        after = self.reference()
        ref = (self.before + after) / 2
        self.refs.append(ref)
        self.scaled += [x * REF_NOMINAL_S / ref for x in self.pending]
        self.pending = []
        self.before = after


class Conn:
    """One client connection speaking the line protocol."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()

    def request(self, payload, n_lines):
        """Sends `payload` and returns the next `n_lines` response lines."""
        self.sock.sendall(payload)
        return self.read_lines(n_lines)

    def read_lines(self, n_lines):
        while self.buf.count(b"\n") < n_lines:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("mcmd closed the connection")
            self.buf += chunk
        lines = []
        for _ in range(n_lines):
            i = self.buf.index(b"\n")
            lines.append(self.buf[:i].decode("utf-8", "replace"))
            del self.buf[: i + 1]
        return lines

    def request_until(self, payload, terminator):
        """Sends `payload` and returns the response lines up to and
        including `terminator` (for `metrics`)."""
        self.sock.sendall(payload)
        lines = []
        while True:
            line = self.read_lines(1)[0]
            lines.append(line)
            if line == terminator:
                return lines

    def close(self):
        self.sock.close()


# ---------------------------------------------------------------- parsers


def _words(line, head):
    w = line.split()
    if not w or w[0] != head:
        raise ValueError(f"expected a `{head}` line, got {line!r}")
    return w


def parse_match(out):
    """`maximum matching: C of N columns (R rows) matched` -> C."""
    for line in out.splitlines():
        if line.startswith("maximum matching: "):
            w = line.split()
            if len(w) >= 8 and w[3] == "of" and w[5] == "columns":
                return int(w[2])
    raise ValueError("no `maximum matching` line")


def parse_weighted_match(out):
    """`maximum weight matching: |M| = C of N columns, total weight W` ->
    (C, W)."""
    for line in out.splitlines():
        if line.startswith("maximum weight matching: "):
            w = line.replace(",", " ").split()
            return int(w[5]), float(w[w.index("weight", 5) + 1])
    raise ValueError("no `maximum weight matching` line")


def parse_algo(out):
    """`algo: ppf (selected by auto)` -> ("ppf", True)."""
    for line in out.splitlines():
        if line.startswith("algo: "):
            rest = line[len("algo: ") :].strip()
            name = rest.split()[0]
            return name, "(selected by auto)" in rest
    raise ValueError("no `algo:` line")


def parse_gen_nnz(out):
    """`wrote R x C matrix with Z nonzeros to f ...` -> Z."""
    w = out.split()
    if len(w) > 7 and w[0] == "wrote" and w[7] == "nonzeros":
        return int(w[6])
    raise ValueError(f"unexpected `mcm gen` output: {out.strip()[:200]!r}")


def parse_convert_nnz(out):
    """`converted R x C matrix, Z nonzeros ...` -> Z."""
    w = out.replace(",", " ").split()
    if len(w) > 6 and w[0] == "converted" and w[6] == "nonzeros":
        return int(w[5])
    raise ValueError(f"unexpected `mcm convert` output: {out.strip()[:200]!r}")


def parse_modeled_ms(err):
    """`... modeled time 53.871 ms` (stderr of `mcm match --algo dist`)."""
    for line in err.splitlines():
        if "modeled time" in line:
            w = line.split()
            return float(w[w.index("time") + 1])
    raise ValueError("no `modeled time` line")


def parse_breakdown(err):
    """The `--breakdown` table -> {kernel: (measured seconds, spans)}."""
    rows = {}
    lines = err.splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if l.split()[:2] == ["kernel", "measured_s"])
    except StopIteration:
        raise ValueError("no breakdown table")
    for line in lines[start + 1 :]:
        w = line.split()
        if not w or w[0] == "total":
            break
        rows[w[0]] = (float(w[1]), int(w[2]))
    return rows


def parse_listening(line):
    """`listening 127.0.0.1:40123` -> ("127.0.0.1", 40123)."""
    w = _words(line, "listening")
    host, port = w[1].rsplit(":", 1)
    return host.strip("[]"), int(port)


def parse_synced(line):
    """`synced seq S cardinality C` -> (S, C)."""
    w = _words(line, "synced")
    if len(w) != 5 or w[1] != "seq" or w[3] != "cardinality":
        raise ValueError(f"bad synced line {line!r}")
    return int(w[2]), int(w[4])


def parse_query(line):
    """`matching C` or `matching C weight W` -> (C, W or None)."""
    w = _words(line, "matching")
    if len(w) == 2:
        return int(w[1]), None
    if len(w) == 4 and w[2] == "weight":
        return int(w[1]), float(w[3])
    raise ValueError(f"bad matching line {line!r}")


def parse_kv_line(line, head):
    """`stats k1 v1 k2 v2 ...` (also `shutdown ...`) -> {k: number or str}."""
    w = _words(line, head)
    if len(w) % 2 != 1:
        raise ValueError(f"odd key/value list in {line!r}")
    d = {}
    for k, v in zip(w[1::2], w[2::2]):
        try:
            d[k] = int(v)
        except ValueError:
            try:
                d[k] = float(v)
            except ValueError:
                d[k] = v
    return d


def parse_prom(lines):
    """Prometheus text exposition -> {(name, frozenset(labels)): value}."""
    out = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        if "{" in series:
            name, body = series.split("{", 1)
            labels = []
            for part in body.rstrip("}").split(","):
                if part:
                    k, v = part.split("=", 1)
                    labels.append((k, v.strip('"')))
            key = (name, frozenset(labels))
        else:
            key = (series, frozenset())
        out[key] = float(value)
    return out


def prom_mean_ms(prom, name, **labels):
    """Mean of a seconds histogram (`_sum / _count`) in ms; None if empty."""
    want = frozenset(labels.items())
    s = prom.get((name + "_sum", want))
    c = prom.get((name + "_count", want))
    if not c:
        return None
    return s / c * 1e3


# ---------------------------------------------------------------- graph files


def read_mtx_edges(path):
    """0-based (row, col) pairs of a Matrix Market coordinate file, with the
    shape; values, if any, are ignored."""
    with open(path) as f:
        header = f.readline()
        if not header.startswith("%%MatrixMarket"):
            raise BenchError(f"{path}: not a Matrix Market file")
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        nrows, ncols, _ = (int(x) for x in line.split())
        edges = []
        for line in f:
            a, b = line.split()[:2]
            edges.append((int(a) - 1, int(b) - 1))
    return nrows, ncols, edges


def write_weighted_mtx(path, nrows, ncols, triples):
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{nrows} {ncols} {len(triples)}\n")
        f.writelines(f"{r + 1} {c + 1} {w}\n" for r, c, w in triples)
