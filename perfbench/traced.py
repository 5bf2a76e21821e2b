"""The traced run: per-layer numbers for one workload.

It runs separately from the end-to-end runs. Each figure comes from one
of three places:

* the benchmark's own timing of `mcm` and `mcmd` (set-up steps, solves,
  windows);
* counters the program exports: `mcm match --breakdown` (per-kernel wall
  time and the modeled time), `mcmd`'s `stats` and `metrics` verbs;
* the library probe (`perfbench/probe`), which times calls into each
  layer's public functions on the same inputs.

Only this module builds and runs the probe, so an entry point that
disappears from the library breaks the traced report and nothing else.

Layers the workload does not exercise read 0.
"""

import os

import workloads as w
from common import (
    BenchError,
    Daemon,
    cargo_build,
    check_ok,
    median,
    parse_algo,
    parse_breakdown,
    parse_kv_line,
    parse_match,
    parse_modeled_ms,
    parse_prom,
    percentile,
    prom_mean_ms,
    run_proc,
    tail_percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_BUILD_TIMEOUT_S = 600
UNTRACED_REPS = 3
KERNELS = ("SpMV", "Select", "Invert", "Prune", "Augment")
PICK_CODES = {"msbfs": 1, "ppf": 2, "auction": 3}
# The concrete engines `--algo auto` chooses between on the portfolio
# workload (the auction is left out: it takes minutes on road16).
DIST_ARGS = ["--algo", "dist", "--backend", "shared", "--ranks", "4", "--threads", "2"]
PPF_ARGS = ["--algo", "ppf", "--backend", "shared", "--ranks", "4", "--threads", "2"]
# Traced serve windows per measured second of the end-to-end run.
TRACED_WINDOW_SHARE = 0.4

# Every per-layer metric with its unit, in report order: the figures the
# workloads in BENCHMARK.json produce. Figures only the hand-run
# portfolio workload produces (its picks and per-instance engine times)
# go to the run record instead.
METRICS = {
    "store.gen_s": "s",
    "store.convert_s": "s",
    "store.open_ms": "ms",
    "bsp.assemble_ms": "ms",
    "bsp.modeled_ms": "ms",
    "core.init_ms": "ms",
    **{f"core.kernel_ms.{k}": "ms" for k in KERNELS},
    "core.phases": "count",
    "core.bfs_iters": "count",
    "core.verify_ms": "ms",
    "core.select_ms": "ms",
    "core.auto_regret": "ratio",
    "core.hk_ms": "ms",
    "sparse.spmv_calls": "count",
    "sparse.spmv_reuse_hits": "count",
    "dyn.apply_ms": "ms",
    "dyn.global_sweeps": "count",
    "dyn.interior_inserts": "count",
    "dyn.fallbacks": "count",
    "dyn.cold_share": "ratio",
    "dyn.dirty_per_batch": "count",
    "dyn.rebids": "count",
    "serve.ready_s": "s",
    "serve.ack_ms": "ms",
    "serve.publish_ms": "ms",
    "serve.window_tail_ms": "ms",
    "serve.window_tail_pct": "pct",
    "serve.window_samples": "count",
    "unattributed_ms": "ms",
    "trace_overhead": "ratio",
}


class Probe:
    """The built library probe; calling it runs one subcommand and returns
    its `key value` lines as a dict."""

    def __init__(self, ctx, root):
        rel = cargo_build(root, os.path.join(HERE, "probe", "Cargo.toml"), ["perfbench-probe"],
                          PROBE_BUILD_TIMEOUT_S)
        self.exe = os.path.join(rel, "perfbench-probe")
        self.ctx = ctx

    def __call__(self, *args):
        p = check_ok(run_proc([self.exe, *args], self.ctx.work), f"probe {args[0]}")
        out = {}
        for line in p.out.splitlines():
            k, v = line.split(" ", 1)
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v
        return out


def solve_layers(ctx, probe, path, want, dist_args):
    """Per-layer figures of one graph: untraced and traced `mcm match`,
    the probe's staged solve, and the engines `--algo auto` chooses among.
    Returns (figures, untraced op ms, traced op ms)."""
    untraced = []
    for _ in range(UNTRACED_REPS):
        p = w.solve(ctx, path, dist_args, want)
        if p is not None:
            untraced.append(p.wall * 1e3)
    ctx.attempted += 1
    traced = ctx.mcm_run("match", path, *dist_args, "--breakdown")
    if traced.code != 0 or parse_match(traced.out) != want:
        raise BenchError(f"traced solve of {path} failed")
    rows = parse_breakdown(traced.err)
    st = probe("solve", path, "--ranks", "4", "--threads", dist_args[dist_args.index("--threads") + 1])
    ctx.check(st["cardinality"] == want, f"probe cardinality {st['cardinality']}, oracle {want}")
    # The engines auto chooses among, at auto's own thread count.
    auto = w.solve(ctx, path, w.AUTO_ARGS, want)
    ppf = w.solve(ctx, path, PPF_ARGS, want)
    if dist_args == DIST_ARGS:
        dist_ms = median(untraced) if untraced else None
    else:
        dist = w.solve(ctx, path, DIST_ARGS, want)
        dist_ms = dist.wall * 1e3 if dist is not None else None
    if not untraced or auto is None or ppf is None or dist_ms is None:
        raise BenchError(f"a solve of {path} failed")
    f = {
        "store.open_ms": st["open_ms"],
        "bsp.assemble_ms": st["assemble_ms"],
        "bsp.modeled_ms": parse_modeled_ms(traced.err),
        "core.init_ms": rows.get("Init", (0.0, 0))[0] * 1e3,
        **{f"core.kernel_ms.{k}": rows.get(k, (0.0, 0))[0] * 1e3 for k in KERNELS},
        "core.phases": st["phases"],
        "core.bfs_iters": st["bfs_iters"],
        "core.verify_ms": st["verify_ms"],
        "core.select_ms": st["select_ms"],
        "sparse.spmv_calls": st["spmv_calls"],
        "sparse.spmv_reuse_hits": st["spmv_reuse_hits"],
        "auto_ms": auto.wall * 1e3,
        "best_ms": min(dist_ms, ppf.wall * 1e3),
        "pick": PICK_CODES.get(parse_algo(auto.out)[0], 4),
    }
    # What neither the program's kernel spans nor the probe's stage spans
    # cover: process start and exit, argument parsing, output.
    covered = sum(s for s, _ in rows.values()) * 1e3
    covered += st["open_ms"] + st["assemble_ms"] + st["unpermute_ms"] + st["verify_ms"]
    f["unattributed_ms"] = traced.wall * 1e3 - covered
    return f, median(untraced), traced.wall * 1e3


SUMMED = ("store.open_ms", "bsp.assemble_ms", "bsp.modeled_ms", "core.init_ms",
          *(f"core.kernel_ms.{k}" for k in KERNELS), "core.phases", "core.bfs_iters",
          "core.verify_ms", "core.select_ms", "sparse.spmv_calls", "sparse.spmv_reuse_hits",
          "unattributed_ms")


def merge(figs):
    out = {k: sum(f[k] for f in figs) for k in SUMMED}
    out["core.auto_regret"] = sum(f["auto_ms"] for f in figs) / sum(f["best_ms"] for f in figs)
    return out


def traced_solve_rmat(ctx, probe):
    path, nnz = w.setup_rmat(ctx)
    want, hk_s = w.hk_oracle(ctx, path)
    w.solve(ctx, path, w.SOLVE_ARGS, want)  # warm-up
    f, untraced, traced = solve_layers(ctx, probe, path, want, w.SOLVE_ARGS)
    m = merge([f])
    m.update({"store.gen_s": median(ctx.setup.walls), "core.hk_ms": hk_s * 1e3,
              "trace_overhead": traced / untraced})
    return m, {"nnz": nnz}


def traced_solve_portfolio(ctx, probe):
    gens, converts, insts = w.setup_portfolio(ctx)
    figs, untraced, traced, hk = [], 0.0, 0.0, 0.0
    m = {}
    for name, path, _ in insts:
        want, hk_s = w.hk_oracle(ctx, path)
        hk += hk_s * 1e3
        w.solve(ctx, path, DIST_ARGS, want)  # warm-up
        f, u, t = solve_layers(ctx, probe, path, want, DIST_ARGS)
        figs.append(f)
        untraced += u
        traced += t
        m[f"core.pick.{name}"] = f["pick"]
        m[f"core.engine_ms.{name}"] = f["best_ms"]
    m.update(merge(figs))
    m.update({"store.gen_s": median(gens), "store.convert_s": median(converts), "core.hk_ms": hk,
              "trace_overhead": traced / untraced})
    return m, {"nnz": sum(n for _, _, n in insts)}


def play(ctx, daemon, windows, weighted):
    """Sends `windows` on one connection; returns (session, window seconds,
    connection)."""
    conn = daemon.connect()
    session = w.Session(ctx, conn, weighted)
    lat = [session.send(win)[0] for win in windows]
    return session, lat, conn


def traced_serve(ctx, probe, workload, weighted):
    setup = w.setup_serve(ctx, weighted)
    n = max(40, round(ctx.seconds * w.OPS_PER_SECOND[workload] * TRACED_WINDOW_SHARE))
    windows, live = w.build_stream(ctx.seed, setup.ncols, setup.base, setup.insert_edges, n, weighted)

    # Untraced reference: the set-up's daemon, as the end-to-end run uses it.
    _, ref, conn = play(ctx, setup.daemon, windows, weighted)
    setup.daemon.shutdown(conn)

    # Traced session: the same windows from the same base graph, with the
    # daemon recording its own spans (`--trace-out`).
    mcsb = f"base_{w.SETUP_REPS - 1}.mcsb"
    cmd = [ctx.mcmd, *(["--weighted"] if weighted else []), "--load", mcsb, *w.DAEMON_ARGS,
           "--trace-out", "daemon_trace.json"]
    setup.daemon = Daemon(cmd, ctx.work)
    session, lat, conn = play(ctx, setup.daemon, windows, weighted)
    ctx.attempted += 2
    stats = parse_kv_line(conn.request(b"stats\n", 1)[0], "stats")
    prom = parse_prom(conn.request_until(b"metrics\n", "# EOF"))
    _, final_weight = w.finish_serve(ctx, setup, session, conn, live)

    stream = os.path.join(ctx.work, "stream.txt")
    with open(stream, "w") as f:
        for _, _, updates in windows:
            f.writelines(u + "\n" for u in updates)
            f.write("sync\n")
    pr = probe("serve", mcsb, "stream.txt", *(["--weighted"] if weighted else []))
    if weighted:
        # Maximum-weight matchings can differ in cardinality: compare weights.
        ctx.check(abs(pr["weight"] - final_weight) <= 1e-6 * max(1.0, abs(final_weight)),
                  f"probe replay weight {pr['weight']}, daemon {final_weight}")
    else:
        ctx.check(pr["cardinality"] == session.cardinality,
                  f"probe replay cardinality {pr['cardinality']}, daemon {session.cardinality}")

    want, hk_s = w.hk_oracle(ctx, mcsb)
    f, _, _ = solve_layers(ctx, probe, mcsb, want, w.SOLVE_ARGS)
    m = merge([f])

    batches = stats["batches"]
    apply_ms = prom_mean_ms(prom, "mcmd_batch_apply_seconds") or 0.0
    acks = [prom_mean_ms(prom, "mcmd_request_seconds", verb=v) for v in ("insert", "delete")]
    acks = [a for a in acks if a is not None]
    tail = tail_percentile(len(lat))
    m.update({
        "store.gen_s": median(setup.gens),
        "store.convert_s": median(setup.converts),
        "core.hk_ms": hk_s * 1e3,
        "dyn.apply_ms": apply_ms,
        "dyn.global_sweeps": stats.get("sweeps", 0),
        "dyn.interior_inserts": stats.get("interior", 0),
        "dyn.fallbacks": stats.get("fallbacks", 0),
        "dyn.cold_share": stats.get("cold", 0) / batches if batches else 0.0,
        "dyn.dirty_per_batch": stats.get("dirty", 0) / batches if batches else 0.0,
        "dyn.rebids": stats.get("rebids", 0),
        "serve.ready_s": median(setup.readies),
        "serve.ack_ms": sum(acks) / len(acks) if acks else 0.0,
        "serve.publish_ms": pr["publish_ms"],
        "serve.window_tail_ms": percentile(lat, tail) * 1e3 if tail else 0.0,
        "serve.window_tail_pct": tail or 0.0,
        "serve.window_samples": len(lat),
        # Client-observed window time the batch repair and the snapshot
        # publish do not explain: framing, admission, queueing, responses.
        # Means throughout, as the two subtracted figures are means.
        "unattributed_ms": sum(lat) / len(lat) * 1e3 - apply_ms - pr["publish_ms"],
        "trace_overhead": median(lat) / median(ref),
    })
    return m, {"nnz": setup.nnz, "batches": batches, "windows": len(lat)}


TRACED = {
    "solve-rmat": traced_solve_rmat,
    "solve-portfolio": traced_solve_portfolio,
    "serve-card": lambda ctx, probe: traced_serve(ctx, probe, "serve-card", False),
    "serve-weighted": lambda ctx, probe: traced_serve(ctx, probe, "serve-weighted", True),
}


def run(workload, ctx, root):
    probe = Probe(ctx, root)
    figures, info = TRACED[workload](ctx, probe)
    metrics = {name: {"value": float(figures.get(name, 0.0)), "unit": unit}
               for name, unit in METRICS.items()}
    info["other_figures"] = {k: v for k, v in figures.items() if k not in METRICS}
    return metrics, info
