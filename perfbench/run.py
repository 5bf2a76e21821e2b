#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `mcm` and `mcmd` from the checkout this directory sits in, and the
host-speed reference task in `perfbench/calib`, runs one workload with
inputs generated from `--seed`, checks every output and
prints, as the last line of stdout, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it is a
JSON record of the host, the commit, the command and the samples.

`--trace 0` reports the end-to-end metrics and touches the program only
through its command line and line protocol. `--trace 1` reports the
per-layer metrics instead; it also builds and runs the library probe
in `perfbench/probe`.
"""

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    BenchError,
    Daemon,
    Reference,
    cargo_build,
    commit_id,
    host_info,
    log,
    quartiles,
    source_digest,
)
import workloads  # noqa: E402

BUILD_TIMEOUT_S = 850


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.path.dirname(HERE)
    for need in ("Cargo.toml", os.path.join("src", "bin", "mcm.rs"), os.path.join("src", "bin", "mcmd.rs")):
        if not os.path.isfile(os.path.join(root, need)):
            log(f"not a checkout of the program: {need} is missing")
            return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    t0 = time.perf_counter()
    try:
        bins = cargo_build(root, os.path.join(root, "Cargo.toml"), ["mcm", "mcmd"], BUILD_TIMEOUT_S)
        calib = cargo_build(root, os.path.join(HERE, "calib", "Cargo.toml"), ["perfbench-calib"],
                            BUILD_TIMEOUT_S)
        os.makedirs(work)
        ref = Reference(os.path.join(calib, "perfbench-calib"), work)
        ctx = workloads.Ctx(bins, work, args.seed, args.seconds, ref)
        if args.trace:
            import traced

            metrics, info = traced.run(args.workload, ctx, root)
        else:
            values, info = workloads.WORKLOADS[args.workload](ctx)
            metrics = {k: {"value": v, "unit": workloads.UNITS[k]} for k, v in values.items()}
    except (BenchError, ValueError, OSError) as e:
        log(f"error: {type(e).__name__}: {e}")
        return 1
    finally:
        for d in list(Daemon.live):
            d.kill()
        for r in list(Reference.live):
            r.close()
        shutil.rmtree(work, ignore_errors=True)
    lat = info.pop("latency_ms", None)
    if lat:
        q1, q2, q3 = quartiles(lat)
        info["latency_quartiles_ms"] = [q1, q2, q3]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "command": [os.path.basename(sys.executable), os.path.relpath(os.path.abspath(__file__), root)]
        + (sys.argv[1:] if argv is None else list(argv)),
        "host": host_info(),
        "commit": commit_id(root),
        "source_digest": source_digest(root),
        "wall_s": time.perf_counter() - t0,
        "checks_failed": ctx.wrong,
        **info,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ctx.correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
