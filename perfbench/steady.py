#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly, each run with another
seed, and prints each end-to-end metric's median and quartiles next to
its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload w ...]

A metric is flagged OVER when the distance between its quartiles, as a
share of its median, exceeds its bound (the rule a second set of runs is
judged by), and `wide` when it exceeds a third of the bound. `setup_s`
is reported but not flagged: only its median is compared between sets.
The last line of stdout is a JSON summary with the host, the commit and
the exact command of every run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import quartiles  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def flag(name, spread, bound):
    if name == "setup_s":
        return ""
    if spread > bound:
        return "OVER"
    return "wide" if spread > bound / 3 else "ok"


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"workloads": {}, "runs": []}
    over = False
    for workload in args.workload or names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            record, result = run_once(spec, workload, seed, args.seconds)
            summary["runs"].append({"record": record, "result": result})
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{m}={values[m][-1]:.4g}" for m in bounds),
                  flush=True)
        rows = {}
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
        print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m, xs in values.items():
            q1, q2, q3 = quartiles(xs)
            s = (q3 - q1) / q2
            f = flag(m, s, bounds[m])
            over |= f == "OVER"
            rows[m] = {"q1": q1, "median": q2, "q3": q3, "spread": s, "bound": bounds[m], "flag": f}
            print(f"  {m:<18} {q1:>12.4g} {q2:>12.4g} {q3:>12.4g} {s:>8.3f} {bounds[m]:>6.2f} {f}")
        print(flush=True)
        summary["workloads"][workload] = rows
    print(json.dumps(summary))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
