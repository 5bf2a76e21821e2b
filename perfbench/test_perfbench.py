#!/usr/bin/env python3
"""Tests of the benchmark's own logic: the percentile rule, the seeded
update stream, the host-speed scaling, and the parsers of `mcm`/`mcmd`
output lines.

    python3 perfbench/test_perfbench.py
"""

import os
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common as c  # noqa: E402
import workloads as w  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        for n in range(1, 20001, 7):
            p = c.tail_percentile(n)
            if p is None:
                self.assertLess(n * 0.25, c.MIN_BEYOND)
                continue
            self.assertGreaterEqual(n * (100 - p) / 100 + 1e-9, c.MIN_BEYOND, n)
            higher = [q for q in c.PERCENTILE_LADDER if q > p]
            for q in higher:
                self.assertLess(n * (100 - q) / 100, c.MIN_BEYOND, (n, q))

    def test_known_sample_counts(self):
        self.assertIsNone(c.tail_percentile(39))
        self.assertEqual(c.tail_percentile(40), 75.0)
        self.assertEqual(c.tail_percentile(100), 90.0)
        self.assertEqual(c.tail_percentile(199), 90.0)
        self.assertEqual(c.tail_percentile(200), 95.0)
        self.assertEqual(c.tail_percentile(1000), 99.0)
        self.assertEqual(c.tail_percentile(10000), 99.9)

    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(c.percentile(xs, 90), 90)
        self.assertEqual(c.percentile(xs, 50), 50)
        self.assertEqual(c.percentile([5.0], 99), 5.0)
        self.assertEqual(c.percentile([3, 1, 2], 100), 3)

    def test_quartiles_follow_statistics_quantiles(self):
        xs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        self.assertEqual(list(c.quartiles(xs)), statistics.quantiles(xs, n=4))
        self.assertEqual(c.quartiles([4.0]), (4.0, 4.0, 4.0))


class SeededStream(unittest.TestCase):
    NCOLS = 256

    def graphs(self, seed):
        rng = c.SplitMix64(seed)
        base = [(rng.below(256), rng.below(256)) for _ in range(1200)]
        ins = [(rng.below(256), rng.below(256)) for _ in range(20000)]
        return base, ins

    def stream(self, seed, n=6, weighted=False):
        base, ins = self.graphs(1)
        return w.build_stream(seed, self.NCOLS, base, ins, n, weighted)

    def test_splitmix_reference_value(self):
        self.assertEqual(c.SplitMix64(0).next_u64(), 0xE220A8397B1DCDAF)

    def test_same_seed_same_stream(self):
        a, live_a = self.stream(7)
        b, live_b = self.stream(7)
        self.assertEqual([x[0] for x in a], [x[0] for x in b])
        self.assertEqual(live_a, live_b)

    def test_other_seed_other_stream(self):
        a, _ = self.stream(7)
        b, _ = self.stream(8)
        self.assertNotEqual([x[0] for x in a], [x[0] for x in b])

    def test_window_shape(self):
        windows, _ = self.stream(3)
        for payload, kinds, updates in windows:
            lines = payload.decode().splitlines()
            self.assertEqual(len(lines), w.WINDOW_LINES + 1)
            self.assertEqual(lines[-1], "sync")
            self.assertEqual(len(kinds), len(lines))
            queries = [i for i, l in enumerate(lines) if l == "query"]
            self.assertEqual(queries, list(range(w.QUERY_EVERY - 1, w.WINDOW_LINES, w.QUERY_EVERY)))
            ins = sum(1 for u in updates if u.startswith("insert "))
            dels = sum(1 for u in updates if u.startswith("delete "))
            self.assertEqual(ins, dels)
            self.assertEqual(ins + dels + len(queries), w.WINDOW_LINES)

    def test_deletes_hit_live_edges_and_inserts_add_new_ones(self):
        base, ins = self.graphs(1)
        windows, live_count = w.build_stream(5, self.NCOLS, base, ins, 6, True)
        live = set(base)
        for _, _, updates in windows:
            for u in updates:
                verb, r, col, *rest = u.split()
                e = (int(r), int(col))
                if verb == "insert":
                    self.assertNotIn(e, live)
                    self.assertTrue(1 <= int(rest[0]) <= w.MAX_WEIGHT)
                    live.add(e)
                else:
                    self.assertIn(e, live)
                    live.remove(e)
        self.assertEqual(len(live), live_count)

    def test_weights_are_seeded(self):
        edges = [(i, i + 1) for i in range(100)]
        self.assertEqual(w.weight_edges(4, edges), w.weight_edges(4, edges))
        self.assertNotEqual(w.weight_edges(4, edges), w.weight_edges(5, edges))
        self.assertTrue(all(1 <= x <= w.MAX_WEIGHT for _, _, x in w.weight_edges(4, edges)))


BREAKDOWN = """\
shared: 4 logical ranks x 1 threads (fused arena); modeled time 53.871 ms
per-kernel breakdown (measured wall clock vs modeled alpha-beta-gamma):
kernel         measured_s      spans      modeled_s      calls
Augment          0.001535          4       0.000697        253
Init             0.286153          1       0.036173         40
SpMV             0.104390         60       0.014307        180
total            0.409971                  0.053871
"""


class Parsers(unittest.TestCase):
    def test_mcm_match(self):
        out = "maximum matching: 58903 of 131072 columns (131072 rows) matched\nalgo: msbfs\n"
        self.assertEqual(c.parse_match(out), 58903)
        self.assertEqual(c.parse_algo(out), ("msbfs", False))
        self.assertEqual(c.parse_algo("algo: ppf (selected by auto)\n"), ("ppf", True))
        with self.assertRaises(ValueError):
            c.parse_match("maximum matching: lots\n")

    def test_mcm_match_weighted(self):
        out = ("maximum weight matching: |M| = 120 of 128 columns, total weight 4521.000000\n"
               "algo: wauction (1 threads, 900 bids, eps 1.00e-3)\n")
        self.assertEqual(c.parse_weighted_match(out), (120, 4521.0))

    def test_gen_and_convert(self):
        self.assertEqual(c.parse_gen_nnz(
            "wrote 131072 x 131072 matrix with 3734014 nonzeros to g.mcsb (15984824 bytes, MCSB)\n"),
            3734014)
        self.assertEqual(c.parse_gen_nnz("wrote 4 x 4 matrix with 9 nonzeros to g.mtx\n"), 9)
        self.assertEqual(c.parse_convert_nnz(
            "converted 65536 x 65536 matrix, 229710 nonzeros (weighted) -> r.mcsb (1 bytes, MCSB)\n"),
            229710)
        with self.assertRaises(ValueError):
            c.parse_gen_nnz("error: bad")

    def test_breakdown_and_modeled_time(self):
        rows = c.parse_breakdown(BREAKDOWN)
        self.assertEqual(rows["Init"], (0.286153, 1))
        self.assertEqual(rows["SpMV"], (0.10439, 60))
        self.assertNotIn("total", rows)
        self.assertEqual(c.parse_modeled_ms(BREAKDOWN), 53.871)

    def test_mcmd_lines(self):
        self.assertEqual(c.parse_listening("listening 127.0.0.1:40123"), ("127.0.0.1", 40123))
        self.assertEqual(c.parse_synced("synced seq 12 cardinality 300"), (12, 300))
        self.assertEqual(c.parse_query("matching 300"), (300, None))
        self.assertEqual(c.parse_query("matching 300 weight 12.5"), (300, 12.5))
        for bad in ("busy", "synced seq x cardinality 1", "error vertex out of range (1, 2)"):
            with self.assertRaises(ValueError):
                c.parse_synced(bad)
        with self.assertRaises(ValueError):
            c.parse_query("ok")

    def test_stats_line(self):
        d = c.parse_kv_line("stats batches 4 updates 900 sweeps 3 fallbacks 0 algo msbfs", "stats")
        self.assertEqual(d, {"batches": 4, "updates": 900, "sweeps": 3, "fallbacks": 0, "algo": "msbfs"})
        d = c.parse_kv_line("stats batches 2 weight_gained 1.5 cold 2", "stats")
        self.assertEqual(d["weight_gained"], 1.5)

    def test_prometheus(self):
        lines = [
            "# TYPE mcmd_batch_apply_seconds histogram",
            'mcmd_batch_apply_seconds_bucket{le="+Inf"} 4',
            "mcmd_batch_apply_seconds_sum 0.02",
            "mcmd_batch_apply_seconds_count 4",
            'mcmd_request_seconds_sum{verb="insert"} 0.000002',
            'mcmd_request_seconds_count{verb="insert"} 2',
            'mcmd_busy_total{verb="sync"} 3',
            "# EOF",
        ]
        prom = c.parse_prom(lines)
        self.assertAlmostEqual(c.prom_mean_ms(prom, "mcmd_batch_apply_seconds"), 5.0)
        self.assertAlmostEqual(c.prom_mean_ms(prom, "mcmd_request_seconds", verb="insert"), 0.001)
        self.assertIsNone(c.prom_mean_ms(prom, "mcmd_request_seconds", verb="delete"))
        self.assertEqual(prom[("mcmd_busy_total", frozenset({("verb", "sync")}))], 3.0)

    def test_matrix_market_edges(self):
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            p = os.path.join(d, "g.mtx")
            with open(p, "w") as f:
                f.write("%%MatrixMarket matrix coordinate pattern general\n% comment\n3 4 2\n1 1\n3 4\n")
            self.assertEqual(c.read_mtx_edges(p), (3, 4, [(0, 0), (2, 3)]))
            c.write_weighted_mtx(p, 3, 4, [(0, 0, 7), (2, 3, 1)])
            self.assertEqual(c.read_mtx_edges(p), (3, 4, [(0, 0), (2, 3)]))


class FakeReference:
    """Answers the reference task with the given times in turn."""

    def __init__(self, times):
        self.times = list(times)
        self.calls = 0

    def time(self):
        t = self.times[min(self.calls, len(self.times) - 1)]
        self.calls += 1
        return t


class HostScaling(unittest.TestCase):
    R = c.REF_NOMINAL_S

    def test_nominal_host_leaves_times_unscaled(self):
        s = c.HostScale(FakeReference([self.R]).time, 0.0)
        for x in (0.4, 0.5):
            s.start()
            s.add(x)
        self.assertEqual(s.scaled, [0.4, 0.5])
        self.assertEqual(s.walls, [0.4, 0.5])

    def test_ops_scale_by_the_references_around_their_block(self):
        # References 2R before and 4R after the block: the host ran 3x slow.
        ref = FakeReference([2 * self.R, 4 * self.R, self.R])
        s = c.HostScale(ref.time, 1.0)
        for x in (0.3, 0.3, 0.6):
            s.start()
            s.add(x)
        self.assertEqual(ref.calls, 2)
        self.assertEqual([round(x, 12) for x in s.scaled], [0.1, 0.1, 0.2])
        # The closing reference opens the next block.
        s.start()
        s.add(0.5)
        s.flush()
        self.assertEqual(ref.calls, 3)
        self.assertAlmostEqual(s.scaled[-1], 0.5 / 2.5)
        self.assertEqual(len(s.refs), 2)

    def test_flush_without_ops_times_nothing(self):
        ref = FakeReference([self.R])
        s = c.HostScale(ref.time, 1.0)
        s.flush()
        self.assertEqual((ref.calls, s.scaled), (0, []))

    def test_op_without_opening_reference_is_refused(self):
        s = c.HostScale(FakeReference([self.R]).time, 1.0)
        with self.assertRaises(c.BenchError):
            s.add(0.1)


class ResponseChecks(unittest.TestCase):
    """`Session.check`: which answers are failed ops and which also make the
    output incorrect."""

    KINDS = ["u", "u", "q", "s"]

    def check(self, lines, weighted=False):
        ctx = w.Ctx(HERE, HERE, 1, 1, FakeReference([c.REF_NOMINAL_S]))
        session = w.Session(ctx, None, weighted)
        applied = session.check(self.KINDS, lines)
        return ctx, session, applied

    def test_clean_window(self):
        ctx, session, applied = self.check(["ok", "ok", "matching 5", "synced seq 3 cardinality 5"])
        self.assertEqual((applied, ctx.attempted, ctx.failed), (2, 4, 0))
        self.assertTrue(ctx.correct)
        self.assertEqual((session.seq, session.cardinality), (3, 5))

    def test_busy_update_fails_but_is_not_wrong(self):
        ctx, session, applied = self.check(["busy", "ok", "matching 5", "synced seq 3 cardinality 5"])
        self.assertEqual((applied, ctx.failed, session.update_failures), (1, 1, 1))
        self.assertTrue(ctx.correct)

    def test_error_update_is_wrong(self):
        ctx, session, applied = self.check(
            ["error vertex out of range (9, 9)", "ok", "matching 5", "synced seq 3 cardinality 5"])
        self.assertEqual((applied, ctx.failed, session.update_failures), (1, 1, 1))
        self.assertFalse(ctx.correct)

    def test_malformed_answers_are_wrong(self):
        ctx, _, _ = self.check(["ok", "ok", "matching 5 weight 2.0", "synced seq 3 cardinality 5"])
        self.assertEqual(ctx.failed, 1)
        self.assertFalse(ctx.correct)
        ctx, _, _ = self.check(["ok", "ok", "matching 5", "garbage"])
        self.assertEqual(ctx.failed, 1)
        self.assertFalse(ctx.correct)

    def test_synced_seq_must_increase(self):
        ctx, session, _ = self.check(["ok", "ok", "matching 5", "synced seq 3 cardinality 5"])
        session.check(self.KINDS, ["ok", "ok", "matching 5", "synced seq 3 cardinality 5"])
        self.assertEqual(ctx.failed, 1)
        self.assertFalse(ctx.correct)


class Spec(unittest.TestCase):
    """BENCHMARK.json and the code that produces its metrics agree."""

    def test_metric_names_and_units(self):
        import json

        import traced

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, w.UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, traced.METRICS)
        for wl in spec["workloads"]:
            self.assertIn(wl["name"], w.WORKLOADS)
            self.assertIn(wl["name"], traced.TRACED)


if __name__ == "__main__":
    unittest.main()
