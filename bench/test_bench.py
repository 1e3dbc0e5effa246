"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py      (or: python3 bench/test_bench.py)

Checks that inputs come from the seed alone, that a tiny-size run of
every workload finishes with no failed op, that a traced run reports
every per-layer metric BENCHMARK.json names, that an op past its timeout
fails (and its process is reaped), that latencies are scaled by the
host probes around them, and the oracles' exactness.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time
import unittest
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from common import CheckFailed  # noqa: E402
from spans import NullTracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 0.05


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in run.MODULES:
            wl = run.load(name)
            self.assertEqual(repr(wl.build(7)), repr(wl.build(7)), name)

    def test_other_seed_gives_other_inputs(self):
        for name in run.MODULES:
            wl = run.load(name)
            self.assertNotEqual(repr(wl.build(7)), repr(wl.build(8)), name)


class TinyRuns(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for name in run.MODULES:
            result, _, errors = run.measure(name, seed=3, seconds=0, trace=False,
                                            scale=TINY, probes=1)
            self.assertEqual(errors, [], name)
            self.assertTrue(result["correct"] and result["attempted"] > 0, name)
            self.assertEqual(set(result["metrics"]), names, name)

    def test_traced_run_reports_every_layer(self):
        result, _, errors = run.measure("ray-queries", seed=3, seconds=0, trace=True,
                                        scale=TINY, probes=1)
        self.assertEqual(errors, [])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})


class Timeouts(unittest.TestCase):
    def test_cli_process_past_its_timeout_is_killed_and_fails(self):
        import cli_oneshot
        env = cli_oneshot.prepare([])["env"]
        old = cli_oneshot.PROCESS_TIMEOUT_S
        cli_oneshot.PROCESS_TIMEOUT_S = 0.001
        try:
            with self.assertRaises(CheckFailed):
                cli_oneshot.spawn(["count", "0,0", "3,3"], env)
        finally:
            cli_oneshot.PROCESS_TIMEOUT_S = old
        with self.assertRaises(ChildProcessError):  # the child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_in_process_op_past_its_timeout_fails(self):
        slow = SimpleNamespace(NAME="slow", OP_TIMEOUT_S=0.05, KINDS={
            "sleep": (lambda ctx, p, tr: time.sleep(2), lambda ctx, p, out: None)})
        old = signal.signal(signal.SIGALRM, run._alarm)
        try:
            runner = run.Runner(slow, {}, NullTracer(), time.perf_counter() + 60)
            t0 = time.perf_counter()
            runner.op(("sleep", {}))
        finally:
            signal.signal(signal.SIGALRM, old)
        self.assertLess(time.perf_counter() - t0, 1.0)
        self.assertEqual((runner.attempted, runner.failed), (1, 1))
        self.assertIn("OpTimeout", runner.errors[0])


class HostScaling(unittest.TestCase):
    def test_latency_is_scaled_by_the_probes_around_it(self):
        runner = run.Runner(SimpleNamespace(KINDS={}), {}, NullTracer(), time.perf_counter() + 60)
        ref = run.REFERENCES["loop"][1]
        runner.probes = [2 * ref, 4 * ref, 1 * ref]
        runner.latencies, runner.window = [0.3, 0.3, 0.3], [0, 1, 2]
        # a host at half speed halves the time; the last window has no
        # closing probe and uses its opening one
        self.assertEqual([round(t, 12) for t in runner.scaled()], [0.1, 0.12, 0.3])


class Oracles(unittest.TestCase):
    def test_floor_quadratic_on_integer_multiples(self):
        rng = random.Random(5)
        for _ in range(500):
            d = rng.randrange(2, 10**6)
            if isqrt(d) ** 2 == d:
                continue
            a, b = rng.randrange(-1000, 1000), rng.randrange(1, 10**6)
            self.assertEqual(oracle.floor_quadratic(Fraction(a), Fraction(b), d),
                             a + isqrt(b * b * d))
            self.assertEqual(oracle.floor_quadratic(Fraction(a), Fraction(-b), d),
                             a - isqrt(b * b * d) - 1)

    def test_floor_quadratic_on_fractions(self):
        # floor((p + q sqrt d) / r) against the integer isqrt form
        rng = random.Random(6)
        for _ in range(500):
            d, p, q, r = (rng.randrange(2, 1000), rng.randrange(-500, 500),
                          rng.randrange(1, 500), rng.randrange(1, 50))
            if isqrt(d) ** 2 == d:
                continue
            want = (p + isqrt(q * q * d)) // r
            self.assertEqual(oracle.floor_quadratic(Fraction(p, r), Fraction(q, r), d), want)

    def test_staircase_matches_a_direct_merge(self):
        # horizontal crossing i at i/ux, vertical j at j/uy, ties horizontal
        p, q = 5, 3
        stream, i, j = [], 1, 1
        while len(stream) < 40:
            if i * q <= j * p:
                stream.append(0)
                i += 1
            else:
                stream.append(1)
                j += 1
        self.assertEqual(oracle.Line.rational(p, q).digits(40), stream)


if __name__ == "__main__":
    unittest.main()
