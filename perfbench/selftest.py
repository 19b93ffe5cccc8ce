"""Self-tests of the benchmark: oracles, percentile helper, span arithmetic.

    python3 perfbench/selftest.py

Each oracle must accept the program's real answer and reject a planted wrong
one.  Takes about ten seconds (it runs a few real operations, one CLI call
per checked variant and one small verify suite).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.load_package()

import numpy as np  # noqa: E402

import qclock as Q  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.nearest_rank(xs, 50), (50, 50))
        self.assertEqual(run.nearest_rank(xs, 99), (99, 1))
        self.assertEqual(run.nearest_rank(xs, 0), (1, 99))

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(range(1, 101)), (90.0, 90))
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99.0, 990))
        self.assertEqual(run.tail_percentile(range(1, 10_001)), (99.0, 9900))
        self.assertEqual(run.tail_percentile(range(20, 0, -1)), (50.0, 10))

    def test_tail_falls_back_to_maximum(self):
        self.assertEqual(run.tail_percentile([3.0]), (100.0, 3.0))
        self.assertEqual(run.tail_percentile(range(19)), (100.0, 18))


class LoopTest(unittest.TestCase):
    def test_every_pass_is_judged_and_only_the_last_is_kept(self):
        class Fake:
            def fixed_ops(self, state):
                return 8

            def op(self, state, i):
                state.append(i)
                return i

            def check(self, state, i, result):
                return None if result % 2 == 0 else f"odd answer {result}"

        calls = []
        tally = run.Tally()
        latency, walls, last = run.run_loop(Fake(), calls, tally, passes=3)
        self.assertEqual((len(calls), len(latency), len(walls)), (24, 8, 3))
        self.assertTrue(all(0 <= x <= max(walls) for x in latency))
        self.assertEqual(last, list(range(8)))
        self.assertEqual((tally.attempted, tally.failed), (24, 12))
        self.assertEqual(len(tally.reasons), run.MAX_REASONS)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ("a", -1, 0, 0.0, 10.0),
            ("b", 0, 0, 1.0, 4.0),
            ("c", 1, 0, 2.0, 3.0),
            ("d", 0, 0, 5.0, 9.0),
            ("a", -1, 1, 10.0, 12.0),
        ]
        got = tracing.self_times(spans)
        self.assertEqual(got["a"], (2, (10.0 - 3.0 - 4.0) + 2.0))
        self.assertEqual(got["b"], (1, 2.0))
        self.assertEqual(got["c"], (1, 1.0))
        self.assertEqual(got["d"], (1, 4.0))

    def test_wrapped_calls_nest(self):
        tracer = tracing.Tracer()

        def inner():
            return 1

        inner_t = tracer.wrap("m.inner", inner)

        def outer():
            return inner_t() + inner_t()

        self.assertEqual(tracer.wrap("m.outer", outer)(), 2)
        names = [(s[0], s[1]) for s in tracer.spans]
        self.assertEqual(names, [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)])
        selfs = tracing.self_times(tracer.spans)
        total = tracer.spans[0][4] - tracer.spans[0][3]
        self.assertAlmostEqual(sum(v[1] for v in selfs.values()), total, places=12)

    def test_install_patches_importers_and_restores(self):
        original = Q.phase_space.hermitian_eig
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertIsNot(Q.phase_space.hermitian_eig, original)
            self.assertIs(Q.phase_space.hermitian_eig, Q.numerics.hermitian_eig)
            Q.check_density(np.eye(3) / 3)
        self.assertIs(Q.phase_space.hermitian_eig, original)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["phase_space.check_density", "numerics.hermiticity_defect",
                                 "numerics.hermitian_eig", "numerics.hermiticity_defect"])
        self.assertEqual(len(tracer.distinct["numerics.hermitian_eig"]), 1)


class VerifyOracleTest(unittest.TestCase):
    def test_plants(self):
        wl = W.Verify()
        state = wl.generate(0)
        good = Q.run_suite(*state[0])
        self.assertIsNone(wl.check(state, 0, good))
        checks = list(good.checks)
        idx = next(j for j, c in enumerate(checks) if c.name == "basis-roundtrip")
        checks[idx] = dataclasses.replace(checks[idx], passed=False)
        plants = {
            "failed check": dataclasses.replace(good, checks=tuple(checks)),
            "missing checks": dataclasses.replace(good, checks=good.checks[:10]),
            "flipped sign": dataclasses.replace(good, signs=dict(good.signs, weyl_pair_sign=1)),
            "wrong seed": dataclasses.replace(good, seed=good.seed + 1),
            "wrong dimension": dataclasses.replace(good, dim=good.dim + 2),
        }
        for label, report in plants.items():
            with self.subTest(label):
                self.assertIsNotNone(wl.check(state, 0, report))


class CliOracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_selftest"))
        cls.wl = W.Cli(run.ROOT, cls.tmp)
        cls.state = cls.wl.generate(0)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def index(self, variant, n):
        return next(
            i for i, c in enumerate(self.state["cases"]) if (c.variant, c.n) == (variant, n)
        )

    def fresh(self):
        return dict(self.state, stdout={})

    def test_analyze_plants(self):
        i = self.index("analyze", 7)
        code, out = self.wl.op(self.state, i)
        self.assertIsNone(self.wl.check(self.fresh(), i, (code, out)))
        report = json.loads(out)
        report["k"] = report["k"] % 6 + 1
        self.assertIsNotNone(self.wl.check(self.fresh(), i, (code, json.dumps(report).encode())))
        self.assertIsNotNone(self.wl.check(self.fresh(), i, (3, out)))
        state = self.fresh()
        self.assertIsNone(self.wl.check(state, i, (code, out)))
        self.assertIsNotNone(self.wl.check(state, i, (code, out + b" ")))

    def test_clock_plant(self):
        i = self.index("clock", 7)
        code, out = self.wl.op(self.state, i)
        self.assertIsNone(self.wl.check(self.fresh(), i, (code, out)))
        report = json.loads(out)
        report["steps_records"][2]["occupied_index"] += 1
        self.assertIsNotNone(self.wl.check(self.fresh(), i, (code, json.dumps(report).encode())))

    def test_wigner_plant(self):
        i = self.index("wigner_step", 7)
        code, out = self.wl.op(self.state, i)
        self.assertIsNone(self.wl.check(self.fresh(), i, (code, out)))
        lines = out.decode().splitlines()
        lines[1] = lines[1].replace(",", ",1", 1)
        self.assertIsNotNone(self.wl.check(self.fresh(), i, (code, "\n".join(lines).encode())))

    def test_verify_plant(self):
        i = self.index("verify", 7)
        code, out = self.wl.op(self.state, i)
        self.assertIsNone(self.wl.check(self.fresh(), i, (code, out)))
        self.assertIsNotNone(self.wl.check(self.fresh(), i, (1 - code, out)))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_file(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1] + sys.argv[1:], verbosity=1)
