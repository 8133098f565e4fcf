"""Fast self-test of the benchmark (a few seconds; not part of the qchar suite).

    python3 benchmarks/selftest.py

Shows that every metric BENCHMARK.json names is emitted with its unit in
both modes, that the traced layers account for the traced wall time, and
that the gate fails a corrupted digest or a vacuous order claim.
"""

import contextlib
import io
import json
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

import gate
import run
import speedref
import workloads
from worker import SRC, run_call

sys.path.insert(0, str(SRC))
import qchar.cli  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
GAUSS = ["verify", "--family", "gauss", "--order", "300"]
# Cheap calls that still reach every layer but bivariate.
TINY = [
    GAUSS,
    ["oracle", "--m", "2", "--s", "0", "--qbound", "30"],
    ["series", "--expr", "phi(1) * distp(1)^2 - gauss()", "--order", "300",
     "--format", "json"],
]
LAYERS = ("qseries", "characters", "oracle", "bivariate", "cli", "expr", "bench")


def run_tiny(trace: bool, digests=None):
    tally = run.Tally(gate.load_digests() if digests is None else digests)
    with mock.patch.object(workloads, "generate", lambda name, seed: TINY), \
            contextlib.redirect_stderr(io.StringIO()):
        result = run.run_workload("univariate", 1, 1, trace, tally)
    return result["metrics"], tally


class MetricsTest(unittest.TestCase):
    def assert_emitted(self, metrics, specs):
        self.assertEqual(sorted(metrics), sorted(s["name"] for s in specs))
        for spec in specs:
            self.assertEqual(metrics[spec["name"]]["unit"], spec["unit"])
            self.assertIsInstance(metrics[spec["name"]]["value"], (int, float))

    def test_end_to_end_metrics_with_units(self):
        metrics, tally = run_tiny(trace=False)
        self.assert_emitted(metrics, SPEC["end_to_end"])
        self.assertEqual(tally.failed, 0)
        self.assertEqual(tally.attempted % len(TINY), 0)
        self.assertGreaterEqual(tally.attempted, run.MIN_REPS * len(TINY))
        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_probe_samples_during_a_call(self):
        probe = speedref.Probe()
        probe.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * speedref.INTERVAL_S:
            pass
        probe.stop()
        self.assertGreater(len(probe.samples), speedref.WARMUP + 1)
        self.assertGreater(probe.spent_s, 0)

    def test_speed_is_the_mean_over_the_window(self):
        probe = speedref.Probe()
        pass_s = speedref.PASS_S
        probe.samples = [pass_s, 2 * pass_s, 2 * pass_s]
        self.assertAlmostEqual(probe.speed(1, 3), 0.5)
        # a call with no sample of its own takes the samples either side
        self.assertAlmostEqual(probe.speed(1, 1), 0.75)
        self.assertAlmostEqual(probe.speed(3, 3), 0.5)

    def test_per_layer_metrics_cover_traced_wall(self):
        metrics, tally = run_tiny(trace=True)
        self.assert_emitted(metrics, SPEC["per_layer"])
        self.assertEqual(tally.failed, 0)
        value = {k: m["value"] for k, m in metrics.items()}
        layers = sum(value[f"{layer}.self_s"] for layer in LAYERS)
        self.assertAlmostEqual(layers, value["trace.wall_s"], places=6)
        # the sum holds by construction; what shows that the wrapped layers
        # account for the traced time is that the benchmark's own share is small
        self.assertGreaterEqual(value["bench.self_s"], 0)
        self.assertLess(value["bench.self_s"], 0.02 * value["trace.wall_s"])
        self.assertEqual(value["bivariate.calls"], 0)
        self.assertEqual(value["cli.calls"], len(TINY))
        self.assertGreater(value["qseries.mul.coeff_products"], 0)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.digests = gate.load_digests()
        code, self.stdout, _ = run_call(qchar.cli.main, GAUSS)
        self.assertEqual(code, 0)

    def test_recorded_output_passes(self):
        self.assertIsNone(gate.check_call(GAUSS, 0, self.stdout, self.digests))

    def test_corrupted_digest_fails(self):
        corrupted = dict(self.digests)
        corrupted[gate.argv_key(GAUSS)] = "0" * 64
        self.assertIn("digest", gate.check_call(GAUSS, 0, self.stdout, corrupted))

    def test_vacuous_order_fails(self):
        reports = json.loads(self.stdout)
        reports[0]["order_u"] = 2
        vacuous = json.dumps(reports, sort_keys=True, indent=2) + "\n"
        self.assertIn("order_u", gate.check_call(GAUSS, 0, vacuous, self.digests))

    def test_failed_verdict_and_exit_code_fail(self):
        reports = json.loads(self.stdout)
        reports[0]["verdict"] = "fail"
        self.assertIn("verdict", gate.check_output(GAUSS, 0, json.dumps(reports)))
        self.assertIn("exit code", gate.check_output(GAUSS, 1, self.stdout))

    def test_uncaught_exception_is_a_failed_call(self):
        code, _, stderr = run_call(lambda argv: 1 // 0, GAUSS)
        self.assertIn("ZeroDivisionError", stderr)
        self.assertIn("exit code", gate.check_output(GAUSS, code, ""))

    def test_run_with_corrupted_digests_counts_failures(self):
        corrupted = {key: "0" * 64 for key in self.digests}
        _, tally = run_tiny(trace=False, digests=corrupted)
        self.assertEqual(tally.failed, tally.attempted)

    def test_run_exits_nonzero_without_sources(self):
        stdout = io.StringIO()
        with mock.patch.object(run, "SRC", Path("/nonexistent")), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "graded", "--seconds", "1"])
        self.assertEqual(code, 2)
        self.assertEqual(stdout.getvalue(), "")


class WorkloadTest(unittest.TestCase):
    def test_seed_fixes_inputs_and_counts(self):
        for name, workload in workloads.WORKLOADS.items():
            a = workloads.generate(name, workloads.DEFAULT_SEED)
            self.assertEqual(a, workloads.generate(name, workloads.DEFAULT_SEED))
            held_out = workloads.generate(name, workloads.HELD_OUT_SEED)
            self.assertEqual(len(a), sum(f.count for f in workload.families))
            self.assertEqual(len(held_out), len(a))
        self.assertNotEqual(workloads.generate("univariate", 1),
                            workloads.generate("univariate", 2))

    def test_every_drawable_argv_has_a_digest(self):
        digests = gate.load_digests()
        for argv in workloads.domain():
            self.assertIn(gate.argv_key(argv), digests)


if __name__ == "__main__":
    unittest.main()
