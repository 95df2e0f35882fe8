"""Self-test of the benchmark: output schema and correctness gates, no timings.

Runs every workload at its tiny size, traced and untraced, and checks the
gate arithmetic against independent enumeration.  From the root of a source
checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import speed  # noqa: E402
import workloads  # noqa: E402
from thetasym.catalog import MINUS, PLUS, enumerate_labels, o_even, o_odd, sp  # noqa: E402
from thetasym.oracle import VerificationReport  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


class TinyRuns(unittest.TestCase):
    """Each workload, tiny size, both modes: schema, gate and layer separation."""

    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in ("0", "1"):
                proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", trace, "--tiny")
                cls.results[workload, trace] = proc

    def test_schema_and_gate(self):
        for (workload, trace), proc in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertEqual(result["failed"], 0)
                self.assertIsInstance(result["attempted"], int)
                self.assertGreaterEqual(result["attempted"], 1)
                spec = SPEC["end_to_end" if trace == "0" else "per_layer"]
                self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
                for m in spec:
                    metric = result["metrics"][m["name"]]
                    self.assertEqual(set(metric), {"value", "unit"})
                    self.assertEqual(metric["unit"], m["unit"])
                    self.assertIsInstance(metric["value"], (int, float))
                meta = json.loads(lines[-2])["meta"]
                for key in ("python", "cpu_count", "git_rev", "seed"):
                    self.assertIn(key, meta)
                if trace == "0":
                    self.assertEqual(set(meta["measured"]), {"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms"})
                    self.assertGreater(meta["speed_factor"], 0)

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            metrics = json.loads(self.results[workload, "0"].stdout.splitlines()[-1])["metrics"]
            for name, metric in metrics.items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def layer(self, workload: str) -> dict:
        metrics = json.loads(self.results[workload, "1"].stdout.splitlines()[-1])["metrics"]
        return {name: m["value"] for name, m in metrics.items()}

    def test_workloads_separate_the_layers(self):
        f1, variant, cli = self.layer("f1-sweep"), self.layer("variant-sweep"), self.layer("cli-mix")
        self.assertGreater(f1["theta.in_B.calls"], 0)
        self.assertGreater(f1["core.upsilon.calls"], 0)  # through theta's own binding
        self.assertGreater(variant["catalog.kh_of.calls"], 0)  # through ggp's own binding
        self.assertEqual(f1["ggp.ggp_multiplicity.calls"], 0)
        self.assertEqual(f1["catalog.make_label.calls"], 0)
        self.assertEqual(variant["theta.in_B.calls"], 0)
        self.assertEqual(variant["theta.theta_fiber.calls"], 0)
        self.assertGreater(variant["ggp.ggp_multiplicity.calls"], 0)
        self.assertGreater(cli["ggp.branch_decomposition.calls"], 0)
        self.assertGreater(cli["cli.output_bytes"], 0)
        for layer in (f1, variant, cli):
            self.assertGreater(layer["trace.overhead_ratio"], 0)

    def test_outcome_counts_add_up(self):
        variant = self.layer("variant-sweep")
        outcomes = sum(variant[f"ggp.ggp_multiplicity.{k}"] for k in ("zero", "one", "symbolic", "undetermined"))
        self.assertEqual(outcomes, variant["ggp.ggp_multiplicity.calls"])


class Gates(unittest.TestCase):
    def test_f1_count_at_rank_7(self):
        self.assertEqual(workloads.expected_f1_checks(7), 1215)

    def test_variant_count_matches_label_enumeration(self):
        for rank in (0, 1, 2):
            for eps_minus_one in (PLUS, MINUS):
                def count(group):
                    return sum(1 for _ in enumerate_labels(group, eps_minus_one))

                fj = sum(count(sp(n)) * count(sp(m)) for n in range(rank + 1) for m in range(n + 1))
                bessel = sum(
                    count(o_odd(n, e)) * count(o_even(m, e2))
                    for n in range(rank + 1) for m in range(rank + 1)
                    for e in (PLUS, MINUS) for e2 in (PLUS, MINUS)
                )
                self.assertEqual(workloads.expected_variant_families(rank, eps_minus_one), fj + bessel)

    def test_speed_factor_uses_both_passes(self):
        self.assertAlmostEqual(speed.scale(0.01, 0.03), speed.NOMINAL_REFERENCE_S / 0.02)

    def test_fewer_checks_fail_the_gate(self):
        report = VerificationReport()
        for _ in range(9):
            report.record(True, "x", 1, 1)
        self.assertEqual(workloads.sweep_failures(report, 9), 0)
        self.assertEqual(workloads.sweep_failures(report, 10), 1)
        report.record(False, "y", 1, 2)
        self.assertEqual(workloads.sweep_failures(report, 10), 1)

    def test_response_checks(self):
        table = workloads._request(["symbols-enumerate", "--format", "csv"], rows=2)
        self.assertTrue(workloads.check_response(table, 0, b"h\na\nb\n", b""))
        self.assertFalse(workloads.check_response(table, 0, b"h\na\n", b""))
        self.assertFalse(workloads.check_response(table, 1, b"h\na\nb\n", b""))
        self.assertFalse(workloads.check_response(table, 0, b"h\na\nb\n", b"Traceback (most recent"))
        fiber = workloads._request(["theta-fiber", "--format", "json"])
        self.assertTrue(workloads.check_response(fiber, 0, b"", b""))
        self.assertFalse(workloads.check_response(fiber, 0, b"[1|0]\n", b""))
        pretty = workloads._request(["theta-fiber", "--format", "pretty"])
        self.assertTrue(workloads.check_response(pretty, 0, b"symbol  rank  defect\n", b""))
        self.assertFalse(workloads.check_response(pretty, 0, b"", b""))
        bad = workloads._request(["theta-first"], expect_exit=1)
        self.assertTrue(workloads.check_response(bad, 1, b"", b"error: bad symbol\n"))
        self.assertFalse(workloads.check_response(bad, 1, b"", b"usage: thetasym\n"))

    def test_mix_is_seeded(self):
        self.assertEqual(workloads.build_mix(3, True), workloads.build_mix(3, True))
        self.assertNotEqual(workloads.build_mix(3, True), workloads.build_mix(4, True))
        verbs = {r["verb"] for deck in workloads.build_mix(3, True) for r in deck}
        self.assertEqual(verbs, {"symbols-enumerate", "theta-fiber", "theta-first", "theta-cuspidal",
                                 "ggp-mult", "ggp-branch", "verify"})


class WithoutSources(unittest.TestCase):
    def test_refuses_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = bench("--workload", "f1-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
