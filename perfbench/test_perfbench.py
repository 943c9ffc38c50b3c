#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

Runs every workload of BENCHMARK.json untraced and traced on
scaled-down inputs and checks that

  - each run ends with the result line the contract fixes, all checks
    passing;
  - the untraced run emits exactly the end-to-end metrics and the
    traced run exactly the per-layer metrics, each with its unit;
  - both runs of a workload agree on its modeled fingerprint;
  - every mapping in layers.json names existing metrics and workloads,
    every per-layer metric is mapped, and the metrics a mapping marks
    zero_on read 0 there;
  - an unknown workload exits non-zero without a result line.

Usage (from the repository root): python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def load(name):
    with open(name) as f:
        return json.load(f)


SPEC = load(os.path.join(ROOT, "BENCHMARK.json"))
LAYERS = load(os.path.join(HERE, "layers.json"))["mappings"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run(workload, trace, seed=1):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    return out.returncode, out.stdout.splitlines()


def fingerprint(lines):
    for line in lines:
        if line.startswith("modeled fingerprint "):
            return line.split()[-1]
    return None


class BenchmarkSelfTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = run(workload, trace)

    def test_result_line_and_metrics(self):
        for (workload, trace), (code, lines) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(
                    sorted(result),
                    ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], lines[:-1])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                expected = PER_LAYER if trace else END_TO_END
                metrics = result["metrics"]
                self.assertEqual(sorted(metrics), sorted(expected))
                for name, metric in metrics.items():
                    self.assertEqual(metric["unit"], expected[name], name)
                    self.assertIsInstance(metric["value"], (int, float))

    def test_modeled_results_match_across_modes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = fingerprint(self.results[workload, 0][1])
                traced = fingerprint(self.results[workload, 1][1])
                self.assertIsNotNone(untraced)
                self.assertEqual(untraced, traced)

    def test_layer_mappings_name_existing_metrics(self):
        mapped = set()
        for mapping in LAYERS:
            with self.subTest(layer=mapping["layer"]):
                for name in mapping["metrics"]:
                    self.assertIn(name, PER_LAYER)
                    mapped.add(name)
                for name in mapping["moves"] + mapping.get("unchanged", []):
                    self.assertIn(name, {**END_TO_END, **PER_LAYER})
                    mapped.add(name)
                for key in ("workloads", "unchanged_on", "zero_on"):
                    for workload in mapping.get(key, []):
                        self.assertIn(workload, WORKLOADS)
        self.assertEqual(sorted(set(PER_LAYER) - mapped), [])

    def test_zero_on_metrics_are_zero(self):
        for mapping in LAYERS:
            for workload in mapping.get("zero_on", []):
                metrics = json.loads(
                    self.results[workload, 1][1][-1])["metrics"]
                for name in mapping["metrics"]:
                    with self.subTest(workload=workload, metric=name):
                        self.assertEqual(metrics[name]["value"], 0)

    def test_unknown_workload_fails(self):
        code, lines = run("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
