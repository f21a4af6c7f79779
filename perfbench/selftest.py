"""Self-tests of the benchmark, on tiny op lists.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload, untraced and traced, it checks that every metric of
BENCHMARK.json prints with its unit, that the spans of a traced run nest,
and that two runs with one seed give identical digests and counters.  It
also checks that the benchmark refuses to run without the stabctl sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return report, json.loads(lines[-1])


class TinyRuns(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for trace in (0, 1, 1):
                cls.runs.setdefault((w["name"], trace), []).append(tiny_run(w["name"], trace))

    def test_metrics_print_with_units(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                _, result = self.runs[(w["name"], trace)][0]
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], w["name"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want, f"{w['name']} trace={trace}")
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)

    def test_spans_nest(self):
        for w in SPEC["workloads"]:
            report, _ = self.runs[(w["name"], 1)][0]
            spans = np.load(ROOT / report["spans_file"])
            start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
            self.assertGreater(len(start), 0, w["name"])
            self.assertTrue(np.all(end >= start))
            nested = parent >= 0
            self.assertTrue(np.all(parent[nested] < np.nonzero(nested)[0]))
            self.assertTrue(np.all(start[parent[nested]] <= start[nested]), w["name"])
            self.assertTrue(np.all(end[nested] <= end[parent[nested]]), w["name"])
            child = np.zeros(len(start), dtype=np.int64)
            np.add.at(child, parent[nested], (end - start)[nested])
            self.assertTrue(np.all(end - start - child >= 0), w["name"])

    def test_one_seed_repeats(self):
        for w in SPEC["workloads"]:
            (rep_a, res_a), (rep_b, res_b) = self.runs[(w["name"], 1)]
            self.assertEqual(rep_a["digest"], rep_b["digest"], w["name"])
            self.assertEqual(rep_a["digest"], self.runs[(w["name"], 0)][0][0]["digest"])
            self.assertEqual((res_a["attempted"], res_a["failed"]), (res_b["attempted"], res_b["failed"]))
            for name, v in res_a["metrics"].items():
                if v["unit"] == "count" or name.endswith(("hit_ratio", "certified_ratio")):
                    self.assertEqual(v["value"], res_b["metrics"][name]["value"], f"{w['name']} {name}")


class NoSources(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
