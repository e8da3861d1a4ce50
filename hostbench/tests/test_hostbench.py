"""Self-tests of the host-time benchmark, on tiny inputs.

    python3 -m unittest discover -s hostbench/tests

Each test drives hostbench/run.py end to end (build, harness process,
fingerprint check, result line) with --tiny, so the whole suite takes
about a minute once the harness is built.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "hostbench", "run.py")
WORKLOADS = ("fleet_lossy", "device_writer", "prover_churn")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_bench(workload, seed=1, trace=0, table=None):
    """Runs run.py on tiny inputs; returns (exit code, result or None, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fingerprints.json")
        with open(path, "w") as f:
            json.dump(table or {}, f)
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace), "--tiny", "--fingerprints", path],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def fingerprint(stderr, workload, seed):
    match = re.search(rf"fingerprint {workload}/tiny seed {seed}: ([0-9a-f]+)", stderr)
    return match.group(1) if match else None


class TinyRuns(unittest.TestCase):
    def test_every_workload_runs_and_is_correct(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, stderr = run_bench(workload)
                self.assertEqual(code, 0, stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for workload in WORKLOADS:
                with self.subTest(trace=trace, workload=workload):
                    code, result, stderr = run_bench(workload, trace=trace)
                    self.assertEqual(code, 0, stderr)
                    wanted = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name in wanted:
                        self.assertIn(name, stderr)


class Fingerprints(unittest.TestCase):
    def test_changed_seed_changes_fingerprint(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, err1 = run_bench(workload, seed=1)
                _, _, err2 = run_bench(workload, seed=2)
                fp1, fp2 = fingerprint(err1, workload, 1), fingerprint(err2, workload, 2)
                self.assertIsNotNone(fp1, err1)
                self.assertIsNotNone(fp2, err2)
                self.assertNotEqual(fp1, fp2)

    def test_recorded_fingerprint_passes_and_tampered_one_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, _, stderr = run_bench(workload, seed=3)
                good = fingerprint(stderr, workload, 3)
                self.assertIsNotNone(good, stderr)
                key = workload + "/tiny"
                code, result, _ = run_bench(workload, seed=3, table={key: {"3": good}})
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                bad = format(int(good, 16) ^ 1, "016x")
                code, result, stderr = run_bench(workload, seed=3, table={key: {"3": bad}})
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertIn("fingerprint", stderr)


if __name__ == "__main__":
    unittest.main()
