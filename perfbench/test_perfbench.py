#!/usr/bin/env python3
"""Self-tests of the benchmark, run at a small size.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds the binary on first use, like run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Per-layer metrics that only the durable round at the end of a run feeds.
DURABLE_METRICS = ["wal.commits_per_group", "wal.fsyncs_per_commit",
                   "wal.segments_sealed_per_kop", "recovery.ms"]


def run_bench(workload, trace=0, extra=(), env=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--scale", "small", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.exe = run.build()
        if cls.exe is None:
            raise RuntimeError("perfbench build failed")

    def check_metrics(self, workload, trace, specs):
        code, lines = run_bench(workload, trace)
        self.assertEqual(code, 0, lines)
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertGreaterEqual(detail["metrics"][m["name"]]["samples"],
                                    1, m["name"])
        return detail

    def test_every_end_to_end_metric_printed_with_unit_and_samples(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                detail = self.check_metrics(w, 0, BENCH["end_to_end"])
                for key in ("git_sha", "nproc", "compiler", "build_type",
                            "kernel", "seed"):
                    self.assertIn(key, detail["fingerprint"])
                for key in ("wal_backend", "wal_sync_mode", "pool_shards"):
                    self.assertIn(key, detail["engine"])

    def test_traced_run_emits_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                detail = self.check_metrics(w, 1, BENCH["per_layer"])
                self.assertIn("index.lookup", detail["span_self_us_p50"])
                with open(detail["spans_file"]) as f:
                    events = json.load(f)["traceEvents"]
                self.assertEqual(len(events), detail["spans_written"])
                names = {e["name"] for e in events}
                self.assertTrue({"txn.read", "index.lookup", "db.commit",
                                 "index.rebuild_online",
                                 "rebuild.top_action"} <= names, names)
                self.assertTrue(any(e["args"]["parent"] >= 0
                                    for e in events))
                for name in DURABLE_METRICS:
                    self.assertGreater(detail["metrics"][name]["value"], 0,
                                       name)

    def test_shadow_model_missing_a_key_fails_the_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run_bench(w, extra=["--fault",
                                                  "drop-shadow-key"])
                self.assertNotEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["metrics"], {})
                self.assertIn("not in shadow", json.loads(lines[-2])[
                    "state_error"])

    def test_op_sequence_depends_only_on_the_seed(self):
        def op_hash(workload, seed):
            out = subprocess.run(
                [self.exe, "--workload", workload, "--seed", str(seed),
                 "--op-hash", "5000"], capture_output=True, text=True,
                check=True).stdout
            return json.loads(out)["op_hash"]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(op_hash(w, 1), op_hash(w, 1))
                self.assertNotEqual(op_hash(w, 1), op_hash(w, 2))

    def test_durability_check_passes_after_crash(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run_bench(w)
                self.assertEqual(code, 0, lines)
                durability = json.loads(lines[-2])["durability"]
                self.assertTrue(durability["passed"])
                self.assertEqual(durability["engine"]["wal_sync_mode"],
                                 "fdatasync")
                self.assertGreater(durability["acked_update_commits"], 0)
                self.assertGreater(durability["rolled_back_updates"], 0)
                self.assertGreater(durability["records_redone"], 0)

    def test_engine_override_is_refused(self):
        env = dict(os.environ, OIR_WAL_SYNC="none")
        code, lines = run_bench(WORKLOADS[0], env=env)
        self.assertEqual(code, 2)
        self.assertEqual(lines, [])

    def test_fails_without_the_engine_sources(self):
        bare = os.path.join(ROOT, ".perfbench_run", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            code, lines = run_bench(WORKLOADS[0], env=env, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
