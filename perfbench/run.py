#!/usr/bin/env python3
"""Builds and runs the perfbench binary for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
engine and the perfbench binary with CMake into $CARGO_TARGET_DIR (default
.bench_build); later runs only check that the build is current. The
binary's own report is printed as one JSON line, followed by the result
line: {"correct", "attempted", "failed", "metrics"} with every end-to-end
metric of BENCHMARK.json (--trace 0) or every per-layer metric (--trace 1).

Extra flags for the benchmark's own tests: --scale small runs the same
workload shapes at a size that takes well under a second per round;
--fault drop-shadow-key removes one key from a client's shadow model
before the final check, which must then fail.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Environment variables that reconfigure the engine underneath a run.
ENGINE_OVERRIDES = ("OIR_TEST_WAL", "OIR_WAL_BACKEND", "OIR_WAL_SYNC",
                    "OIR_STATS_PUBLISH", "OIR_STATS_INTERVAL_MS",
                    "OIR_TRACE_LINKS")

RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build")), "perfbench")


def run_quiet(cmd, **kw):
    """Runs cmd with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          **kw).returncode


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return None
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    if run_quiet(["cmake", "--build", bdir, "-j", BUILD_JOBS]) != 0:
        return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.isfile(exe) else None


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=ROOT, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def source_hash():
    """sha256 over the engine and benchmark sources (path + content)."""
    paths = [os.path.join(ROOT, "bench", "bench_common.h")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(seed):
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    git = shutil.which("git")
    return {
        "git_sha": first_line([git, "rev-parse", "HEAD"]) if git else
                   "unknown",
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "compiler": first_line([cxx, "--version"]) if cxx else "unknown",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "kernel": platform.release(),
        "seed": seed,
    }


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    ap.add_argument("--fault", choices=("drop-shadow-key",))
    args = ap.parse_args()

    overrides = [v for v in ENGINE_OVERRIDES if os.environ.get(v)]
    if overrides:
        log("perfbench: refusing to run with engine overrides set: " +
            ", ".join(overrides))
        return 2
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        log("perfbench: BENCHMARK.json not found")
        return 2
    exe = build()
    if exe is None:
        log("perfbench: build failed")
        return 2

    run_dir = os.path.join(os.path.abspath(".perfbench_run"),
                           "%s-s%d-t%d-%d" % (args.workload, args.seed,
                                              args.trace, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ, OIR_FLIGHT_DIR=run_dir, TMPDIR=run_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--scale", args.scale]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the binary printed no report (exit %d)" % proc.returncode)
        return 3

    # The WAL file is large and useless after the run; spans and any flight
    # bundle stay in the run directory.
    for name in os.listdir(run_dir):
        if name.startswith("wal.log"):
            os.remove(os.path.join(run_dir, name))
    bundles = sorted(n for n in os.listdir(run_dir) if n != "spans.json")
    if not os.listdir(run_dir):
        os.rmdir(run_dir)

    correct = bool(report.get("correct")) and proc.returncode == 0
    metrics = {}
    if correct:
        produced = report["metrics"]
        for m in metric_specs(args.trace):
            got = produced.get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                log("perfbench: metric %s missing or in the wrong unit" %
                    m["name"])
                return 3
            metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    report["fingerprint"] = fingerprint(args.seed)
    report["flight_bundles"] = bundles
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct,
                      "attempted": int(report.get("attempted", 0)),
                      "failed": int(report.get("failed", 0)),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
