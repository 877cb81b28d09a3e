#!/usr/bin/env python3
"""Builds and runs one workload of the sync benchmark.

Usage, from the root of the repository:

    python3 syncbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 syncbench/run.py --selftest

The first call configures and builds syncbench/ (the rsr library from src/
plus the benchmark binary) in an optimised build type under .bench_build/;
later calls rebuild only what changed. The repository's own CMake files and
build/ directory are not used.

A run prints two JSON lines on stdout. The first is the full record: every
metric the binary measured (including the workload-specific end-to-end
metrics and the span summary of a traced run), the attempt/failure
breakdown and the provenance (nproc, compiler, build type, git sha or
source digest, seed). The same record is appended to .bench_out/runs.jsonl,
which syncbench/compare.py reads. The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "syncbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("syncbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "recon", "registry.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "syncbench"),
                         "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_build_step(configure)
        jobs = str(os.cpu_count() or 1)
        run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs])
    binary = os.path.join(BUILD_DIR, "syncbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary at " + binary)
    return binary


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("build step failed: %s" % err)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the library and benchmark sources (name and content)."""
    digest = hashlib.sha256()
    for top in ("src", "syncbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def provenance(seed):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run(
                [compiler, "--version"], capture_output=True, text=True,
                timeout=30, check=False).stdout.splitlines()[0]
        except (OSError, subprocess.TimeoutExpired, IndexError):
            pass
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": git_sha,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if args.selftest:
        sys.exit(done.returncode)
    if done.returncode != 0:
        fail("benchmark binary exited with %d" % done.returncode)
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("benchmark binary printed no result")

    want = expected_metrics(args.trace == 1)
    if want is not None and set(record["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(record["metrics"]) ^ want))

    record["provenance"] = provenance(args.seed)
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as log:
        log.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
