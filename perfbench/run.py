#!/usr/bin/env python3
"""Builds and runs the module benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload distmatrix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
repository's src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
re-check the build.  Build output goes to stderr, so the last stdout line
is the benchmark's JSON result.  Before printing it, the result's metric
names and units are checked against BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first run (build included) must end within 900 s, every later run
# within 180 s.
BUILD_BUDGET_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, deadline):
    """Runs a build step with its output on stderr; fails on error or
    when the build budget runs out."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, deadline)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", jobs], deadline)
    scratch = os.path.join(build_root, "tmp")
    os.makedirs(scratch, exist_ok=True)
    return os.path.join(build_dir, "perfbench"), scratch


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_layer_map():
    """perfbench/layers.json must describe exactly BENCHMARK.json's
    per-layer metrics."""
    with open(os.path.join(HERE, "layers.json")) as f:
        mapped = set(json.load(f)["per_layer"])
    declared = set(expected_metrics("1"))
    if mapped != declared:
        fail("layers.json and BENCHMARK.json disagree on " +
             ", ".join(sorted(mapped ^ declared)))


def main(argv):
    binary, scratch = build()
    if "--self-test" in argv:
        check_layer_map()
        sys.exit(subprocess.run([binary, "--self-test", "--scratch", scratch],
                                timeout=RUN_TIMEOUT_S).returncode)
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else "0"
    try:
        proc = subprocess.run([binary] + argv + ["--scratch", scratch],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("the last output line is not a JSON result")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        diff = set(got.items()) ^ set(want.items())
        fail("metrics differ from BENCHMARK.json: " +
             ", ".join(sorted("%s [%s]" % d for d in diff)))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
