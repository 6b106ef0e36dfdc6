#!/usr/bin/env python3
"""Build and run the llsc-lab benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lowerbound --seed 1 --seconds 20 \
        --trace 0

Workloads: lowerbound, registers_closed, service_open (see
perfbench/NOTES.md). The benchmark is compiled from the checkout's own
sources into $CARGO_TARGET_DIR (default .bench_build), configured as
RelWithDebInfo, on the first run and whenever a source changed. The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the spans are
also written to <build dir>/trace/<workload>-seed<seed>.jsonl.

`--selftest` runs the benchmark's own arithmetic self-tests instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("lowerbound", "registers_closed", "service_open")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The checkout's git commit, or a digest of its sources without one."""
    try:
        sha = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=False)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(bench_dir, build_dir):
    """Configures (once) and builds; compiler output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j2"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    binary = os.path.join(build_dir, "llsc_perfbench")
    if not os.path.exists(binary):
        fail("build produced no llsc_perfbench binary")
    return binary


def check_result(line):
    """The result line must be the result object; returns it parsed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "hw", "hw_memory.h")):
        fail(f"no llsc-lab sources under {os.path.join(root, 'src')}")
    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = build(bench_dir, build_dir)

    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"], check=False).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id(root)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"llsc_perfbench exited {done.returncode}", 1)
    if not lines or check_result(lines[-1]) is None:
        sys.stderr.write(done.stdout)
        fail("llsc_perfbench printed no valid result line", 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
