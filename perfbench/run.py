#!/usr/bin/env python3
"""Campaign-throughput benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the vps
libraries from src/) and runs one workload:

    python3 perfbench/run.py --workload caps_mc --seed 1 --seconds 20 --trace 0

The last line of stdout is the result object
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 1 the run reports the per-layer metrics and writes its spans
to <build>/traces/. The build directory is $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), relative to the repository root.

    python3 perfbench/run.py --self-test    # build and run the benchmark's tests
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("caps_mc", "bms_guided", "bms_served")
# One run must finish well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    return code


def build(build_dir, targets):
    """Configures once, then brings `targets` up to date. Output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        return fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("the vps sources (src/) are not next to perfbench/; run from a full checkout")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if args.self_test:
        if not build(build_dir, ["perfbench_test"]):
            return fail("build failed", 1)
        return subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode
    if not build(build_dir, ["perfbench"]):
        return fail("build failed", 1)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--trace-dir", trace_dir]
    started = time.monotonic()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail("run exceeded %d s (%.0f s elapsed)" % (RUN_TIMEOUT_S, time.monotonic() - started), 1)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
