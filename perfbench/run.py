#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload metagenome --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The driver is built (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. The result is the last
line of standard output: {"correct", "attempted", "failed", "metrics"}.
Traced runs (--trace 1) also write a Chrome trace under the build
directory's traces/. Build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("metagenome", "kernel_grid", "distributed", "service")
# A run must finish within 180 s; the driver's own watchdog cuts it at 150 s.
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_driver",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench_driver")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (a commit id for
    checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only check that the output oracles catch a "
                         "single flipped base")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    try:
        driver = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    if args.self_test:
        sys.exit(subprocess.run([driver, "--self-test"]).returncode)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S, 3)
    if proc.returncode != 0:
        fail("driver exited with status %d" % proc.returncode, 4)  # < 0: signal

    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result", 4)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        fail("driver metrics do not match BENCHMARK.json", 5)
    for line in lines[:-1]:
        print(line)
    print("perfbench: %s seed %d took %.1f s" %
          (args.workload, args.seed, time.monotonic() - start),
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
