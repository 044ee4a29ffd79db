#!/usr/bin/env python3
"""Builds and runs the csmt benchmark (perfbench/csmt_perfbench.cpp).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid|chase|mix-alloc \
        --seed N --seconds S --trace 0|1

The first run configures and builds the simulator library and the benchmark
from ../src into $CARGO_TARGET_DIR (default .bench_build); later runs only
re-check the build. The benchmark's last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the spans of
the traced run to <build>/spans/).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-grid", "chase", "mix-alloc")
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170

# Variables that would steer a csmt run if the benchmark read them. It does
# not: SweepOptions and MachineConfig are built explicitly, so each one that
# is set is reported as ignored and removed from the child's environment.
IGNORED_ENV_PREFIX = "CSMT_"
# Compiler flags from the environment would change the build under test.
SCRUBBED_BUILD_ENV = ("CFLAGS", "CXXFLAGS", "LDFLAGS", "CPPFLAGS")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(IGNORED_ENV_PREFIX)
           and k not in SCRUBBED_BUILD_ENV}
    return env


def check_env():
    sanitize = os.environ.get("CSMT_SANITIZE", "")
    if sanitize and sanitize.upper() not in ("OFF", "0", "NO", "FALSE"):
        fail("CSMT_SANITIZE=%s asks for a sanitizer build; refusing to "
             "report timings from one" % sanitize, 3)
    for k in sorted(os.environ):
        if k.startswith(IGNORED_ENV_PREFIX):
            print("note: %s ignored (the benchmark builds its options "
                  "explicitly)" % k)
    for k in SCRUBBED_BUILD_ENV:
        if k in os.environ:
            print("note: %s ignored (the benchmark sets its own build "
                  "flags)" % k)


def build(build_dir):
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(src):
        fail("no simulator sources at %s" % src)
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS])
    with open(log_path, "ab") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log,
                               env=child_env()) != 0:
                with open(log_path, "rb") as f:
                    tail = f.read()[-4000:].decode("utf-8", "replace")
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))
    exe = os.path.join(build_dir, "csmt_perfbench")
    if not os.path.isfile(exe):
        fail("build produced no %s" % exe)
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size (not a measurement)")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]", 2)

    check_env()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)

    scratch = os.path.join(build_dir, "scratch")
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=child_env())
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("benchmark exited with code %d" % code, code if code > 0 else 1)


if __name__ == "__main__":
    main()
