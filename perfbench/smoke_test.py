#!/usr/bin/env python3
"""Smoke test of the csmt benchmark at a tiny size.

Run from the root of a checkout:  python3 perfbench/smoke_test.py

Runs every workload with --tiny on two seeds, traced and untraced, and
asserts that every metric BENCHMARK.json names is printed with its unit,
that nothing failed, that RunStats digests repeat across processes (and
move with the seed only on chase), and that a sanitizer request is refused.
Exits non-zero on the first failed assertion.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SEEDS = (1, 2)


def run(workload, seed, trace, env=None):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def check(cond, msg):
    if not cond:
        print("smoke: FAIL: " + msg)
        sys.exit(1)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in (w["name"] for w in spec["workloads"]):
        digests = {}
        for seed in SEEDS:
            for trace in (0, 1):
                p = run(w, seed, trace)
                tag = "%s seed %d trace %d" % (w, seed, trace)
                check(p.returncode == 0, "%s exited %d: %s" %
                      (tag, p.returncode, p.stderr[-2000:]))
                lines = p.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, tag + ": result keys")
                check(result["correct"] is True and result["failed"] == 0,
                      "%s: failures: %s" % (tag, [l for l in lines
                                                  if l.startswith("FAIL")]))
                check(result["attempted"] >= 1, tag + ": nothing attempted")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == units[trace], "%s: metrics %s != %s" %
                      (tag, sorted(got.items()), sorted(units[trace].items())))
                if trace == 0:
                    frac = result["metrics"]["fail_frac"]["value"]
                    check(frac == 1e-6, tag + ": fail_frac is not the "
                          "all-pass floor")
                total = [l.split()[3] for l in lines
                         if l.startswith("digest %s * " % w)]
                check(len(total) == 1, tag + ": no workload digest")
                digests[(seed, trace)] = total[0]
        for seed in SEEDS:
            check(digests[(seed, 0)] == digests[(seed, 1)],
                  "%s seed %d: digest differs traced vs untraced" % (w, seed))
        seeded = digests[(SEEDS[0], 0)] != digests[(SEEDS[1], 0)]
        check(seeded == (w == "chase"),
              "%s: digest %s with the seed" % (w, "moves" if seeded
                                               else "does not move"))
        print("smoke: %s ok (digests %s)" % (w, sorted(set(digests.values()))))

    env = dict(os.environ, CSMT_SANITIZE="ON")
    p = run("chase", 1, 0, env=env)
    check(p.returncode != 0 and '"metrics"' not in p.stdout,
          "a sanitizer request was not refused")
    print("smoke: all ok")


if __name__ == "__main__":
    main()
