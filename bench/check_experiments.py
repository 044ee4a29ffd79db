#!/usr/bin/env python3
"""Check EXPERIMENTS.md's figure tables against the bench binaries.

Usage:  python3 bench/check_experiments.py ROOT BINDIR

ROOT is a checkout (holding EXPERIMENTS.md), BINDIR the directory with the
bench binaries (e.g. build/bench). Runs fig4, fig5, fig7 and fig8 at their
default scale with a fresh, temporary result cache, parses each printed
"Normalized execution time" table, and compares every cell whose column is
an architecture name (FA8, SMT2, ...) with the same cell of that figure's
table in EXPERIMENTS.md (bold markers stripped). Prints one line per
mismatch, `Figure N workload/ARCH: doc X, bench Y`, and exits 1 if there
is any; exits 0 when every documented cell matches.
"""
import os
import re
import subprocess
import sys
import tempfile

FIGURES = {
    4: "fig4_lowend_fa_vs_smt2",
    5: "fig5_highend_fa_vs_smt2",
    7: "fig7_lowend_smt",
    8: "fig8_highend_smt",
}
ARCH = re.compile(r"^(FA|SMT)\d+$")


def doc_table(text, fig):
    """{workload: {column: cell}} of the first table under '## Figure N'."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("## Figure %d " % fig))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            rows.append([c.strip().replace("**", "")
                         for c in line.strip().strip("|").split("|")])
        elif rows:
            break
    header, body = rows[0], rows[2:]  # rows[1] is the |---| rule
    return {r[0]: dict(zip(header[1:], r[1:])) for r in body}


def bench_table(stdout):
    """{workload: {column: cell}} of the printed normalized table."""
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("Normalized execution time"))
    header = lines[start + 1].split()
    table = {}
    for line in lines[start + 3:]:
        if not line.strip():
            break
        cells = line.split()
        table[cells[0]] = dict(zip(header[1:], cells[1:]))
    return table


def same(doc, bench):
    try:
        return float(doc) == float(bench)
    except ValueError:
        return False


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2])
        return 2
    root, bindir = sys.argv[1], sys.argv[2]
    with open(os.path.join(root, "EXPERIMENTS.md")) as f:
        text = f.read()
    mismatches = 0
    with tempfile.TemporaryDirectory() as cache:
        # Default scale and no inherited overrides: the documented runs.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("CSMT_")}
        env["CSMT_CACHE_DIR"] = cache
        for fig, binary in FIGURES.items():
            out = subprocess.run([os.path.join(bindir, binary)], env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True,
                                 check=True).stdout
            bench = bench_table(out)
            for workload, cols in doc_table(text, fig).items():
                for arch, want in cols.items():
                    if not ARCH.match(arch):
                        continue
                    got = bench.get(workload, {}).get(arch, "missing")
                    if not same(want, got):
                        print("Figure %d %s/%s: doc %s, bench %s"
                              % (fig, workload, arch, want, got))
                        mismatches += 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
