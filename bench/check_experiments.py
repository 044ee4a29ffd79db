#!/usr/bin/env python3
"""Check EXPERIMENTS.md's figure and E1 tables against the bench binaries.

Usage:  python3 bench/check_experiments.py ROOT BINDIR

ROOT is a checkout (holding EXPERIMENTS.md), BINDIR the directory with the
bench binaries (e.g. build/bench). Runs fig4, fig5, fig7 and fig8 at their
default scale with a fresh, temporary result cache, parses each printed
"Normalized execution time" table, and compares every cell whose column is
an architecture name (FA8, SMT2, ...) with the same cell of that figure's
table in EXPERIMENTS.md (bold markers stripped). Then runs ext_multiprogram
and compares the makespan of each printed `mix: a + b` table with the E1
table (commas and bold stripped). Prints one line per mismatch,
`Figure N workload/ARCH: doc X, bench Y` or `E1 mix/ARCH: doc X, bench Y`,
and exits 1 if there is any; exits 0 when every documented cell matches.
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
MIX = re.compile(r"^mix: (\S+ \+ \S+)$")


def doc_table(text, heading):
    """{row: {column: cell}} of the first table under `heading`."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith(heading))
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


def mix_makespans(stdout):
    """{"a + b": {arch: makespan}} of the printed E1 pair tables."""
    lines = stdout.splitlines()
    table = {}
    for i, line in enumerate(lines):
        m = MIX.match(line)
        if not m:
            continue
        header = lines[i + 1]
        # Columns are padded to a common width, and a finish cell may carry
        # an "(INVALID)" marker, so cut the makespan column by position.
        lo, hi = header.index("makespan"), header.index("useful%")
        rows = table.setdefault(m.group(1), {})
        for row in lines[i + 3:]:
            if not row.strip():
                break
            rows[row.split()[0]] = row[lo:hi].strip()
    return table


def same(doc, bench):
    try:
        return float(doc.replace(",", "")) == float(bench.replace(",", ""))
    except ValueError:
        return False


def compare(label, bench, doc):
    """Prints each documented ARCH cell the bench disagrees with."""
    mismatches = 0
    for row, cols in doc.items():
        for arch, want in cols.items():
            if not ARCH.match(arch):
                continue
            got = bench.get(row, {}).get(arch, "missing")
            if not same(want, got):
                print("%s %s/%s: doc %s, bench %s" % (label, row, arch, want,
                                                      got))
                mismatches += 1
    return mismatches


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

        def run(binary):
            return subprocess.run([os.path.join(bindir, binary)], env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=True).stdout

        for fig, binary in FIGURES.items():
            mismatches += compare("Figure %d" % fig, bench_table(run(binary)),
                                  doc_table(text, "## Figure %d " % fig))
        mismatches += compare("E1", mix_makespans(run("ext_multiprogram")),
                              doc_table(text, "## Extension E1 "))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
