#!/usr/bin/env python3
"""Check EXPERIMENTS.md's measured tables against the bench binaries.

Usage:  python3 bench/check_experiments.py ROOT BINDIR

ROOT is a checkout (holding EXPERIMENTS.md), BINDIR the directory with the
bench binaries (e.g. build/bench). Runs every bench at its default scale
with a fresh, temporary result cache and compares:

- Figures 4, 5, 7 and 8: every cell of the printed "Normalized execution
  time" table whose column is an architecture name (FA8, SMT2, ...) with
  the same cell of that figure's table (bold markers stripped), exactly.
- Figure 6: the low-end and high-end measured `(threads, ILP)` columns with
  the two printed tables. A cell matches when each coordinate is within
  0.05 of the bench's two-decimal value.
- Table 3: the `measured` column with the printed latencies, exactly.
- E1: the makespan of each printed `mix: a + b` table (commas and bold
  stripped), exactly.

Prints one line per mismatch, `Figure N workload/ARCH: doc X, bench Y`,
`Figure 6 workload/low-end: doc X, bench Y`, `Table 3 level: doc X,
bench Y` or `E1 mix/ARCH: doc X, bench Y`, and exits 1 if there is any;
exits 0 when every documented cell matches.
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
POINT = re.compile(r"\(([-\d.]+), ([-\d.]+)\)")
# Figure 6 doc column -> index of the bench's table (low end prints first).
FIG6_COLUMNS = {"low-end measured": 0, "high-end measured": 1}
FIG6_TOLERANCE = 0.05


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


def fig6_points(stdout):
    """[{workload: "(threads, ilp)"}] of the printed low- and high-end
    tables."""
    lines = stdout.splitlines()
    tables = []
    for i, line in enumerate(lines):
        if not line.startswith("workload  avg threads (FA8)"):
            continue
        table = {}
        for row in lines[i + 2:]:
            if not row.strip():
                break
            cells = row.split()
            table[cells[0]] = "(%s, %s)" % (cells[1], cells[2])
        tables.append(table)
    return tables


def table3_latencies(stdout):
    """{level: measured} of the printed Table 3."""
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("level "))
    header = lines[start]
    # Level names hold spaces, so cut the columns by position.
    name_end, lo, hi = (header.index("Table 3"), header.index("measured"),
                        header.index("match"))
    table = {}
    for row in lines[start + 2:]:
        if not row.strip():
            break
        table[row[:name_end].strip()] = row[lo:hi].strip()
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


def compare_fig6(bench, doc):
    """Prints each documented Figure 6 point off by more than the
    tolerance."""
    mismatches = 0
    for workload, cols in doc.items():
        for column, index in FIG6_COLUMNS.items():
            want = POINT.search(cols.get(column, ""))
            got = bench[index].get(workload, "missing")
            have = POINT.search(got)
            if not (want and have and all(
                    abs(float(w) - float(h)) <= FIG6_TOLERANCE + 1e-9
                    for w, h in zip(want.groups(), have.groups()))):
                print("Figure 6 %s/%s: doc %s, bench %s" % (
                    workload, column.split()[0],
                    want.group(0) if want else cols.get(column), got))
                mismatches += 1
    return mismatches


def compare_table3(bench, doc):
    """Prints each documented Table 3 latency the bench disagrees with."""
    mismatches = 0
    for level, cols in doc.items():
        got = bench.get(level, "missing")
        if not same(cols["measured"], got):
            print("Table 3 %s: doc %s, bench %s" % (level, cols["measured"],
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
        mismatches += compare_fig6(
            fig6_points(run("fig6_app_characterization")),
            doc_table(text, "## Figure 6 "))
        mismatches += compare_table3(
            table3_latencies(run("table3_memory_latency")),
            doc_table(text, "## Table 3 "))
        mismatches += compare("E1", mix_makespans(run("ext_multiprogram")),
                              doc_table(text, "## Extension E1 "))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
