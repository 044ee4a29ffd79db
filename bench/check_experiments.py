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
- A1: the cycles of every documented (workload, arch) row under each of
  the three fetch policies, exactly.
- A4: the cycles and committed sync insts of every documented
  (arch, chips, model) row, exactly.
- E1: the makespan of each printed `mix: a + b` table (commas and bold
  stripped), exactly.

Prints one line per mismatch, `Figure N workload/ARCH: doc X, bench Y`,
`Figure 6 workload/low-end: doc X, bench Y`, `Table 3 level: doc X,
bench Y`, `A1 workload/ARCH/policy: doc X, bench Y`, `A4 arch/chips/model:
doc X, bench Y` or `E1 mix/ARCH: doc X, bench Y`, and exits 1 if there is
any; exits 0 when every documented cell matches.
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
# A1's fetch policies, as its doc columns and printed column prefixes.
A1_POLICIES = ("strict-RR", "RR-skip", "ICOUNT")
A1_HEADING = re.compile(r"^== Ablation A1: fetch policy on (\S+) ")
# Checked A4 columns -> the printed column that follows each (None: last).
A4_COLUMNS = {"cycles": "sync%", "committed sync insts": None}


def doc_rows(text, heading):
    """(header, [cells]) of the first table under `heading`."""
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
    return rows[0], rows[2:]  # rows[1] is the |---| rule


def doc_table(text, heading):
    """{row: {column: cell}} of the first table under `heading`."""
    header, body = doc_rows(text, heading)
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


def cut(row, header, first, last=None):
    """The cell of a printed `row` from column `first` to column `last`.
    Cells may hold spaces or markers such as "(INVALID)", so columns are
    cut by their position in the `header` line."""
    end = header.index(last) if last else None
    return row[header.index(first):end].strip()


def mix_makespans(stdout):
    """{"a + b": {arch: makespan}} of the printed E1 pair tables."""
    lines = stdout.splitlines()
    table = {}
    for i, line in enumerate(lines):
        m = MIX.match(line)
        if not m:
            continue
        header = lines[i + 1]
        rows = table.setdefault(m.group(1), {})
        for row in lines[i + 3:]:
            if not row.strip():
                break
            rows[row.split()[0]] = cut(row, header, "makespan", "useful%")
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
    table = {}
    for row in lines[start + 2:]:
        if not row.strip():
            break
        table[cut(row, header, "level", "Table 3")] = cut(
            row, header, "measured", "match")
    return table


def fetch_policy_cycles(stdout):
    """{"workload/ARCH/policy": cycles} of the printed A1 tables."""
    lines = stdout.splitlines()
    table = {}
    for i, line in enumerate(lines):
        m = A1_HEADING.match(line)
        if not m:
            continue
        header = lines[i + 1]
        for row in lines[i + 3:]:
            if not row.strip():
                break
            for policy in A1_POLICIES:
                key = "%s/%s/%s" % (row.split()[0], m.group(1), policy)
                table[key] = cut(row, header, policy + " cycles",
                                 policy + " fetch%")
    return table


def sync_model_cells(stdout, column):
    """{"arch/chips/model": cell} of one column of the printed A4 table."""
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("arch "))
    header = lines[start]
    table = {}
    for row in lines[start + 2:]:
        if not row.strip():
            break
        key = "/".join(cut(row, header, a, b) for a, b in (
            ("arch", "chips"), ("chips", "sync model"),
            ("sync model", "cycles")))
        table[key] = cut(row, header, column, A4_COLUMNS[column])
    return table


def arch_cells(table):
    """{"row/ARCH": cell} of the architecture columns of a
    {row: {column: cell}} table."""
    return {"%s/%s" % (row, col): cell for row, cols in table.items()
            for col, cell in cols.items() if ARCH.match(col)}


def same(doc, bench):
    try:
        return float(doc.replace(",", "")) == float(bench.replace(",", ""))
    except ValueError:
        return False


def compare(label, bench, doc):
    """Prints each documented {key: cell} the bench disagrees with."""
    mismatches = 0
    for key, want in doc.items():
        got = bench.get(key, "missing")
        if not same(want, got):
            print("%s %s: doc %s, bench %s" % (label, key, want, got))
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
            mismatches += compare(
                "Figure %d" % fig, arch_cells(bench_table(run(binary))),
                arch_cells(doc_table(text, "## Figure %d " % fig)))
        mismatches += compare_fig6(
            fig6_points(run("fig6_app_characterization")),
            doc_table(text, "## Figure 6 "))
        mismatches += compare(
            "Table 3", table3_latencies(run("table3_memory_latency")),
            {level: cols["measured"] for level, cols in
             doc_table(text, "## Table 3 ").items()})
        # The documented A1 rows start workload | arch.
        header, body = doc_rows(text, "### A1 ")
        mismatches += compare(
            "A1", fetch_policy_cycles(run("ablation_fetch_policy")),
            {"%s/%s/%s" % (r[0], r[1], p): r[header.index(p)]
             for r in body for p in A1_POLICIES})
        # The documented A4 rows start arch | chips | model.
        sync_model = run("ablation_sync_model")
        header, body = doc_rows(text, "### A4 ")
        for column in A4_COLUMNS:
            mismatches += compare(
                "A4", sync_model_cells(sync_model, column),
                {"/".join(r[:3]): r[header.index(column)] for r in body})
        mismatches += compare(
            "E1", arch_cells(mix_makespans(run("ext_multiprogram"))),
            arch_cells(doc_table(text, "## Extension E1 ")))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
