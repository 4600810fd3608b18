#!/usr/bin/env python3
"""Compare the report bytes that two source trees of graphheat write.

Runs the same commands with each tree's ``src`` on the same input files, in
the same temporary working directory, and prints one Markdown table row per command:
for the report file, stdout, stderr and the exit code, ``identical`` or
``DIFFERENT``.

    python3 tools/compare_reports.py BASE_TREE HEAD_TREE

The inputs come from HEAD_TREE: its example graphs, the seed-0
``verify-grid``, ``verify-stiff`` and ``kernel-mc`` graphs that
``perfbench/run.py``'s ``make_graph`` builds, a 24x24 grid with mu = deg
from HEAD_TREE's ``generate`` (576 vertices: the kernel bounds are checked
in blocks of 14 sources, the last of 2), a 300-vertex path with mu = deg
(hops reach 299, past the 255 whose square a uint16 still holds), a
two-component graph with mu = deg (a 5-vertex path and a 4-cycle) and a
6-cycle with a chord, mu = deg, whose ids CSV output must quote (a comma, a
double quote, a newline) or leave bare (a leading space, a non-ASCII
letter). On each graph but the ``kernel-mc`` and quoted-ids ones,
``verify --suite all`` runs with JSONL and with CSV output; on the example
graphs and the ``verify-stiff`` graph (where lam t reaches 2e4, on the
scaling-and-squaring route), ``kernel --t 0.1,1,10`` dumps the series
kernel, and two JSONL runs exercise the suite table: ``verify --suite
volume,harnack,gradient --t 0.5,2`` (a list not in report order; on
``verify-stiff`` volume's hypothesis exits 2) and ``verify --suite all --t
0,1`` (harnack skipped, and on ``verify-stiff`` kernel-bounds and volume
too); on the ``kernel-mc`` graph, ``kernel --t 1 --mc 300`` runs, and on
the quoted-ids graph ``kernel --t 0.1,1``, ``kernel --t 1 --mc 300`` and
``verify --suite all --format csv``.
Below the table, each JSONL report that differs gets the number of differing
lines per check, compared line by line (the config and summary lines count
under ``config`` and ``summary``). Exits 1 if any output differs, else 0.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

BENCH_GRAPHS = ("verify-grid", "verify-stiff", "kernel-mc")
# graphs compared under verify --suite all alone
VERIFY_ONLY = ("verify-grid.json", "grid24.json", "path300.json", "two-components.json")
KERNEL_TIMES = "0.1,1,10"
SUITE_RUNS = (("volume,harnack,gradient", "0.5,2"), ("all", "0,1"))  # (--suite, --t)
# ids that CSV output quotes (a comma, a double quote, a newline) or leaves bare
QUOTED_IDS = ["a,b", 'say "hi"', " lead", "two\nlines", "été", "plain"]
# graphs compared under these CSV runs alone (the command, then its flags)
OWN_RUNS = {"kernel-mc.json": [("kernel", "--t", "1", "--mc", "300")],
            "quoted-ids.json": [("kernel", "--t", "0.1,1"), ("kernel", "--t", "1", "--mc", "300"),
                                ("verify", "--suite", "all", "--format", "csv")]}


def write_graphs(head: Path, work: Path) -> list:
    """The input graphs' paths, relative to work, where they are written."""
    sys.path.insert(0, str(head / "perfbench"))
    sys.dont_write_bytecode = True  # leave no __pycache__ in HEAD_TREE's perfbench
    from run import make_graph  # perfbench/run.py

    (work / "graphs").mkdir()
    names = []
    for src in sorted((head / "example_graphs").glob("*.json")):
        shutil.copyfile(src, work / "graphs" / src.name)
        names.append(f"graphs/{src.name}")
    for workload in BENCH_GRAPHS:
        names.append(f"graphs/{workload}.json")
        (work / names[-1]).write_text(json.dumps(make_graph(workload, 0)))
    for name, family in (("grid24", ["grid", "--rows", "24", "--cols", "24"]),
                         ("path300", ["path", "--n", "300"])):
        names.append(f"graphs/{name}.json")
        subprocess.run([sys.executable, "-m", "graphheat.cli", "generate", "--family", *family,
                        "--measure", "degree", "--out", names[-1]],
                       cwd=work, env=dict(os.environ, PYTHONPATH=str(head / "src")),
                       check=True, capture_output=True)
    ring = list(zip(QUOTED_IDS, QUOTED_IDS[1:] + QUOTED_IDS[:1]))
    for name, ends in (("two-components", [(f"p{i}", f"p{i + 1}") for i in range(4)]
                        + [(f"c{i}", f"c{(i + 1) % 4}") for i in range(4)]),
                       ("quoted-ids", ring + [(QUOTED_IDS[0], QUOTED_IDS[3])])):
        names.append(f"graphs/{name}.json")
        (work / names[-1]).write_text(json.dumps({
            "weights_symmetric": True, "measure_mode": "degree",
            "vertices": [{"id": v} for v in sorted({v for pair in ends for v in pair})],
            "edges": [{"u": u, "v": v, "w": 1.0} for u, v in ends]}))
    return names


def commands(graphs: list) -> list:
    """(label, argv after the program, report suffix) of each comparison."""
    out = []
    for graph in graphs:
        if runs := OWN_RUNS.get(Path(graph).name):
            out += [(f"`{' '.join(flags)}` on {graph}", [flags[0], "--graph", graph, *flags[1:]],
                     "csv") for flags in runs]
            continue
        for fmt, suffix in (("json", "jsonl"), ("csv", "csv")):
            out.append((f"`verify --suite all --format {fmt}` on {graph}",
                        ["verify", "--graph", graph, "--suite", "all", "--format", fmt],
                        suffix))
        if not graph.endswith(VERIFY_ONLY):
            out.append((f"`kernel --t {KERNEL_TIMES}` on {graph}",
                        ["kernel", "--graph", graph, "--t", KERNEL_TIMES], "csv"))
            out += [(f"`verify --suite {suites} --t {times}` on {graph}",
                     ["verify", "--graph", graph, "--suite", suites, "--t", times], "jsonl")
                    for suites, times in SUITE_RUNS]
    return out


def run(tree: Path, work: Path, argv: list, report: str) -> tuple:
    """(report path or None, stdout, stderr, exit code) of one command on tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "graphheat.cli", *argv, "--out", report],
                          cwd=work, env=env, capture_output=True)
    path = work / report
    return path if path.exists() else None, proc.stdout, proc.stderr, proc.returncode


def same(x, y) -> bool:
    # two outputs, or two report paths compared by content (None: no report)
    if isinstance(x, Path) and isinstance(y, Path):
        return filecmp.cmp(x, y, shallow=False)
    return x == y


def differing_rows(a: Path, b: Path) -> Counter:
    """check -> the number of lines of two JSONL reports that differ."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return Counter(obj.get("check", next(iter(obj)))
                       for x, y in zip_longest(fa, fb)
                       if x != y for obj in [json.loads(x or y)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    work = Path(tempfile.mkdtemp(prefix="compare-reports-"))
    differ, moved = 0, []
    print("### Report bytes against the base commit")
    print("| command | report | stdout | stderr | exit code |")
    print("|---|---|---|---|---|")
    for label, cmd, suffix in commands(write_graphs(head, work)):
        a = run(base, work, cmd, f"base.{suffix}")
        b = run(head, work, cmd, f"head.{suffix}")
        cells = ["identical" if same(x, y) else "DIFFERENT" for x, y in zip(a, b)]
        cells[3] += f" ({a[3]}, {b[3]})" if a[3] != b[3] else f" ({a[3]})"
        differ += any(cell.startswith("DIFFERENT") for cell in cells)
        print(f"| {label} | {' | '.join(cells)} |", flush=True)
        if suffix == "jsonl" and None not in (a[0], b[0]) and cells[0] == "DIFFERENT":
            moved.append((label, differing_rows(a[0], b[0])))
        for report in (a[0], b[0]):
            if report:
                report.unlink()
    for label, rows in moved:
        print(f"\nDiffering lines of {label}: "
              + ", ".join(f"{check} {k}" for check, k in sorted(rows.items())))
    print(f"\n{differ} command(s) differ.")
    shutil.rmtree(work)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
