#!/usr/bin/env python3
"""Compare the report bytes that two source trees of graphheat write.

Runs the same commands with each tree's ``src`` on the same input files, in
the same temporary working directory, and prints one Markdown table row per command:
for the report file, stdout, stderr and the exit code, ``identical`` or
``DIFFERENT``.

    python3 tools/compare_reports.py BASE_TREE HEAD_TREE

The inputs come from HEAD_TREE: its example graphs, and the seed-0
``verify-grid``, ``verify-stiff`` and ``kernel-mc`` graphs that
``perfbench/run.py``'s ``make_graph`` builds. On each graph but the
``kernel-mc`` one, ``verify --suite all`` runs with JSONL and with CSV
output; on the example graphs and the ``verify-stiff`` graph (where lam t
reaches 2e4, on the scaling-and-squaring route), ``kernel --t 0.1,1,10``
dumps the series kernel; on the ``kernel-mc`` graph, ``kernel --t 1 --mc
300`` runs. Exits 1 if any output differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_GRAPHS = ("verify-grid", "verify-stiff", "kernel-mc")
KERNEL_TIMES = "0.1,1,10"


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
    return names


def commands(graphs: list) -> list:
    """(label, argv after the program, report suffix) of each comparison."""
    out = []
    for graph in graphs:
        if graph.endswith("kernel-mc.json"):
            out.append((f"`kernel --t 1 --mc 300` on {graph}",
                        ["kernel", "--graph", graph, "--t", "1", "--mc", "300"], "csv"))
            continue
        for fmt, suffix in (("json", "jsonl"), ("csv", "csv")):
            out.append((f"`verify --suite all --format {fmt}` on {graph}",
                        ["verify", "--graph", graph, "--suite", "all", "--format", fmt],
                        suffix))
        if not graph.endswith("verify-grid.json"):
            out.append((f"`kernel --t {KERNEL_TIMES}` on {graph}",
                        ["kernel", "--graph", graph, "--t", KERNEL_TIMES], "csv"))
    return out


def run(tree: Path, work: Path, argv: list, report: str) -> tuple:
    """(report bytes, stdout, stderr, exit code) of one command on tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "graphheat.cli", *argv, "--out", report],
                          cwd=work, env=env, capture_output=True)
    path = work / report
    body = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    return body, proc.stdout, proc.stderr, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    work = Path(tempfile.mkdtemp(prefix="compare-reports-"))
    differ = 0
    print("### Report bytes against the base commit")
    print("| command | report | stdout | stderr | exit code |")
    print("|---|---|---|---|---|")
    for label, cmd, suffix in commands(write_graphs(head, work)):
        a = run(base, work, cmd, f"report.{suffix}")
        b = run(head, work, cmd, f"report.{suffix}")
        cells = ["identical" if x == y else "DIFFERENT" for x, y in zip(a, b)]
        cells[3] += f" ({a[3]}, {b[3]})" if a[3] != b[3] else f" ({a[3]})"
        differ += any(x != y for x, y in zip(a, b))
        print(f"| {label} | {' | '.join(cells)} |")
    print(f"\n{differ} command(s) differ.")
    shutil.rmtree(work)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
