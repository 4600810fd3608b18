#!/usr/bin/env python3
"""Benchmark of the graphheat command line, end to end and layer by layer.

Each workload writes its input graph from the seed, then drives the CLI from
outside as ``python -m graphheat.cli`` with ``PYTHONPATH=src``, checks every
output file, and prints one metric per line followed by a JSON result line.

    python3 perfbench/run.py --workload verify-grid --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

``--trace 0`` times untraced CLI processes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced processes (see spans.py) and
reports the per-layer metrics. Workload rationale and the layer -> metric ->
workload map are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gates
import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

# one BLAS thread: the heat-kernel products are small, and on a shared
# two-core machine extra BLAS threads add contention noise, not speed
BLAS_THREADS = 1
SETUP_REPEATS = 7
MIN_RUNS = 2  # a same-seed run to compare report digests against
DEADLINE_S = 170.0

# The host's speed drifts by tens of percent over minutes (other tenants),
# which a median over one run cannot remove. Every timed child process is
# bracketed by a fixed pure-Python loop that calls nothing in graphheat, and
# its time is scaled by REF_NOMINAL_S / (mean of the two loop times): seconds
# on a host where the loop takes REF_NOMINAL_S, about its time on an idle
# two-core Intel Xeon with CPython 3.11.
REF_LOOPS = 3_000_000
REF_NOMINAL_S = 0.2

MC_WALKS = 3000
MC_TIME = 1.0

WORKLOADS = {
    "verify-grid": "16x16 unit-weight grid, mu=deg, verify --suite all: "
                   "BFS and per-site report output dominate",
    "verify-stiff": "50-vertex path, mu=1e-3 at the middle vertex: the "
                    "semigroup series runs lam*t up to 2e4 in evolve",
    "kernel-mc": "8x8 grid, mu=deg, kernel --t 1 --mc 3000: the random "
                 "walk does nearly all the work",
}

LAYER_TIMES = (
    "graph.distance_matrix", "graph.ball_volume", "graph.constants",
    "graph.load_graph", "calculus.laplacian", "calculus.gamma",
    "semigroup.evolve", "semigroup.heat_kernel",
    "estimates.gradient_estimate", "estimates.heat_gradient_estimate",
    "estimates.prior_gradient_estimate", "estimates.verify_harnack",
    "estimates.verify_kernel_upper", "estimates.verify_kernel_lower",
    "estimates.verify_diagonal_lower", "estimates.verify_volume_growth",
    "walk.simulate", "reports.write_jsonl", "reports.summarize",
)
LAYER_CALLS = ("graph.distance_matrix", "graph.ball_volume",
               "graph.constants", "semigroup.evolve", "semigroup.heat_kernel")
COMPUTED = ("semigroup.lambda_t",)  # derived from call arguments, not timed


# -- inputs --------------------------------------------------------------------

def _graph_json(ids, edges, mu=None):
    """Graph file in the library's schema, vertex and edge order shuffled
    by the caller; ``mu`` switches to an explicit measure."""
    if mu is None:
        verts = [{"id": v} for v in ids]
    else:
        verts = [{"id": v, "mu": mu[v]} for v in ids]
    return {"weights_symmetric": True,
            "measure_mode": "degree" if mu is None else "explicit",
            "vertices": verts,
            "edges": [{"u": u, "v": v, "w": 1.0} for u, v in edges]}


def _grid(rows, cols, rng):
    ids = [f"v{i}" for i in range(rows * cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                edges.append((ids[here], ids[here + 1]))
            if r + 1 < rows:
                edges.append((ids[here], ids[here + cols]))
    rng.shuffle(ids)
    rng.shuffle(edges)
    return _graph_json(ids, edges)


def _stiff_path(n, rng):
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    mu = {v: 1.0 for v in ids}
    mu[ids[n // 2]] = 1e-3
    rng.shuffle(ids)
    rng.shuffle(edges)
    return _graph_json(ids, edges, mu)


def make_graph(workload, seed):
    """The workload's graph; the seed fixes vertex and edge order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-grid":
        return _grid(16, 16, rng)
    if workload == "verify-stiff":
        return _stiff_path(50, rng)
    return _grid(8, 8, rng)


def cli_argv(workload, graph, out, seed):
    if workload == "kernel-mc":
        return ["kernel", "--graph", graph, "--t", str(MC_TIME),
                "--mc", str(MC_WALKS), "--seed", str(seed), "--out", out]
    return ["verify", "--graph", graph, "--suite", "all", "--seed", str(seed),
            "--out", out]


# -- processes -----------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Child:
    """One finished child process: exit code, wall seconds, max RSS."""

    def __init__(self, argv, log, deadline):
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mib = usage.ru_maxrss / 1024.0
        with open(log, encoding="utf-8", errors="replace") as fh:
            self.output = fh.read()


def reference_s():
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


# -- environment ---------------------------------------------------------------

# numpy and scipy are imported only in child processes: a child started from
# this process inherits its resident size in ru_maxrss, so it stays small
LIBRARY_PROBE = """import json, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas}))"""


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    libs = json.loads(subprocess.run(
        [sys.executable, "-c", LIBRARY_PROBE], env=child_env(), check=True,
        capture_output=True, text=True, timeout=60).stdout)
    commit = None  # an exported tree is not a git checkout
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphheat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **libs,
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


# -- one workload ----------------------------------------------------------------

class Run:
    """Runs one workload at one seed and gates every output."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.graph = WORK / f"{workload}.json"
        with open(self.graph, "w", encoding="utf-8") as fh:
            json.dump(make_graph(workload, seed), fh, indent=1)
        self.last_ref_s = reference_s()
        self.attempted = 0
        self.cli_runs = 0
        self.failed = 0
        self.digests = set()
        self.items = None

    def fail(self, what):
        self.failed += 1
        print(f"FAIL {what}", flush=True)

    def child(self, argv, log):
        """Runs one child process and sets its host-speed factor from the
        reference loops before and after it."""
        child = Child(argv, log, self.deadline)
        ref_s = reference_s()
        child.speed = REF_NOMINAL_S / ((self.last_ref_s + ref_s) / 2)
        child.adjusted_s = child.wall_s * child.speed
        self.last_ref_s = ref_s
        return child

    def setup(self):
        """Fresh interpreters that import the CLI and load the graph."""
        code = "import sys, graphheat.cli as c; c.load_graph(sys.argv[1])"
        children = []
        for _ in range(SETUP_REPEATS):
            self.attempted += 1
            child = self.child([sys.executable, "-c", code, str(self.graph)],
                               WORK / "setup.log")
            if child.code != 0:
                self.fail(f"setup exited {child.code}: {child.output[-300:]}")
            children.append(child)
        return children

    def cli(self, traced):
        """One CLI process, untraced or under spans.py; returns (child, spans)."""
        suffix = "csv" if self.workload == "kernel-mc" else "jsonl"
        out = WORK / f"out.{suffix}"
        argv = cli_argv(self.workload, str(self.graph), str(out), self.seed)
        spans_path = WORK / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), str(spans_path)] + argv
        else:
            cmd = [sys.executable, "-m", "graphheat.cli"] + argv
        self.attempted += 1
        self.cli_runs += 1
        child = self.child(cmd, WORK / "cli.log")
        label = f"{'traced' if traced else 'untraced'} run {self.cli_runs}"
        spans = None
        if traced and spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            spans_path.unlink()
        errors = self._gate(child, out)
        if traced and not spans:
            errors.append("traced run wrote no spans")
        if errors:
            self.fail(f"{label}: " + "; ".join(errors))
        print(f"{label}: exit {child.code}, {child.wall_s:.3f} s, host speed "
              f"{child.speed:.3f}, {child.rss_mib:.1f} MiB", flush=True)
        return child, spans

    def _gate(self, child, out):
        if self.workload == "kernel-mc":
            # exit 1 is the CLI's own per-cell 3-sigma verdict, which has no
            # multiple-comparison control; it is recorded, and the oracle and
            # family-wise test below decide correctness
            ok_code = child.code == 0 or (child.code == 1
                                          and "INCONSISTENT" in child.output)
        else:
            ok_code = child.code == 0
        errors = [] if ok_code else [f"exit code {child.code}: {child.output[-300:]}"]
        if not out.exists():
            return errors + ["no output file"]
        if self.workload == "kernel-mc":
            try:
                gate = subprocess.run(
                    [sys.executable, str(HERE / "gates.py"), str(out),
                     str(self.graph), str(MC_WALKS)], env=child_env(),
                    capture_output=True, text=True,
                    timeout=max(self.deadline - time.monotonic(), 1.0))
                digest, self.items, gate_errors = json.loads(gate.stdout)
            except subprocess.TimeoutExpired:
                return errors + ["kernel gate timed out"]
            except ValueError:
                return errors + [f"kernel gate crashed: {gate.stderr[-300:]}"]
        else:
            digest, self.items, gate_errors = gates.check_verify_report(out)
        out.unlink()
        self.digests.add(digest)
        if len(self.digests) > 1:
            gate_errors.append("output differs from an earlier run at the same seed")
        return errors + gate_errors

    def repeat(self, traced):
        """Untraced runs, or untraced/traced pairs, until the budget is spent;
        a run is started only if it is predicted to end within it."""
        plain, traced_runs = [], []
        start = time.perf_counter()
        while True:
            child, _ = self.cli(traced=False)
            plain.append(child)
            if traced:
                traced_runs.append(self.cli(traced=True))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(plain)
            if len(plain) >= (1 if traced else MIN_RUNS) and \
                    elapsed + per_round > self.seconds:
                return plain, traced_runs
            if time.monotonic() + per_round > self.deadline:
                return plain, traced_runs


# -- metrics -------------------------------------------------------------------

def end_to_end(run):
    setup = run.setup()
    plain, _ = run.repeat(traced=False)
    wall = statistics.median(c.adjusted_s for c in plain)
    print(f"{len(plain)} untraced runs, exit codes "
          f"{[c.code for c in plain]}; unscaled medians: wall "
          f"{statistics.median(c.wall_s for c in plain)!r} s, setup "
          f"{statistics.median(c.wall_s for c in setup)!r} s; host speed "
          f"{statistics.median(c.speed for c in plain + setup)!r}", flush=True)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(c.adjusted_s for c in setup), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mib for c in plain), "MiB"),
        # BoundReports on the verify workloads, walks on kernel-mc
        "items_per_s": ((run.items or 0) / wall, "1/s"),
    }


def layer_metrics(totals, code):
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    m = {f"{name}.s": (get(name, "self_s"), "s") for name in LAYER_TIMES}
    m.update({f"{name}.calls": (get(name, "calls"), "count")
              for name in LAYER_CALLS})
    sim_s = get("walk.simulate", "self_s")
    walks = get("walk.simulate", "count")
    m.update({
        "calculus.calls": (get("calculus.laplacian", "calls")
                           + get("calculus.gamma", "calls"), "count"),
        "semigroup.lambda_t": (get("semigroup.evolve", "count"), "1"),
        "estimates.reports": (sum(get(f"estimates.{v}", "count")
                                  for v in tracing.VERIFIERS), "count"),
        "walk.walks": (walks, "count"),
        "walk.walks_per_s": (walks / sim_s if sim_s else 0.0, "1/s"),
        "walk.flagged_cells": (get("walk.consistent_with", "count"), "count"),
        "reports.bytes": (get("reports.write_jsonl", "count"), "bytes"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.exit_code": (code, "code"),
    })
    return m


def per_layer(run):
    plain, traced = run.repeat(traced=True)
    rows = [layer_metrics(tracing.layer_totals(spans), child.code)
            for child, spans in traced if spans]
    metrics = {name: (statistics.median(r[name][0] for r in rows), unit)
               for name, (_, unit) in rows[0].items()} if rows else {}
    overhead = (statistics.median(c.adjusted_s for c, _ in traced)
                - statistics.median(c.adjusted_s for c in plain))
    metrics["trace_overhead_s"] = (overhead, "s")
    print(f"{len(traced)} traced runs, exit codes "
          f"{[c.code for c, _ in traced]}", flush=True)
    return metrics


def measure(workload, seed, seconds, traced):
    """Prints the metrics of one workload; returns the result object."""
    run = Run(workload, seed, seconds)
    metrics = per_layer(run) if traced else end_to_end(run)
    if run.items is None:
        run.fail("no output was checked")
    for name, (value, unit) in metrics.items():
        note = " (computed from inputs)" if name in COMPUTED else ""
        print(f"{workload} {name} = {value!r} {unit}{note}")
    alias = "walks_per_s" if workload == "kernel-mc" else "checks_per_s"
    if "items_per_s" in metrics:
        print(f"{workload} {alias} = {metrics['items_per_s'][0]!r} 1/s")
    print(f"{workload} fail_ratio = {run.failed / run.attempted!r} "
          f"({run.failed}/{run.attempted})", flush=True)
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "graphheat" / "cli.py").is_file():
        print(f"error: no graphheat sources under {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()), flush=True)
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in WORKLOADS:
                print(f"# {workload}: {WORKLOADS[workload]}", flush=True)
                for traced in (False, True):
                    part = measure(workload, args.seed, args.seconds, traced)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    result["metrics"].update(
                        (f"{workload}.{name}", value)
                        for name, value in part["metrics"].items())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
