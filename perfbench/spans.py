"""Spans around the graphheat layers, recorded from outside the library.

A `Tracer` wraps the public functions each layer exposes, in every graphheat
module namespace that binds them (``from .semigroup import evolve`` makes
``graphheat.estimates.evolve`` a second binding), records one span per call
with its parent span, and puts the original objects back on `uninstall`.
Per-report objects such as ``BoundReport`` are never wrapped: a verify run
builds hundreds of thousands of them and the wrapper cost would swamp the
layers being measured.

Run as a script it executes one traced CLI call and writes the spans as JSON:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json verify --graph g.json
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

VERIFIERS = ("gradient_estimate", "heat_gradient_estimate",
             "prior_gradient_estimate", "verify_harnack",
             "verify_kernel_upper", "verify_kernel_lower",
             "verify_diagonal_lower", "verify_volume_growth")


def _lambda_t(result, g, u0, t, *args, **kwargs):
    # the series rate lam = max deg/mu times t: computed from the inputs,
    # not read from the library
    return float((g.degrees / g.mu).max(initial=0.0)) * float(t)


def _n_reports(result, *args, **kwargs):
    return len(result)


def _n_walks(result, g, x, t, n_walks, *args, **kwargs):
    return int(n_walks)


def _n_flagged(result, *args, **kwargs):
    return int((~result).sum())


def _bytes_written(result, path, *args, **kwargs):
    return os.path.getsize(path)


# (span name, module, attribute, counter computed from result and arguments)
TARGETS = (
    ("graph.distance_matrix", "graphheat.graph", "WeightedGraph.distance_matrix", None),
    ("graph.ball_volume", "graphheat.graph", "WeightedGraph.ball_volume", None),
    ("graph.constants", "graphheat.graph", "WeightedGraph.constants", None),
    ("graph.load_graph", "graphheat.graph", "load_graph", None),
    ("calculus.laplacian", "graphheat.calculus", "laplacian", None),
    ("calculus.gamma", "graphheat.calculus", "gamma", None),
    ("semigroup.evolve", "graphheat.semigroup", "evolve", _lambda_t),
    ("semigroup.heat_kernel", "graphheat.semigroup", "heat_kernel", None),
    *((f"estimates.{v}", "graphheat.estimates", v, _n_reports) for v in VERIFIERS),
    ("walk.simulate", "graphheat.walk", "simulate", _n_walks),
    ("walk.consistent_with", "graphheat.walk", "WalkEstimate.consistent_with", _n_flagged),
    ("reports.write_jsonl", "graphheat.reports", "write_jsonl", _bytes_written),
    ("reports.summarize", "graphheat.reports", "summarize", None),
    ("cli.main", "graphheat.cli", "main", None),
)


def _graphheat_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphheat" or name.startswith("graphheat."))]


class Tracer:
    """In-memory spans ``[name, start, end, parent index, counter]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(result, *args, **kwargs)
            return result
        return traced

    def install(self):
        """Wrap every target in every graphheat namespace that binds it."""
        importlib.import_module("graphheat.cli")  # loads every layer
        modules = _graphheat_modules()
        for name, module, attr, counter in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:  # a method: the class is its only binding
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def layer_totals(spans):
    """Per span name: calls, inclusive and self seconds, summed counter.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans sum to the root spans' total.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for (name, start, end, parent, count), inner in zip(spans, child_time):
        row = totals.setdefault(name, {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - inner
        row["count"] += count or 0
    return totals


def root_total(spans):
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def main(argv):
    out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        import graphheat.cli
        code = graphheat.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
