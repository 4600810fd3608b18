"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from graphheat import WeightedGraph, generate


def k2(mu=(1.0, 1.0), w=1.0, measure_mode="explicit"):
    """Two vertices a-b with a single edge."""
    if measure_mode == "explicit":
        return WeightedGraph(["a", "b"], [("a", "b", w)],
                             mu={"a": mu[0], "b": mu[1]})
    return WeightedGraph(["a", "b"], [("a", "b", w)], measure_mode=measure_mode)


def path3(measure_mode="unit"):
    """Path a-b-c with unit weights."""
    return WeightedGraph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)],
                         measure_mode=measure_mode)


def random_graph(rng, n_min=4, n_max=30, p=0.3, w_lo=0.5, w_hi=2.0,
                 measure_mode="unit", connected=False):
    """Random symmetric-weight graph with at least one edge; optionally
    resampled until connected (degree measure implies no isolated vertices)."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        seed = int(rng.integers(2**32))
        try:
            g = generate("random", n=n, p=p, w_lo=w_lo, w_hi=w_hi,
                         measure_mode=measure_mode, seed=seed)
        except Exception:
            continue
        if g.num_edges == 0:
            continue
        if connected and not np.all(np.isfinite(g.distance_matrix())):
            continue
        return g


def stiff_path(mu_mid, n=50):
    """Unit-weight path with mu = 1 except mu_mid at the middle vertex."""
    ids = [f"v{i}" for i in range(n)]
    mu = np.ones(n)
    mu[n // 2] = mu_mid
    return WeightedGraph(ids, [(ids[i], ids[i + 1], 1.0) for i in range(n - 1)], mu=mu)


def two_grids(rows):
    """Two disjoint rows x rows grids, mu = deg: half the pairs are unreachable."""
    grid = generate("grid", rows=rows, cols=rows, measure_mode="degree")
    rows_, cols = grid.edges[:2]
    return WeightedGraph([f"{p}{v}" for p in "ab" for v in grid.ids],
                         [(f"{p}{grid.ids[i]}", f"{p}{grid.ids[j]}", 1.0)
                          for p in "ab" for i, j in zip(rows_, cols) if i < j],
                         measure_mode="degree")


def dense_weights(g):
    """g's weights as a dense n x n matrix, built from its edge record."""
    rows, cols, w, _ = g.edges
    W = np.zeros((g.n, g.n))
    W[rows, cols] = w
    return W


def log_uniform(rng, n, lo=1e-6, hi=1e6):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
