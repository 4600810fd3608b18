"""The mu-Laplacian, the gradient form, and their algebraic identities.

All operations are pure functions of an immutable graph and numpy arrays
indexed by the graph's vertex order: a function, or an (n, m) batch of one per column.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph, as_vertex_function

POSITIVITY_FLOOR = 1e-300


def require_positive(g: WeightedGraph, u) -> np.ndarray:
    """Validate that u (a vertex function, or an (n, m) batch of columns) is finite and > 0."""
    u = as_vertex_function(g, u)
    if not np.all((POSITIVITY_FLOOR <= u) & (u < np.inf)):
        raise ValueError(f"function must be finite and >= {POSITIVITY_FLOOR} everywhere")
    return u


def _edge_form(g: WeightedGraph, terms: np.ndarray, c: float) -> np.ndarray:
    """(1/(c mu(x))) * sum_{y~x} w_xy terms_xy, terms in g's edge record order."""
    _, _, w, ptr = g.edges
    full = ptr[:-1] < ptr[1:]  # reduceat would give a vertex without edges a term
    sums = np.zeros((g.n,) + terms.shape[1:])
    sums[full] = np.add.reduceat((terms.T * w).T, ptr[:-1][full], axis=0)
    return (sums.T / (c * g.mu)).T


def laplacian(g: WeightedGraph, f) -> np.ndarray:
    """(Lf)(x) = (1/mu(x)) * sum_{y~x} w_xy (f(y) - f(x)); zero at isolated
    vertices.

    Evaluated in difference form so constant columns map to exactly zero.
    """
    rows, cols, _, _ = g.edges
    f = as_vertex_function(g, f)
    return _edge_form(g, f[cols] - f[rows], 1.0)


def gamma(g: WeightedGraph, f, h=None) -> np.ndarray:
    """Gradient form: (1/(2 mu(x))) * sum_{y~x} w_xy (f(y)-f(x))(h(y)-h(x)).

    h has f's shape; omitted, returns the quadratic form gamma(g, f, f), which
    is nonnegative everywhere. Evaluated in difference form: exact zero in
    every column where either argument is constant.
    """
    rows, cols, _, _ = g.edges
    f = as_vertex_function(g, f)
    h = f if h is None else as_vertex_function(g, h)
    return _edge_form(g, (f[cols] - f[rows]) * (h[cols] - h[rows]), 2.0)


def sqrt_identity_residual(g: WeightedGraph, u) -> np.ndarray:
    """Residual of 2*Gamma(sqrt u) = Lu - 2 sqrt(u) L(sqrt u) per vertex.

    Exact algebra in real arithmetic, so the return is a pure floating-point
    residual usable as a correctness probe.
    """
    u = require_positive(g, u)
    s = np.sqrt(u)
    return 2.0 * gamma(g, s) - (laplacian(g, u) - 2.0 * s * laplacian(g, s))

