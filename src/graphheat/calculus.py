"""The mu-Laplacian, the gradient form, and their algebraic identities.

All operations are pure functions of an immutable graph and numpy arrays
indexed by the graph's vertex order.
"""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph, as_vertex_function
from .reports import site_reports

POSITIVITY_FLOOR = 1e-300


def require_positive(g: WeightedGraph, u) -> np.ndarray:
    """Validate that u (a vertex function, or an (n, m) batch of columns) is finite and > 0."""
    u = np.asarray(u, dtype=float) if np.ndim(u) == 2 else as_vertex_function(g, u)
    if not np.all((POSITIVITY_FLOOR <= u) & (u < np.inf)):
        raise ValueError(f"function must be finite and >= {POSITIVITY_FLOOR} everywhere")
    return u


def laplacian(g: WeightedGraph, f) -> np.ndarray:
    """(Lf)(x) = (1/mu(x)) * sum_{y~x} w_xy (f(y) - f(x)); zero at isolated
    vertices.

    Evaluated in difference form so constants map to exactly zero.
    """
    f = as_vertex_function(g, f)
    diff = f[None, :] - f[:, None]
    return np.sum(g.W * diff, axis=1) / g.mu


def gamma(g: WeightedGraph, f, h=None) -> np.ndarray:
    """Gradient form: (1/(2 mu(x))) * sum_{y~x} w_xy (f(y)-f(x))(h(y)-h(x)).

    With h omitted returns the quadratic form gamma(g, f, f), which is
    nonnegative everywhere. Evaluated in difference form: exact zero when
    either argument is constant.
    """
    f = as_vertex_function(g, f)
    df = f[None, :] - f[:, None]
    if h is None:
        dh = df
    else:
        h = as_vertex_function(g, h)
        dh = h[None, :] - h[:, None]
    return np.sum(g.W * df * dh, axis=1) / (2.0 * g.mu)


def sqrt_identity_residual(g: WeightedGraph, u) -> np.ndarray:
    """Residual of 2*Gamma(sqrt u) = Lu - 2 sqrt(u) L(sqrt u) per vertex.

    Exact algebra in real arithmetic, so the return is a pure floating-point
    residual usable as a correctness probe.
    """
    u = require_positive(g, u)
    s = np.sqrt(u)
    return 2.0 * gamma(g, s) - (laplacian(g, u) - 2.0 * s * laplacian(g, s))


def neg_sqrt_laplacian_bound(g: WeightedGraph, u):
    """Per-vertex check of -L(sqrt u)(x) <= (deg(x)/mu(x)) * sqrt(u)(x)."""
    u = require_positive(g, u)
    s = np.sqrt(u)
    lhs = -laplacian(g, s)
    rhs = (g.degrees / g.mu) * s
    return site_reports("neg_sqrt_laplacian", g.ids, lhs, rhs)
