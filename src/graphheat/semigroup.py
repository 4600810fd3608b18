"""Heat kernel and semigroup evolution on a weighted graph.

The kernel p(t, x, y) is the fundamental solution of d/dt u = Lu paired with
the vertex measure, u(t, x) = sum_y mu(y) p(t, x, y) u0(y). It is computed by
uniformization: with lam = max_x deg(x)/mu(x), Q = I + L/lam is entrywise
nonnegative with unit row sums and

    exp(tL) = exp(-lam t) * sum_k (lam t)^k / k! * Q^k,

truncated once the Poisson(lam t) tail drops below tol; with mu = deg and
lam = 1 it is the lazy-walk series p_k/deg. For large lam t the series sums
E ~ exp((t/2^s)L) to tol/2^s, s = ceil(log2(lam t)), and E is squared s
times; after each square its diagonal is reset to 1 minus the row's
off-diagonal sum (Grassmann, Taksar & Heyman 1985), so row sums stay 1 to
rounding at any lam t, where squared row sums (1 - d)^(2^s) would drain to 0.
Off-diagonal terms stay sums of nonnegative products; truncation stays <= tol
in max norm; rounding grows like 2^s n u, u = 2**-53.
A dense spectral oracle provides an independent second route.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .graph import WeightedGraph, as_vertex_function

DEFAULT_TOL = 1e-10
DENSE_ORACLE_CAP = 200


def check_time(t, positive: bool = False) -> float:
    """float(t) if t is finite and >= 0 (> 0 where the caller divides by t)."""
    t = float(t)
    if not (0 < t < math.inf if positive else 0 <= t < math.inf):
        raise ValueError(f"time must be finite and {'>' if positive else '>='} 0, got {t!r}")
    return t


class HeatKernel(NamedTuple):
    """p(t, x, y) as a dense matrix in the graph's vertex order."""

    t: float
    matrix: np.ndarray
    graph: WeightedGraph

    def value(self, x, y) -> float:
        g = self.graph
        return float(self.matrix[g._resolve(x), g._resolve(y)])

    def mass(self) -> np.ndarray:
        """sum_y mu(y) p(t, x, y) per row; 1 on finite graphs."""
        return self.matrix @ self.graph.mu


def generator(g: WeightedGraph) -> np.ndarray:
    """Matrix of the mu-Laplacian: L[x, y] = w_xy/mu(x), L[x, x] = -deg(x)/mu(x),
    built from the edge record."""
    rows, cols, w, _ = g.edges
    L = np.zeros((g.n, g.n))
    L[rows, cols] = w / g.mu[rows]
    np.fill_diagonal(L, L.diagonal() - g.rates)
    return L


def _series(Q: np.ndarray, lt: float, tol: float, operand: np.ndarray) -> np.ndarray:
    """sum_k e^{-lt} lt^k/k! Q^k @ operand to a Poisson tail <= tol, weights in log space."""
    log_lt = math.log(lt)
    cur, spare = operand, np.empty_like(operand)  # overwrites the float operand; terms swap in
    log_coef = -lt  # log of e^{-lt} (lt)^k / k! at k = 0
    acc = math.exp(log_coef) * cur
    k = 0
    while True:
        if k + 1 > lt:
            # discarded mass <= coef_{k+1} / (1 - lt/(k+2)), geometric tail
            log_next = log_coef + log_lt - math.log(k + 1)
            tail_bound = math.exp(log_next) / (1.0 - lt / (k + 2))
            if tail_bound <= tol:
                break
        k += 1
        cur, spare = np.matmul(Q, cur, out=spare), cur
        log_coef += log_lt - math.log(k)
        coef = math.exp(log_coef)
        if coef > 0.0:
            acc += np.multiply(coef, cur, out=spare)
    return acc


def _uniformized_apply(g: WeightedGraph, t: float, tol: float, operand=None) -> np.ndarray:
    """exp(tL) @ operand (exp(tL) for operand None) by the series, or by squaring where cheaper;
    holds Q, the sum and two work arrays while summing, two n x n arrays while squaring."""
    t = check_time(t)
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    identity = operand is None
    size = g.n**2 if identity else operand.size
    lam = float(g.rates.max(initial=0.0))
    lt = lam * t
    if lt == 0:  # t = 0, no edges, or lam * t underflowing: exp(tL) = I
        return np.eye(g.n) if identity else operand.astype(float)
    Q = generator(g)
    Q /= lam  # in place: no freed n x n array lifts malloc's mmap threshold (see README)
    np.fill_diagonal(Q, Q.diagonal() + 1.0)  # I + L/lam bit for bit: L holds no -0.0
    s = math.ceil(math.log2(lam) + math.log2(t)) if lt > 1 else 0  # lt may overflow
    step = lam * math.ldexp(t, -s)  # about (1/2, 1] when s > 0
    terms = [x + 12.0 * math.sqrt(x) + 30.0 for x in (lt, step)]  # series lengths
    if s > 0 and terms[0] * size > (terms[1] + s) * g.n**2 + size:
        E = _series(Q, step, math.ldexp(tol, -s), np.eye(g.n))
        del Q
        F = np.empty_like(E)
        for _ in range(s):
            E, F = np.matmul(E, E, out=F), E
            np.fill_diagonal(E, 0.0)  # then 1 - the row's off-diagonal sum, as exp(tL)'s rows
            np.fill_diagonal(E, 1.0 - E.sum(axis=1))
        return E if identity else E @ operand
    return _series(Q, lt, tol, np.eye(g.n) if identity else operand.astype(float))


def heat_kernel(g: WeightedGraph, t: float, tol: float = DEFAULT_TOL) -> HeatKernel:
    """Heat kernel at time t with series truncation error <= tol in max norm."""
    E = _uniformized_apply(g, t, tol)
    return HeatKernel(float(t), np.divide(E, g.mu, out=E), g)  # column y over mu(y), in place


def evolve(g: WeightedGraph, u0, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve the heat equation: u(t) = sum_y mu(y) p(t, ., y) u0(y).

    u0 is a vertex function, or an (n, m) array with one initial function
    per column. Forms the kernel only where squaring it is the cheaper route.
    """
    return _uniformized_apply(g, t, tol, as_vertex_function(g, u0))


def dense_oracle(g: WeightedGraph, t: float) -> HeatKernel:
    """Independent kernel via full spectral decomposition of the generator.

    For symmetric weights the generator is symmetrized in the mu-inner
    product and diagonalized exactly; otherwise a dense matrix exponential
    is used.
    """
    if g.n > DENSE_ORACLE_CAP:
        raise ValueError(f"graph too large for dense oracle ({g.n} > {DENSE_ORACLE_CAP})")
    t = check_time(t)
    L = generator(g)
    if g.weights_symmetric:
        root = np.sqrt(g.mu)
        S = (root[:, None] * L) / root[None, :]
        evals, V = np.linalg.eigh(S)
        E = (V * np.exp(t * evals)) @ V.T
        E = E / root[:, None] * root[None, :]
    else:
        import scipy.linalg  # only this branch needs scipy
        E = scipy.linalg.expm(t * L)
    return HeatKernel(float(t), E / g.mu[None, :], g)


def compose(a: HeatKernel, b: HeatKernel) -> np.ndarray:
    """Chapman-Kolmogorov product: sum_z mu(z) p(s, x, z) p(t, z, y)."""
    if a.graph is not b.graph:
        raise ValueError("kernels must live on the same graph")
    return (a.matrix * a.graph.mu[None, :]) @ b.matrix

