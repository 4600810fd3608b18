"""Monte Carlo heat-kernel estimation by continuous-time random walk.

A walker at vertex v holds for an exponential time with rate deg(v)/mu(v),
then jumps to a neighbor y with probability w_vy/deg(v). The end-of-walk
position at time t is an unbiased sample of the measure mu(.)p(t, x, .), so
counts/(n_walks * mu(y)) estimates the kernel. Used to cross-validate the
series and spectral kernels on graphs of any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .semigroup import check_time

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class WalkEstimate:
    """Endpoint counts of n_walks independent walks from one source."""

    t: float
    source: str
    counts: np.ndarray
    n_walks: int
    seed: int
    graph: WeightedGraph

    @property
    def p_hat(self) -> np.ndarray:
        """Kernel estimate counts/(n_walks * mu)."""
        return self.counts / (self.n_walks * self.graph.mu)

    @property
    def half_width(self) -> np.ndarray:
        """95% normal-approximation half-width on counts/n_walks (before the
        mu division); approximate, degenerate at empty or full cells."""
        q = self.counts / self.n_walks
        return _Z95 * np.sqrt(q * (1.0 - q) / self.n_walks)

    def consistent_with(self, p_exact, n_sigma: float = 3.0) -> np.ndarray:
        """Per-vertex flags comparing counts against the expected counts
        lam = n_walks * p * mu.

        The allowance n_sigma*sqrt(lam) + n_sigma^2 uses the hypothesized
        rather than the observed variance, so empty cells with tiny expected
        counts are judged correctly; the additive n_sigma^2 keeps the Poisson
        upper tail covered when lam is order one.
        """
        lam = np.asarray(p_exact) * self.graph.mu * self.n_walks
        return np.abs(self.counts - lam) <= n_sigma * np.sqrt(lam) + n_sigma**2


def simulate(g: WeightedGraph, x, t: float, n_walks: int, seed: int = 0) -> WalkEstimate:
    """Run n_walks independent walks from x up to time t.

    All walks advance together and draw from one counter-based stream
    (Philox keyed by seed): each step draws a holding time for every live
    walk, then a jump uniform for every walk still short of t, in walk order.
    The counts are a pure function of (graph, source, t, n_walks, seed); a
    walk's path depends on n_walks, so the first k walks of a larger run are
    not a run of k walks.
    """
    t = check_time(t)
    if n_walks < 1:
        raise ValueError("need at least one walk")
    src = g._resolve(x)
    rates = g.degrees / g.mu
    rows, cols = np.nonzero(g.W)
    # row i's jump keys are 2i + the cumulative jump probabilities, its last
    # key exactly 2i + 1, so 2 pos + u (0 <= u < 1) finds a key of row pos even
    # where the sum rounds: the gap (2i - 1, 2i) separates the rows. The sums
    # round to an ulp of 2i, which costs each jump about n * 2**-52 of
    # probability.
    keys = 2 * rows + np.cumsum(g.W, axis=1)[rows, cols] / g.degrees[rows]
    last = np.diff(rows, append=g.n) > 0
    keys[last] = 2 * rows[last] + 1.0

    rng = np.random.Generator(np.random.Philox(key=seed))
    pos = np.full(n_walks, src)
    clock = np.zeros(n_walks)
    live = np.arange(n_walks if rates[src] > 0.0 else 0)
    while live.size:
        clock[live] += rng.standard_exponential(live.size) / rates[pos[live]]
        live = live[clock[live] < t]
        u = rng.random(live.size)
        pos[live] = cols[np.searchsorted(keys, 2 * pos[live] + u)]
        live = live[rates[pos[live]] > 0.0]  # a vertex without out-edges absorbs
    counts = np.bincount(pos, minlength=g.n)
    return WalkEstimate(t, g.ids[src], counts, int(n_walks), int(seed), g)
