"""Monte Carlo heat-kernel estimation by continuous-time random walk.

A walker at vertex v holds for an exponential time with rate deg(v)/mu(v),
then jumps to a neighbor y with probability w_vy/deg(v). The end-of-walk
position at time t is an unbiased sample of the measure mu(.)p(t, x, .), so
counts/(n_walks * mu(y)) estimates the kernel. Used to cross-validate the
series and spectral kernels on graphs of any size.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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

    Each walk draws from its own counter-based stream (Philox keyed by seed,
    jumped by the walk index), so results are deterministic per
    (seed, walk-index) regardless of execution order.
    """
    t = check_time(t)
    if n_walks < 1:
        raise ValueError("need at least one walk")
    src = g._resolve(x)
    rates = [float(d / m) for d, m in zip(g.degrees, g.mu)]
    neighbors = g.neighbors
    cum_probs = []
    for i, nbr in enumerate(neighbors):
        if nbr:
            c = np.cumsum(g.W[i, list(nbr)] / g.degrees[i])
            c[-1] = 1.0
            cum_probs.append(list(c))
        else:
            cum_probs.append([])

    counts = np.zeros(g.n, dtype=np.int64)
    base = np.random.Philox(key=seed)
    # draw uniforms in blocks per walk; -log(u)/rate gives the holding times
    block = max(8, int(2 * t * max(rates, default=0.0)) + 4)
    for walk in range(n_walks):
        rng = np.random.Generator(base.jumped(walk))
        pos = src
        clock = 0.0
        done = rates[pos] == 0.0 or t == 0.0
        while not done:
            holds = rng.random(block)
            jumps = rng.random(block)
            for uh, uj in zip(holds, jumps):
                clock += -math.log(1.0 - uh) / rates[pos]
                if clock >= t:
                    done = True
                    break
                cp = cum_probs[pos]
                pos = neighbors[pos][bisect_left(cp, uj)]
                if rates[pos] == 0.0:
                    done = True
                    break
        counts[pos] += 1
    return WalkEstimate(t, g.ids[src], counts, int(n_walks), int(seed), g)

