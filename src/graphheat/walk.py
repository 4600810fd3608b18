"""Monte Carlo heat-kernel estimation by continuous-time random walk.

A walker at vertex v holds for an exponential time with rate deg(v)/mu(v),
then jumps to a neighbor y with probability w_vy/deg(v). The end-of-walk
position at time t is an unbiased sample of the measure mu(.)p(t, x, .), so
counts/(n_walks * mu(y)) estimates the kernel. Used to cross-validate the
series and spectral kernels on graphs of any size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, uniforms
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

    All walks advance together and draw from one stream, random.Random(seed),
    32 bits per uniform: a holding uniform per walk, then at each step, for the
    walks still short of t in walk order, their jump uniforms and next holding
    uniforms. A holding time is -log(u)/rate (u = 0 holds forever); a jump from
    i takes the first record of row i whose key exceeds 2i + u, searched from
    its bucket's g._guide entry. The counts are a pure function of (graph,
    source, t, n_walks, seed); a walk's path depends on n_walks, so the first k
    walks of a larger run are not a run of k walks.
    """
    t = check_time(t)
    if n_walks < 1:
        raise ValueError("need at least one walk")
    src = g._resolve(x)
    rates, (_, cols, _, ptr), keys, guide = g.rates, g.edges, g._jumps, g._guide
    width, rng = ptr[1:] - ptr[:-1], random.Random(seed)
    pos, clock = np.full(n_walks, src), np.zeros(n_walks)  # the live walks, in walk order
    visits, jumps = [], []  # where each step starts, and which of those walks jump
    hold = uniforms(rng, n_walks)
    with np.errstate(divide="ignore"):  # log(0), and rate 0 at a vertex without out-edges
        while pos.size:
            clock -= np.log(hold) / rates[pos]  # an infinite holding time ends the walk
            go = (clock < t).nonzero()[0]
            visits.append(pos)
            pos, clock = pos[go], clock[go]
            jumps.append(pos)
            jump, hold = uniforms(rng, 2 * pos.size).reshape(2, -1)
            j, q = guide[ptr[pos] + (jump * width[pos]).astype(np.intp)], 2 * pos + jump
            late = (keys[j] <= q).nonzero()[0]  # past the bucket's first record
            j[late] = np.searchsorted(keys, q[late], side="right")
            pos = cols[j]
    counts = np.bincount(np.concatenate(visits), minlength=g.n) \
        - np.bincount(np.concatenate(jumps), minlength=g.n)
    return WalkEstimate(t, g.ids[src], counts, int(n_walks), int(seed), g)
