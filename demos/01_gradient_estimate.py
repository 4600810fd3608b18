"""Narrative tour of the pointwise gradient estimate.

For a positive function u on a weighted graph the quantity

    Gamma(sqrt u)/u - (Lu)/(2u)

is bounded above by D_mu = max_x deg(x)/mu(x), uniformly in u. This script
checks the bound on a grid, shows how close it gets to equality on the
two-vertex graph, and compares it with the older sqrt(2 Gamma(u))/u bound.
"""

import numpy as np

from graphheat import (WeightedGraph, all_pass, generate, gradient_estimate,
                       gradient_lhs, independence_sweep, prior_gradient_estimate,
                       summarize)

# ---------------------------------------------------------------------------
# 1. The bound on a 6x6 grid, for a batch of rough random functions.
# ---------------------------------------------------------------------------
g = generate("grid", rows=6, cols=6, measure_mode="degree")
d_mu = g.constants().d_mu
print(f"6x6 grid with mu = deg: D_mu = {d_mu}")

rng = np.random.default_rng(0)
worst = -np.inf
for _ in range(200):
    u = np.exp(rng.uniform(-6, 6, size=g.n) * np.log(10))  # 12 decades
    reports = gradient_estimate(g, u)
    assert all_pass(reports)
    worst = max(worst, gradient_lhs(g, u).max())
print(f"largest lhs over 200 random functions: {worst:.6f}  (bound {d_mu})")

# ---------------------------------------------------------------------------
# 2. Near-sharpness: on K2 with u = (1, eps) the slack is exactly sqrt(eps).
# ---------------------------------------------------------------------------
k2 = WeightedGraph(["a", "b"], [("a", "b", 1.0)], measure_mode="unit")
for eps in (1e-2, 1e-4, 1e-8):
    slack = gradient_estimate(k2, {"a": 1.0, "b": eps}).slack[0]
    print(f"K2, u=(1, {eps:g}): slack = {slack:.3e}  (sqrt(eps) = {np.sqrt(eps):.3e})")

# ---------------------------------------------------------------------------
# 3. Neither this bound nor the older one dominates the other. The sweep
#    hunts random (graph, function, vertex) sites and tallies which side is
#    tighter; both tallies come back nonzero.
# ---------------------------------------------------------------------------
res = independence_sweep(n_sites=2000, seed=1)
print(f"tighter-bound tally over 2000 sites: {res['tally']}")
for side in ("current", "prior"):
    w = res["witnesses"][side]
    print(f"  example where {side} wins: graph n={w['n']}, vertex {w['vertex']}, "
          f"rel slack current={w['rel_slack_current']:.3f} "
          f"prior={w['rel_slack_prior']:.3f}")

# ---------------------------------------------------------------------------
# 4. The older estimate itself still holds everywhere, of course.
# ---------------------------------------------------------------------------
u = np.exp(rng.uniform(-3, 3, size=g.n))
reports = prior_gradient_estimate(g, u)
print("prior estimate on the grid:", summarize(reports))
