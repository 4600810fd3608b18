"""Monte Carlo check of the heat kernel via the continuous-time random walk.

The kernel p(t, x, y) equals P[X_t = y | X_0 = x] / mu(y) for the walk that
waits an Exp(deg(v)/mu(v)) time at v and jumps to a neighbor with probability
w_vy/deg(v). Simulating many walks gives an estimator with binomial error
bars that is completely independent of the series computation.
"""

import time

import numpy as np

from graphheat import generate, heat_kernel, simulate

g = generate("grid", rows=4, cols=4, measure_mode="degree")
source = "v5"  # an interior vertex
t = 2.0
n_walks = 100_000

exact = heat_kernel(g, t, tol=1e-12).matrix[g.index[source]]

start = time.monotonic()
est = simulate(g, source, t, n_walks, seed=1)
elapsed = time.monotonic() - start
print(f"4x4 grid, {n_walks} walks from {source} at t={t} "
      f"({elapsed:.1f}s, seed=1)")

hw = est.half_width
print(f"{'vertex':>8} {'exact':>10} {'estimate':>10} {'95% hw':>9}  z")
for i, v in enumerate(g.ids):
    z = (est.p_hat[i] - exact[i]) / (hw[i] / 1.96)
    print(f"{v:>8} {exact[i]:10.6f} {est.p_hat[i]:10.6f} {hw[i]:9.6f} {z:+5.2f}")

ok = est.consistent_with(exact)
print(f"all {g.n} entries within 3 sigma: {bool(np.all(ok))}")

# determinism: the estimate is a pure function of (seed, walk count)
est2 = simulate(g, source, t, n_walks, seed=1)
print("rerun with same seed reproduces counts exactly:",
      bool(np.all(est2.counts == est.counts)))
