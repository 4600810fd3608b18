"""Heat kernel on a weighted graph: computation, cross-checks, and bounds.

Builds kernels by the uniformized Poisson series, validates them against a
dense spectral solve and the Chapman-Kolmogorov composition rule, and then
walks through the quantitative consequences: the Harnack inequality relating
a solution at two space-time points, Gaussian-style upper/lower kernel
bounds, and the volume-growth bound they imply.
"""

import numpy as np

from graphheat import (compose, dense_oracle, evolve, generate, harnack_factor,
                       heat_kernel, heat_kernel_lower_bound,
                       heat_kernel_upper_bound, optimal_time_gap, summarize,
                       verify_diagonal_lower, verify_harnack,
                       verify_kernel_lower, verify_kernel_upper,
                       verify_volume_growth)

# ---------------------------------------------------------------------------
# 1. Build a kernel and sanity-check it two independent ways.
# ---------------------------------------------------------------------------
g = generate("random", n=25, p=0.3, w_lo=0.5, w_hi=2.0,
             measure_mode="degree", seed=5)
t = 1.5
K = heat_kernel(g, t, tol=1e-12)
print(f"random graph: n={g.n}, edges={g.num_edges}, t={t}")
print(f"  series vs spectral oracle, max diff: "
      f"{np.abs(K.matrix - dense_oracle(g, t).matrix).max():.2e}")
print(f"  mass conservation, max |sum_y mu(y) p - 1|: "
      f"{np.abs(K.mass() - 1).max():.2e}")
Ka, Kb = heat_kernel(g, 0.6, tol=1e-12), heat_kernel(g, 0.9, tol=1e-12)
print(f"  composition p(0.6)*p(0.9) vs p(1.5), max diff: "
      f"{np.abs(compose(Ka, Kb) - K.matrix).max():.2e}")

# ---------------------------------------------------------------------------
# 2. Harnack: a positive solution at (x, t1) is controlled by its value at
#    any (y, t2), t2 > t1, times exp{2 D_mu (t2-t1) + 4 mu_max d(x,y)^2 /
#    (w_min (t2-t1))}.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(2)
u0 = np.exp(rng.uniform(-4, 4, size=g.n))
reports = verify_harnack(g, u0, time_grid=[0.2, 0.5, 1.0, 2.0])
print("harnack over all ordered pairs and time pairs:", summarize(reports))
x, y = g.ids[0], g.ids[-1]
u1 = evolve(g, u0, 0.5)
u2 = evolve(g, u0, 1.0)
f = harnack_factor(g, x, y, 0.5, 1.0)
print(f"  e.g. u({x},0.5)={u1[0]:.4f} <= u({y},1.0)*factor = "
      f"{u2[-1]:.4f} * {f:.3e} = {u2[-1] * f:.3e}")

# ---------------------------------------------------------------------------
# 3. Kernel bounds (mu = deg, symmetric weights). The upper bound trades the
#    volume of B(x, sqrt t) against exp{4 sqrt(2 D_mu mu_max t / w_min)} --
#    the exponent is the infimum over intermediate time gaps, and the
#    closed-form minimizer is available directly.
# ---------------------------------------------------------------------------
for reps, name in ((verify_kernel_upper(g, t), "upper"),
                   (verify_kernel_lower(g, t), "lower"),
                   (verify_diagonal_lower(g, t), "diagonal lower")):
    print(f"{name} bound at t={t}:", summarize(reps))
c = g.constants()
gap, value = optimal_time_gap(c.d_mu, c.mu_max, c.w_min, t)
print(f"  optimal intermediate gap {gap:.4f}, exponent value {value:.4f}")
print(f"  p({t},{x},{x}) = {K.value(x, x):.6f} <= "
      f"{heat_kernel_upper_bound(g, t, x):.6f} (upper), >= "
      f"{heat_kernel_lower_bound(g, t, x, x):.2e} (lower)")

# ---------------------------------------------------------------------------
# 4. Volume growth: combining both bounds at y forces Vol(B(y, sqrt t)) to
#    grow at most like exp{t + 4 sqrt(2 mu_max t / w_min)}.
# ---------------------------------------------------------------------------
reports = verify_volume_growth(g, times=[0.5, 1.0, 4.0, 16.0])
print("volume growth:", summarize(reports))
strong = all(e["degree_variant_holds"] for e in reports.extra)
print(f"  stronger variant with deg(y) in place of Vol(B(y,1)): "
      f"{'also holds' if strong else 'fails somewhere'} here")
