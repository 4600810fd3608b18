import math
from statistics import NormalDist

import numpy as np
import pytest

from conftest import k2, random_graph
from graphheat import WeightedGraph, generate, heat_kernel, simulate
from graphheat.cli import MC_ALPHA


def test_time_zero_all_walks_stay():
    g = k2(mu=(2.0, 1.0))
    est = simulate(g, "a", 0.0, 500, seed=1)
    assert est.counts[0] == 500 and est.counts[1] == 0
    assert est.p_hat[0] == pytest.approx(1 / 2.0)


def test_counts_sum_to_n_walks():
    g = generate("cycle", n=6)
    est = simulate(g, "v0", 2.0, 1000, seed=2)
    assert est.counts.sum() == 1000
    assert np.all(est.p_hat >= 0)


def test_deterministic_for_fixed_seed():
    g = generate("complete", n=4)
    a = simulate(g, "v1", 1.5, 2000, seed=7)
    b = simulate(g, "v1", 1.5, 2000, seed=7)
    assert np.array_equal(a.counts, b.counts)
    c = simulate(g, "v1", 1.5, 2000, seed=8)
    assert not np.array_equal(a.counts, c.counts)


def test_isolated_vertex_never_moves():
    g = WeightedGraph(["a", "b", "c"], [("a", "b", 1.0)], measure_mode="unit")
    est = simulate(g, "c", 10.0, 100, seed=0)
    assert est.counts[2] == 100


def test_k2_matches_kernel():
    g = k2()
    est = simulate(g, "a", 1.0, 100_000, seed=3)
    K = heat_kernel(g, 1.0)
    assert np.all(est.consistent_with(K.matrix[0]))


def test_k3_stationary_distribution():
    g = generate("complete", n=3, measure_mode="degree")
    est = simulate(g, "v0", 20.0, 100_000, seed=3)
    K = heat_kernel(g, 20.0)
    assert np.all(est.consistent_with(K.matrix[0]))
    # mu * p -> mu/Vol(G) = 1/3 per vertex in distribution
    np.testing.assert_allclose(est.counts / est.n_walks, 1 / 3, atol=0.01)


def _bonferroni_z(cells):
    # the per-cell sigma of cmd_kernel's family-wise verdict
    return NormalDist().inv_cdf(1.0 - MC_ALPHA / (2 * cells))


def test_stiff_path_matches_kernel():
    # the middle vertex jumps 2000 times faster than the rest
    ids = [f"v{i}" for i in range(50)]
    mu = {v: 1.0 for v in ids}
    mu["v25"] = 1e-3
    g = WeightedGraph(ids, [(a, b, 1.0) for a, b in zip(ids, ids[1:])], mu=mu)
    times = (1.0, 10.0)
    z = _bonferroni_z(g.n * len(times))
    for t in times:
        est = simulate(g, "v25", t, 3000, seed=4)
        assert np.all(est.consistent_with(heat_kernel(g, t).matrix[25], n_sigma=z))


def test_weighted_jumps_match_kernel():
    # unequal weights: jump probabilities and rates (deg, unit mu) vary by vertex
    g = random_graph(np.random.default_rng(6), n_min=8, n_max=12, p=0.5,
                     w_lo=0.2, w_hi=5.0, connected=True)
    z = _bonferroni_z(g.n**2)
    K = heat_kernel(g, 0.7)
    for i, x in enumerate(g.ids):
        est = simulate(g, x, 0.7, 2000, seed=i)
        assert np.all(est.consistent_with(K.matrix[i], n_sigma=z))


def test_jump_keys_are_row_cumsums_of_the_dense_weights():
    # the keys behind same-seed kernel --mc CSVs: 2i + cumsum(W[i]) / deg(i) at
    # each edge of row i, bit for bit, and exactly 2i + 1 at the row's end
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_graph(rng, n_max=40, p=0.5, w_lo=0.1, w_hi=3.0)
        _, cols, keys = g._jumps
        rows, ref_cols = np.nonzero(g.W)
        ref = 2 * rows + np.cumsum(g.W, axis=1)[rows, ref_cols] / g.degrees[rows]
        last = np.diff(rows, append=g.n) > 0
        ref[last] = 2 * rows[last] + 1.0
        assert np.array_equal(cols, ref_cols) and np.array_equal(keys, ref)


def test_one_way_edge_absorbs():
    # a -> b only: b has no out-edge, so its rate is 0 and walks that reach it stay
    g = WeightedGraph(["a", "b"], [("a", "b", 1.0)], measure_mode="unit",
                      weights_symmetric=False)
    n_walks, t = 20_000, 1.5
    est = simulate(g, "a", t, n_walks, seed=11)
    p = math.exp(-t)  # P[the Exp(1) holding time at a exceeds t]
    assert abs(est.counts[0] - n_walks * p) <= 5 * math.sqrt(n_walks * p * (1 - p))
    assert np.all(simulate(g, "b", t, 100, seed=11).counts == [0, 100])


def test_rate_matches_measure():
    # doubling mu halves the jump rate: at small t more walks stay home
    g_fast = k2(mu=(1.0, 1.0))
    g_slow = k2(mu=(4.0, 4.0))
    stay_fast = simulate(g_fast, "a", 0.5, 20_000, seed=5).counts[0]
    stay_slow = simulate(g_slow, "a", 0.5, 20_000, seed=5).counts[0]
    assert stay_slow > stay_fast


def test_invalid_inputs():
    g = k2()
    # t = inf used to die with OverflowError sizing the uniform blocks
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            simulate(g, "a", t, 10)
    with pytest.raises(ValueError):
        simulate(g, "a", 1.0, 0)
