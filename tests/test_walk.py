import math

import numpy as np
import pytest

from conftest import k2
from graphheat import WeightedGraph, generate, heat_kernel, simulate


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
