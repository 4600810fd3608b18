import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import dense_weights, k2, random_graph
from graphheat import WeightedGraph, dense_oracle, generate, heat_kernel, simulate
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


def _pooled_chi2_pvalue(walk_graph, g, t, n_walks):
    # Pearson chi-square of the walk counts on walk_graph from every source
    # against g's oracle, summed over the sources; each source's cells that
    # expect fewer than 5 walks share one bin
    expected = n_walks * dense_oracle(g, t).matrix * g.mu
    stat, dof = 0.0, 0
    for i, x in enumerate(g.ids):
        counts, e = simulate(walk_graph, x, t, n_walks, seed=i).counts, expected[i]
        big = e >= 5
        obs, exp = np.append(counts[big], counts[~big].sum()), np.append(e[big], e[~big].sum())
        stat += float(np.sum((obs - exp) ** 2 / exp))
        dof += len(exp) - 1
    return float(chi2.sf(stat, dof))


def test_walk_counts_pass_a_test_that_rejects_rates_10_percent_fast():
    # 192k walks on the 8x8 grid: the right rates pass at alpha = 1e-3, and
    # holding rates 1.1 times too high (mu = deg / 1.1) are rejected
    g = generate("grid", rows=8, cols=8, measure_mode="degree")
    fast = generate("grid", rows=8, cols=8, measure_mode="explicit", mu=g.degrees / 1.1)
    assert _pooled_chi2_pvalue(g, g, 1.0, 3000) >= 1e-3
    assert _pooled_chi2_pvalue(fast, g, 1.0, 3000) < 1e-3


def test_jump_keys_are_row_cumsums_of_the_dense_weights():
    # the keys behind same-seed kernel --mc CSVs: 2i + cumsum(W[i]) / deg(i) at
    # each edge of row i, bit for bit, and exactly 2i + 1 at the row's end
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_graph(rng, n_max=40, p=0.5, w_lo=0.1, w_hi=3.0)
        cols, keys = g.edges[1], g._jumps
        W = dense_weights(g)
        rows, ref_cols = np.nonzero(W)
        ref = 2 * rows + np.cumsum(W, axis=1)[rows, ref_cols] / g.degrees[rows]
        last = np.diff(rows, append=g.n) > 0
        ref[last] = 2 * rows[last] + 1.0
        assert np.array_equal(cols, ref_cols) and np.array_equal(keys, ref)


def test_jump_guide_never_starts_past_the_record():
    # a jump from row i with a uniform u on the 2**-32 grid takes the first record
    # whose key exceeds 2i + u; the guide entry of u's bucket floor(u k) must not
    # lie past it, is it at the bucket's least u, and is it always for equal weights
    rng = np.random.default_rng(13)
    graphs = [random_graph(rng, n_max=40, p=0.5, w_lo=1e-3, w_hi=3.0) for _ in range(10)]
    for g in [*graphs, generate("grid", rows=5, cols=7)]:
        rows, _, _, ptr = g.edges
        b = np.arange(rows.size) - ptr[rows]
        k = np.diff(ptr)[rows]
        least = -(-(b << 32) // k)
        i = np.concatenate([rows, rows, rows[rng.integers(rows.size, size=20_000)]])
        m = np.concatenate([least, np.maximum(least - 1, 0), rng.integers(2**32, size=20_000)])
        u = m * 2.0**-32
        j = g._guide[ptr[i] + (u * (ptr[i + 1] - ptr[i])).astype(np.intp)]
        exact = np.searchsorted(g._jumps, 2 * i + u, side="right")
        assert np.all(rows[exact] == i) and np.all(rows[j] == i) and np.all(j <= exact)
        assert np.array_equal(j[:rows.size], exact[:rows.size])
    assert np.array_equal(j, exact)  # the grid's rows have equal weights


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
