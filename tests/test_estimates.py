import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import k2, log_uniform, random_graph, two_grids as _two_grids
from graphheat import (HypothesisError, UnreachableError, WeightedGraph,
                       all_pass, compose, evolve, generate, gradient_estimate,
                       gradient_lhs, harnack_factor, heat_gradient_estimate,
                       heat_kernel, heat_kernel_lower_bound,
                       heat_kernel_upper_bound, independence_sweep,
                       optimal_time_gap, prior_gradient_estimate,
                       verify_diagonal_lower, verify_harnack,
                       verify_kernel_lower, verify_kernel_upper,
                       verify_volume_growth, volume_growth_bound)
from graphheat.estimates import _harnack_form, _kernel_lower_form
from graphheat.reports import concat


# -- gradient estimate -------------------------------------------------------

def test_gradient_estimate_constant():
    g = k2()
    reps = gradient_estimate(g, [7.0, 7.0])
    assert np.all(reps.lhs == 0.0) and np.all(reps.rhs == 1.0)


def test_gradient_estimate_k2_example():
    reps = gradient_estimate(k2(), [4.0, 1.0])
    assert reps.lhs[0] == pytest.approx(0.5, abs=1e-14)
    assert all_pass(reps)


def test_gradient_estimate_near_sharpness():
    eps = 1e-4
    reps = gradient_estimate(k2(), [1.0, eps])
    assert reps.lhs[0] == pytest.approx(1 - math.sqrt(eps), abs=1e-12)
    assert reps.slack[0] == pytest.approx(math.sqrt(eps), abs=1e-10)


def test_gradient_estimate_scale_invariance():
    rng = np.random.default_rng(0)
    g = random_graph(rng)
    u = log_uniform(rng, g.n, lo=1e-2, hi=1e2)
    a = gradient_lhs(g, u)
    b = gradient_lhs(g, 37.0 * u)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_gradient_estimate_random_sweep():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = random_graph(rng)
        assert all_pass(gradient_estimate(g, log_uniform(rng, g.n)))


def test_gradient_estimate_rejects_nonpositive():
    with pytest.raises(ValueError):
        gradient_estimate(k2(), [1.0, -1.0])


# -- heat-equation form --------------------------------------------------------

def test_heat_gradient_constant():
    reps = heat_gradient_estimate(k2(), [3.0, 3.0], [0.5, 2.0])
    main = reps.check == "heat_gradient_estimate"
    assert np.all(np.abs(reps.lhs[main]) <= 1e-12)
    assert reps.passed.all()


def test_heat_gradient_k2_closed_form():
    # u(t, a) = 2.5 + 1.5 e^{-2t}; both derivative routes agree and pass
    reps = heat_gradient_estimate(k2(), [4.0, 1.0], [1.0])
    assert all_pass(reps)
    main = reps.check == "heat_gradient_estimate"
    assert np.all(reps.lhs[main] <= 1.0)
    fd = reps.check == "heat_gradient_fd"
    assert np.count_nonzero(fd) == 2 and reps.passed[fd].all()


def test_heat_gradient_random_sweep():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = random_graph(rng, n_max=15)
        u0 = log_uniform(rng, g.n)
        assert all_pass(heat_gradient_estimate(g, u0, [0.01, 0.1, 1.0, 10.0]))


# -- prior estimate and independence ----------------------------------------------

def test_prior_estimate_constant():
    g = k2()
    reps = prior_gradient_estimate(g, [5.0, 5.0])
    c = g.constants()
    assert np.all(reps.lhs == 0.0)
    assert reps.rhs.tolist() == pytest.approx(
        [math.sqrt(c.d) * c.d_mu + math.sqrt(c.d_mu)] * g.n)


def test_prior_estimate_k2_example():
    eps = 0.25
    reps = prior_gradient_estimate(k2(), [1.0, eps])
    assert reps.lhs[0] == pytest.approx(1 - eps, abs=1e-14)
    assert reps.rhs[0] == pytest.approx(1 + eps, abs=1e-14)
    assert all_pass(reps)


def test_prior_estimate_random_sweep():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_graph(rng)
        assert all_pass(prior_gradient_estimate(g, log_uniform(rng, g.n)))


def test_independence_witnesses_both_directions():
    res = independence_sweep(n_sites=2000, seed=0)
    assert res["tally"]["current"] >= 1
    assert res["tally"]["prior"] >= 1
    assert set(res["witnesses"]) == {"current", "prior"}


# -- Harnack ---------------------------------------------------------------------

def test_harnack_factor_same_vertex():
    g = k2()
    assert harnack_factor(g, "a", "a", 0.0, 2.0) == pytest.approx(math.exp(4.0))


def test_harnack_factor_k2():
    assert harnack_factor(k2(), "a", "b", 0.0, 1.0) == pytest.approx(math.exp(6))


def test_harnack_factor_minimized_at_known_gap():
    g = generate("path", n=5)
    c = g.constants()
    ell = g.dist("v0", "v4")
    def f(gap):
        return 2 * c.d_mu * gap + (4 * c.mu_max / c.w_min) * ell**2 / gap
    res = minimize_scalar(f, bounds=(1e-6, 1e6), method="bounded",
                          options={"xatol": 1e-12})
    expected = math.sqrt(2 * c.mu_max * ell**2 / (c.d_mu * c.w_min))
    assert res.x == pytest.approx(expected, rel=1e-5)


def test_harnack_factor_errors():
    g = k2()
    with pytest.raises(ValueError):
        harnack_factor(g, "a", "b", 1.0, 1.0)
    disconnected = WeightedGraph(["a", "b", "c", "d"],
                                 [("a", "b", 1.0), ("c", "d", 1.0)],
                                 measure_mode="unit")
    with pytest.raises(UnreachableError):
        harnack_factor(disconnected, "a", "c", 0.0, 1.0)


def test_harnack_factor_degenerate_gap_is_inf():
    assert harnack_factor(k2(), "a", "b", 0.0, 1e-12) == math.inf


def test_verify_harnack_constant():
    reps = verify_harnack(k2(), [2.0, 2.0], [0.1, 1.0])
    assert all_pass(reps)
    assert np.all(reps.lhs <= reps.rhs)


def test_verify_harnack_k2_example():
    reps = verify_harnack(k2(), [4.0, 1.0], [0.0, 1.0])
    i = reps.site.tolist().index(["a", 0.0, "b", 1.0])
    assert reps.lhs[i] == pytest.approx(4.0)
    assert reps.rhs[i] == pytest.approx(
        (2.5 - 1.5 * math.exp(-2)) * math.exp(6), rel=1e-9)
    assert all_pass(reps)


def test_harnack_sweep_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_graph(rng, n_max=15, connected=True)
        U0 = log_uniform(rng, g.n * 5).reshape(g.n, 5)
        reps = verify_harnack(g, U0, [0.05, 0.5, 2.0])
        assert len(reps) == 3 * 5 * g.n**2  # every ordered pair, connected
        ratio = reps.lhs / reps.rhs
        assert np.count_nonzero(ratio > 1.0 + 1e-9) == 0
        assert ratio.max() <= 1.0 + 1e-9


# -- batches: one function per column ---------------------------------------------

def _batch_cases():
    rng = np.random.default_rng(23)
    for n_min, n_max in ((4, 12), (31, 40)):  # all pairs, then sampled pairs
        for _ in range(3):
            g = random_graph(rng, n_min=n_min, n_max=n_max, p=0.3)
            yield g, log_uniform(rng, g.n * 4).reshape(g.n, 4)


def _rows_agree(batch, single):
    # same rows; values may round differently, within each row's budget
    assert batch.check.tolist() == single.check.tolist()
    assert batch.site.tolist() == single.site.tolist()
    assert np.array_equal(batch.passed, single.passed)
    checked = single.check != "heat_gradient_fd"  # its lhs is rounding noise
    budget = single.abs_tol + single.rel_tol * np.abs(single.rhs)
    for side in ("lhs", "rhs"):
        a, b = getattr(batch, side)[checked], getattr(single, side)[checked]
        assert np.all((a == b) | (np.abs(a - b) <= budget[checked]))
    # its rhs, FD_REL |d/dt sqrt u| plus 1e-9 of the function's own largest
    # sqrt u, is no cancellation: it agrees far inside 1e-9 relative
    np.testing.assert_allclose(batch.rhs[~checked], single.rhs[~checked], rtol=1e-9, atol=0)


def test_batch_equals_its_columns():
    for g, U in _batch_cases():
        cols = list(U.T)
        for verify in (gradient_estimate, prior_gradient_estimate):
            batch, single = verify(g, U), concat(verify(g, u) for u in cols)
            for name in ("check", "site", "extra"):
                assert getattr(batch, name).tolist() == getattr(single, name).tolist()
            for name in ("lhs", "rhs", "abs_tol", "rel_tol"):
                assert getattr(batch, name).tobytes() == getattr(single, name).tobytes()
        times = [0.0, 1e-7, 0.1, 1.0]
        _rows_agree(heat_gradient_estimate(g, U, times),
                    concat(heat_gradient_estimate(g, u, times) for u in cols))
        if g.n <= 30:  # all ordered pairs for every function
            _rows_agree(verify_harnack(g, U, [0.2, 1.0, 3.0]),
                        concat(verify_harnack(g, u, [0.2, 1.0, 3.0]) for u in cols))


def test_batch_harnack_first_column_samples_like_a_single_call():
    for g, U in _batch_cases():
        if g.n <= 30:
            continue
        batch = verify_harnack(g, U, [0.5, 1.0, 2.0], seed=11)
        single = verify_harnack(g, U[:, 0], [0.5, 1.0, 2.0], seed=11)
        assert batch.site[:len(single)].tolist() == single.site.tolist()
        assert len(batch) > len(single)


# -- kernel bounds and volume growth ---------------------------------------------

def test_optimal_time_gap_examples():
    gap, value = optimal_time_gap(1, 1, 1, 2)
    assert (gap, value) == (2.0, 8.0)
    gap, value = optimal_time_gap(2, 1, 1, 1)
    assert value == pytest.approx(8.0)
    assert gap == pytest.approx(1.0)


def test_optimal_time_gap_matches_numeric_minimization():
    rng = np.random.default_rng(6)
    for _ in range(30):
        d_mu, mu_max, w_min, t = np.exp(rng.uniform(-2, 2, size=4) * math.log(10))
        gap, value = optimal_time_gap(d_mu, mu_max, w_min, t)
        f = lambda s: 2 * d_mu * s + (4 * mu_max / w_min) * t / s
        res = minimize_scalar(f, bracket=(gap / 10, gap, gap * 10),
                              options={"xtol": 1e-14})
        assert value == pytest.approx(res.fun, rel=1e-8)


def test_optimal_time_gap_small_t_limit():
    _, value = optimal_time_gap(1, 1, 1, 1e-20)
    assert value <= 1e-9


def test_optimal_time_gap_rejects_nonpositive():
    with pytest.raises(ValueError):
        optimal_time_gap(1, 1, 0, 1)


def test_kernel_upper_bound_k2():
    g = k2()
    bound = heat_kernel_upper_bound(g, 1.0, "a")
    assert bound == pytest.approx(0.5 * math.exp(4 * math.sqrt(2)), rel=1e-12)
    K = heat_kernel(g, 1.0)
    assert K.value("a", "b") <= bound


def test_kernel_upper_bound_monotone_in_volume():
    # same t, so the exponential factor cancels; bigger ball, smaller bound
    g = generate("path", n=9)
    assert g.ball_volume("v4", 1.0) > g.ball_volume("v0", 1.0)
    assert heat_kernel_upper_bound(g, 1.0, "v4") < heat_kernel_upper_bound(g, 1.0, "v0")


def test_verify_kernel_upper_sweep():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_graph(rng, n_max=15)
        for t in (0.5, 2.0):
            assert all_pass(verify_kernel_upper(g, t))


def test_kernel_lower_bound_k2():
    g = k2(measure_mode="degree")
    bound = heat_kernel_lower_bound(g, 1.0, "a", "b")
    assert bound == pytest.approx(math.exp(-6), rel=1e-12)
    K = heat_kernel(g, 1.0)
    assert K.value("a", "b") >= bound


def test_kernel_lower_bound_diagonal_consistency():
    g = generate("complete", n=4, measure_mode="degree")
    t = 0.7
    diag_bound = heat_kernel_lower_bound(g, t, "v0", "v0")
    assert diag_bound == pytest.approx(math.exp(-2 * t) / g.degree("v0"))
    K = heat_kernel(g, t)
    assert K.value("v0", "v0") >= math.exp(-t) / g.degree("v0") >= diag_bound


def test_kernel_lower_bound_requires_mu_deg():
    g = k2(mu=(2.0, 1.0))
    with pytest.raises(HypothesisError):
        heat_kernel_lower_bound(g, 1.0, "a", "b")


def test_kernel_lower_bound_requires_symmetry():
    g = WeightedGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 1.0)],
                      weights_symmetric=False, measure_mode="degree")
    with pytest.raises(HypothesisError):
        heat_kernel_lower_bound(g, 1.0, "a", "b")


def test_verify_kernel_lower_sweep():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = random_graph(rng, n_max=15, measure_mode="degree", p=0.5,
                         connected=True)
        for t in (0.5, 2.0):
            assert all_pass(verify_kernel_lower(g, t))


@pytest.mark.parametrize("verify", [verify_kernel_upper, verify_kernel_lower])
@pytest.mark.parametrize("graph", ["grid", "two-grids"])
def test_kernel_records_are_built_without_pair_temporaries(verify, graph):
    # a kernel record's n^2 rows are most of a verify run's memory: building
    # one may add little beyond the record itself (the lower bound's index
    # pairs, site pieces and full bound matrix once took it to 1.65-1.8x)
    import tracemalloc
    g = generate("grid", rows=16, cols=16, measure_mode="degree") if graph == "grid" \
        else _two_grids(12)
    kernel = heat_kernel(g, 1.0)
    verify(g, 1.0, kernel=kernel)  # the graph's distances and constants, cached
    tracemalloc.start()
    try:
        record = verify(g, 1.0, kernel=kernel)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(record) == (g.n**2 if verify is verify_kernel_upper or graph == "grid"
                           else g.n**2 // 2)
    assert peak <= 1.3 * held, (peak, held)


def test_verify_diagonal_lower():
    g = generate("grid", rows=3, cols=3, measure_mode="degree")
    for t in (0.1, 1.0, 5.0, 20.0):
        assert all_pass(verify_diagonal_lower(g, t))


def test_volume_growth_k2():
    g = k2(measure_mode="degree")
    bound = volume_growth_bound(g, "a", 4.0)
    assert bound == pytest.approx(2.0 * math.exp(4 + 8 * math.sqrt(2)), rel=1e-12)
    assert g.ball_volume("a", 2.0) == 2.0 <= bound


def test_volume_growth_trivial_at_t1():
    g = generate("grid", rows=4, cols=4, measure_mode="degree")
    reps = verify_volume_growth(g, [1.0])
    assert all_pass(reps)
    assert np.all(reps.lhs <= reps.rhs)


def test_volume_growth_sweep():
    rng = np.random.default_rng(9)
    graphs = [generate("grid", rows=4, cols=5, measure_mode="degree"),
              generate("path", n=12, measure_mode="degree"),
              random_graph(rng, measure_mode="degree", p=0.5, connected=True)]
    for g in graphs:
        reps = verify_volume_growth(g, [1.0, 4.0, 9.0, 25.0])
        assert all_pass(reps)
        assert all("degree_variant_holds" in e for e in reps.extra)


def test_volume_growth_hypothesis_gating():
    with pytest.raises(HypothesisError):
        volume_growth_bound(k2(mu=(2.0, 1.0)), "a", 1.0)


@pytest.mark.parametrize("graph, t", [
    (generate("grid", rows=3, cols=3, measure_mode="degree"), 20000.0),
    (WeightedGraph(["a", "b", "c"], [("a", "b", 1e-4), ("b", "c", 1.0)],
                   measure_mode="degree"), 10.0),
], ids=["grid3x3-t20000", "path3-wmin1e-4-t10"])
def test_exponential_bounds_are_inf_where_exp_overflows(graph, t):
    # 4 sqrt(2 mu_max t / w_min) is past exp's 709.78 here: both helpers
    # raised OverflowError; like harnack_factor they now return +inf
    c = graph.constants()
    assert 4.0 * math.sqrt(2.0 * c.mu_max * t / c.w_min) > 710
    x = graph.ids[0]
    assert heat_kernel_upper_bound(graph, t, x) == math.inf
    assert volume_growth_bound(graph, x, t) == math.inf
    assert all_pass(verify_kernel_upper(graph, t)) and all_pass(verify_volume_growth(graph, [t]))


# -- per-site reports against the scalar helpers ----------------------------------

def _two_components():
    # a-b-c and d-e, mu = deg: unreachable pairs exist in both directions
    return WeightedGraph(["a", "b", "c", "d", "e"],
                         [("a", "b", 1.0), ("b", "c", 2.0), ("d", "e", 0.5)],
                         measure_mode="degree")


def test_verifier_sites_and_values_follow_the_per_site_loop():
    g = _two_components()
    t = 0.7
    K = heat_kernel(g, t)
    finite = [(x, y) for x in g.ids for y in g.ids
              if math.isfinite(g.distance_matrix()[g.index[x], g.index[y]])]

    lower = verify_kernel_lower(g, t, kernel=K)
    assert lower.site.tolist() == [[x, y, t] for x, y in finite]
    assert lower.lhs.tolist() == pytest.approx(
        [heat_kernel_lower_bound(g, t, x, y) for x, y in finite], rel=1e-15)
    assert lower.rhs.tolist() == [K.value(x, y) for x, y in finite]

    upper = verify_kernel_upper(g, t, kernel=K)
    assert upper.site.tolist() == [[x, y, t] for x in g.ids for y in g.ids]
    assert list(zip(upper.lhs.tolist(), upper.rhs.tolist())) == [
        (K.value(x, y), heat_kernel_upper_bound(g, t, x)) for x in g.ids
        for y in g.ids]

    diag = verify_diagonal_lower(g, t, kernel=K)
    assert list(zip(diag.site.tolist(), diag.lhs.tolist(), diag.rhs.tolist())) == [
        ([y, t], math.exp(-t) / g.degree(y), K.value(y, y)) for y in g.ids]

    volume = verify_volume_growth(g, [t, 4.0])
    assert list(zip(volume.site.tolist(), volume.lhs.tolist())) == [
        ([y, s], g.ball_volume(y, math.sqrt(s))) for s in (t, 4.0)
        for y in g.ids]
    assert volume.rhs.tolist() == pytest.approx(
        [volume_growth_bound(g, y, s) for s in (t, 4.0) for y in g.ids],
        rel=1e-15)


def test_verify_harnack_drops_unreachable_pairs():
    g = _two_components()
    u0 = [1.0, 5.0, 0.5, 2.0, 3.0]
    reps = verify_harnack(g, u0, [1.0, 0.2])
    kept = [(x, y) for x in g.ids for y in g.ids if (x in "abc") == (y in "abc")]
    assert reps.site.tolist() == [[x, 0.2, y, 1.0] for x, y in kept]
    u1, u2 = evolve(g, u0, 0.2, tol=1e-12), evolve(g, u0, 1.0, tol=1e-12)
    assert reps.lhs.tolist() == [u1[g.index[x]] for x, y in kept]
    assert reps.rhs.tolist() == pytest.approx(
        [u2[g.index[y]] * harnack_factor(g, x, y, 0.2, 1.0) for x, y in kept],
        rel=1e-15)
    assert all_pass(reps)


# -- rejected inputs ---------------------------------------------------------------

def _grid3():
    return generate("grid", rows=3, cols=3, measure_mode="degree")


def _with(value):
    u = np.ones(9)
    u[4] = value
    return u


# probe -> call on the 3x3 mu = deg grid; each must raise ValueError, and most
# used to return NaN, raise something other than ValueError, or emit reports
# (failing, or passing on a NaN or infinite value)
REJECTED = {
    "volume-growth-nan-time": lambda g: verify_volume_growth(g, [math.nan]),
    "diagonal-lower-nan-time": lambda g: verify_diagonal_lower(
        g, math.nan, kernel=heat_kernel(g, 1.0)),
    "kernel-lower-zero-time": lambda g: verify_kernel_lower(g, 0.0),
    "kernel-upper-bound-nan-time": lambda g: heat_kernel_upper_bound(
        g, math.nan, "v0"),
    "kernel-lower-bound-nan-time": lambda g: heat_kernel_lower_bound(
        g, math.nan, "v0", "v1"),
    "volume-growth-bound-nan-time": lambda g: volume_growth_bound(
        g, "v0", math.nan),
    "harnack-factor-nan-t1": lambda g: harnack_factor(g, "v0", "v1",
                                                      math.nan, 1.0),
    "harnack-factor-nan-t2": lambda g: harnack_factor(g, "v0", "v1",
                                                      0.0, math.nan),
    "time-gap-nan-time": lambda g: optimal_time_gap(1.0, 1.0, 1.0, math.nan),
    "time-gap-nan-d-mu": lambda g: optimal_time_gap(math.nan, 1.0, 1.0, 1.0),
    "time-gap-nan-mu-max": lambda g: optimal_time_gap(1.0, math.nan, 1.0, 1.0),
    "time-gap-nan-w-min": lambda g: optimal_time_gap(1.0, 1.0, math.nan, 1.0),
    "gradient-nan-value": lambda g: gradient_estimate(g, _with(math.nan)),
    "gradient-inf-value": lambda g: gradient_estimate(g, _with(math.inf)),
    "prior-nan-value": lambda g: prior_gradient_estimate(g, _with(math.nan)),
    "prior-inf-value": lambda g: prior_gradient_estimate(g, _with(math.inf)),
    "harnack-nan-value": lambda g: verify_harnack(g, _with(math.nan),
                                                  [0.1, 1.0]),
    "harnack-inf-value": lambda g: verify_harnack(g, _with(math.inf),
                                                  [0.1, 1.0]),
    "gradient-batch-nan-value": lambda g: gradient_estimate(
        g, np.stack([np.ones(9), _with(math.nan)], axis=1)),
    "prior-batch-wrong-rows": lambda g: prior_gradient_estimate(g, np.ones((8, 3))),
    "heat-gradient-batch-wrong-rows": lambda g: heat_gradient_estimate(
        g, np.ones((10, 2)), [1.0]),
    "harnack-batch-wrong-rows": lambda g: verify_harnack(g, np.ones((8, 2)),
                                                         [0.1, 1.0]),
    "ball-volume-nan-radius": lambda g: g.ball_volume("v0", math.nan),
    "compose-two-graphs": lambda g: compose(heat_kernel(g, 1.0),
                                            heat_kernel(_grid3(), 1.0)),
    "harnack-one-distinct-time": lambda g: verify_harnack(g, np.ones(9),
                                                          [1.0, 1.0]),
    # a kernel at another time or of another graph: upper and lower used to
    # pass every row, and diagonal to report a false failure
    "kernel-upper-other-time": lambda g: verify_kernel_upper(
        g, 1.0, kernel=heat_kernel(g, 1.3)),
    "kernel-lower-other-time": lambda g: verify_kernel_lower(
        g, 1.0, kernel=heat_kernel(g, 1.3)),
    "diagonal-lower-other-time": lambda g: verify_diagonal_lower(
        g, 1.0, kernel=heat_kernel(g, 1.3)),
    "kernel-upper-other-graph": lambda g: verify_kernel_upper(
        g, 1.0, kernel=heat_kernel(_grid3(), 1.0)),
    "kernel-lower-other-graph": lambda g: verify_kernel_lower(
        g, 1.0, kernel=heat_kernel(_grid3(), 1.0)),
    "diagonal-lower-other-graph": lambda g: verify_diagonal_lower(
        g, 1.0, kernel=heat_kernel(_grid3(), 1.0)),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejects_non_finite_and_out_of_domain_input(name):
    with pytest.raises(ValueError):
        REJECTED[name](_grid3())


def test_hop_squares_are_float64_past_255_hops():
    # on a 300-vertex mu = deg path hops reach 299, and a uint16 square wraps
    # from 256 (256^2 = 0 mod 2^16): the forms and the scalar bounds square the
    # compact counts as float64, so they give what float64 hops give
    g = generate("path", n=300, measure_mode="degree")
    c, H, D = g.constants(), g._hops, g.distance_matrix()
    assert H.dtype == np.uint16 and H.max() == 299
    assert not np.array_equal(np.square(H), np.square(D))
    for s in (0.5, 40.0):
        assert np.array_equal(_harnack_form(c, H, s), _harnack_form(c, D, s))
        assert np.array_equal(_kernel_lower_form(c, H, s, g.degrees),
                              _kernel_lower_form(c, D, s, g.degrees))
    for y in ("v1", "v200", "v256", "v299"):
        hops = D[0, g.index[y]]
        assert harnack_factor(g, "v0", y, 1.0, 3.0) == _harnack_form(c, hops, 2.0)
        assert (heat_kernel_lower_bound(g, 40.0, "v0", y)
                == _kernel_lower_form(c, hops, 40.0, g.degree(y)))
