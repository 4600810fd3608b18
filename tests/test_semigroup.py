import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import k2, log_uniform, random_graph, stiff_path
from graphheat import (WeightedGraph, compose, dense_oracle, evolve, generate,
                       heat_kernel, semigroup, verify_harnack)
from graphheat.semigroup import DENSE_ORACLE_CAP


def test_kernel_at_time_zero():
    g = k2(mu=(2.0, 0.5))
    K = heat_kernel(g, 0.0)
    np.testing.assert_allclose(K.matrix, np.diag(1.0 / g.mu), atol=0)


def test_kernel_k2_closed_form():
    K = heat_kernel(k2(), 1.0, tol=1e-13)
    assert K.value("a", "b") == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-11)


def test_kernel_k3_diagonal_and_limit():
    g = generate("complete", n=3, measure_mode="degree")
    for t in (0.5, 2.0):
        K = heat_kernel(g, t, tol=1e-13)
        assert K.value("v0", "v0") == pytest.approx(
            1 / 6 + (1 / 3) * math.exp(-1.5 * t), abs=1e-11)
    K = heat_kernel(g, 60.0, tol=1e-13)
    assert K.value("v0", "v0") == pytest.approx(1 / g.mu.sum(), abs=1e-11)


def test_kernel_rejects_bad_tol_and_time():
    with pytest.raises(ValueError):
        heat_kernel(k2(), 1.0, tol=0.0)
    with pytest.raises(ValueError):
        heat_kernel(k2(), -1.0)


@pytest.mark.parametrize("t, tol", [(math.nan, 1e-10), (math.inf, 1e-10),
                                    (1.0, math.nan)])
def test_series_rejects_non_finite_time_and_nan_tol(t, tol):
    # each of these used to loop forever in the series
    g = k2()
    with pytest.raises(ValueError):
        heat_kernel(g, t, tol=tol)
    with pytest.raises(ValueError):
        evolve(g, [1.0, 2.0], t, tol=tol)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_dense_oracle_rejects_non_finite_time(t):
    # it returned an all-NaN (t = nan) or all-zero (t = inf) kernel
    with pytest.raises(ValueError):
        dense_oracle(k2(), t)


def test_harnack_rejects_infinite_time():
    with pytest.raises(ValueError):
        verify_harnack(k2(), [1.0, 2.0], [0.1, math.inf])


def test_series_when_lam_t_underflows():
    # lam * t rounds to 0 for this positive time: the series took log(0)
    g = k2(mu=(10.0, 10.0), w=0.5)
    K = heat_kernel(g, 5e-324)
    np.testing.assert_array_equal(K.matrix, np.diag(1.0 / g.mu))


def test_kernel_edgeless_graph():
    g = WeightedGraph(["a", "b"], [], mu={"a": 2.0, "b": 4.0})
    K = heat_kernel(g, 3.0)
    np.testing.assert_allclose(K.matrix, np.diag([0.5, 0.25]), atol=0)


def test_series_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        g = random_graph(rng)
        for t in (0.1, 1.0, 10.0):
            a = heat_kernel(g, t, tol=1e-12).matrix
            b = dense_oracle(g, t).matrix
            assert np.abs(a - b).max() <= 1e-8


def test_kernel_invariants_mass_symmetry_positivity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_graph(rng)
        K = heat_kernel(g, 1.0, tol=1e-12)
        np.testing.assert_allclose(K.mass(), 1.0, atol=1e-9)
        assert np.all(K.matrix >= 0.0)
        # symmetry under symmetric weights
        np.testing.assert_allclose(K.matrix, K.matrix.T, atol=1e-10)
        # positivity exactly on connected components
        D = g.distance_matrix()
        assert np.all((K.matrix > 0) == np.isfinite(D))


def test_semigroup_composition():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_graph(rng, n_max=20)
        ks = heat_kernel(g, 0.4, tol=1e-12)
        kt = heat_kernel(g, 0.6, tol=1e-12)
        kst = heat_kernel(g, 1.0, tol=1e-12)
        assert np.abs(compose(ks, kt) - kst.matrix).max() <= 1e-8


def test_diagonal_lower_bound_mu_deg():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_graph(rng, measure_mode="degree", p=0.5, connected=True)
        for t in (0.1, 1.0, 5.0, 20.0):
            K = heat_kernel(g, t, tol=1e-12)
            diag = np.diag(K.matrix)
            bound = math.exp(-t) / g.degrees
            assert np.all(diag - bound >= -1e-12)


def test_evolve_constant_stationary():
    g = k2(mu=(2.0, 1.0))
    for t in (0.0, 0.5, 5.0):
        np.testing.assert_allclose(evolve(g, [3.0, 3.0], t), 3.0, atol=1e-10)


def test_evolve_k2_closed_form():
    g = k2()
    for t in (0.3, 1.0, 2.5):
        u = evolve(g, [4.0, 1.0], t, tol=1e-13)
        assert u[0] == pytest.approx(2.5 + 1.5 * math.exp(-2 * t), abs=1e-11)
        assert u[1] == pytest.approx(2.5 - 1.5 * math.exp(-2 * t), abs=1e-11)


def test_evolve_mass_conservation_and_positivity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_graph(rng)
        u0 = log_uniform(rng, g.n)
        ut = evolve(g, u0, 2.0, tol=1e-12)
        assert np.all(ut > 0)
        assert float(np.sum(g.mu * ut)) == pytest.approx(
            float(np.sum(g.mu * u0)), rel=1e-9)


def test_evolve_many_matches_evolve():
    # evolve on an (n, m) matrix, one initial function per column
    rng = np.random.default_rng(6)
    g = random_graph(rng)
    U0 = log_uniform(rng, g.n * 3).reshape(g.n, 3)
    U = evolve(g, U0, 1.5)
    for j in range(3):
        np.testing.assert_allclose(U[:, j], evolve(g, U0[:, j], 1.5),
                                   rtol=0, atol=1e-12 * U0.max())


def test_asymmetric_generator_kernel():
    g = WeightedGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)],
                      weights_symmetric=False, measure_mode="unit")
    K = heat_kernel(g, 1.0, tol=1e-12)
    O = dense_oracle(g, 1.0)
    assert np.abs(K.matrix - O.matrix).max() <= 1e-8
    np.testing.assert_allclose(K.mass(), 1.0, atol=1e-9)


def test_dense_oracle_cap():
    g = generate("path", n=DENSE_ORACLE_CAP + 1)
    with pytest.raises(ValueError):
        dense_oracle(g, 1.0)


@st.composite
def measured_graphs(draw):
    """Symmetric graphs of at most 10 vertices, weights in [0.5, 2] as in
    random_graph, and an explicit measure log-uniform in [0.1, 10]."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(f"v{i}", f"v{j}", draw(st.floats(0.5, 2.0))) for i, j in chosen]
    mu = [10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(n)]
    return WeightedGraph([f"v{i}" for i in range(n)], edges, mu=mu)


@settings(max_examples=100, deadline=None)
@given(measured_graphs(), st.floats(0.0, 2.0), st.floats(0.0, 1.0))
def test_kernel_invariants_over_random_measures(g, t, split):
    # The bounds are those of the unit-measure tests above. p = E / mu(y),
    # where E = exp(tL) is row-stochastic and its error (series truncation
    # <= tol per entry, rounding) does not depend on mu; so errors in p scale
    # by max 1/mu, while the mass (the row sums of E) does not scale.
    scale = float(np.max(1.0 / g.mu))
    tol = 1e-12
    K = heat_kernel(g, t, tol=tol)
    np.testing.assert_allclose(K.mass(), 1.0, atol=1e-9)
    np.testing.assert_allclose(K.matrix, K.matrix.T, atol=1e-10 * scale)
    oracle = dense_oracle(g, t).matrix
    assert np.abs(K.matrix - oracle).max() <= 1e-8 * scale
    # nonnegative; exactly 0 across components; positive within one wherever
    # the exact kernel clears the truncation error tol * scale, with as much
    # again for the oracle's rounding (the series drops terms below tol, so a
    # far pair at small t may read 0)
    same_component = np.isfinite(g.distance_matrix())
    assert np.all(K.matrix >= 0.0)
    assert np.all(K.matrix[~same_component] == 0.0)
    assert np.all(K.matrix[same_component & (oracle > 2 * tol * scale)] > 0.0)
    s = split * t
    ks, kt = heat_kernel(g, s, tol=tol), heat_kernel(g, t - s, tol=tol)
    assert np.abs(compose(ks, kt) - K.matrix).max() <= 1e-8 * scale


# -- bounded cost: scaling and squaring ------------------------------------------

U = 2.0**-53  # unit roundoff


def _lam_t_s(g, t):
    """lam t and s = ceil(log2 lam t), s = 0 where lam t <= 1, so 2^s >= lam t."""
    lt = float(np.max(g.degrees / g.mu, initial=0.0)) * t
    return lt, (math.ceil(math.log2(lt)) if lt > 1 else 0)


def _series_bound(g, t, tol):
    """Max-norm error bound of the series E = exp(tL): tol + 2^s (3n + 43) u.

    Truncation is <= tol on either path. Sums and products of nonnegative
    terms round by a relative n u per product and u per addition. The small
    step (lam t 2^-s <= 1, at most 43 terms) is off by (n + 43) u; each
    squaring doubles the error and adds n u, so s of them reach
    2^s (2n + 43) u, and the final product or row sum adds n u. The direct
    series mixes Q^k with Poisson(lam t) weights, so its products cost
    lam t n u <= 2^s n u and its additions one u per term, at most
    lam t + 12 sqrt(lam t) + 30 <= 43 * 2^s of them.
    """
    _, s = _lam_t_s(g, t)
    return tol + 2.0**s * (3 * g.n + 43) * U


def _oracle_bound(g, t):
    """Max-norm error bound of dense_oracle's E. eigh is backward stable, so
    its exp(tS) of the symmetrized S is off by c n u (1 + ||tS||) in the
    2-norm, ||tS|| <= 2 lam t, taking c = 4 for LAPACK's unstated constant;
    undoing the similarity by sqrt(mu) costs at most sqrt(n mu_max/mu_min)."""
    lt, _ = _lam_t_s(g, t)
    return 4 * g.n * U * (1 + 2 * lt) * math.sqrt(g.n * g.mu.max() / g.mu.min())


def _series_calls(monkeypatch):
    """Record (lam t, operand is the identity) for every series run."""
    calls = []
    inner = semigroup._series

    def spy(Q, lt, tol, operand):
        calls.append((lt, np.array_equal(operand, np.eye(len(Q)))))
        return inner(Q, lt, tol, operand)
    monkeypatch.setattr(semigroup, "_series", spy)
    return calls


@st.composite
def stiff_graphs(draw):
    """Symmetric graphs of 2 to 10 vertices, weights in [0.5, 2] and an
    explicit measure log-uniform in [0.01, 10], so lam = max deg/mu <= 1800."""
    n = draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = [(f"v{i}", f"v{j}", draw(st.floats(0.5, 2.0))) for i, j in chosen]
    mu = [10.0 ** draw(st.floats(-2.0, 1.0)) for _ in range(n)]
    return WeightedGraph([f"v{i}" for i in range(n)], edges, mu=mu)


@settings(max_examples=150, deadline=None)
@given(stiff_graphs(), st.floats(0.0, 10.0))
def test_series_within_derived_bound_of_oracle_on_both_paths(g, t):
    # lam t reaches 1.8e4. heat_kernel squares wherever lam t > 1; evolve of
    # one vector squares only where that beats about 40 n series terms, of
    # two where it beats about 20 n
    tol = 1e-12
    series = _series_bound(g, t, tol)
    oracle = dense_oracle(g, t).matrix * g.mu[None, :]
    K = heat_kernel(g, t, tol=tol)
    E = K.matrix * g.mu[None, :]
    assert np.all(K.matrix >= 0.0)
    assert np.abs(E.sum(axis=1) - 1.0).max() <= series
    assert np.abs(E - oracle).max() <= series + _oracle_bound(g, t)
    u0 = np.linspace(1.0, 2.0, g.n)
    for u in (evolve(g, u0, t, tol=tol), evolve(g, np.stack([u0, -u0], 1), t, tol=tol)[:, 0]):
        assert np.abs(u - oracle @ u0).max() <= (series + _oracle_bound(g, t)) * 2.0


def test_squaring_matches_direct_series_within_derived_bound():
    # the same engine both ways, so no oracle error enters: lam t = 2000
    g = stiff_path(1e-3)
    tol = 1e-12
    E = heat_kernel(g, 1.0, tol=tol).matrix * g.mu[None, :]
    Q = np.eye(g.n) + semigroup.generator(g) / 2000.0
    direct = semigroup._series(Q, 2000.0, tol, np.eye(g.n))
    assert np.abs(E - direct).max() <= 2 * _series_bound(g, 1.0, tol)


def test_squaring_path_taken_where_cheaper(monkeypatch):
    calls = _series_calls(monkeypatch)
    g = stiff_path(1e-3)  # lam = 2000
    K = heat_kernel(g, 10.0)  # lam t = 2e4: one small step, squared 15 times
    assert len(calls) == 1 and calls[0][1]
    assert calls[0][0] * 2**15 == pytest.approx(2e4)
    assert np.all(K.matrix >= 0.0)  # nonnegative terms keep an enclosure valid
    calls.clear()
    evolve(g, np.ones(g.n), 0.01)  # lam t = 20 on one vector: direct
    assert calls == [(pytest.approx(20.0), False)]
    calls.clear()
    evolve(g, np.ones((g.n, 20)), 10.0)  # 20 vectors: squared
    assert len(calls) == 1 and calls[0][1]
    calls.clear()
    heat_kernel(generate("grid", rows=4, cols=4, measure_mode="degree"), 1.0)
    assert calls == [(1.0, True)]  # lam t = 1: direct


@pytest.mark.parametrize("t, lt", [(10.0, 10.0 / 16), (0.1, 0.1)])
def test_heat_kernel_is_evolve_of_the_identity_bit_for_bit(monkeypatch, t, lt):
    # heat_kernel skips the squaring route's product with the identity and
    # divides by mu in place; E @ I is E for a finite E, so the kernel is
    # evolve's identity batch over mu, bit for bit, on either route
    g = generate("grid", rows=16, cols=16, measure_mode="degree")
    calls = _series_calls(monkeypatch)
    K = heat_kernel(g, t)
    assert calls == [(lt, True)]  # t = 10: a step of 10/16, squared 4 times
    assert K.matrix.tobytes() == (evolve(g, np.eye(g.n), t) / g.mu).tobytes()


def test_very_stiff_kernel_within_derived_bound():
    # mu = 1e-6 at the middle vertex: at t = 100 the direct series needs
    # lam t = 2e8 terms and never finished; squaring takes s = 28 steps
    g = stiff_path(1e-6)
    t, tol = 100.0, 1e-10
    K = heat_kernel(g, t, tol=tol)
    E = K.matrix * g.mu[None, :]
    series = _series_bound(g, t, tol)
    assert np.all(K.matrix >= 0.0)
    assert np.abs(K.mass() - 1.0).max() <= series
    oracle = dense_oracle(g, t).matrix * g.mu[None, :]
    assert np.abs(E - oracle).max() <= series + _oracle_bound(g, t)


def test_squaring_keeps_the_mass_at_huge_times():
    # each square's diagonal is 1 minus its row's off-diagonal sum: without it the
    # row sums (1 - d)^(2^s) drain to 0, and the kernel reads 0 for every pair
    g = generate("grid", rows=3, cols=3, measure_mode="degree")  # Vol = 24
    K = heat_kernel(g, 1e300)  # lam t = 1e300: squared 997 times
    np.testing.assert_allclose(K.matrix, 1 / 24, rtol=1e-12, atol=0)
    K = heat_kernel(stiff_path(1e-12), 100.0)  # lam t = 2e14
    assert np.abs(K.mass() - 1.0).max() <= 1e-13


def test_two_vertex_kernel_matches_its_closed_form_at_large_lam_t():
    # rates a = w/mu(a) and b = w/mu(b): exp(tL)[a, b] = a/(a + b) (1 - e^{-(a + b) t})
    g, tol = k2(mu=(1.0, 3.0), w=2.0), 1e-13
    a, b = 2.0, 2.0 / 3.0
    for lt in (1e-3, 0.5, 10.0, 1e3, 1e6, 1e9, 1e12):
        t = lt / a
        decay = -math.expm1(-(a + b) * t)
        want = np.array([[1 - a / (a + b) * decay, a / (a + b) * decay],
                         [b / (a + b) * decay, 1 - b / (a + b) * decay]])
        E = heat_kernel(g, t, tol=tol).matrix * g.mu
        assert np.all(np.abs(E - want) <= tol + 1e-12 * want), lt


# -- reused work buffers ---------------------------------------------------------

def _traced_peak(work):
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("t", [1.0, 10.0])  # lam t = 1: the series; 10: squared 4 times
def test_heat_kernel_holds_four_matrices(t):
    # the series holds Q, its sum and two work arrays it swaps, and squaring
    # holds two arrays; evolve of a batch holds Q and three batch arrays
    g = generate("grid", rows=16, cols=16, measure_mode="degree")
    n, m, slack = g.n, 20, 64 * g.n
    U0 = np.ones((n, m))
    heat_kernel(g, t)  # warm-up: first-call caches
    assert _traced_peak(lambda: heat_kernel(g, t)) <= 8 * 4 * n**2 + slack
    assert _traced_peak(lambda: evolve(g, U0, t)) <= 8 * (n**2 + 3 * n * m) + slack


def _allocating_apply(g, t, tol, operand=None):
    """exp(tL) @ operand as the engine computes it, with a new array for every
    product, term and square, and each square's diagonal reset to 1 minus its
    row's off-diagonal sum; the buffered engine must match it bit for bit."""
    def series(Q, lt, tol, operand):
        log_lt = math.log(lt)
        cur = operand.astype(float)
        log_coef = -lt
        acc = math.exp(log_coef) * cur
        k = 0
        while True:
            if k + 1 > lt:
                log_next = log_coef + log_lt - math.log(k + 1)
                if math.exp(log_next) / (1.0 - lt / (k + 2)) <= tol:
                    break
            k += 1
            cur = Q @ cur
            log_coef += log_lt - math.log(k)
            coef = math.exp(log_coef)
            if coef > 0.0:
                acc += coef * cur
        return acc

    identity = operand is None
    operand = np.eye(g.n) if identity else operand
    lam = float(g.rates.max(initial=0.0))
    lt = lam * t
    if lt == 0:
        return operand.astype(float)
    Q = np.eye(g.n) + semigroup.generator(g) / lam
    s = math.ceil(math.log2(lam) + math.log2(t)) if lt > 1 else 0
    step = lam * math.ldexp(t, -s)
    terms = [x + 12.0 * math.sqrt(x) + 30.0 for x in (lt, step)]
    if s > 0 and terms[0] * operand.size > (terms[1] + s) * g.n**2 + operand.size:
        E = series(Q, step, math.ldexp(tol, -s), np.eye(g.n))
        for _ in range(s):
            E = E @ E
            off = E - np.diag(np.diag(E))
            E = off + np.diag(1.0 - off.sum(axis=1))
        return E if identity else E @ operand
    return series(Q, lt, tol, operand)


def _assert_buffered_is_allocating(g, t, tol=1e-12):
    # identity, one vector and a batch; the operands are left as they were
    u = np.linspace(1.0, 2.0, g.n)
    for operand in (None, u, np.stack([u, -u, u * u], 1)):
        before = None if operand is None else operand.tobytes()
        got = semigroup._uniformized_apply(g, t, tol, operand)
        assert got.tobytes() == _allocating_apply(g, t, tol, operand).tobytes()
        assert operand is None or operand.tobytes() == before


@pytest.mark.parametrize("graph, t, squared", [
    ("grid16", 1.0, ()),  # lam t = 1: the series for every operand
    ("grid16", 10.0, (None,)),  # the identity squared 4 times, vectors by the series
    ("stiff", 10.0, (None, 1, 2)),  # lam t = 2e4: squared 15 times
    ("stiff", 0.01, (None,)),  # lam t = 20: one vector by the series
    ("stiff", 0.0, ()),
])
def test_buffered_series_matches_allocating_series_bit_for_bit(monkeypatch, graph, t, squared):
    g = (generate("grid", rows=16, cols=16, measure_mode="degree") if graph == "grid16"
         else stiff_path(1e-3))
    calls = _series_calls(monkeypatch)
    _assert_buffered_is_allocating(g, t)
    lam_t = float(g.rates.max()) * t
    routes = [ndim for (lt, _), ndim in zip(calls, (None, 1, 2)) if lt < lam_t]
    assert routes == list(squared)


@settings(max_examples=60, deadline=None)
@given(stiff_graphs(), st.floats(0.0, 10.0))
def test_buffered_series_matches_allocating_series_on_stiff_graphs(g, t):
    _assert_buffered_is_allocating(g, t)


@pytest.mark.parametrize("shape", [(256,), (256, 20)])
def test_evolve_leaves_its_initial_function_unchanged(shape):
    g = generate("grid", rows=16, cols=16, measure_mode="degree")
    u0 = np.linspace(1.0, 2.0, math.prod(shape)).reshape(shape)
    before = u0.tobytes()
    for t in (0.0, 1.0, 10.0):
        evolve(g, u0, t)
        assert u0.tobytes() == before
