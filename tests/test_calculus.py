import numpy as np
import pytest

from conftest import k2, log_uniform, path3, random_graph
from graphheat import (WeightedGraph, evolve, gamma, gradient_estimate, laplacian,
                       sqrt_identity_residual)
from graphheat.graph import GraphFormatError


def test_laplacian_constant_is_zero():
    g = path3()
    assert np.all(laplacian(g, [3.0, 3.0, 3.0]) == 0.0)
    batch = laplacian(g, np.full((3, 4), [3.0, -0.1, 0.0, 1e300]))
    assert batch.shape == (3, 4) and np.all(batch == 0.0)


def test_laplacian_k2():
    lf = laplacian(k2(), [0.0, 1.0])
    assert lf[0] == 1.0 and lf[1] == -1.0


def test_laplacian_path_center():
    assert laplacian(path3(), [0.0, 1.0, 0.0])[1] == -2.0


def test_laplacian_domain_mismatch():
    with pytest.raises(GraphFormatError):
        laplacian(path3(), [1.0, 2.0])
    # a function given as an id -> value dict must name each vertex, and no other
    assert np.array_equal(laplacian(path3(), {"c": 3.0, "a": 1.0, "b": 2.0}),
                          laplacian(path3(), [1.0, 2.0, 3.0]))
    with pytest.raises(GraphFormatError, match="missing values"):
        laplacian(path3(), {"a": 1.0, "b": 2.0})
    with pytest.raises(GraphFormatError, match="unknown vertices"):
        laplacian(path3(), {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
    # str(key) names the vertex, as it does in the constructor
    g = WeightedGraph([0, 1], [(0, 1, 1.0)], mu={0: 1.0, 1: 2.0})
    assert np.array_equal(evolve(g, {1: 2.0, 0: 1.0}, 1.0), evolve(g, [1.0, 2.0], 1.0))
    with pytest.raises(GraphFormatError, match="two keys for one vertex"):
        laplacian(g, {0: 1.0, "0": 1.0, 1: 2.0})


@pytest.mark.parametrize("shape", [(4, 2), (2, 2), (3, 2, 2)])
@pytest.mark.parametrize("call", [laplacian, gamma, gradient_estimate,
                                  lambda g, f: evolve(g, f, 1.0)],
                         ids=["laplacian", "gamma", "gradient_estimate", "evolve"])
def test_batch_domain_mismatch(call, shape):
    # path3 has 3 vertices: one row too many, one too few, and a 3-d array
    with pytest.raises(GraphFormatError, match="function domain mismatch"):
        call(path3(), np.ones(shape))


def test_laplacian_zero_at_isolated_vertex():
    g = WeightedGraph(["a", "b", "c"], [("a", "b", 1.0)], measure_mode="unit")
    assert laplacian(g, [5.0, -2.0, 7.0])[2] == 0.0
    F = np.array([[5.0, 1.0], [-2.0, 4.0], [7.0, 9.0]])
    assert np.all(laplacian(g, F)[2] == 0.0) and np.all(gamma(g, F)[2] == 0.0)


def test_asymmetric_graph_keeps_edge_direction():
    # the one edge a -> b: a sees b, b sees no vertex
    g = WeightedGraph(["a", "b"], [("a", "b", 2.0)], mu=[1.0, 4.0],
                      weights_symmetric=False)
    F = np.array([[0.0, 1.0], [3.0, -1.0]])
    assert np.array_equal(laplacian(g, F), [[6.0, -4.0], [0.0, 0.0]])
    assert np.array_equal(gamma(g, F), [[9.0, 4.0], [0.0, 0.0]])
    assert np.array_equal(laplacian(g, F[:, 0]), [6.0, 0.0])


def test_gamma_constant_first_argument():
    g = path3()
    rng = np.random.default_rng(0)
    h = rng.normal(size=3)
    assert np.all(gamma(g, np.ones(3), h) == 0.0)
    H = rng.normal(size=(3, 2))
    assert np.all(gamma(g, np.full((3, 2), [1.0, -7.0]), H) == 0.0)
    assert np.all(gamma(g, H, np.full((3, 2), 2.0)) == 0.0)


def test_gamma_k2_quadratic():
    assert gamma(k2(), [0.0, 1.0])[0] == 0.5


def test_gamma_bilinear_symmetric():
    rng = np.random.default_rng(5)
    g = random_graph(rng)
    f = rng.normal(size=g.n)
    h = rng.normal(size=g.n)
    np.testing.assert_allclose(gamma(g, 2 * f, h), 2 * gamma(g, f, h),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gamma(g, f, h), gamma(g, h, f),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(gamma(g, f + h, f + h),
                               gamma(g, f) + 2 * gamma(g, f, h) + gamma(g, h),
                               rtol=1e-10, atol=1e-12)


def test_gamma_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_graph(rng)
        f = rng.normal(size=g.n)
        assert np.all(gamma(g, f) >= 0.0)


def test_integration_by_parts_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng)
        f = rng.normal(size=g.n)
        total = float(np.sum(g.mu * laplacian(g, f)))
        assert abs(total) <= 1e-10 * max(1.0, np.abs(f).max() * g.n)


def test_product_rule_cross_check():
    # 2*Gamma(f,h) = L(fh) - f Lh - h Lf on symmetric-weight graphs
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_graph(rng)
        f = rng.normal(size=g.n)
        h = rng.normal(size=g.n)
        lhs = 2 * gamma(g, f, h)
        rhs = laplacian(g, f * h) - f * laplacian(g, h) - h * laplacian(g, f)
        np.testing.assert_allclose(lhs, rhs, rtol=0,
                                   atol=1e-11 * max(1.0, np.abs(rhs).max()))
        # a batch equals its columns taken one at a time, bit for bit
        F = np.column_stack([f, h, f * h])
        assert np.array_equal(laplacian(g, F),
                              np.column_stack([laplacian(g, c) for c in F.T]))
        assert np.array_equal(gamma(g, F, F[:, ::-1]), np.column_stack(
            [gamma(g, a, b) for a, b in zip(F.T, F.T[::-1])]))
        assert np.array_equal(gamma(g, F), np.column_stack([gamma(g, c) for c in F.T]))


def test_sqrt_identity_constant_exact():
    g = path3()
    assert np.all(sqrt_identity_residual(g, [4.0, 4.0, 4.0]) == 0.0)


def test_sqrt_identity_k2_pieces():
    g = k2()
    u = np.array([4.0, 1.0])
    s = np.sqrt(u)
    assert 2 * gamma(g, s)[0] == 1.0
    assert laplacian(g, u)[0] == -3.0
    assert (2 * s * laplacian(g, s))[0] == -4.0
    assert sqrt_identity_residual(g, u)[0] == 0.0


def test_sqrt_identity_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = random_graph(rng)
        u = log_uniform(rng, g.n)
        res = sqrt_identity_residual(g, u)
        scale = max(1.0, np.abs(laplacian(g, u)).max())
        assert np.abs(res).max() <= 1e-12 * scale


def test_sqrt_identity_rejects_nonpositive():
    with pytest.raises(ValueError):
        sqrt_identity_residual(k2(), [1.0, 0.0])
