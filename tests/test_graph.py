import json
import math

import numpy as np
import pytest

from conftest import k2, path3, random_graph
from graphheat import (GraphFormatError, UnreachableError, WeightedGraph,
                       generate, graph_from_dict, graph_to_dict, load_graph,
                       save_graph)


def test_degree_single_edge():
    assert k2().degree("a") == 1.0


def test_degree_isolated_vertex():
    g = WeightedGraph(["a", "b", "c"], [("a", "b", 1.0)], measure_mode="unit")
    assert g.degree("c") == 0.0


def test_degree_path_center():
    assert path3().degree("b") == 2.0


def test_degree_unknown_vertex():
    with pytest.raises(GraphFormatError):
        k2().degree("zzz")


def test_constants_k2_unit():
    c = k2().constants()
    assert (c.d_mu, c.mu_max, c.w_min, c.d) == (1, 1, 1, 1)


def test_constants_path3():
    c = path3().constants()
    assert (c.d_mu, c.mu_max, c.w_min, c.d) == (2, 1, 1, 1)


def test_constants_k2_uneven_measure():
    c = k2(mu=(2.0, 1.0)).constants()
    assert (c.d_mu, c.mu_max, c.w_min, c.d) == (1, 2, 1, 2)


def test_constants_edgeless_graph_rejected():
    g = WeightedGraph(["a", "b"], [], measure_mode="unit")
    with pytest.raises(GraphFormatError):
        g.constants()


def test_constants_invariant_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = random_graph(rng).constants()
        assert c.d <= c.mu_max / c.w_min * (1 + 1e-15)
        assert min(c.d_mu, c.mu_max, c.w_min, c.d) > 0


def test_degree_measure_forces_d_mu_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_graph(rng, measure_mode="degree", p=0.6, connected=True)
        assert g.constants().d_mu == pytest.approx(1.0, abs=0)


def test_dist_identity():
    assert path3().dist("a", "a") == 0


def test_dist_path():
    assert path3().dist("a", "c") == 2


def test_dist_unreachable():
    g = WeightedGraph(["a", "b", "c", "d"],
                      [("a", "b", 1.0), ("c", "d", 1.0)], measure_mode="unit")
    with pytest.raises(UnreachableError):
        g.dist("a", "c")


def test_dist_is_metric_on_component():
    rng = np.random.default_rng(7)
    g = random_graph(rng, n_min=10, n_max=25, p=0.25, connected=True)
    D = g.distance_matrix()
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0)
    # triangle inequality, exhaustive
    assert np.all(D[:, :, None] <= D[:, None, :] + D[None, :, :] + 1e-9)
    off = D[~np.eye(g.n, dtype=bool)]
    assert np.all(off >= 1)


def test_ball_volume_radius_zero():
    g = k2(mu=(2.0, 1.0))
    assert g.ball_volume("a", 0) == 2.0


def test_ball_volume_path_and_floor_semantics():
    g = path3()
    assert g.ball_volume("a", 1) == 2.0
    assert g.ball_volume("a", 1.9) == 2.0
    assert g.ball_volume("a", 2) == 3.0


def test_ball_volume_monotone_and_saturates():
    rng = np.random.default_rng(3)
    g = random_graph(rng, connected=True)
    vols = [g.ball_volume("v0", r) for r in range(g.n + 1)]
    assert all(a <= b for a, b in zip(vols, vols[1:]))
    assert vols[-1] == pytest.approx(g.mu.sum())


def test_generate_path_n2_is_k2():
    g = generate("path", n=2)
    assert g.n == 2 and g.num_edges == 1
    assert np.all(g.mu == 1.0)


def test_generate_k3_degree_measure():
    g = generate("complete", n=3, measure_mode="degree")
    assert np.all(g.mu == 2.0)


def test_generate_random_deterministic():
    g1 = generate("random", n=20, p=0.3, seed=42)
    g2 = generate("random", n=20, p=0.3, seed=42)
    assert all(np.array_equal(a, b) for a, b in zip(g1.edges, g2.edges))


def test_generate_grid_edge_count():
    g = generate("grid", rows=5, cols=5, measure_mode="degree")
    assert g.n == 25 and g.num_edges == 40


def test_generate_star_and_cycle():
    star = generate("star", n=4)
    assert star.degree("v0") == 3.0
    cyc = generate("cycle", n=5)
    assert all(cyc.degree(v) == 2.0 for v in cyc.ids)


def test_generate_invalid_params():
    with pytest.raises(ValueError):
        generate("random", n=5, p=0.0, seed=1)
    with pytest.raises(ValueError):
        generate("cycle", n=2)
    with pytest.raises(ValueError):
        generate("nonsense", n=3)


def test_construction_invariants():
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a", "b"], [("a", "b", -1.0)], measure_mode="unit")
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a"], [("a", "a", 1.0)], measure_mode="unit")
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)],
                      measure_mode="unit")
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a", "b"], [("a", "b", 1.0)], mu={"a": 0.0, "b": 1.0})
    for ids, edges, kwargs, match in [
        (["a", "a"], [], dict(measure_mode="unit"), "duplicate vertex ids"),
        (["a", "b"], [("a", "b", 1.0)], dict(measure_mode="lazy"), "unknown measure_mode"),
        (["a", "b"], [("a", "b", 1.0)], dict(), "requires mu"),
        (["a", "b"], [("a", "b", 1.0)], dict(mu={"a": 1.0}), "mu missing"),
        (["a", "b"], [("a", "b", 1.0)], dict(mu={"a": 1, "b": 2, "c": 5}), "unknown vertices"),
        (["a", "b"], [("a", "b", 1.0)], dict(mu=[1.0, 1.0, 1.0]), "one value per vertex"),
        (["a", "b"], [(0, 2, 1.0)], dict(measure_mode="unit"), "unknown vertex id"),
    ]:
        with pytest.raises(GraphFormatError, match=match):
            WeightedGraph(ids, edges, **kwargs)


@pytest.mark.parametrize("edges, mu", [
    ([("a", "b", math.nan)], None),
    ([("a", "b", math.inf)], None),
    ([("a", "b", 1.0)], {"a": math.nan, "b": 1.0}),
    ([("a", "b", 1.0)], {"a": 1e-310, "b": 1.0}),  # deg/mu = inf hung the series
], ids=["nan-weight", "inf-weight", "nan-measure", "overflowing-rate"])
def test_non_finite_input_rejected(edges, mu):
    with pytest.raises(GraphFormatError):
        WeightedGraph(["a", "b"], edges, mu=mu,
                      measure_mode="unit" if mu is None else "explicit")


def test_non_string_keys_name_vertices_by_id():
    # str(key) names a vertex, as the constructor applies str() to ids: edge (2, 0)
    # joins ids '2' and '0', not the vertex at index 0
    g = WeightedGraph([2, 0, 1], [(2, 0, 1.0)], measure_mode="unit")
    assert g.degree("0") == 1.0 == g.degree(0)
    assert g.degree("1") == 0.0 == g.degree(1)
    assert g.dist(2, "0") == 1


def test_measure_array_is_copied():
    # the caller's array stays writable, and writing to it leaves mu and the rates alone
    mu = np.array([1.0, 2.0])
    g = WeightedGraph(["a", "b"], [("a", "b", 1.0)], mu=mu)
    mu[0] = 4.0
    assert g.mu.tolist() == [1.0, 2.0] and g.rates.tolist() == [1.0, 0.5]


def test_asymmetric_weights_allowed():
    g = WeightedGraph(["a", "b"], [("a", "b", 1.0), ("b", "a", 2.0)],
                      weights_symmetric=False, measure_mode="unit")
    assert g.degree("a") == 1.0 and g.degree("b") == 2.0


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    g = random_graph(rng)
    path = tmp_path / "g.json"
    save_graph(path, g)
    h = load_graph(path)
    assert h.ids.tolist() == g.ids.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(h.edges, g.edges))
    assert np.array_equal(h.mu, g.mu)
    assert h.measure_mode == g.measure_mode


def test_json_explicit_measure_round_trip(tmp_path):
    g = k2(mu=(2.5, 0.5))
    path = tmp_path / "g.json"
    save_graph(path, g)
    h = load_graph(path)
    assert np.array_equal(h.mu, [2.5, 0.5])


def test_json_rejects_mu_with_unit_mode():
    obj = {"weights_symmetric": True, "measure_mode": "unit",
           "vertices": [{"id": "a", "mu": 1.0}, {"id": "b"}],
           "edges": [{"u": "a", "v": "b", "w": 1.0}]}
    with pytest.raises(GraphFormatError):
        graph_from_dict(obj)


def test_json_rejects_negative_weight():
    obj = {"weights_symmetric": True, "measure_mode": "unit",
           "vertices": [{"id": "a"}, {"id": "b"}],
           "edges": [{"u": "a", "v": "b", "w": -1.0}]}
    with pytest.raises(GraphFormatError):
        graph_from_dict(obj)


def test_symmetric_edges_listed_once(tmp_path):
    g = path3()
    d = graph_to_dict(g)
    assert len(d["edges"]) == 2
