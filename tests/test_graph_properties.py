"""Property tests for the metric core and the graph file format, on small
random graphs: disconnected, asymmetric and edgeless ones included."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components, shortest_path

from conftest import dense_weights
from graphheat import (GraphFormatError, UnreachableError, WeightedGraph,
                       graph_from_dict, graph_to_dict)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    symmetric = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(n)
             if (i < j if symmetric else i != j)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(f"v{i}", f"v{j}", draw(st.floats(0.1, 10.0))) for i, j in chosen]
    mu = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    return WeightedGraph([f"v{i}" for i in range(n)], edges, mu=mu,
                         weights_symmetric=symmetric,
                         measure_mode=draw(st.sampled_from(["unit", "explicit"])))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_hop_distances(g):
    D = g.distance_matrix()
    assert g.distance_matrix() is D
    W = dense_weights(g)
    assert np.array_equal(D, shortest_path(W, unweighted=True))
    assert np.all(np.diag(D) == 0)
    assert np.array_equal(D == 1, W > 0)
    # D[x, z] <= D[x, y] + D[y, z] for all x, y, z
    assert np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :])
    if g.weights_symmetric:
        assert np.array_equal(D, D.T)
        _, label = connected_components(W, directed=False)
        assert np.array_equal(np.isinf(D), label[:, None] != label[None, :])
    for x in range(g.n):
        for y in range(g.n):
            if np.isinf(D[x, y]):
                with pytest.raises(UnreachableError):
                    g.dist(g.ids[x], g.ids[y])
            else:
                assert g.dist(g.ids[x], g.ids[y]) == D[x, y]
        for r in (0, 0.5, 1, 2.5, g.n):
            assert g.ball_volume(g.ids[x], r) == g.mu[D[x] <= r].sum()


def _unit_graph(n, arcs, symmetric):
    # a unit-weight graph on v0..v{n-1} and its arcs (i, j), both ways if symmetric
    if symmetric:
        arcs = {(min(i, j), max(i, j)) for i, j in arcs}
    g = WeightedGraph([f"v{i}" for i in range(n)],
                      [(f"v{i}", f"v{j}", 1.0) for i, j in sorted(arcs)],
                      weights_symmetric=symmetric, measure_mode="unit")
    return g, arcs | {(j, i) for i, j in arcs} if symmetric else arcs


@st.composite
def sparse_graphs(draw):
    """Graphs of up to 150 vertices, so that the sources span several 64-bit
    words: directed or not, random arcs and runs of path arcs, often
    disconnected."""
    n = draw(st.integers(1, 150))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex) | vertex.map(lambda i: (i, i + 1)),
                         max_size=2 * n))
    return _unit_graph(n, {(i, j) for i, j in arcs if i != j and j < n}, draw(st.booleans()))


def _plain_hops(n, arcs):
    # one breadth-first search per source
    nbrs = [[] for _ in range(n)]
    for i, j in arcs:
        nbrs[i].append(j)
    D = np.full((n, n), np.inf)
    for s in range(n):
        D[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if D[s, v] == np.inf:
                        D[s, v] = D[s, u] + 1
                        nxt.append(v)
            frontier = nxt
    return D


@settings(max_examples=100, deadline=None)
@given(sparse_graphs())
@example(_unit_graph(130, {(i, i + 1) for i in range(129)}, False))  # a one-way path
@example(_unit_graph(130, {(i, i + 1) for i in range(129) if i != 64}, True))
def test_hop_distances_match_a_plain_bfs(case):
    g, arcs = case
    assert np.array_equal(g.distance_matrix(), _plain_hops(g.n, arcs))


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_derived_data_is_read_only(g):
    with pytest.raises(ValueError):
        g.distance_matrix()[0, 0] = 1.0
    rows, cols, w, ptr = g.edges
    for a in (*g.edges, g.degrees, g.mu, g.rates):
        with pytest.raises(ValueError):
            a[:1] = 0
    assert g.rates.tobytes() == (g.degrees / g.mu).tobytes()
    assert np.all(np.diff(rows * g.n + cols) > 0)  # row-major, no repeats
    assert np.array_equal(ptr, np.searchsorted(rows, np.arange(g.n + 1)))
    assert np.all(w > 0)
    if g.num_edges:
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.constants().d_mu = 0.0


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_file_round_trip(g):
    h = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
    assert h.ids.tolist() == g.ids.tolist() and h.weights_symmetric == g.weights_symmetric
    assert all(np.array_equal(a, b) for a, b in zip(h.edges, g.edges))
    assert np.array_equal(h.mu, g.mu)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([("weights_symmetric",), ("measure_mode",),
                        ("vertices",), ("vertices", 0), ("vertices", 0, "id"),
                        ("vertices", 1, "mu"), ("edges",), ("edges", 0),
                        ("edges", 0, "u"), ("edges", 0, "w")]),
       JSON_VALUES)
@example(("edges", 0, "w"), 10**400)  # an int too large for a float
def test_parser_raises_only_graph_format_error(path, value):
    obj = {"weights_symmetric": True, "measure_mode": "explicit",
           "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 2.0}],
           "edges": [{"u": "a", "v": "b", "w": 1.0}]}
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        graph_from_dict(obj)
    except GraphFormatError:
        pass
