"""Finite weighted graphs with a positive vertex measure.

Provides the graph container with its edge record, the derived sup/inf
constants, hop-count distances and ball volumes, standard graph generators,
and the JSON file format used by the command-line tools.
"""

from __future__ import annotations

import json
import math
import random
from functools import cached_property
from typing import NamedTuple

import numpy as np

MEASURE_MODES = ("unit", "degree", "explicit")

FAMILIES = ("path", "cycle", "grid", "complete", "star", "random")


class GraphFormatError(ValueError):
    """A graph construction or file violates an invariant (weights, measure,
    self-loops, duplicate edges, symmetry)."""


class UnreachableError(ValueError):
    """A distance was requested between vertices in different components."""


class GraphConstants(NamedTuple):
    """Global sup/inf quantities of a weighted graph with measure.

    d_mu    = max_x deg(x)/mu(x)
    mu_max  = max_x mu(x)
    w_min   = min over adjacent pairs of w_xy
    d       = max over adjacent pairs of mu(x)/w_xy
    """

    d_mu: float
    mu_max: float
    w_min: float
    d: float


class WeightedGraph:
    """A finite graph with positive edge weights and a positive vertex measure.

    Vertices are opaque string ids, in the read-only object array ids, mapped
    by the dict index to contiguous integer indices in insertion order. A
    method that takes a vertex takes its id, as str(key) like the ids.
    The edge record edges = (rows, cols, w, ptr) lists each adjacent pair
    (i, j) and w_ij row-major, row i at ptr[i]:ptr[i + 1]. The graph is
    immutable: the record and what is derived from it (degrees, the rates
    deg(x)/mu(x), constants, hops) are built once, read-only.
    """

    def __init__(self, vertex_ids, edges, mu=None, weights_symmetric=True,
                 measure_mode="explicit"):
        """Build a graph.

        Parameters
        ----------
        vertex_ids : iterable of str
            Vertex identifiers, order defines internal indices.
        edges : iterable of (u, v, w)
            If weights_symmetric, each undirected edge is listed once and
            expanded; otherwise each entry sets the weight in direction u->v.
        mu : array-like, dict, or None
            Vertex measure (a dict with one key per vertex, str(key) its id). Required for
            measure_mode="explicit"; ignored otherwise (unit: 1, degree: deg).
        """
        self.ids = np.array([str(v) for v in vertex_ids], dtype=object)
        self.ids.setflags(write=False)
        if len(set(self.ids)) != len(self.ids):
            raise GraphFormatError("duplicate vertex ids")
        self.index = {v: i for i, v in enumerate(self.ids)}
        n = len(self.ids)
        self.n = n
        self.weights_symmetric = bool(weights_symmetric)
        if measure_mode not in MEASURE_MODES:
            raise GraphFormatError(f"unknown measure_mode {measure_mode!r}")
        self.measure_mode = measure_mode

        weights = {}  # (i, j) -> w_ij, both directions of a symmetric edge
        for u, v, w in edges:
            i, j = self._resolve(u), self._resolve(v)
            if i == j:
                raise GraphFormatError(f"self-loop at vertex {u!r}")
            w = float(w)
            if not 0 < w < math.inf:
                raise GraphFormatError(
                    f"weight {w} on edge ({u},{v}) is not positive and finite")
            if (i, j) in weights:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            weights[i, j] = w
            if self.weights_symmetric:
                weights[j, i] = w
        rows, cols = np.array(sorted(weights), dtype=np.intp).reshape(-1, 2).T.copy()
        w = np.array([weights[p] for p in zip(rows.tolist(), cols.tolist())])
        self.edges = (rows, cols, w, np.searchsorted(rows, np.arange(n + 1)))
        # float even without edges; an infinite degree is rejected below
        self.degrees = np.bincount(rows, weights=w, minlength=n).astype(float, copy=False)

        if measure_mode == "unit":
            mu_arr = np.ones(n)
        elif measure_mode == "degree":
            if np.any(self.degrees <= 0):
                raise GraphFormatError("measure_mode='degree' requires no isolated vertices")
            mu_arr = self.degrees.copy()
        else:
            if mu is None:
                raise GraphFormatError("explicit measure_mode requires mu")
            if isinstance(mu, dict):
                mu_arr = _by_id(self, mu, "mu")
            else:
                mu_arr = np.array(mu, dtype=float)  # a copy: the caller's array stays writable
                if mu_arr.shape != (n,):
                    raise GraphFormatError("mu must have one value per vertex")
        if not np.all((0 < mu_arr) & (mu_arr < np.inf)):
            raise GraphFormatError("vertex measure must be positive and finite")
        self.mu = mu_arr
        with np.errstate(over="ignore"):  # max is D_mu and the series' lam; the walk's rates
            self.rates = self.degrees / mu_arr
        if not np.all(np.isfinite(self.rates)):
            raise GraphFormatError("a rate deg(x)/mu(x) overflows to inf")
        for a in (*self.edges, self.degrees, self.mu, self.rates):
            a.setflags(write=False)

    # -- basic queries ----------------------------------------------------

    def _resolve(self, x) -> int:
        try:
            return self.index[str(x)]
        except KeyError:
            raise GraphFormatError(f"unknown vertex id {x!r}") from None

    def degree(self, x) -> float:
        """Sum of weights of edges leaving x; 0 if x is isolated."""
        return float(self.degrees[self._resolve(x)])

    @property
    def num_edges(self) -> int:
        """Number of adjacent ordered pairs, halved when symmetric."""
        return len(self.edges[0]) // (2 if self.weights_symmetric else 1)

    def constants(self) -> GraphConstants:
        """Exact max/min constants over the finite vertex and edge sets."""
        return self._constants

    @cached_property
    def _constants(self) -> GraphConstants:
        rows, _, w, _ = self.edges
        if not rows.size:
            raise GraphFormatError("constants undefined on an edgeless graph")
        return GraphConstants(
            d_mu=float(np.max(self.rates)),
            mu_max=float(np.max(self.mu)),
            w_min=float(np.min(w)),
            d=float(np.max(self.mu[rows] / w)),
        )

    # -- metric structure --------------------------------------------------

    @cached_property
    def _hops(self) -> np.ndarray:
        # all-pairs hop counts in hop_type(n), read-only, the type's max marking an
        # unreachable pair. Breadth-first search to all targets at once: each vertex has
        # a bitset of the targets it reaches (uint64 words, bit t in byte t // 8), and a
        # level ORs the frontier's bitsets over each vertex's out-edges, in record order
        n, (_, cols, _, ptr) = self.n, self.edges
        sources = np.flatnonzero(np.diff(ptr))  # the vertices with out-edges
        starts = ptr[sources]
        frontier = np.zeros((n, -(-n // 64)), np.uint64)
        frontier.view(np.uint8)[np.arange(n), np.arange(n) // 8] = 1 << np.arange(n) % 8
        kind = hop_type(n)
        reached, H = frontier.copy(), np.full((n, n), np.iinfo(kind).max, kind)
        np.fill_diagonal(H, 0)
        for hops in range(1, n if len(cols) else 1):
            new = np.bitwise_or.reduceat(frontier[cols], starts) & ~reached[sources]
            if not new.any():
                break
            frontier[:] = 0
            frontier[sources] = new
            reached[sources] |= new
            for b in range(0, len(sources), step := max(1, (1 << 20) // n)):  # ~1 MiB of bools
                at, target = np.divmod(np.flatnonzero(np.unpackbits(new[b:b + step].view(
                    np.uint8), axis=1, count=n, bitorder="little").view(bool)), n)
                H[sources[b + at], target] = hops
        H.setflags(write=False)
        return H

    @cached_property
    def _jumps(self) -> np.ndarray:
        # the walk's jump key of each record pair (i, j): 2i + the jump probability summed
        # from 0 in row i (bit for bit the dense row's cumsum), exactly 2i + 1 at a row's
        # end: 2i + u (0 <= u < 1) finds row i, (2i - 1, 2i) absorbs rounding
        rows, _, w, ptr = self.edges
        cum = np.concatenate([np.cumsum(r) for r in np.split(w, ptr[1:-1])])
        keys = 2 * rows + cum / self.degrees[rows]
        last = np.diff(rows, append=self.n) > 0
        keys[last] = 2 * rows[last] + 1.0
        keys.setflags(write=False)
        return keys

    @cached_property
    def _guide(self) -> np.ndarray:
        # row i's k records split the walk's uniforms u into k buckets floor(u k);
        # entry ptr[i] + b is the first record whose jump key exceeds 2i + u for the
        # least u of bucket b on the 2**-32 grid, so no u of bucket b jumps to an
        # earlier record (exact for rows of under 2**21 records)
        rows, _, _, ptr = self.edges
        k = np.diff(ptr)[rows]
        least = -(-((np.arange(rows.size) - ptr[rows]) << 32) // k) * 2.0**-32
        guide = np.searchsorted(self._jumps, 2 * rows + least, side="right")
        guide.setflags(write=False)
        return guide

    def dist(self, x, y) -> int:
        """Hop-count distance (minimum number of edges on a path x -> y)."""
        d = self._hops[self._resolve(x), self._resolve(y)]
        if not reachable(d):
            raise UnreachableError(f"no path from {x!r} to {y!r}")
        return int(d)

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distances as float64, read-only; unreachable pairs are
        +inf. A copy of the compact hop counts, made on the first call."""
        return self._distances

    @cached_property
    def _distances(self) -> np.ndarray:
        D = self._hops.astype(float)
        D[~reachable(self._hops)] = np.inf
        D.setflags(write=False)
        return D

    def ball_volume(self, x, r: float) -> float:
        """mu-measure of the closed hop-distance ball {z : dist(x, z) <= r}."""
        if not r >= 0:
            raise ValueError(f"radius must be nonnegative, got {r!r}")
        # a reached z is at most n - 1 hops away, below the unreachable mark
        within = self._hops[self._resolve(x)] <= math.floor(min(r, self.n - 1))
        return float(self.mu[within].sum())


def hop_type(n: int) -> type:
    """uint16 for the hop counts of up to 65535 vertices (at most 65534 hops
    apart), else uint32; the type's max marks an unreachable pair."""
    return np.uint16 if n <= 0xFFFF else np.uint32


def reachable(hops: np.ndarray) -> np.ndarray:
    """Where compact hop counts join a pair: below their type's max."""
    return hops != np.iinfo(hops.dtype).max


# -- vertex functions ------------------------------------------------------

def _by_id(g: WeightedGraph, values: dict, what: str) -> np.ndarray:
    """The (n,) array of values, a dict with one key per vertex, str(key) its id."""
    by_id = {str(k): v for k, v in values.items()}
    if missing := [v for v in g.ids if v not in by_id]:
        raise GraphFormatError(f"{what} missing values for vertices {missing}")
    if extra := [k for k in values if str(k) not in g.index]:
        raise GraphFormatError(f"{what} has unknown vertices {extra}")
    if len(by_id) != len(values):
        raise GraphFormatError(f"{what} has two keys for one vertex")
    return np.array([float(by_id[v]) for v in g.ids])


def as_vertex_function(g: WeightedGraph, f) -> np.ndarray:
    """Coerce f (array-like or id->value dict) to an (n,) array, or an (n, m) batch."""
    if isinstance(f, dict):
        return _by_id(g, f, "function")
    arr = np.asarray(f, dtype=float)
    if arr.ndim not in (1, 2) or len(arr) != g.n:
        raise GraphFormatError(
            f"function domain mismatch: expected {g.n} values or rows, got shape {arr.shape}")
    return arr


# -- file format -------------------------------------------------------------

def graph_to_dict(g: WeightedGraph) -> dict:
    verts = []
    for i, v in enumerate(g.ids):
        entry = {"id": v}
        if g.measure_mode == "explicit":
            entry["mu"] = g.mu[i]
        verts.append(entry)
    edges = [{"u": g.ids[i], "v": g.ids[j], "w": w}
             for i, j, w in zip(*(a.tolist() for a in g.edges[:3]))
             if j > i or not g.weights_symmetric]
    return {
        "weights_symmetric": g.weights_symmetric,
        "measure_mode": g.measure_mode,
        "vertices": verts,
        "edges": edges,
    }


def _json(value, kind: str, what: str):
    """value if it is a JSON `kind`: "string", or "number" (not true or false)."""
    if isinstance(value, bool) or not isinstance(value, str if kind == "string" else (int, float)):
        raise GraphFormatError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


def graph_from_dict(obj: dict) -> WeightedGraph:
    """Build a graph from the file schema; every defect raises
    GraphFormatError."""
    try:
        mode, symmetric = obj["measure_mode"], obj["weights_symmetric"]
        if not isinstance(symmetric, bool):
            raise GraphFormatError(f"weights_symmetric must be true or false, got {symmetric!r}")
        ids, mu = [], {}
        for entry in obj["vertices"]:
            ids.append(_json(entry["id"], "string", "vertex id"))
            if "mu" in entry:
                if mode != "explicit":
                    raise GraphFormatError(
                        "mu entries are only allowed with measure_mode='explicit'")
                mu[entry["id"]] = _json(entry["mu"], "number", "mu")
        edge_list = [(_json(e["u"], "string", "edge end"), _json(e["v"], "string", "edge end"),
                      _json(e["w"], "number", "weight")) for e in obj["edges"]]
        return WeightedGraph(ids, edge_list,
                             mu=mu if mode == "explicit" else None,
                             weights_symmetric=symmetric,
                             measure_mode=mode)
    except GraphFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"malformed graph object: {exc!r}") from exc


def load_graph(path) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad, too deep or badly encoded JSON
            raise GraphFormatError(f"invalid JSON in {path}: {exc}") from exc
    return graph_from_dict(obj)


def save_graph(path, g: WeightedGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=1)
        fh.write("\n")


# -- generators ---------------------------------------------------------------

def uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The next 32 k bits of rng as k doubles on the 2**-32 grid in [0, 1)."""
    bits = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
    return np.frombuffer(bits, dtype="<u4") * 2.0**-32


def _grid_edges(rows: int, cols: int):
    def vid(r, c):
        return f"v{r * cols + c}"
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                yield (vid(r, c), vid(r, c + 1), 1.0)
            if r + 1 < rows:
                yield (vid(r, c), vid(r + 1, c), 1.0)


def generate(family: str, *, n=None, rows=None, cols=None, p=None,
             w_lo=1.0, w_hi=1.0, measure_mode="unit", mu=None,
             seed=None) -> WeightedGraph:
    """Build a graph from a standard family; deterministic for a fixed seed.

    Families: path, cycle, grid (rows x cols), complete, star (n = number of
    leaves + 1), random (Erdos-Renyi with edge probability p and weights
    uniform in [w_lo, w_hi]).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1:
            raise ValueError("grid requires rows >= 1 and cols >= 1")
        ids = [f"v{i}" for i in range(rows * cols)]
        edges = list(_grid_edges(rows, cols))
    else:
        if n is None or n < 1:
            raise ValueError("family requires n >= 1")
        ids = [f"v{i}" for i in range(n)]
        if family == "path":
            edges = [(f"v{i}", f"v{i+1}", 1.0) for i in range(n - 1)]
        elif family == "cycle":
            if n < 3:
                raise ValueError("cycle requires n >= 3")
            edges = [(f"v{i}", f"v{(i+1) % n}", 1.0) for i in range(n)]
        elif family == "complete":
            edges = [(f"v{i}", f"v{j}", 1.0)
                     for i in range(n) for j in range(i + 1, n)]
        elif family == "star":
            if n < 2:
                raise ValueError("star requires n >= 2")
            edges = [("v0", f"v{i}", 1.0) for i in range(1, n)]
        else:  # random
            if p is None or not 0 < p <= 1:
                raise ValueError("random family requires edge probability p in (0,1]")
            if not 0 < w_lo <= w_hi:
                raise ValueError("weight range must satisfy 0 < w_lo <= w_hi")
            rng = random.Random(seed)
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        edges.append((f"v{i}", f"v{j}", rng.uniform(w_lo, w_hi)))
    return WeightedGraph(ids, edges, mu=mu, weights_symmetric=True,
                         measure_mode=measure_mode)
