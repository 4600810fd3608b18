"""Computable forms of the global gradient estimate, the Harnack inequality,
and the heat-kernel and volume-growth bounds, each with a verifier returning
one Reports row per site.

The verifiers of a vertex function also take an (n, m) batch, one function
per column as evolve takes it, and return its rows function by function;
Harnack and heat gradient make them in blocks of whole functions.

Everything here is an inequality that holds exactly in real arithmetic, so a
failure beyond the floating-point tolerance budget indicates a bug, not a
counterexample.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .calculus import gamma, laplacian, require_positive
from .graph import (GraphConstants, GraphFormatError, WeightedGraph, generate, reachable,
                    uniforms)
from .reports import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, concat, site_reports
from .semigroup import check_time, evolve, heat_kernel

HEAT_SERIES_TOL = 1e-16  # truncation below rounding, so below the FD noise floor
FD_STEP = 3e-6  # near eps**(1/3): balances O(h^2) truncation and O(eps/h) rounding
FD_REL = 1e-6  # relative agreement asked of the centered difference
HARNACK_SERIES_TOL = 1e-12  # series truncation of the Harnack snapshots
HARNACK_MAX_PAIRS = 1000  # sampled pairs on graphs of more than 30 vertices
BLOCK_ROWS = 8192  # rows of a function block's record, unless one function has more


class HypothesisError(ValueError):
    """A verifier's structural hypothesis (mu = deg, symmetric weights) is
    violated by the supplied graph."""


def _require_symmetric(g: WeightedGraph, what: str) -> None:
    if not g.weights_symmetric:
        raise HypothesisError(f"{what} requires symmetric edge weights")


def _require_mu_deg(g: WeightedGraph, what: str, symmetric=True) -> None:
    if symmetric:
        _require_symmetric(g, what)
    if not np.allclose(g.mu, g.degrees, rtol=1e-12, atol=0.0):
        raise HypothesisError(f"{what} requires mu(x) = deg(x) for all x")


# -- gradient estimates ------------------------------------------------------

def _columns(u: np.ndarray):
    """The vertex functions of u: u itself, or each column of an (n, m) batch."""
    return u.T if u.ndim == 2 else u[None]


def _function_blocks(m, rows):
    """Ranges of consecutive functions of m with at most `rows` rows each: as
    many as fit BLOCK_ROWS rows, and at least one, in each."""
    step = max(1, BLOCK_ROWS // max(rows, 1))
    return [range(k, min(k + step, m)) for k in range(0, m, step)]


def _sites(*positions):
    """(rows, positions) object array of list sites; each time is one shared float."""
    return np.column_stack(np.broadcast_arrays(*(np.asarray(p, object) for p in positions)))


def _pair_sites(ids, t, sources=slice(None), mask=None):
    """(pairs, 3) object array of the sites [x, y, t] of the pairs from each id
    x of the sources range to every id y, or of the pairs where the
    (sources, n) mask holds, in row-major order; t is one shared object.
    Filled column by column, with no temporary of the pairs beyond the mask's
    selection of one column."""
    xs = ids[sources]
    if mask is None:
        sites = np.empty((len(xs), len(ids), 3), object)
        sites[:, :, 0], sites[:, :, 1], sites[:, :, 2] = xs[:, None], ids, t
        return sites.reshape(-1, 3)
    sites = np.empty((np.count_nonzero(mask), 3), object)
    for k, column in enumerate((xs[:, None], ids)):
        sites[:, k] = np.broadcast_to(column, mask.shape)[mask]
    sites[:, 2] = t
    return sites


def gradient_lhs(g: WeightedGraph, u) -> np.ndarray:
    """Gamma(sqrt u)(x)/u(x) - (Lu)(x)/(2 u(x)) per vertex.

    Scale-invariant: replacing u by c*u leaves the value unchanged.
    """
    u = require_positive(g, u)
    return gamma(g, np.sqrt(u)) / u - laplacian(g, u) / (2.0 * u)


def gradient_estimate(g: WeightedGraph, u):
    """Per-vertex check of the global gradient estimate against d_mu.

    Unconditional: passes for every positive u on every graph.
    """
    lhs = gradient_lhs(g, u)
    return site_reports("gradient_estimate", np.tile(g.ids, len(_columns(lhs))),
                        lhs.ravel("F"), g.constants().d_mu)


def heat_gradient_estimate(g: WeightedGraph, u0, times):
    """Gradient estimate along a heat-equation solution started at u0.

    The time derivative of sqrt(u) is evaluated by the exact substitution
    (Lu)/(2 sqrt u) (valid since d/dt u = Lu); each site also gets a
    cross-check report comparing it with a centered finite difference in t,
    to FD_REL relative accuracy with an absolute floor at the difference
    quotient's own rounding noise. Rows go function, then time, then check.
    """
    return concat(_heat_gradient_blocks(g, u0, times))


def _heat_gradient_blocks(g, u0, times):
    # heat_gradient_estimate's rows, one record per function block
    u0 = require_positive(g, u0)
    d_mu = g.constants().d_mu
    per_time = []  # sites, the estimate's lhs, then the FD check's sides if made
    for t in map(check_time, times):
        if t >= FD_STEP:
            # step t-h -> t -> t+h along one semigroup chain, so the series
            # rounding of the long evolution is common to all three states
            # and cancels in the difference quotient
            minus = evolve(g, u0, t - FD_STEP, tol=HEAT_SERIES_TOL)
            ut = evolve(g, minus, FD_STEP, tol=HEAT_SERIES_TOL)
            plus = evolve(g, ut, FD_STEP, tol=HEAT_SERIES_TOL)
        else:
            ut = evolve(g, u0, t, tol=HEAT_SERIES_TOL)
        st = np.sqrt(ut)
        dt_sqrt = laplacian(g, ut) / (2.0 * st)
        fd = ()
        if t >= FD_STEP:  # the floor is 1e-9 of the largest sqrt u of each function
            fd = (np.abs((np.sqrt(plus) - np.sqrt(minus)) / (2.0 * FD_STEP) - dt_sqrt),
                  FD_REL * np.abs(dt_sqrt) + 1e-9 * np.max(st, axis=0))
        per_time.append((_sites(g.ids, t), *map(_columns, (gamma(g, st) / ut - dt_sqrt / st, *fd))))

    def parts(k):
        for sites, lhs, *fd in per_time:
            yield site_reports("heat_gradient_estimate", sites, lhs[k], d_mu)
            if fd:
                yield site_reports("heat_gradient_fd", sites, fd[0][k], fd[1][k], 0.0, 0.0)
    rows = sum(len(sites) * (1 + bool(fd)) for sites, _, *fd in per_time)
    for functions in _function_blocks(len(_columns(u0)), rows):
        yield concat(p for k in functions for p in parts(k))


def prior_gradient_estimate(g: WeightedGraph, u):
    """Per-vertex check of sqrt(2 Gamma(u))/u <= sqrt(d) Lu/u + sqrt(d) d_mu
    + sqrt(d_mu).

    Each report records which of the two gradient estimates (this one or
    gradient_estimate) has the smaller relative slack at the vertex; the two
    are independent, so a broad sweep finds winners in both directions.
    """
    c = g.constants()
    u = require_positive(g, u)
    lhs, rhs, cur_lhs = (a.ravel("F") for a in (
        np.sqrt(2.0 * gamma(g, u)) / u, math.sqrt(c.d) * laplacian(g, u) / u,
        gradient_lhs(g, u)))
    rhs = rhs + math.sqrt(c.d) * c.d_mu + math.sqrt(c.d_mu)
    rel_prior = (rhs - lhs) / np.maximum(np.abs(rhs), 1e-300)
    rel_cur = (c.d_mu - cur_lhs) / max(abs(c.d_mu), 1e-300)
    extras = [{"tighter": "current" if cur < prior else "prior",
               "rel_slack_current": cur, "rel_slack_prior": prior}
              for cur, prior in zip(rel_cur.tolist(), rel_prior.tolist())]
    return site_reports("prior_gradient_estimate", np.tile(g.ids, len(_columns(u))),
                        lhs, rhs, extras=extras)


def _log_uniform(rng: random.Random, k: int, top: float) -> np.ndarray:
    # k draws log-uniform on [1/top, top), from k uniforms of rng
    return np.exp((2.0 * uniforms(rng, k) - 1.0) * math.log(top))


def sample_positive_function(g: WeightedGraph, rng: random.Random) -> np.ndarray:
    """Log-uniform positive function on [1e-6, 1e6), stressing sites where
    sqrt(u) differences are extreme; draws g.n uniforms from rng."""
    return _log_uniform(rng, g.n, 1e6)


def independence_sweep(n_sites=10_000, seed=0):
    """Random sweep comparing relative slacks of the two gradient estimates.

    Returns a dict with the tallies per direction and one witness site for
    each, drawn from random graphs of 4 to 12 vertices with unit, degree,
    and log-uniform explicit measures.
    """
    rng = random.Random(seed)
    tally = {"current": 0, "prior": 0}
    witnesses = {}
    sites = 0
    draw = 0
    while sites < n_sites:
        draw += 1
        n = rng.randrange(4, 13)
        gseed = rng.getrandbits(32)
        mode = ("unit", "degree", "explicit")[draw % 3]
        mu = _log_uniform(rng, n, 1e2) if mode == "explicit" else None
        try:
            g = generate("random", n=n, p=0.5, w_lo=0.5, w_hi=2.0,
                         measure_mode=mode, mu=mu, seed=gseed)
        except GraphFormatError:
            continue  # degree measure rejects isolated vertices
        if g.num_edges == 0:
            continue
        u = sample_positive_function(g, rng)
        reps = prior_gradient_estimate(g, u)
        for site, extra in zip(reps.site, reps.extra):
            which = extra["tighter"]
            tally[which] += 1
            if which not in witnesses:
                witnesses[which] = {"graph_seed": gseed, "n": n,
                                    "measure_mode": mode, "vertex": site,
                                    **extra}
        sites += len(reps)
    return {"sites": sites, "tally": tally, "witnesses": witnesses}


# -- Harnack inequality --------------------------------------------------------

def _harnack_form(c: GraphConstants, hops, gap: float, u=1.0):
    """u exp{2 d_mu gap + (4 mu_max/w_min) hops^2/gap}, elementwise in hops
    and u, hops^2 in float64; +inf where the exponent or product overflows."""
    with np.errstate(over="ignore"):
        return u * np.exp(2.0 * c.d_mu * gap
                          + (4.0 * c.mu_max / c.w_min) * np.square(hops, dtype=float) / gap)


def harnack_factor(g: WeightedGraph, x, y, t1: float, t2: float) -> float:
    """exp{2 d_mu (t2-t1) + (4 mu_max/w_min) dist(x,y)^2/(t2-t1)}; always >= 1.

    Returns math.inf when the exponent overflows a double (the bound
    degenerates as t2 - t1 -> 0+ at positive distance).
    """
    t1, t2 = check_time(t1), check_time(t2)
    if t1 >= t2:
        raise ValueError("requires t1 < t2")
    return float(_harnack_form(g.constants(), g.dist(x, y), t2 - t1))


def verify_harnack(g: WeightedGraph, u0, time_grid, seed=0):
    """Check u(x, t1) <= u(y, t2) * harnack_factor over sampled sites.

    The pairs are all ordered vertex pairs when the graph has at most 30
    vertices. Otherwise each function in turn draws HARNACK_MAX_PAIRS pairs,
    each end floor(u n), from one random.Random(seed), so the first function
    of a batch gets the pairs a call with it alone gets. Unreachable pairs are dropped.
    """
    return concat(_harnack_blocks(g, u0, time_grid, seed))


def _harnack_blocks(g, u0, time_grid, seed=0):
    # verify_harnack's rows, one record per function block
    u0 = require_positive(g, u0)
    times = sorted(set(map(check_time, time_grid)))
    if len(times) < 2:
        raise ValueError("need at least two distinct times")
    c, H = g.constants(), g._hops
    snapshots = {t: _columns(evolve(g, u0, t, tol=HARNACK_SERIES_TOL))
                 for t in times}
    m = len(_columns(u0))
    if g.n <= 30:
        picks = [np.divmod(np.arange(g.n * g.n), g.n)] * m
    else:  # (pair, end) in draw order, a function at a time
        rng = random.Random(seed)
        picks = [(uniforms(rng, 2 * HARNACK_MAX_PAIRS) * g.n).astype(np.intp).reshape(-1, 2).T
                 for _ in range(m)]
    picks = [(I[f], J[f]) for I, J in picks for f in [reachable(H[I, J])]]
    gaps = [(t1, t2) for a, t1 in enumerate(times) for t2 in times[a + 1:]]
    for functions in _function_blocks(m, max((len(I) for I, _ in picks), default=0) * len(gaps)):
        # one site_reports call per block: a concat of per-gap records would
        # hold every column twice
        block = [(k, *picks[k], t1, t2) for k in functions for t1, t2 in gaps]
        yield site_reports(
            "harnack", np.concatenate([_sites(g.ids[I], t1, g.ids[J], t2)
                                       for _, I, J, t1, t2 in block]),
            np.concatenate([snapshots[t1][k][I] for k, I, J, t1, t2 in block]),
            np.concatenate([_harnack_form(c, H[I, J], t2 - t1, snapshots[t2][k][J])
                            for k, I, J, t1, t2 in block]))


# -- heat kernel bounds ---------------------------------------------------------

def _exp(x: float) -> float:
    """math.exp(x), or +inf where it overflows a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def optimal_time_gap(d_mu: float, mu_max: float, w_min: float, t: float):
    """Minimizer and infimum of s -> 2 d_mu s + (4 mu_max/w_min) t / s over
    s > 0: gap = sqrt(2 mu_max t / (d_mu w_min)), value = 4 sqrt(2 d_mu
    mu_max t / w_min)."""
    if not (d_mu > 0 and mu_max > 0 and w_min > 0):
        raise ValueError("graph constants must be positive")
    t = check_time(t, positive=True)
    gap = math.sqrt(2.0 * mu_max * t / (d_mu * w_min))
    value = 4.0 * math.sqrt(2.0 * d_mu * mu_max * t / w_min)
    return gap, value


def heat_kernel_upper_bound(g: WeightedGraph, t: float, x) -> float:
    """(1 / Vol(B(x, sqrt t))) * exp{4 sqrt(2 d_mu mu_max t / w_min)};
    dominates p(t, x, y) for every y; +inf where the exponential overflows."""
    t = check_time(t, positive=True)
    c = g.constants()
    _, value = optimal_time_gap(c.d_mu, c.mu_max, c.w_min, t)
    return _exp(value) / g.ball_volume(x, math.sqrt(t))


def _require_kernel(g: WeightedGraph, t: float, kernel):
    """kernel, or the heat kernel at t when None; ValueError unless it is g's
    kernel at time t."""
    if kernel is None:
        return heat_kernel(g, t)
    if kernel.graph is not g or kernel.t != t:
        raise ValueError(f"kernel must be the verified graph's at time {t!r}")
    return kernel


def verify_kernel_upper(g: WeightedGraph, t: float, kernel=None):
    _require_symmetric(g, "heat kernel upper bound")
    t = check_time(t, positive=True)
    return _kernel_upper(g, t, _require_kernel(g, t, kernel), slice(None))


def _kernel_upper(g, t, kernel, sources):
    # verify_kernel_upper's rows from the sources range
    bound = [heat_kernel_upper_bound(g, t, x) for x in g.ids[sources]]
    return site_reports("kernel_upper", _pair_sites(g.ids, t, sources),
                        kernel.matrix[sources].ravel(), np.repeat(bound, g.n))


def _kernel_lower_form(c: GraphConstants, hops, t: float, deg_y):
    """(1/deg_y) exp{-2t - (4 mu_max/w_min) hops^2/t}, elementwise, hops^2 in float64."""
    expo = -2.0 * t - (4.0 * c.mu_max / c.w_min) * np.square(hops, dtype=float) / t
    return np.exp(expo) / deg_y


def heat_kernel_lower_bound(g: WeightedGraph, t: float, x, y) -> float:
    """(1/deg(y)) * exp{-2t - (4 mu_max/w_min) dist(x,y)^2 / t}; requires
    mu = deg and symmetric weights."""
    t = check_time(t, positive=True)
    _require_mu_deg(g, "heat kernel lower bound")
    return float(_kernel_lower_form(g.constants(), g.dist(x, y), t,
                                    g.degree(y)))


def verify_kernel_lower(g: WeightedGraph, t: float, kernel=None):
    _require_mu_deg(g, "heat kernel lower bound")
    t = check_time(t, positive=True)
    return _kernel_lower(g, t, _require_kernel(g, t, kernel), slice(None))


def _kernel_lower(g, t, kernel, sources):
    # verify_kernel_lower's rows from the sources range
    H = g._hops[sources]
    reached = reachable(H)  # the pairs checked, in row-major order
    return site_reports("kernel_lower", _pair_sites(g.ids, t, sources,
                                                    None if reached.all() else reached),
                        _kernel_lower_form(g.constants(), H[reached], t,
                                           np.broadcast_to(g.degrees, H.shape)[reached]),
                        kernel.matrix[sources][reached])


def _kernel_blocks(g, t, kernel):
    """verify_kernel_upper's rows, then verify_kernel_lower's, one record per
    block of whole sources: as many as fit BLOCK_ROWS rows, and at least one."""
    blocks = [slice(b.start, b.stop) for b in _function_blocks(g.n, g.n)]
    for record in (_kernel_upper, _kernel_lower):
        for sources in blocks:
            r = record(g, t, kernel, sources)
            r.shares_floats = True
            yield r
            del r  # let go of a record before the next one is made


def verify_diagonal_lower(g: WeightedGraph, t: float, kernel=None):
    """p(t, y, y) >= e^{-t}/deg(y) on mu = deg graphs."""
    _require_mu_deg(g, "diagonal lower bound", symmetric=False)
    t = check_time(t)
    return site_reports("diagonal_lower", _sites(g.ids, t), math.exp(-t) / g.degrees,
                        _require_kernel(g, t, kernel).matrix.diagonal())


def _volume_growth_factor(c: GraphConstants, t: float) -> float:
    """exp{t + 4 sqrt(2 mu_max t / w_min)}, or +inf where it overflows."""
    return _exp(t + 4.0 * math.sqrt(2.0 * c.mu_max * t / c.w_min))


def volume_growth_bound(g: WeightedGraph, y, t: float) -> float:
    """Vol(B(y, 1)) * exp{t + 4 sqrt(2 mu_max t / w_min)}; dominates
    Vol(B(y, sqrt t)) under mu = deg with symmetric weights."""
    t = check_time(t, positive=True)
    _require_mu_deg(g, "volume growth bound")
    return g.ball_volume(y, 1.0) * _volume_growth_factor(g.constants(), t)


def verify_volume_growth(g: WeightedGraph, times):
    """Check Vol(B(y, sqrt t)) against volume_growth_bound at every vertex.

    Each report also notes (in extra) whether the stronger variant with
    deg(y) in place of Vol(B(y, 1)) holds; the two differ because
    Vol(B(y, 1)) includes the measure of the neighbors.
    """
    _require_mu_deg(g, "volume growth bound")
    c = g.constants()
    parts = []
    for t in times:
        t = check_time(t, positive=True)
        factor = _volume_growth_factor(c, t)
        lhs = np.array([g.ball_volume(y, math.sqrt(t)) for y in g.ids])
        rhs = np.array([g.ball_volume(y, 1.0) for y in g.ids]) * factor
        strong = lhs <= g.degrees * factor * (1.0 + DEFAULT_REL_TOL) + DEFAULT_ABS_TOL
        parts.append(site_reports(
            "volume_growth", _sites(g.ids, t), lhs, rhs,
            extras=[{"degree_variant_holds": s} for s in strong.tolist()]))
    return concat(parts)
