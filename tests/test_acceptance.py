"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not configurable.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import k2, log_uniform, random_graph
from graphheat import (all_pass, compose, dense_oracle, generate,
                       gradient_estimate, heat_gradient_estimate, heat_kernel,
                       independence_sweep, laplacian, optimal_time_gap,
                       simulate, sqrt_identity_residual, verify_diagonal_lower,
                       verify_harnack, verify_kernel_lower, verify_kernel_upper,
                       verify_volume_growth)

ROOT = Path(__file__).resolve().parents[1]


def announce(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def draws500():
    rng = np.random.default_rng(2024)
    draws = []
    for _ in range(500):
        g = random_graph(rng, n_min=4, n_max=50, p=0.25)
        draws.append((g, log_uniform(rng, g.n)))
    return draws


def test_criterion_01_sqrt_identity(draws500):
    start = time.monotonic()
    worst = 0.0
    for g, u in draws500:
        res = np.abs(sqrt_identity_residual(g, u)).max()
        scale = max(1.0, np.abs(laplacian(g, u)).max())
        worst = max(worst, res / scale)
    elapsed = time.monotonic() - start
    announce(1, worst <= 1e-12 and elapsed < 10.0,
             f"max relative residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_estimate(draws500):
    n_fail = 0
    min_slack = math.inf
    for g, u in draws500:
        reps = gradient_estimate(g, u)
        min_slack = min(min_slack, reps.slack.min())
        n_fail += int(np.count_nonzero(~reps.passed))
    reps = gradient_estimate(k2(), [1.0, 1e-4])
    sharp = abs(reps.slack[0] - 1e-2) <= 1e-10
    announce(2, n_fail == 0 and sharp,
             f"{n_fail} failures over 500 draws (min slack {min_slack:.2e}), "
             f"near-sharp slack {reps.slack[0]:.6e}")


def test_criterion_03_heat_gradient():
    rng = np.random.default_rng(7)
    times = [0.01, 0.1, 1.0, 10.0]
    n_fail = 0
    n_checks = 0
    for _ in range(30):
        g = random_graph(rng, n_max=30)
        for _ in range(20):
            u0 = log_uniform(rng, g.n)
            reps = heat_gradient_estimate(g, u0, times)
            n_checks += len(reps)
            n_fail += int(np.count_nonzero(~reps.passed))
    announce(3, n_fail == 0,
             f"{n_checks} checks (estimate + finite-difference), {n_fail} failures")


def test_criterion_04_independence():
    res = independence_sweep(n_sites=10_000, seed=0)
    t = res["tally"]
    ok = t["current"] >= 1 and t["prior"] >= 1
    announce(4, ok, f"tighter tallies {t}, witnesses recorded for both")


def test_criterion_05_kernel_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst_diff = 0.0
    worst_mass = 0.0
    worst_comp = 0.0
    for i in range(100):
        g = random_graph(rng, n_max=30)
        for t in (0.1, 1.0, 10.0):
            K = heat_kernel(g, t, tol=1e-10)
            worst_diff = max(worst_diff,
                             np.abs(K.matrix - dense_oracle(g, t).matrix).max())
            worst_mass = max(worst_mass, np.abs(K.mass() - 1.0).max())
        if i < 20:
            ks = heat_kernel(g, 0.4, tol=1e-12)
            kt = heat_kernel(g, 0.6, tol=1e-12)
            k1 = heat_kernel(g, 1.0, tol=1e-12)
            worst_comp = max(worst_comp,
                             np.abs(compose(ks, kt) - k1.matrix).max())
    closed = heat_kernel(k2(), 1.0, tol=1e-13).value("a", "b")
    digits_ok = abs(closed - (1 - math.exp(-2)) / 2) <= 1e-10
    elapsed = time.monotonic() - start
    ok = (worst_diff <= 1e-8 and worst_mass <= 1e-9 and worst_comp <= 1e-8
          and digits_ok and elapsed < 60.0)
    announce(5, ok, f"oracle diff {worst_diff:.1e}, mass err {worst_mass:.1e}, "
                    f"composition err {worst_comp:.1e}, {elapsed:.1f}s")


def test_criterion_06_diagonal_bound():
    rng = np.random.default_rng(13)
    graphs = [generate("grid", rows=4, cols=4, measure_mode="degree"),
              generate("complete", n=5, measure_mode="degree")]
    graphs += [random_graph(rng, measure_mode="degree", p=0.5, connected=True)
               for _ in range(8)]
    n_fail = 0
    n_checks = 0
    for g in graphs:
        for t in (0.1, 1.0, 5.0, 20.0):
            reps = verify_diagonal_lower(g, t)
            n_checks += len(reps)
            n_fail += int(np.count_nonzero(~reps.passed))
    announce(6, n_fail == 0, f"{n_checks} diagonal checks, {n_fail} failures")


def test_criterion_07_harnack():
    rng = np.random.default_rng(17)
    grid = [0.05, 0.2, 0.5, 1.0, 2.0]  # 10 ordered time pairs
    total = 0
    fails = 0
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng, n_max=30, connected=True)
        U0 = log_uniform(rng, g.n * 20).reshape(g.n, 20)
        reps = verify_harnack(g, U0, grid)  # all ordered pairs: n <= 30
        ratio = reps.lhs / reps.rhs
        total += len(reps)
        fails += int(np.count_nonzero(ratio > 1.0 + 1e-9))
        worst = max(worst, float(ratio.max()))
    announce(7, fails == 0,
             f"{total} inequality checks, {fails} failures, max lhs/rhs {worst:.6f}")


def test_criterion_08_kernel_bounds_and_volume():
    rng = np.random.default_rng(19)
    n_fail = 0
    n_checks = 0
    for _ in range(30):
        g = random_graph(rng, n_max=20, measure_mode="degree", p=0.4,
                         connected=True)
        for t in (0.5, 1.0, 2.0, 5.0):
            K = heat_kernel(g, t, tol=1e-11)
            for reps in (verify_kernel_upper(g, t, kernel=K),
                         verify_kernel_lower(g, t, kernel=K)):
                n_checks += len(reps)
                n_fail += int(np.count_nonzero(~reps.passed))
        reps = verify_volume_growth(g, [0.5, 1.0, 2.0, 5.0])
        n_checks += len(reps)
        n_fail += int(np.count_nonzero(~reps.passed))
    # closed-form infimum vs numeric 1-d minimization
    gap_ok = True
    for _ in range(100):
        d_mu, mu_max, w_min, t = np.exp(rng.uniform(-2, 2, size=4) * math.log(10))
        gap, value = optimal_time_gap(d_mu, mu_max, w_min, t)
        f = lambda s: 2 * d_mu * s + (4 * mu_max / w_min) * t / s
        res = minimize_scalar(f, bracket=(gap / 10, gap, gap * 10),
                              options={"xtol": 1e-14})
        gap_ok = gap_ok and abs(value - res.fun) <= 1e-8 * abs(res.fun)
    announce(8, n_fail == 0 and gap_ok,
             f"{n_checks} bound checks, {n_fail} failures; closed-form infimum "
             f"vs numeric minimization ok={gap_ok} on 100 draws")


def test_criterion_09_monte_carlo():
    start = time.monotonic()
    g2 = k2()
    est2 = simulate(g2, "a", 1.0, 100_000, seed=3)
    ok2 = bool(np.all(est2.consistent_with(heat_kernel(g2, 1.0).matrix[0])))
    g3 = generate("complete", n=3, measure_mode="degree")
    est3 = simulate(g3, "v0", 20.0, 100_000, seed=3)
    ok3 = bool(np.all(est3.consistent_with(heat_kernel(g3, 20.0).matrix[0])))
    elapsed = time.monotonic() - start
    announce(9, ok2 and ok3 and elapsed < 30.0,
             f"K2 and K3 within 3 sigma everywhere, {elapsed:.1f}s")


def test_criterion_10_cli_reproducibility(tmp_path):
    graphs = sorted((ROOT / "example_graphs").glob("*.json"))
    assert graphs, "shipped example graphs missing"
    # the child imports graphheat from this checkout, installed or not
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    ok = True
    for graph in graphs:
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{graph.stem}.{run}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "graphheat.cli", "verify",
                 "--graph", str(graph), "--suite", "all", "--seed", "0",
                 "--out", str(out)],
                capture_output=True, text=True, env=env)
            ok = ok and proc.returncode == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    announce(10, ok, f"{len(graphs)} shipped graphs: exit 0, "
                     "byte-identical reports on rerun")
