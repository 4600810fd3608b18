import csv
import gc
import io
import json
import math
import os
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import stiff_path, two_grids
from graphheat import (WeightedGraph, cli, estimates, generate, heat_kernel, load_graph,
                       reports, save_graph, simulate, walk)
from graphheat.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main([str(a) for a in argv])


def test_generate_k2(tmp_path):
    out = tmp_path / "k2.json"
    assert run(["generate", "--family", "path", "--n", "2",
                "--measure", "unit", "--out", out]) == 0
    g = load_graph(out)
    assert g.n == 2 and g.num_edges == 1


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--family", "random", "--n", "50", "--p", "0.2",
            "--wmin", "0.5", "--wmax", "2", "--seed", "7"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_grid_degree(tmp_path):
    out = tmp_path / "grid.json"
    assert run(["generate", "--family", "grid", "--rows", "5", "--cols", "5",
                "--measure", "degree", "--out", out]) == 0
    g = load_graph(out)
    assert g.n == 25 and g.num_edges == 40
    assert all(g.mu[i] == g.degrees[i] for i in range(g.n))


def test_generate_bad_flags(tmp_path):
    assert run(["generate", "--family", "random", "--n", "5", "--p", "0",
                "--out", tmp_path / "x.json"]) == 2


def test_generate_crashed_mid_write_leaves_out_as_it_found_it(tmp_path, monkeypatch):
    # the graph is written to a hidden sibling of --out, which is removed when
    # the write fails, so a half-written graph never replaces --out
    def half_then_fail(obj, fh, **kwargs):
        fh.write('{"vertices": [')
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(json, "dump", half_then_fail)
    out = tmp_path / "graphs" / "g.json"
    out.parent.mkdir()
    out.write_bytes(b"kept\r\n")
    out.chmod(0o640)
    argv = ["generate", "--family", "path", "--n", "3", "--out", out]
    assert run(argv) == 2
    assert out.read_bytes() == b"kept\r\n" and stat.S_IMODE(out.stat().st_mode) == 0o640
    assert list(out.parent.iterdir()) == [out]
    out.unlink()
    assert run(argv) == 2
    assert list(out.parent.iterdir()) == []


def test_verify_all_pass_k2(tmp_path):
    graph = tmp_path / "k2.json"
    run(["generate", "--family", "path", "--n", "2", "--measure", "degree",
         "--out", graph])
    report = tmp_path / "report.jsonl"
    code = run(["verify", "--graph", graph, "--suite", "all",
                "--t", "0.5,1,2", "--seed", "42", "--n-funcs", "5",
                "--out", report])
    assert code == 0
    lines = [json.loads(s) for s in report.read_text().splitlines()]
    assert "config" in lines[0]
    assert "summary" in lines[-1]
    assert all(obj["pass"] for obj in lines[1:-1] if "pass" in obj)


def test_verify_reports_reproducible(tmp_path):
    graph = tmp_path / "g.json"
    run(["generate", "--family", "cycle", "--n", "5", "--measure", "degree",
         "--out", graph])
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    args = ["verify", "--graph", graph, "--suite", "gradient,previous",
            "--seed", "9", "--n-funcs", "3"]
    assert run(args + ["--out", r1]) == 0
    assert run(args + ["--out", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_gated_suite_exits_2_on_asymmetric(tmp_path):
    graph = tmp_path / "asym.json"
    graph.write_text(json.dumps({
        "weights_symmetric": False, "measure_mode": "unit",
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [{"u": "a", "v": "b", "w": 1.0},
                  {"u": "b", "v": "a", "w": 2.0}],
    }))
    assert run(["verify", "--graph", graph, "--suite", "kernel-bounds"]) == 2


def test_verify_gated_suite_exits_2_on_wrong_measure(tmp_path):
    graph = tmp_path / "unit.json"
    run(["generate", "--family", "path", "--n", "3", "--measure", "unit",
         "--out", graph])
    assert run(["verify", "--graph", graph, "--suite", "kernel-bounds"]) == 2


def test_verify_tampered_graph_exits_2(tmp_path):
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps({
        "weights_symmetric": True, "measure_mode": "unit",
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [{"u": "a", "v": "b", "w": -1.0}],
    }))
    assert run(["verify", "--graph", graph, "--suite", "gradient"]) == 2


def test_verify_unknown_suite(tmp_path):
    graph = tmp_path / "g.json"
    run(["generate", "--family", "path", "--n", "2", "--out", graph])
    assert run(["verify", "--graph", graph, "--suite", "nonsense"]) == 2


@pytest.mark.parametrize("names", ["all,bogus", "bogus,all"])
def test_verify_unknown_suite_beside_all(tmp_path, capsys, names):
    # a name is checked before "all" expands to every suite: an unknown one
    # beside it exits 2 with one line, and no suite runs
    out = tmp_path / "r.jsonl"
    assert run(["verify", "--graph", ROOT / "example_graphs" / "edge_pair.json",
                "--suite", names, "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: unknown suite(s) ['bogus']\n")
    assert not out.exists()


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_suite_table_entry_is_what_verify_does(tmp_path, monkeypatch, capsys, suite):
    # each entry of cli.SUITES against the CLI's behaviour, so a new suite is
    # covered by its entry alone: the times it needs, its hypotheses, whether
    # it reads hops (the pre-fork rule trusts this), and its units
    entry = cli.SUITES[suite]
    assert sorted(e.start_rank for e in cli.SUITES.values()) == list(range(len(cli.SUITES)))
    _inline(monkeypatch)
    grid, stiff = tmp_path / "grid.json", tmp_path / "stiff.json"
    save_graph(grid, generate("grid", rows=3, cols=3, measure_mode="degree"))
    save_graph(stiff, stiff_path(1e-3))
    argv = ["verify", "--suite", suite, "--n-funcs", "2"]
    if entry.times_needed:  # one distinct positive time fewer than it needs
        short = ",".join(["0", *("0.5", "1", "2")[:entry.times_needed - 1]])
        assert run([*argv, "--graph", grid, "--t", short]) == 2
        assert capsys.readouterr().err == (f"error: suite {suite!r} needs {entry.times_needed} "
                                           "distinct positive time(s) in --t\n")
    # explicit mu, as on the verify-stiff path: the suites with hypotheses exit 2
    assert run([*argv, "--graph", stiff]) == (2 if entry.hypotheses else 0)
    assert capsys.readouterr().err == (f"error: suite {suite!r} requires mu(x) = deg(x) for all x\n"
                                       if entry.hypotheses else "")
    loaded = []
    monkeypatch.setattr(cli, "load_graph", lambda path: loaded.append(load_graph(path)) or loaded[-1])
    assert run([*argv, "--graph", grid, "--t", "0,0.5,1,2"]) == 0
    assert ("_hops" in loaded[-1].__dict__) == entry.reads_hops
    units = []
    monkeypatch.setattr(cli, "_run_suite", lambda g, s, times, *args: units.append((s, times)) or ())
    assert run([*argv, "--graph", grid, "--t", "0,0.5,1,2"]) == 0
    assert units == ([(suite, (t,)) for t in (0.5, 1.0, 2.0)] if entry.unit_per_time
                     else [(suite, (0.0, 0.5, 1.0, 2.0))])


def test_verify_csv_format(tmp_path):
    graph = tmp_path / "g.json"
    run(["generate", "--family", "path", "--n", "3", "--out", graph])
    out = tmp_path / "r.csv"
    assert run(["verify", "--graph", graph, "--suite", "gradient",
                "--n-funcs", "2", "--format", "csv", "--out", out]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:4] == ["check", "site", "lhs", "rhs"]


def test_kernel_k2_closed_form(tmp_path):
    graph = tmp_path / "k2.json"
    run(["generate", "--family", "path", "--n", "2", "--out", graph])
    out = tmp_path / "k.csv"
    assert run(["kernel", "--graph", graph, "--t", "1", "--out", out]) == 0
    rows = {(r["x"], r["y"]): float(r["p"])
            for r in csv.DictReader(out.read_text().splitlines())}
    assert rows[("v0", "v1")] == pytest.approx((1 - math.exp(-2)) / 2,
                                               abs=1e-10)


def test_kernel_time_zero(tmp_path):
    graph = tmp_path / "k2.json"
    run(["generate", "--family", "path", "--n", "2", "--measure", "degree",
         "--out", graph])
    out = tmp_path / "k.csv"
    assert run(["kernel", "--graph", graph, "--t", "0", "--out", out]) == 0
    rows = {(r["x"], r["y"]): float(r["p"])
            for r in csv.DictReader(out.read_text().splitlines())}
    assert rows[("v0", "v0")] == 1.0
    assert rows[("v0", "v1")] == 0.0


def test_kernel_with_monte_carlo(tmp_path):
    graph = tmp_path / "k2.json"
    run(["generate", "--family", "path", "--n", "2", "--out", graph])
    out = tmp_path / "k.csv"
    code = run(["kernel", "--graph", graph, "--t", "1", "--mc", "20000",
                "--seed", "9", "--out", out])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {"p_hat", "half_width", "n_walks", "seed"} <= set(rows[0])


def test_kernel_monte_carlo_verdict_is_family_wise(tmp_path, capsys):
    # at the seed found here some of the 81 cells fall outside their per-cell
    # 3-sigma allowance while the series kernel is exact: a false alarm that a
    # verdict without multiple-comparison control reports as INCONSISTENT.
    # About one seed in 800 flags a cell, so the search is bounded well above
    graph, out = ROOT / "example_graphs" / "grid3x3.json", tmp_path / "k.csv"
    g = load_graph(graph)
    kernel = heat_kernel(g, 1.0)

    def flagged(sub_seeds):
        return sum(np.count_nonzero(~simulate(g, x, 1.0, 1000, seed=sub_seeds[x])
                                    .consistent_with(kernel.matrix[i], n_sigma=3))
                   for i, x in enumerate(g.ids))
    seed = next(s for s in range(10_000)  # cmd_kernel's sub-seeds
                if flagged({x: s ^ zlib.crc32(f"1.0:{x}".encode()) for x in g.ids}))
    code = run(["kernel", "--graph", graph, "--t", "1", "--mc", "1000",
                "--seed", seed, "--out", out])
    sub_seeds = {r["x"]: int(r["seed"]) for r in csv.DictReader(out.read_text().splitlines())}
    assert flagged(sub_seeds) >= 1
    assert code == 0
    assert "consistent (family-wise alpha 0.001" in capsys.readouterr().err


def test_kernel_monte_carlo_csv_is_reproducible(tmp_path):
    # separate processes, so nothing in-process (hash seeds, caches) is shared
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    outs = []
    for rerun in (1, 2):
        out = tmp_path / f"k{rerun}.csv"
        subprocess.run([sys.executable, "-m", "graphheat.cli", "kernel",
                        "--graph", str(ROOT / "example_graphs" / "grid3x3.json"),
                        "--t", "0.5,2", "--mc", "500", "--seed", "3",
                        "--out", str(out)], check=True, env=env)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _kernel_csv(g, times, mc, seed):
    # the bytes of kernel's CSV as csv.writer writes them, one row at a time
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "x", "y", "p"] + ["p_hat", "half_width", "n_walks", "seed"] * bool(mc))
    for t in times:
        kernel = cli.semigroup.heat_kernel(g, t)
        for i, x in enumerate(g.ids):
            p = kernel.matrix[i].tolist()
            if not mc:
                w.writerows([t, x, y, p[j]] for j, y in enumerate(g.ids))
                continue
            sub_seed = seed ^ zlib.crc32(f"{t}:{x}".encode())
            est = walk.simulate(g, x, t, mc, seed=sub_seed)
            p_hat, hw = est.p_hat.tolist(), est.half_width.tolist()
            w.writerows([t, x, y, p[j], p_hat[j], hw[j], mc, sub_seed]
                        for j, y in enumerate(g.ids))
    return buf.getvalue().encode()


@pytest.mark.parametrize("mc", [0, 40])
def test_kernel_csv_is_csv_writers(tmp_path, monkeypatch, mc):
    # kernel joins its rows from texts made once (each id quoted once, each float
    # repr'd once per bit pattern); the bytes are csv.writer's, for ids it quotes
    # (a comma, a double quote, a newline) or leaves bare (a leading space, a
    # non-ASCII letter, the empty id) and for p values of -0.0 beside 0.0, a
    # subnormal, inf and NaNs of both signs
    ids = ["a,b", 'say "hi"', " lead", "two\nlines", "été", ""]
    g = WeightedGraph(ids, [(u, v, 1.0) for u, v in zip(ids, ids[1:])], measure_mode="degree")
    series = cli.semigroup.heat_kernel

    def odd_kernel(g, t, tol=None):
        m = series(g, t).matrix.copy()
        m[0] = [-0.0, 0.0, 5e-324, math.inf, math.nan, -math.nan]
        m[1, 0] = m[2, 2] = -0.0
        return types.SimpleNamespace(matrix=m)
    monkeypatch.setattr(cli.semigroup, "heat_kernel", odd_kernel)
    graph, out = tmp_path / "g.json", tmp_path / "k.csv"
    save_graph(graph, g)
    code = run(["kernel", "--graph", graph, "--t", "0.5,2", "--mc", mc, "--seed", 5, "--out", out])
    assert code == (1 if mc else 0)  # a NaN p is never consistent with the walks
    assert out.read_bytes() == _kernel_csv(load_graph(graph), (0.5, 2.0), mc, 5)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_kernel_csv_is_csv_writers_on_small_graphs(tmp_path, data):
    ids = data.draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
                             min_size=1, max_size=5, unique=True))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=len(edges),
                                 max_size=len(edges)))
    times = data.draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 4.0]), min_size=1, max_size=2,
                               unique=True))
    mc = data.draw(st.sampled_from([0, 7]))
    graph, out = tmp_path / "g.json", tmp_path / "k.csv"
    save_graph(graph, WeightedGraph(ids, [(u, v, w) for (u, v), w in zip(edges, weights)],
                                    measure_mode="unit"))
    run(["kernel", "--graph", graph, "--t", ",".join(map(str, times)), "--mc", mc,
         "--out", out])
    assert out.read_bytes() == _kernel_csv(load_graph(graph), times, mc, 0)


def test_in_process_main_leaves_the_collector_alone(tmp_path):
    # main freezes the startup heap only when it owns the process (no argv);
    # a caller that passes argv keeps its collector as it was
    before = gc.get_freeze_count()
    assert run(["kernel", "--graph", ROOT / "example_graphs" / "grid3x3.json",
                "--out", tmp_path / "k.csv"]) == 0
    assert gc.get_freeze_count() == before


def test_main_without_argv_freezes_the_startup_heap(tmp_path):
    # as python -m graphheat.cli and the console script call it
    argv = ["graphheat", "kernel", "--graph", str(ROOT / "example_graphs" / "grid3x3.json"),
            "--out", str(tmp_path / "k.csv")]
    script = (f"import gc, sys; from graphheat import cli; sys.argv = {argv!r}; "
              "code = cli.main(); print(code, gc.get_freeze_count())")
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout.split()
    assert out[0] == "0" and int(out[1]) > 0


def test_shipped_example_graphs_verify():
    for path in sorted((ROOT / "example_graphs").glob("*.json")):
        assert run(["verify", "--graph", path, "--suite", "all",
                    "--t", "0.5,1,2", "--seed", "42", "--n-funcs", "3"]) == 0


def _two_vertex_graph(vertices=({"id": "a"}, {"id": "b"}), w=1.0,
                      measure_mode="unit"):
    return {"weights_symmetric": True, "measure_mode": measure_mode,
            "vertices": list(vertices),
            "edges": [{"u": "a", "v": "b", "w": w}]}


_DEG_PAIR = _two_vertex_graph(measure_mode="degree")

# deg/mu overflows to inf: at the 50-vertex path's vertex of measure 1e-310,
# and where two weights of 1e308 meet; the series spun forever on either
_OVERFLOWING_RATE = {
    "weights_symmetric": True, "measure_mode": "explicit",
    "vertices": [{"id": f"v{i}", "mu": 1e-310 if i == 25 else 1.0} for i in range(50)],
    "edges": [{"u": f"v{i}", "v": f"v{i + 1}", "w": 1.0} for i in range(49)]}
_OVERFLOWING_DEGREE = {
    "weights_symmetric": True, "measure_mode": "unit",
    "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
    "edges": [{"u": "a", "v": v, "w": 1e308} for v in "bc"]}


def _times(suite, t):
    return ["--suite", suite, "--t", t]


# input -> (graph object, verify flags, verify exit code, kernel exit code);
# a suite that would check nothing at the given times used to exit 0 with no
# rows, or (harnack) check times the config line never listed
EXIT_CODES = {
    "vertex-without-id": (_two_vertex_graph(vertices=({"id": "a"}, {})), [], 2, 2),
    "non-numeric-weight": (_two_vertex_graph(w="x"), [], 2, 2),
    "nan-weight": (_two_vertex_graph(w=math.nan), [], 2, 2),
    "inf-weight": (_two_vertex_graph(w=math.inf), [], 2, 2),
    "nan-measure": (_two_vertex_graph(
        vertices=({"id": "a", "mu": math.nan}, {"id": "b", "mu": 1.0}),
        measure_mode="explicit"), [], 2, 2),
    "edgeless": ({"weights_symmetric": True, "measure_mode": "unit",
                  "vertices": [{"id": "a"}, {"id": "b"}], "edges": []}, [], 2, 0),
    "kernel-bounds-t-zero": (_DEG_PAIR, _times("kernel-bounds", "0"), 2, 0),
    "heat-gradient-t-zero": (_DEG_PAIR, _times("heat-gradient", "0"), 2, 0),
    "volume-t-zero": (_DEG_PAIR, _times("volume", "0"), 2, 0),
    "harnack-one-positive-time": (_DEG_PAIR, _times("harnack", "0,0.5"), 2, 0),
    "harnack-repeated-time": (_DEG_PAIR, _times("harnack", "1,1"), 2, 0),
    "harnack-two-positive-times": (_DEG_PAIR, _times("harnack", "0,0.5,1"), 0, 0),
    "all-t-zero": (_DEG_PAIR, _times("all", "0"), 0, 0),
    "overflowing-rate": (_OVERFLOWING_RATE, _times("heat-gradient", "1"), 2, 2),
    "overflowing-degree": (_OVERFLOWING_DEGREE, _times("heat-gradient", "1"), 2, 2),
    # loaded as symmetric and as asymmetric, where only a JSON boolean is allowed
    "symmetric-flag-string": ({**_two_vertex_graph(), "weights_symmetric": "false"}, [], 2, 2),
    "symmetric-flag-null": ({**_two_vertex_graph(), "weights_symmetric": None}, [], 2, 2),
    # an integer id was read as a vertex index: the edge 2-0 below loaded as 2-1
    "integer-vertex-ids": ({"weights_symmetric": True, "measure_mode": "unit",
                            "vertices": [{"id": 2}, {"id": 0}, {"id": 1}],
                            "edges": [{"u": 2, "v": 0, "w": 1.0}]}, [], 2, 2),
    # numbers given as strings or booleans loaded as 2.5 and 1.0
    "string-weight": (_two_vertex_graph(w="2.5"), [], 2, 2),
    "boolean-weight": (_two_vertex_graph(w=True), [], 2, 2),
    "string-measure": (_two_vertex_graph(
        vertices=({"id": "a", "mu": "2.5"}, {"id": "b", "mu": 1.0}),
        measure_mode="explicit"), [], 2, 2),
    "boolean-measure": (_two_vertex_graph(
        vertices=({"id": "a", "mu": True}, {"id": "b", "mu": 1.0}),
        measure_mode="explicit"), [], 2, 2),
}


# a warning would be one more stderr line in a real process
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify", "kernel"])
@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_exit_code_matrix(tmp_path, capsys, name, command):
    obj, flags, verify_code, kernel_code = EXIT_CODES[name]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(obj))  # NaN and Infinity literals included
    out = tmp_path / "out"
    code = run([command, "--graph", graph, *(flags if command == "verify" else []),
                "--out", out])
    assert code == (verify_code if command == "verify" else kernel_code)
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_verify_all_skips_suites_without_positive_times(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(_DEG_PAIR))
    out = tmp_path / "r.jsonl"
    assert run(["verify", "--graph", graph, "--t", "0,0.5", "--out", out]) == 0
    config = json.loads(out.read_text().splitlines()[0])["config"]
    assert config["skipped"] == ["harnack"]
    assert "harnack: skipped (suite 'harnack' needs 2 distinct positive " \
        "time(s) in --t)" in capsys.readouterr().out


# bad flag values -> argv after the command; each exits 2 with one line, where
# they used to exit 1 with a traceback, hang in the series, check nothing, or
# print argparse's usage block
BAD_FLAGS = {
    "verify-t-not-a-number": ["verify", "--t", "abc"],
    "verify-tol-not-a-number": ["verify", "--tol", "x"],
    "verify-seed-not-a-number": ["verify", "--seed", "1.5"],
    "verify-n-funcs-not-a-number": ["verify", "--n-funcs", "many"],
    "kernel-tol-not-a-number": ["kernel", "--tol", "x"],
    "kernel-mc-not-a-number": ["kernel", "--mc", "abc"],
    "kernel-seed-not-a-number": ["kernel", "--seed", "s"],
    "verify-t-empty": ["verify", "--t", ""],
    "verify-t-inf": ["verify", "--t", "inf"],
    "verify-n-funcs-negative": ["verify", "--suite", "gradient",
                                "--n-funcs", "-1"],
    "verify-seed-negative": ["verify", "--seed", "-1"],
    "kernel-t-negative": ["kernel", "--t", "-1"],
    "kernel-t-inf": ["kernel", "--t", "inf"],
    "kernel-tol-nan": ["kernel", "--tol", "nan"],
    "kernel-mc-negative": ["kernel", "--mc", "-5"],
    "kernel-seed-too-large": ["kernel", "--mc", "10", "--seed", str(2**128)],
    "generate-n-not-a-number": ["generate", "--family", "path", "--n", "abc"],
    "generate-rows-not-a-number": ["generate", "--family", "grid",
                                   "--rows", "x", "--cols", "2"],
    "generate-cols-not-a-number": ["generate", "--family", "grid",
                                   "--rows", "2", "--cols", "2.5"],
    "generate-p-not-a-number": ["generate", "--family", "random", "--n", "4",
                                "--p", "half"],
    "generate-wmin-not-a-number": ["generate", "--family", "random", "--n", "4",
                                   "--p", "0.5", "--wmin", "w"],
    "generate-wmax-not-a-number": ["generate", "--family", "random", "--n", "4",
                                   "--p", "0.5", "--wmax", "2x"],
    "generate-seed-not-a-number": ["generate", "--family", "path", "--n", "3",
                                   "--seed", "s"],
    "generate-grid-without-rows": ["generate", "--family", "grid", "--cols", "3"],
    # a repeated value wrote rows twice: a suite's, or those of kernel-bounds,
    # volume and heat-gradient at a time (forking two identical kernel units)
    "verify-suite-repeated": ["verify", "--suite", "gradient,gradient"],
    "verify-suite-all-repeated": ["verify", "--suite", "all,all"],
    "verify-t-repeated": ["verify", "--t", "1,1,2"],
    "verify-t-spelled-twice": ["verify", "--t", "2,1,2.0"],
    "kernel-t-repeated": ["kernel", "--t", "1,0.5,1"],
}


@pytest.mark.parametrize("name", sorted(BAD_FLAGS))
def test_bad_flag_values_exit_2(tmp_path, capsys, name):
    command, *flags = BAD_FLAGS[name]
    out = tmp_path / "out"
    if command != "generate":
        flags = ["--graph", ROOT / "example_graphs" / "grid3x3.json", *flags]
    code = run([command, *flags, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_kernel_seed_range_ends_below_2_to_the_128(tmp_path):
    out = tmp_path / "k.csv"
    assert run(["kernel", "--graph", ROOT / "example_graphs" / "grid3x3.json",
                "--mc", "10", "--seed", str(2**128 - 1), "--out", out]) == 0
    assert out.read_text().count("\n") == 1 + 81


@pytest.mark.parametrize("command", ["verify", "kernel"])
def test_graph_file_that_is_not_json_exits_2(tmp_path, capsys, command):
    # the nested arrays ended in a RecursionError traceback and exit 1
    for text in ("{not json\n", "[" * 200_000 + "]" * 200_000):
        graph = tmp_path / "g.json"
        graph.write_text(text)
        out = tmp_path / "out"
        assert run([command, "--graph", graph, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON in ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
     "--suite", "gradient", "--n-funcs", "1"],
    ["kernel", "--graph", ROOT / "example_graphs" / "grid3x3.json"],
    ["generate", "--family", "path", "--n", "2"],
], ids=["verify", "kernel", "generate"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # used to die with a FileNotFoundError traceback and exit 1; verify and
    # kernel check --out before they run any suite or series
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")
    monkeypatch.setattr(cli, "_run_suite", no_work)
    monkeypatch.setattr(cli.semigroup, "heat_kernel", no_work)
    code = run([*command, "--out", tmp_path / "missing" / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_crashed_kernel_leaves_out_as_it_found_it(tmp_path, monkeypatch):
    # kernel used to open --out only after its work and die with it half
    # written; it now writes a staged sibling that replaces --out at the end.
    # Here the row texts die at the second source, after the header and the
    # first source's rows are written
    make_texts = cli._float_texts

    def crashing_texts():
        texts, calls = make_texts(), []

        def crash_second(a):
            calls.append(a)
            if len(calls) == 2:
                raise RuntimeError("crashed while writing rows")
            return texts(a)
        return crash_second
    monkeypatch.setattr(cli, "_float_texts", crashing_texts)
    argv = ["kernel", "--graph", ROOT / "example_graphs" / "grid3x3.json"]
    out = tmp_path / "k.csv"
    with pytest.raises(RuntimeError):
        run([*argv, "--out", out])
    assert list(tmp_path.iterdir()) == []
    out.write_text("kept\n")
    with pytest.raises(RuntimeError):
        run([*argv, "--out", out])
    assert out.read_text() == "kept\n" and list(tmp_path.iterdir()) == [out]


def test_kernel_crashed_after_its_first_source_leaves_out_as_it_found_it(tmp_path, monkeypatch):
    # each source's rows are written as they are made, so when the walks of
    # the second source die the first's are in the stage, which is removed
    simulate_walks, calls = walk.simulate, []

    def crash_second(*args, **kwargs):
        calls.append(args[1])
        if len(calls) % 2 == 0:
            raise RuntimeError("walks crashed")
        return simulate_walks(*args, **kwargs)
    monkeypatch.setattr(walk, "simulate", crash_second)
    argv = ["kernel", "--graph", ROOT / "example_graphs" / "grid3x3.json", "--mc", "10"]
    out = tmp_path / "k.csv"
    for kept in (None, "kept\n"):
        if kept:
            out.write_text(kept)
        with pytest.raises(RuntimeError):
            run([*argv, "--out", out])
        assert list(tmp_path.iterdir()) == ([out] if kept else [])
        assert not kept or out.read_text() == kept
    assert len(calls) == 4


def test_crashed_verify_leaves_out_as_it_found_it(tmp_path, monkeypatch):
    # --out is opened before the suites run; a run that then dies used to
    # leave an empty file behind
    def crash(*args):
        raise RuntimeError("suite crashed")
    monkeypatch.setattr(cli, "_run_suite", crash)
    argv = ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json"]
    out = tmp_path / "r.jsonl"
    with pytest.raises(RuntimeError):
        run([*argv, "--out", out])
    assert not out.exists()
    out.write_text("kept\n")
    with pytest.raises(RuntimeError):
        run([*argv, "--out", out])
    assert out.read_text() == "kept\n"


def _inline(monkeypatch):
    # one CPU: the units run in this process, one after another
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _pooled(monkeypatch):
    # two CPUs and no size floor: the units run in forked children, two at a time
    if not hasattr(os, "fork"):
        pytest.skip("needs fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "POOL_MIN_VERTICES", 0)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_crashed_in_its_last_suite_leaves_out_as_it_found_it(
        tmp_path, monkeypatch, fmt):
    # rows are written as the suites run, so by the time the last suite dies
    # the earlier suites' rows are on disk, in a temporary sibling of --out;
    # what the suite saw goes to a file, as a forked child's memory is its own
    _inline(monkeypatch)
    run_suite, seen = cli._run_suite, tmp_path / "seen.json"

    def crash_last(g, suite, *args):
        if suite == list(cli.SUITES)[-1]:
            seen.write_text(json.dumps([(p.name, p.stat().st_size) for p in out.parent.iterdir()]))
            raise RuntimeError("last suite crashed")
        yield from run_suite(g, suite, *args)
    monkeypatch.setattr(cli, "_run_suite", crash_last)
    out = tmp_path / "reports" / "r.out"
    out.parent.mkdir()
    argv = ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
            "--format", fmt, "--out", out]
    with pytest.raises(RuntimeError):
        run(argv)
    (tmp, size), = [w for w in json.loads(seen.read_text()) if w[0] != out.name]
    assert tmp.startswith(f".{out.name}.") and size > 0
    assert list(out.parent.iterdir()) == []
    out.write_bytes(b"kept\r\n")
    with pytest.raises(RuntimeError):
        run(argv)
    assert out.read_bytes() == b"kept\r\n"
    assert list(out.parent.iterdir()) == [out]


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@pytest.fixture
def clean_exit(tmp_path, monkeypatch):
    # after the test's main() calls: no child process left, running or unreaped,
    # no descriptor left open, and nothing left in the temporary directory the
    # part files go to
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    fds = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("crash", ["raise", "exit"])
def test_verify_worker_crash_leaves_out_as_it_found_it(tmp_path, monkeypatch, clean_exit, crash):
    # the last unit in report order dies in its child, by an exception or by
    # the process's end; the parent raises it (a UnitError naming the unit and
    # the exit status for the end), reaps the children and removes the stage
    _pooled(monkeypatch)
    run_suite, parent = cli._run_suite, os.getpid()

    def crash_last(g, suite, *args):
        if suite == list(cli.SUITES)[-1]:
            assert os.getpid() != parent
            if crash == "exit":
                os._exit(1)
            raise RuntimeError("last suite crashed")
        yield from run_suite(g, suite, *args)
    monkeypatch.setattr(cli, "_run_suite", crash_last)
    out = tmp_path / "reports" / "r.jsonl"
    out.parent.mkdir()
    argv = ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json", "--out"]
    expected = {"raise": (RuntimeError, "last suite crashed"),
                "exit": (cli.UnitError, r"unit \('volume', .* with exit status 1 without a result")}
    for kept in (None, b"kept\n"):
        if kept:
            out.write_bytes(kept)
        with pytest.raises(expected[crash][0], match=expected[crash][1]):
            run([*argv, out])
        assert list(out.parent.iterdir()) == ([out] if kept else [])
        assert not kept or out.read_bytes() == kept
    with pytest.raises(expected[crash][0]):  # an in-place --out: parts in the temp directory
        run([*argv, os.devnull])


def test_pooled_unit_that_raises_ends_the_run_at_once(tmp_path, monkeypatch, clean_exit):
    # volume, first in the report, is slow; gradient raises in the other
    # child meanwhile: main raises it without waiting for volume, whose
    # child is ended, and the stage is removed
    _pooled(monkeypatch)
    run_suite, ended = cli._run_suite, tmp_path / "volume-ended"

    def slow_or_raise(g, suite, *args):
        if suite == "gradient":
            raise RuntimeError("gradient crashed")
        time.sleep(30)
        ended.touch()
        yield from run_suite(g, suite, *args)
    monkeypatch.setattr(cli, "_run_suite", slow_or_raise)
    out = tmp_path / "reports" / "r.jsonl"
    out.parent.mkdir()
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="gradient crashed"):
        run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
             "--suite", "volume,gradient", "--out", out])
    assert not ended.exists() and time.monotonic() - start < 20
    assert list(out.parent.iterdir()) == []


def test_pooled_run_forks_a_fresh_child_per_unit(tmp_path, monkeypatch, clean_exit):
    # eight units on two slots: each unit still runs in a child of its own
    _pooled(monkeypatch)
    run_suite, pids = cli._run_suite, tmp_path / "pids"
    pids.mkdir()

    def note_pid(g, suite, times, *args):
        (pids / f"{suite}-{max(times)}").write_text(str(os.getpid()))
        yield from run_suite(g, suite, times, *args)
    monkeypatch.setattr(cli, "_run_suite", note_pid)
    assert run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
                "--out", tmp_path / "r.jsonl"]) == 0
    seen = [p.read_text() for p in pids.iterdir()]
    assert len(seen) == len(set(seen)) == len(cli.SUITES) + 2  # kernel-bounds: one unit per time
    assert str(os.getpid()) not in seen


def test_pooled_unit_killed_mid_unit_names_the_unit_and_signal(tmp_path, monkeypatch, clean_exit):
    # harnack's child is killed once its first record is written: the run
    # raises an error naming the unit and the signal, and --out is left as it was
    _pooled(monkeypatch)
    run_suite = cli._run_suite

    def killed(g, suite, *args):
        for r in run_suite(g, suite, *args):
            yield r
            if suite == "harnack":
                os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(cli, "_run_suite", killed)
    out = tmp_path / "reports" / "r.jsonl"
    out.parent.mkdir()
    out.write_bytes(b"kept\n")
    with pytest.raises(cli.UnitError, match=rf"unit \('harnack', .* by signal {int(signal.SIGKILL)} without"):
        run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json", "--out", out])
    assert out.read_bytes() == b"kept\n" and list(out.parent.iterdir()) == [out]


class _TwoArgError(Exception):
    # pickled as _TwoArgError(message), which cannot be called
    def __init__(self, message, code):
        super().__init__(message)


@pytest.mark.parametrize("exc", [RuntimeError("holds a lambda", lambda: None),
                                 _TwoArgError("cannot be rebuilt", 3),
                                 RuntimeError("x" * (1 << 17))],
                         ids=["unpicklable", "unrebuildable", "over-64KiB"])
def test_pooled_exception_reaches_the_parent_with_its_traceback(tmp_path, monkeypatch, clean_exit, exc):
    # one that pickle cannot carry or rebuild comes as a UnitError, one larger
    # than a pipe holds as itself; either way at once, with the child's
    # traceback as its cause
    _pooled(monkeypatch)

    def raises(g, suite, *args):
        raise exc
        yield

    def timed_out(*_):
        raise AssertionError("the unit's exception did not reach the parent")
    monkeypatch.setattr(cli, "_run_suite", raises)
    before = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(20)
    try:
        with pytest.raises(Exception) as info:
            run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
                 "--suite", "gradient,volume", "--out", tmp_path / "r.jsonl"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    cause = str(info.value.__cause__)
    assert isinstance(info.value.__cause__, cli.UnitError)
    assert cause.startswith("Traceback") and ", in raises\n" in cause and str(exc) in cause
    if type(exc) is _TwoArgError or len(exc.args) > 1:
        assert type(info.value) is cli.UnitError and "cannot be sent" in str(info.value)
    else:
        assert type(info.value) is RuntimeError and str(info.value) == str(exc)
    assert list(tmp_path.glob("*.jsonl*")) == []


@pytest.mark.parametrize("graph_name", ["grid4x4", "grid7x7", "stiff-path50"])
def test_verify_inline_and_pooled_write_the_same_bytes(tmp_path, monkeypatch, capsys, clean_exit,
                                                       graph_name):
    # on a grid (mu = deg) every suite runs, kernel-bounds as one unit per
    # time; on the stiff path (explicit mu, lam = 2000) kernel-bounds and volume
    # are skipped, so four units remain. The pooled run's units run in
    # children, and its report, CSV and summary are the inline run's. The
    # parent builds the hop matrix before the first fork on a grid, where five
    # units read it, and never on the stiff path, where harnack alone does
    side = {"grid4x4": 4, "grid7x7": 7}.get(graph_name)
    grid = side is not None
    graph = tmp_path / f"{graph_name}.json"
    save_graph(graph, generate("grid", rows=side, cols=side, measure_mode="degree") if grid
               else stiff_path(1e-3))
    argv = ["verify", "--graph", graph, "--suite", "all", "--t", "0.2,1,3.5",
            "--seed", "5", "--n-funcs", "3"]
    run_suite, pids = cli._run_suite, tmp_path / "pids"
    pids.mkdir()

    def note_pid(g, suite, *args):
        (pids / str(os.getpid())).touch()
        yield from run_suite(g, suite, *args)
    monkeypatch.setattr(cli, "_run_suite", note_pid)
    fork_unit, hops_at_fork = cli._fork_unit, []
    monkeypatch.setattr(cli, "_fork_unit", lambda g, *args: hops_at_fork.append(
        "_hops" in g.__dict__) or fork_unit(g, *args))
    written = {}
    for where in ("inline", "pooled"):
        with monkeypatch.context() as m:
            (_inline if where == "inline" else _pooled)(m)
            for fmt in ("json", "csv"):
                out = tmp_path / f"{where}.{fmt}"
                assert run([*argv, "--format", fmt, "--out", out]) == 0
                written[where, fmt] = out.read_bytes(), capsys.readouterr().out
            assert run(argv) == 0
            written[where, None] = b"", capsys.readouterr().out
        workers = {p.name for p in pids.iterdir()} - {str(os.getpid())}
        assert bool(workers) == (where == "pooled"), where
    assert len(hops_at_fork) == 3 * (len(cli.SUITES) + 2 if grid else 4)  # three runs
    assert set(hops_at_fork) == {grid}
    for fmt in ("json", "csv", None):
        assert written["inline", fmt] == written["pooled", fmt], fmt
    assert written["inline", "json"][1] == written["inline", None][1]
    assert (b'"check": "kernel_lower"' in written["inline", "json"][0]) == grid
    assert ("kernel-bounds: skipped" in written["inline", None][1]) == (not grid)


def test_forked_verify_holds_no_float64_hop_matrix(tmp_path, monkeypatch, clean_exit):
    # on a 16x16 grid the parent builds the uint16 hop counts once, before the
    # first fork; every child reads that copy, and no process makes the float64
    # distance matrix
    _pooled(monkeypatch)
    graph, seen = tmp_path / "grid16.json", tmp_path / "seen"
    save_graph(graph, generate("grid", rows=16, cols=16, measure_mode="degree"))
    seen.mkdir()

    def hops_held(g):
        return "_distances" in g.__dict__, g.__dict__.get("_hops", np.empty(0)).dtype.name
    run_suite, fork_unit, at_fork = cli._run_suite, cli._fork_unit, []

    def noted(g, suite, *args):
        yield from run_suite(g, suite, *args)
        (seen / f"{suite}-{os.getpid()}").write_text(repr(hops_held(g)))
    monkeypatch.setattr(cli, "_run_suite", noted)
    monkeypatch.setattr(cli, "_fork_unit", lambda g, *args: at_fork.append(
        hops_held(g)) or fork_unit(g, *args))
    assert run(["verify", "--graph", graph, "--suite", "all", "--out", tmp_path / "r.jsonl"]) == 0
    assert at_fork == [(False, "uint16")] * (len(cli.SUITES) + 2)
    held = {p.name.rsplit("-", 1)[0]: p.read_text() for p in seen.iterdir()}
    assert sorted(held) == sorted(cli.SUITES) and len(list(seen.iterdir())) == len(at_fork)
    assert set(held.values()) == {repr((False, "uint16"))}


@pytest.mark.parametrize("n, forks", [(31, 0), (32, len(cli.SUITES) + 2)])
def test_verify_forks_its_units_from_32_vertices(tmp_path, monkeypatch, capsys, clean_exit,
                                                 n, forks):
    # with two CPUs and the default size floor, each unit of a default run
    # (kernel-bounds: one per time) runs in a forked child on a 32-vertex
    # graph; on a 31-vertex one the forks would cost more than the suites take
    if not hasattr(os, "fork"):
        pytest.skip("needs fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fork_unit, forked = cli._fork_unit, []
    monkeypatch.setattr(cli, "_fork_unit", lambda *args: forked.append(args) or fork_unit(*args))
    graph = tmp_path / "path.json"
    save_graph(graph, generate("path", n=n, measure_mode="degree"))
    assert run(["verify", "--graph", graph, "--suite", "all"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(forked) == forks


def test_verify_harnack_overflow_is_silent(tmp_path):
    # on a 50-vertex mu = deg path the far pairs' Harnack factor times u(y, t2)
    # overflows to +inf; a passing run says so on no stream but its summary
    graph = tmp_path / "path50.json"
    save_graph(graph, generate("path", n=50, measure_mode="degree"))
    proc = subprocess.run([sys.executable, "-m", "graphheat.cli", "verify", "--graph", str(graph),
                           "--suite", "harnack"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "harnack: 60000/60000 pass" in proc.stdout


@pytest.mark.parametrize("graph_name, times, forked", [
    ("grid3x3", "20000", False),
    ("path3-wmin1e-4", None, False),
    ("grid6x6", "20000", True),
])
def test_verify_bounds_past_exp_overflow_pass(tmp_path, monkeypatch, capsys, clean_exit,
                                              graph_name, times, forked):
    # 4 sqrt(2 mu_max t / w_min) passes exp's 709.78 on these mu = deg graphs (at
    # t = 10 on the path): kernel-bounds and volume died with an OverflowError
    # traceback and exit 1; their bounds are now +inf, and every row passes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if forked else {0},
                        raising=False)
    fork_unit, forks = cli._fork_unit, []
    monkeypatch.setattr(cli, "_fork_unit", lambda *args: forks.append(args) or fork_unit(*args))
    graph, out = tmp_path / "g.json", tmp_path / "r.jsonl"
    save_graph(graph, WeightedGraph(["a", "b", "c"], [("a", "b", 1e-4), ("b", "c", 1.0)],
                                    measure_mode="degree") if graph_name.startswith("path")
               else generate("grid", rows=int(graph_name[-1]), cols=int(graph_name[-1]),
                             measure_mode="degree"))
    argv = ["verify", "--graph", graph, "--n-funcs", "2", "--out", out]
    assert run([*argv, *(["--t", times] if times else [])]) == 0
    assert bool(forks) == forked
    assert "FAIL" not in capsys.readouterr().out
    rows = [json.loads(line) for line in out.read_text().splitlines()[1:-1]]
    assert all(row["pass"] for row in rows)
    for check in ("kernel_upper", "volume_growth"):
        assert any(row["rhs"] == math.inf for row in rows if row["check"] == check)


# (time -> a kernel unit's lhs, rhs): slacks 0.0, -0.0, NaN and 1.0
_ZEROS_AND_NAN = {0.5: (1.0, 1.0), 1.0: (0.0, -0.0), 2.0: (math.nan, 1.0), 4.0: (0.0, 1.0)}


@pytest.mark.parametrize("times", ["0.5,1,4", "1,0.5,4", "4,1,0.5", "0.5,1,2,4", "1,2,0.5", "4,2,1"])
def test_pooled_summary_is_the_serial_summary(tmp_path, monkeypatch, capsys, times):
    # each kernel unit's min slack is 0.0, -0.0, NaN or 1.0; folded unit by
    # unit in report order they give summarize() of all rows in turn, whose
    # minimum keeps the first of equal zeros and any NaN
    def one_row(g, suite, unit_times, *args):
        (t,) = unit_times
        yield reports.site_reports("kernel_x", [["v0", t]], *_ZEROS_AND_NAN[t])
    monkeypatch.setattr(cli, "_run_suite", one_row)
    serial = reports.summarize([reports.site_reports("kernel_x", [["v0", t]], *_ZEROS_AND_NAN[t])
                                for t in map(float, times.split(","))])
    argv = ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
            "--suite", "kernel-bounds", "--t", times]
    nan = "2" in times.split(",")  # the one failing row
    footers = []
    for where in (_inline, _pooled):
        with monkeypatch.context() as m:
            where(m)
            out = tmp_path / "r.jsonl"
            assert run([*argv, "--out", out]) == nan
            footers.append(out.read_text().splitlines()[-1])
    assert footers[0] == footers[1] == json.dumps({"summary": serial})
    assert capsys.readouterr().err == "first failure: kernel_x at ['v0', 2.0]\n" * 2 * nan


def test_pooled_first_failure_is_the_first_in_report_order(tmp_path, monkeypatch, capsys):
    # kernel-bounds fails in one child before gradient, the first suite in
    # the report, fails in the other; the line names gradient's row
    _pooled(monkeypatch)
    failed = tmp_path / "kernel-failed"

    def fail_late(g, suite, *args):
        if suite == "gradient":  # waits for a kernel unit's failure
            for _ in range(3000):
                if failed.exists():
                    break
                time.sleep(0.01)
            assert failed.exists(), "no kernel unit failed first"
            yield reports.site_reports("early", ["v1"], 1.0, 0.0)
        elif suite == "kernel-bounds":
            yield reports.site_reports("late", ["v2"], 1.0, 0.0)
            failed.touch()
        else:
            yield reports.site_reports("fine", ["v3"], 0.0, 1.0)
    monkeypatch.setattr(cli, "_run_suite", fail_late)
    code = run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
                "--out", tmp_path / "r.jsonl"])
    assert code == 1 and failed.exists()
    assert capsys.readouterr().err == "first failure: early at v1\n"


def test_verify_out_replaces_a_symlink_target_and_writes_a_device(tmp_path, monkeypatch):
    graph = ROOT / "example_graphs" / "grid3x3.json"
    argv = ["verify", "--graph", graph, "--suite", "gradient", "--n-funcs", "2"]
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target.name)
    assert run([*argv, "--out", link]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    plain, fresh = tmp_path / "plain.jsonl", tmp_path / "fresh"
    assert run([*argv, "--out", plain]) == 0
    assert target.read_bytes() == plain.read_bytes()
    fresh.touch()  # a new --out gets the mode of any new file
    assert plain.stat().st_mode == fresh.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "link.jsonl",
                                                          "plain.jsonl", "target.jsonl"]

    # a device is written in place, never replaced by a file
    def no_replace(*args):
        raise AssertionError("a device was replaced")
    monkeypatch.setattr(os, "replace", no_replace)
    assert run([*argv, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("mode", ["pipe", "file"])
def test_verify_out_dev_stdout_writes_stdout_in_place(tmp_path, mode):
    # /dev/stdout links to /proc/self/fd/1: a pipe there has no path to stage
    # beside, and a regular file there must not be replaced, or the summary
    # printed after the report would go to the replaced file
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    argv = ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
            "--suite", "gradient", "--n-funcs", "2"]
    assert run([*argv, "--out", tmp_path / "r.jsonl"]) == 0
    report = (tmp_path / "r.jsonl").read_bytes()
    cmd = [sys.executable, "-m", "graphheat.cli", *map(str, argv), "--out", "/dev/stdout"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if mode == "pipe":
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env)
        got = done.stdout
    else:  # appended to, so the summary lands after the report
        log = tmp_path / "stdout.txt"
        with open(log, "ab") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            done = subprocess.run(cmd, stdout=fh, env=env)
        assert log.stat().st_ino == inode
        got = log.read_bytes()
    assert done.returncode == 0
    assert got.startswith(report) and b"gradient_estimate: " in got[len(report):]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl", *(["stdout.txt"] * (mode == "file"))]


def test_verify_out_is_a_new_file_beside_the_old_one(tmp_path, monkeypatch):
    # os.replace moves a new file onto --out: a hard link keeps the old report
    argv = ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
            "--suite", "gradient", "--n-funcs", "2", "--out"]
    out, alias = tmp_path / "r.jsonl", tmp_path / "alias.jsonl"
    out.write_text("old\n")
    os.link(out, alias)
    assert run([*argv, out]) == 0
    assert alias.read_text() == "old\n" and out.read_text().startswith('{"config": ')

    # a stage that cannot take --out's mode is removed, and --out is kept
    def fail(*args):
        raise PermissionError("no mode")
    monkeypatch.setattr(shutil, "copymode", fail)
    assert run([*argv, out]) == 2
    assert alias.read_text() == "old\n" and out.read_bytes() != alias.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alias.jsonl", "r.jsonl"]


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                    reason="needs POSIX permissions that bind the user")
def test_verify_out_in_a_read_only_directory_exits_2(tmp_path):
    # the stage is made beside --out, so --out's directory must be writable
    out = tmp_path / "r.jsonl"
    out.write_text("old\n")
    tmp_path.chmod(0o555)
    try:
        assert run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
                    "--out", out]) == 2
    finally:
        tmp_path.chmod(0o755)
    assert out.read_text() == "old\n" and list(tmp_path.iterdir()) == [out]


def test_verify_holds_one_kernel_at_a_time(tmp_path, monkeypatch):
    # the traced peak of --suite kernel-bounds does not grow with the number
    # of times: each kernel's records are written and let go before the next;
    # tracemalloc sees this process only, so the units run here
    _inline(monkeypatch)
    graph = tmp_path / "grid8.json"
    save_graph(graph, generate("grid", rows=8, cols=8, measure_mode="degree"))

    def peak(times):
        tracemalloc.start()
        try:
            assert run(["verify", "--graph", graph, "--suite", "kernel-bounds",
                        "--t", times, "--out", tmp_path / "r.jsonl"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak("1")  # warm-up: imports and first-call caches
    one, six = peak("1"), peak("0.5,1,1.5,2,2.5,3")
    assert six <= 1.25 * one, (one, six)


@pytest.mark.parametrize("suite, n_funcs, bound", [("harnack", (2, 20), 1.5),
                                                   ("heat-gradient", (20, 200), 2.5)])
def test_verify_holds_one_function_block_at_a_time(tmp_path, monkeypatch, suite, n_funcs, bound):
    # a 64-vertex graph's harnack samples 3000 rows per function, and its
    # heat-gradient has 384: ten times the functions, in ten times the blocks,
    # hold one block's record at a time (one record of all read 5.9x and
    # 9.5x); heat-gradient's sides at each time, n x m each, are shared by
    # the blocks and grow with the functions
    _inline(monkeypatch)
    graph = tmp_path / "grid8.json"
    save_graph(graph, generate("grid", rows=8, cols=8, measure_mode="degree"))

    def peak(funcs):
        tracemalloc.start()
        try:
            assert run(["verify", "--graph", graph, "--suite", suite, "--n-funcs", funcs,
                        "--out", tmp_path / "r.jsonl"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    few, many = n_funcs
    peak(few)  # warm-up: imports and first-call caches
    one, ten = peak(few), peak(many)
    assert ten <= bound * one, (one, ten)


@pytest.mark.parametrize("t", ["1", "10"])
def test_verify_holds_one_source_block_at_a_time(tmp_path, monkeypatch, t):
    # a kernel's upper and lower bound rows are made and written a block of
    # sources at a time, so a kernel-bounds run's traced peak stays within a
    # fixed allowance: 1.25 times 5 n^2 doubles at t = 1 and 6 n^2 at t = 10,
    # where the series itself holds 4 n^2 (whole records of n^2 rows read 9.5
    # and 16 n^2), less the 6 n^2 bytes a float64 hop matrix would hold beyond
    # the uint16 one (t = 10 reads 1.21 of this allowance)
    _inline(monkeypatch)
    g = generate("grid", rows=16, cols=16, measure_mode="degree")
    graph = tmp_path / "grid16.json"
    save_graph(graph, g)

    def peak(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def verify():
        assert run(["verify", "--graph", graph, "--suite", "kernel-bounds", "--t", t,
                    "--out", tmp_path / "r.jsonl"]) == 0
    verify()  # warm-up: imports and first-call caches
    allowance, whole = {"1": 5, "10": 6}[t] * 8 * g.n**2 - 6 * g.n**2, peak(verify)
    assert whole <= 1.25 * allowance, (allowance, whole)


def _assert_same_record(got, want):
    # the same rows, bit for bit
    for name in ("check", "site", "extra"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), name
    for name in ("lhs", "rhs", "abs_tol", "rel_tol", "slack", "passed"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _assert_report_is(out, records):
    # the report's rows and footer are those of the records in turn; no slack
    # is -0.0 (rhs - lhs is -0.0 only at rhs = -0.0), so a footer merged block
    # by block has each record's minimum, sign and all
    rows = io.StringIO()
    reports.write_jsonl_rows(rows, records)
    lines = out.read_text().splitlines()
    assert lines[1:-1] == rows.getvalue().splitlines()
    assert not any(np.signbit(r.rhs).any() for r in records)
    assert lines[-1] == json.dumps({"summary": reports.summarize(records)})


@pytest.mark.parametrize("suite, n_funcs", [("harnack", 7), ("heat-gradient", 45)])
def test_verify_blocks_join_to_the_public_record(tmp_path, monkeypatch, suite, n_funcs):
    # the blocks the CLI writes are, joined, what the public verifier returns,
    # bit for bit, and the report's rows and footer are that record's
    _inline(monkeypatch)
    name = {"harnack": "harnack", "heat-gradient": "heat_gradient"}[suite]
    make_blocks, calls = getattr(estimates, f"_{name}_blocks"), []

    def noted(*args, **kwargs):
        calls.append((args, kwargs, list(make_blocks(*args, **kwargs))))
        yield from calls[-1][2]
    monkeypatch.setattr(estimates, f"_{name}_blocks", noted)
    graph, out = tmp_path / "grid8.json", tmp_path / "r.jsonl"
    save_graph(graph, generate("grid", rows=8, cols=8, measure_mode="degree"))
    assert run(["verify", "--graph", graph, "--suite", suite, "--n-funcs", n_funcs,
                "--out", out]) == 0
    (args, kwargs, blocks), = calls
    public = (estimates.verify_harnack if suite == "harnack"
              else estimates.heat_gradient_estimate)(*args, **kwargs)
    assert len(blocks) > 2 and all(len(b) <= estimates.BLOCK_ROWS for b in blocks)
    _assert_same_record(reports.concat(blocks), public)
    _assert_report_is(out, [public])


@pytest.mark.parametrize("graph, sources", [("grid", [56, 56, 32]),
                                            ("two-grids", [28] * 10 + [8])])
def test_verify_kernel_blocks_join_to_the_public_records(tmp_path, monkeypatch, graph, sources):
    # a 12x12 grid has 56 sources a block, the last block partial; two such
    # grids have 28, and half their pairs unreachable, which kernel_lower
    # skips: the upper blocks, then the lower blocks, joined, are what the
    # public verifiers return, bit for bit, and the report is theirs and the
    # diagonal record's
    _inline(monkeypatch)
    make_blocks, calls = estimates._kernel_blocks, []

    def noted(*args):
        calls.append((args, list(make_blocks(*args))))
        yield from calls[-1][1]
    monkeypatch.setattr(estimates, "_kernel_blocks", noted)
    g = generate("grid", rows=12, cols=12, measure_mode="degree") if graph == "grid" \
        else two_grids(12)
    path, out = tmp_path / "g.json", tmp_path / "r.jsonl"
    save_graph(path, g)
    assert run(["verify", "--graph", path, "--suite", "kernel-bounds", "--t", "1",
                "--out", out]) == 0
    ((g, t, kernel), blocks), = calls
    assert [len(b) // g.n for b in blocks[:len(sources)]] == sources
    assert all(len(b) <= estimates.BLOCK_ROWS for b in blocks)
    public = [estimates.verify_kernel_upper(g, t, kernel=kernel),
              estimates.verify_kernel_lower(g, t, kernel=kernel)]
    _assert_same_record(reports.concat(blocks[:len(sources)]), public[0])
    _assert_same_record(reports.concat(blocks[len(sources):]), public[1])
    _assert_report_is(out, [*public, estimates.verify_diagonal_lower(g, t, kernel=kernel)])


@pytest.mark.parametrize("where", ["inline", "pooled"])
def test_no_command_loads_numpy_random(tmp_path, where):
    # every draw comes from random.Random, so no verify unit, in the parent or
    # in a forked child, and neither kernel --mc nor a random graph loads
    # numpy.random; a 6x6 grid has more than 30 vertices, so harnack samples
    graph = tmp_path / "grid6.json"
    script = f"""
import os, sys
import graphheat.cli as cli
os.sched_getaffinity = lambda pid: {{0}} if {where == "inline"} else {{0, 1}}
cli.POOL_MIN_VERTICES = 0
run_suite = cli._run_suite
def noted(*args):
    yield from run_suite(*args)
    with open({str(tmp_path / "seen")!r}, "a") as fh:
        print(os.getpid(), 'numpy.random' in sys.modules, file=fh)
cli._run_suite = noted
for argv in (["generate", "--family", "random", "--n", "20", "--p", "0.3", "--wmax", "2",
              "--out", {str(tmp_path / "random.json")!r}],
             ["generate", "--family", "grid", "--rows", "6", "--cols", "6",
              "--measure", "degree", "--out", {str(graph)!r}],
             ["verify", "--graph", {str(graph)!r}, "--n-funcs", "2",
              "--out", {str(tmp_path / "r.jsonl")!r}],
             ["kernel", "--graph", {str(graph)!r}, "--mc", "100",
              "--out", {str(tmp_path / "k.csv")!r}]):
    assert cli.main(argv) == 0, argv
    print(os.getpid(), argv[0], 'numpy.random' in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
                            check=True, capture_output=True, text=True, env=env).stdout
    if loaded.strip() == "True":
        pytest.skip("import numpy loads numpy.random")
    if where == "pooled" and not hasattr(os, "fork"):
        pytest.skip("needs fork")
    lines = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                           text=True, env=env).stdout.splitlines()
    parent = [line.split() for line in lines if line.endswith(("True", "False"))]
    assert [cmd for _, cmd, _ in parent] == ["generate", "generate", "verify", "kernel"]
    assert all(loaded == "False" for _, _, loaded in parent), parent
    seen = [line.split() for line in (tmp_path / "seen").read_text().splitlines()]
    assert len(seen) == 8  # kernel-bounds: one unit per time
    assert all(loaded == "False" for _, loaded in seen), seen
    pids, pid = {p for p, _ in seen}, parent[0][0]
    assert pids != {pid} if where == "pooled" else pids == {pid}


class _Traced(reports.Reports):
    __slots__ = ("__weakref__",)


def test_kernel_blocks_let_go_of_each_record_before_the_next(monkeypatch):
    # _kernel_blocks held the block it last yielded while it made the next,
    # so two records of up to BLOCK_ROWS rows were alive at once
    made = []

    def record(g, t, kernel, sources):
        assert [ref() for ref in made if ref() is not None] == []
        r = reports.site_reports("kernel_x", list(g.ids[sources]), 0.0, 1.0)
        r = _Traced(r.check, r.site, r.lhs, r.rhs, r.abs_tol, r.rel_tol, r.extra)
        made.append(weakref.ref(r))
        return r
    monkeypatch.setattr(estimates, "_kernel_upper", record)
    monkeypatch.setattr(estimates, "_kernel_lower", record)
    monkeypatch.setattr(estimates, "BLOCK_ROWS", 18)  # 2 of grid3x3's 9 sources a block
    g = load_graph(ROOT / "example_graphs" / "grid3x3.json")
    for r in estimates._kernel_blocks(g, 1.0, None):
        assert r.shares_floats
        del r
    assert len(made) == 2 * 5


@pytest.mark.parametrize("fmt", ["json", "csv", None])
def test_verify_lets_go_of_each_record_before_the_next(tmp_path, monkeypatch, fmt):
    # every record, of any unit, is dropped before the next one is made, so
    # the peak holds one record, not two
    _inline(monkeypatch)
    made = []

    def records(g, suite, *args):
        for k in range(2):
            assert [ref() for ref in made if ref() is not None] == [], suite
            r = reports.site_reports(suite, [f"v{k}"], 0.0, 1.0)
            r = _Traced(r.check, r.site, r.lhs, r.rhs, r.abs_tol, r.rel_tol, r.extra)
            made.append(weakref.ref(r))
            yield r
            del r
    monkeypatch.setattr(cli, "_run_suite", records)
    out = ["--format", fmt, "--out", tmp_path / "r.out"] if fmt else []
    assert run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json", *out]) == 0
    assert len(made) == 2 * (len(cli.SUITES) + 2)  # kernel-bounds: one unit per time


@pytest.mark.parametrize("sites, shown", [
    ([["v0", "v1", 1.0], ["v0", "v3", 1.0]], "['v0', 'v3', 1.0]"),
    (["v2", "v5"], "v5"),
], ids=["list-site", "bare-site"])
def test_verify_names_the_first_failure(capsys, monkeypatch, sites, shown):
    # a list site prints as the Python list, not as numpy's text of its row
    def one_failure(*args):
        return [reports.site_reports("kernel_lower", sites, [0.5, 2.0], 1.0)]
    monkeypatch.setattr(cli, "_run_suite", one_failure)
    code = run(["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
                "--suite", "gradient"])
    assert code == 1
    assert capsys.readouterr().err == f"first failure: kernel_lower at {shown}\n"


def _loaded_by_cli_import(*packages):
    # the modules of these top-level packages that `import graphheat.cli` loads
    code = ("import sys, graphheat.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    return out.strip()


def test_cli_import_loads_no_scipy():
    # scipy is needed only by dense_oracle on asymmetric weights
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_statistics():
    # NormalDist is needed only by kernel's --mc verdict; statistics would load
    # decimal and fractions into every verify parent too
    assert _loaded_by_cli_import("statistics", "decimal", "fractions") == "[]"


def test_cli_import_loads_no_process_pool(tmp_path):
    # verify forks its units' children itself, so neither the import nor a
    # pooled verify run loads concurrent or multiprocessing
    script = f"""
import os, sys
from graphheat import cli
def pool():
    return sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing'))
print(pool())
os.sched_getaffinity = lambda pid: {{0, 1}}
cli.POOL_MIN_VERTICES = 0
fork_unit, forks = cli._fork_unit, []
cli._fork_unit = lambda *args: forks.append(args) or fork_unit(*args)
assert cli.main(["verify", "--graph", {str(ROOT / "example_graphs" / "grid3x3.json")!r},
                 "--suite", "all", "--out", {str(tmp_path / "r.jsonl")!r}]) == 0
print(len(forks), pool())
"""
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    lines = out.splitlines()
    assert (lines[0], lines[-1]) == ("[]", f"{len(cli.SUITES) + 2} []")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_loads_no_numpy_ma(tmp_path, fmt):
    # numpy.ma costs a verify run an import it does not use; on numpy 1.x,
    # `import numpy` loads it anyway
    def modules_after(code):
        out = subprocess.run([sys.executable, "-c", f"import sys; {code}; print(); "
                              "print('numpy.ma' in sys.modules)"], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
        return out.splitlines()[-1]
    if modules_after("import numpy") == "True":
        pytest.skip("import numpy loads numpy.ma")
    assert modules_after(
        f"import graphheat.cli as c; assert c.main(['verify', '--graph', "
        f"{str(ROOT / 'example_graphs' / 'grid3x3.json')!r}, '--suite', 'all', "
        f"'--format', {fmt!r}, '--out', {str(tmp_path / 'r.out')!r}]) == 0") == "False"
