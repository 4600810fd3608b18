import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphheat import cli, heat_kernel, load_graph, reports, simulate
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


def test_verify_csv_format(tmp_path):
    graph = tmp_path / "g.json"
    run(["generate", "--family", "path", "--n", "3", "--out", graph])
    out = tmp_path / "r.csv"
    assert run(["verify", "--graph", graph, "--suite", "gradient",
                "--n-funcs", "2", "--format", "csv", "--out", out]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][:4] == ["check", "site", "lhs", "rhs"]


def test_kernel_k2_closed_form(tmp_path):
    graph = tmp_path / "k2.json"
    run(["generate", "--family", "path", "--n", "2", "--out", graph])
    out = tmp_path / "k.csv"
    assert run(["kernel", "--graph", graph, "--t", "1", "--out", out]) == 0
    rows = {(r["x"], r["y"]): float(r["p"])
            for r in csv.DictReader(out.open())}
    assert rows[("v0", "v1")] == pytest.approx((1 - math.exp(-2)) / 2,
                                               abs=1e-10)


def test_kernel_time_zero(tmp_path):
    graph = tmp_path / "k2.json"
    run(["generate", "--family", "path", "--n", "2", "--measure", "degree",
         "--out", graph])
    out = tmp_path / "k.csv"
    assert run(["kernel", "--graph", graph, "--t", "0", "--out", out]) == 0
    rows = {(r["x"], r["y"]): float(r["p"])
            for r in csv.DictReader(out.open())}
    assert rows[("v0", "v0")] == 1.0
    assert rows[("v0", "v1")] == 0.0


def test_kernel_with_monte_carlo(tmp_path):
    graph = tmp_path / "k2.json"
    run(["generate", "--family", "path", "--n", "2", "--out", graph])
    out = tmp_path / "k.csv"
    code = run(["kernel", "--graph", graph, "--t", "1", "--mc", "20000",
                "--seed", "9", "--out", out])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert {"p_hat", "half_width", "n_walks", "seed"} <= set(rows[0])


def test_kernel_monte_carlo_verdict_is_family_wise(tmp_path, capsys):
    # at this seed some of the 81 cells fall outside their per-cell 3-sigma
    # allowance while the series kernel is exact: a false alarm that a
    # verdict without multiple-comparison control reports as INCONSISTENT
    graph, out = ROOT / "example_graphs" / "grid3x3.json", tmp_path / "k.csv"
    code = run(["kernel", "--graph", graph, "--t", "1", "--mc", "1000",
                "--seed", "947", "--out", out])
    g = load_graph(graph)
    kernel = heat_kernel(g, 1.0)
    sub_seeds = {r["x"]: int(r["seed"]) for r in csv.DictReader(out.open())}
    flagged = sum(
        np.count_nonzero(~simulate(g, x, 1.0, 1000, seed=sub_seeds[x])
                         .consistent_with(kernel.matrix[i], n_sigma=3))
        for i, x in enumerate(g.ids))
    assert flagged >= 1
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


@pytest.mark.parametrize("command", [
    ["verify", "--graph", ROOT / "example_graphs" / "grid3x3.json",
     "--suite", "gradient", "--n-funcs", "1"],
    ["kernel", "--graph", ROOT / "example_graphs" / "grid3x3.json"],
    ["generate", "--family", "path", "--n", "2"],
], ids=["verify", "kernel", "generate"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command):
    # used to die with a FileNotFoundError traceback and exit 1; verify
    # checks --out before it runs any suite
    def no_work(*args):
        raise AssertionError("a suite ran before --out was checked")
    monkeypatch.setattr(cli, "_run_suite", no_work)
    code = run([*command, "--out", tmp_path / "missing" / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_cli_import_loads_no_scipy():
    # scipy is needed only by dense_oracle on asymmetric weights
    code = ("import sys, graphheat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"


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
