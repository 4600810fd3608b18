"""Tests of the benchmark's own machinery: spans, wrapper removal, gates.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import spans  # noqa: E402
from graphheat import cli, generate, save_graph  # noqa: E402


@pytest.fixture
def grid(tmp_path):
    path = tmp_path / "grid.json"
    save_graph(path, generate("grid", rows=3, cols=3, measure_mode="degree"))
    return path


def traced_main(argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main([str(a) for a in argv])
    finally:
        tracer.uninstall()
    return code, tracer.spans


def bindings():
    """Every (namespace, name) -> object binding of a traced target."""
    found = {}
    for _, module, attr, _ in spans.TARGETS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            found[(cls, meth)] = vars(cls)[meth]
            continue
        original = getattr(owner, attr)
        for mod in spans._graphheat_modules():
            for key, value in vars(mod).items():
                if value is original:
                    found[(mod, key)] = value
    return found


def test_self_times_sum_to_traced_total(grid, tmp_path):
    code, recorded = traced_main(["verify", "--graph", grid, "--suite", "all",
                                  "--t", "0.5,1", "--n-funcs", "2",
                                  "--out", tmp_path / "r.jsonl"])
    assert code == 0
    totals = spans.layer_totals(recorded)
    roots = [s for s in recorded if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    assert sum(r["self_s"] for r in totals.values()) == \
        pytest.approx(spans.root_total(recorded), rel=1e-9, abs=1e-12)
    assert all(r["self_s"] >= -1e-9 for r in totals.values())
    # nested bindings are traced: the estimates module calls evolve and the
    # CLI calls laplacian through names bound by "from ... import"
    assert totals["semigroup.evolve"]["calls"] > 0
    assert totals["calculus.laplacian"]["calls"] > 0
    assert totals["reports.write_jsonl"]["count"] == (tmp_path / "r.jsonl").stat().st_size


def test_wrappers_removed_after_traced_run(grid, tmp_path):
    import graphheat.cli  # noqa: F401  (loads every layer)

    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    during = bindings()
    assert all(during[k] is not v for k, v in before.items())
    try:
        cli.main(["kernel", "--graph", str(grid), "--t", "1", "--mc", "50",
                  "--out", str(tmp_path / "k.csv")])
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    for mod in spans._graphheat_modules():
        assert not [k for k, v in vars(mod).items() if hasattr(v, "__wrapped__")]


def test_verify_gate_trips_on_corrupted_report(grid, tmp_path):
    report = tmp_path / "r.jsonl"
    assert cli.main(["verify", "--graph", str(grid), "--suite", "all",
                     "--n-funcs", "2", "--out", str(report)]) == 0
    digest, n, errors = gates.check_verify_report(report)
    assert errors == [] and n > 0

    lines = report.read_text().splitlines(keepends=True)
    footer = json.loads(lines[-1])
    check = sorted(footer["summary"])[0]
    footer["summary"][check]["n_pass"] -= 1
    failing = tmp_path / "failing.jsonl"
    failing.write_text("".join(lines[:-1]) + json.dumps(footer) + "\n")
    assert gates.check_verify_report(failing)[2]

    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("".join(lines[:3] + lines[-1:]))
    assert gates.check_verify_report(truncated)[2]

    # a changed value that still passes is caught by the same-seed digest
    first = json.loads(lines[1])
    first["lhs"] -= 1.0
    changed = tmp_path / "changed.jsonl"
    changed.write_text("".join([lines[0], json.dumps(first) + "\n"] + lines[2:]))
    digest2, _, errors2 = gates.check_verify_report(changed)
    assert errors2 == [] and digest2 != digest


def test_kernel_gate_trips_on_corrupted_csv(grid, tmp_path):
    out = tmp_path / "k.csv"
    code = cli.main(["kernel", "--graph", str(grid), "--t", "1", "--mc", "400",
                     "--seed", "5", "--out", str(out)])
    assert code in (0, 1)
    _, walks, errors = gates.check_kernel_csv(out, grid, 400)
    assert errors == [] and walks == 400 * 9

    rows = out.read_text().splitlines()
    t, x, y, p, *rest = rows[1].split(",")
    bad_p = tmp_path / "bad_p.csv"
    bad_p.write_text("\n".join([rows[0], ",".join([t, x, y, repr(float(p) + 1e-6)]
                                                  + rest)] + rows[2:]) + "\n")
    assert gates.check_kernel_csv(bad_p, grid, 400)[2]

    # move every walk of the first source onto the source vertex: a count
    # vector the chi-square test must refuse
    moved = [rows[0]]
    for row in rows[1:]:
        t, x, y, p, p_hat, hw, n, seed = row.split(",")
        if x == "v0":  # a corner, mu = deg = 2
            p_hat = "0.5" if y == "v0" else "0.0"
        moved.append(",".join([t, x, y, p, p_hat, hw, n, seed]))
    skewed = tmp_path / "skewed.csv"
    skewed.write_text("\n".join(moved) + "\n")
    assert any("chi-square" in e for e in gates.check_kernel_csv(skewed, grid, 400)[2])
