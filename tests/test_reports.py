import csv
import json

import numpy as np
import pytest

from graphheat.reports import (FIELDS, Reports, all_pass, concat, site_reports,
                               summarize, write_csv, write_jsonl)


def test_passed_exactly_at_tolerance_boundary():
    # slack -0.5 against an allowance of 0.25 + 0.25 * |1.0|, all exact
    edge = site_reports("c", [0, 1], [1.5, np.nextafter(1.5, 2.0)], 1.0,
                        abs_tol=0.25, rel_tol=0.25)
    assert edge.slack[0] == -0.5
    assert edge.passed.tolist() == [True, False]
    # the relative part scales with |rhs|, also for a negative rhs
    assert site_reports("c", [0], -1.5, -2.0, abs_tol=0.0, rel_tol=0.25).passed[0]


def test_bound_report_has_slots():
    r = site_reports("c", [0], 0.0, 1.0)
    assert not hasattr(r, "__dict__")
    with pytest.raises(AttributeError):
        r.note = "x"


def test_summarize_counts_and_min_slack_per_check():
    reports = [site_reports("a", [0, 1, 2], [0.0, 3.0, 0.5], [2.0, 1.0, 1.0]),
               site_reports("b", [0], 1.0, 1.0)]
    assert summarize(reports) == {
        "a": {"n": 3, "n_pass": 2, "min_slack": -2.0},
        "b": {"n": 1, "n_pass": 1, "min_slack": 0.0},
    }
    # one record or many, split anywhere: the same summary
    assert summarize(concat(reports)) == summarize(reports)
    assert summarize([]) == {}
    assert summarize(site_reports("a", [], [], [])) == {}


def test_summarize_groups_interleaved_checks_in_first_seen_order():
    mixed = concat([site_reports("b", [0], 0.0, 1.0),
                    site_reports("a", [0], 2.0, 1.0),
                    site_reports("b", [1], 0.5, 1.0)])
    assert list(summarize(mixed)) == ["b", "a"]
    assert summarize(mixed)["b"] == {"n": 2, "n_pass": 2, "min_slack": 0.5}
    assert not all_pass(mixed) and all_pass([])


def test_site_reports_broadcasts_scalars_and_keeps_floats():
    lhs = np.array([0.1, 0.2, 0.3]) * 3.0
    reports = site_reports("c", ["x", "y", "z"], lhs, 1.0, 0.0, 0.5)
    assert isinstance(reports, Reports) and len(reports) == 3
    assert reports.site.tolist() == ["x", "y", "z"]
    assert reports.check.tolist() == ["c"] * 3
    assert reports.lhs.tolist() == [float(v) for v in lhs]
    assert reports.rhs.tolist() == [1.0] * 3
    assert reports.abs_tol.tolist() == [0.0] * 3
    assert reports.rel_tol.tolist() == [0.5] * 3
    assert reports.extra.tolist() == [None] * 3
    tagged = site_reports("c", [0, 1], 0.0, [1.0, 2.0],
                          extras=[{"k": 1}, {"k": 2}])
    assert tagged.rhs.tolist() == [1.0, 2.0]
    assert tagged.extra.tolist() == [{"k": 1}, {"k": 2}]


@pytest.mark.parametrize("lhs, extras", [([1.0, 2.0], None),
                                         (0.0, [{}, {}])])
def test_site_reports_rejects_length_mismatch(lhs, extras):
    with pytest.raises(ValueError):
        site_reports("c", ["x", "y", "z"], lhs, 1.0, extras=extras)


def test_concat_keeps_row_order_and_fills_missing_extra():
    both = concat([site_reports("a", ["x"], 0.0, 1.0),
                   site_reports("b", ["y", "z"], [1.0, 2.0], 3.0, 0.0, 0.0,
                                extras=[{"k": 1}, {"k": 2}])])
    assert both.check.tolist() == ["a", "b", "b"]
    assert both.site.tolist() == ["x", "y", "z"]
    assert both.lhs.tolist() == [0.0, 1.0, 2.0]
    assert both.abs_tol.tolist() == [1e-10, 0.0, 0.0]
    assert both.extra.tolist() == [None, {"k": 1}, {"k": 2}]
    assert len(concat([])) == 0


def _sample():
    return [site_reports("a", [["x", 0.5]], 0.25, 1.0),
            site_reports("b", ["y"], 2.0, 1.0, abs_tol=0.0, rel_tol=0.0,
                         extras=[{"note": True}])]


def test_write_jsonl_layout(tmp_path):
    reports = _sample()
    path = tmp_path / "r.jsonl"
    config = {"seed": 3}
    write_jsonl(path, reports, config, summarize(reports))
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert lines[0] == {"config": config}
    assert lines[1:-1] == [
        {"check": "a", "site": ["x", 0.5], "lhs": 0.25, "rhs": 1.0,
         "slack": 0.75, "pass": True, "abs_tol": 1e-10, "rel_tol": 1e-9},
        {"check": "b", "site": "y", "lhs": 2.0, "rhs": 1.0, "slack": -1.0,
         "pass": False, "abs_tol": 0.0, "rel_tol": 0.0,
         "extra": {"note": True}},
    ]
    assert all(list(obj)[:len(FIELDS)] == list(FIELDS) for obj in lines[1:-1])
    assert lines[-1] == {"summary": summarize(reports)}
    # one record holding the same rows writes the same bytes
    one = tmp_path / "one.jsonl"
    write_jsonl(one, concat(reports), config, summarize(reports))
    assert one.read_bytes() == path.read_bytes()


def test_csv_header_is_json_key_order(tmp_path):
    reports = _sample()
    path = tmp_path / "r.csv"
    write_csv(path, reports)
    rows = list(csv.reader(path.open(newline="")))
    assert tuple(rows[0]) == FIELDS
    assert rows[1:] == [
        ["a", '["x", 0.5]', "0.25", "1.0", "0.75", "True", "1e-10", "1e-09"],
        ["b", '"y"', "2.0", "1.0", "-1.0", "False", "0.0", "0.0"],
    ]
