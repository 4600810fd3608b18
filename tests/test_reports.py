import csv
import json

import numpy as np
import pytest

from graphheat.reports import (CSV_FIELDS, BoundReport, site_reports,
                               summarize, write_csv, write_jsonl)


def test_passed_exactly_at_tolerance_boundary():
    # slack -0.5 against an allowance of 0.25 + 0.25 * |1.0|, all exact
    edge = BoundReport("c", 0, 1.5, 1.0, abs_tol=0.25, rel_tol=0.25)
    assert edge.slack == -0.5 and edge.passed
    past = BoundReport("c", 0, np.nextafter(1.5, 2.0), 1.0,
                       abs_tol=0.25, rel_tol=0.25)
    assert not past.passed
    # the relative part scales with |rhs|, also for a negative rhs
    assert BoundReport("c", 0, -1.5, -2.0, abs_tol=0.0, rel_tol=0.25).passed


def test_bound_report_has_slots():
    r = BoundReport("c", 0, 0.0, 1.0)
    assert not hasattr(r, "__dict__")
    with pytest.raises(AttributeError):
        r.note = "x"


def test_summarize_counts_and_min_slack_per_check():
    reports = [BoundReport("a", 0, 0.0, 2.0), BoundReport("a", 1, 3.0, 1.0),
               BoundReport("a", 2, 0.5, 1.0), BoundReport("b", 0, 1.0, 1.0)]
    assert summarize(reports) == {
        "a": {"n": 3, "n_pass": 2, "min_slack": -2.0},
        "b": {"n": 1, "n_pass": 1, "min_slack": 0.0},
    }
    assert summarize([]) == {}


def test_site_reports_broadcasts_scalars_and_keeps_floats():
    lhs = np.array([0.1, 0.2, 0.3]) * 3.0
    reports = site_reports("c", ["x", "y", "z"], lhs, 1.0, 0.0, 0.5)
    assert [r.site for r in reports] == ["x", "y", "z"]
    assert [r.lhs for r in reports] == [float(v) for v in lhs]
    assert all(type(r.lhs) is float and r.rhs == 1.0 for r in reports)
    assert all((r.abs_tol, r.rel_tol, r.extra) == (0.0, 0.5, {})
               for r in reports)
    assert reports[0].extra is not reports[1].extra
    tagged = site_reports("c", [0, 1], 0.0, [1.0, 2.0],
                          extras=[{"k": 1}, {"k": 2}])
    assert [(r.rhs, r.extra) for r in tagged] == [(1.0, {"k": 1}),
                                                  (2.0, {"k": 2})]


@pytest.mark.parametrize("lhs, extras", [([1.0, 2.0], None),
                                         (0.0, [{}, {}])])
def test_site_reports_rejects_length_mismatch(lhs, extras):
    with pytest.raises(ValueError):
        site_reports("c", ["x", "y", "z"], lhs, 1.0, extras=extras)


def _sample():
    return [BoundReport("a", ["x", 0.5], 0.25, 1.0),
            BoundReport("b", "y", 2.0, 1.0, abs_tol=0.0, rel_tol=0.0,
                        extra={"note": True})]


def test_write_jsonl_layout(tmp_path):
    reports = _sample()
    path = tmp_path / "r.jsonl"
    config = {"seed": 3}
    write_jsonl(path, reports, config, summarize(reports))
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert len(lines) == len(reports) + 2
    assert lines[0] == {"config": config}
    assert lines[1:-1] == [r.to_json_obj() for r in reports]
    assert "extra" not in lines[1] and lines[2]["extra"] == {"note": True}
    assert lines[2]["pass"] is False and lines[2]["slack"] == -1.0
    assert lines[-1] == {"summary": summarize(reports)}


def test_csv_header_is_json_key_order(tmp_path):
    reports = _sample()
    path = tmp_path / "r.csv"
    write_csv(path, reports)
    rows = list(csv.reader(path.open(newline="")))
    assert tuple(rows[0]) == CSV_FIELDS
    for r, row in zip(reports, rows[1:], strict=True):
        obj = r.to_json_obj()
        obj.pop("extra", None)
        assert rows[0] == list(obj)
        assert json.loads(row[1]) == r.site
        assert row[2:] == [str(obj[k]) for k in CSV_FIELDS[2:]]
