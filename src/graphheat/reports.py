"""Per-check inequality records, built from per-site arrays, and their
JSON-lines and CSV emission."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-9


@dataclass(slots=True)
class BoundReport:
    """One verified inequality lhs <= rhs at one site.

    slack = rhs - lhs; the check passes when
    slack >= -(abs_tol + rel_tol * |rhs|).
    """

    check: str
    site: object
    lhs: float
    rhs: float
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    extra: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -(self.abs_tol + self.rel_tol * abs(self.rhs))

    def to_json_obj(self) -> dict:
        obj = {
            "check": self.check,
            "site": self.site,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
        }
        if self.extra:
            obj["extra"] = self.extra
        return obj


# the CSV columns: the JSON key order of a report without extra
CSV_FIELDS = tuple(BoundReport("", None, 0.0, 0.0).to_json_obj())


def site_reports(check, sites, lhs, rhs, abs_tol=DEFAULT_ABS_TOL,
                 rel_tol=DEFAULT_REL_TOL, extras=None):
    """One BoundReport per site from 1-d arrays of the two sides.

    A scalar side applies to every site. Each value is the Python float that
    float(side[i]) gives; a side or extras list whose length differs from
    the number of sites raises ValueError.
    """
    sites = list(sites)
    lhs, rhs = (np.broadcast_to(np.asarray(side, dtype=float), (len(sites),)).tolist()
                for side in (lhs, rhs))
    if extras is None:
        extras = [{} for _ in sites]
    return [BoundReport(check, s, a, b, abs_tol, rel_tol, e)
            for s, a, b, e in zip(sites, lhs, rhs, extras, strict=True)]


def all_pass(reports) -> bool:
    return all(r.passed for r in reports)


def summarize(reports) -> dict:
    """Pass counts and minimum slack grouped by check name."""
    summary = {}
    for r in reports:
        s = summary.setdefault(r.check, {"n": 0, "n_pass": 0, "min_slack": None})
        s["n"] += 1
        s["n_pass"] += int(r.passed)
        slack = r.slack
        if s["min_slack"] is None or slack < s["min_slack"]:
            s["min_slack"] = slack
    return summary


def write_jsonl(path, reports, config, summary) -> None:
    """Write a config line, one report per line and a summary footer (the
    result of summarize(reports)). Every line is standalone JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        for r in reports:
            fh.write(json.dumps(r.to_json_obj()) + "\n")
        fh.write(json.dumps({"summary": summary}) + "\n")


def write_csv(path, reports) -> None:
    """One CSV row per report in CSV_FIELDS order, without extra; the site
    column holds the site's JSON text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for r in reports:
            obj = r.to_json_obj()
            obj["site"] = json.dumps(obj["site"])
            w.writerow([obj[k] for k in CSV_FIELDS])
