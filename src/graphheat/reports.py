"""Per-check inequality records, held as columns built from per-site arrays,
and their JSON-lines and CSV emission."""

import csv
import json
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-9

# the fields of a report row: JSON key order and CSV columns
FIELDS = ("check", "site", "lhs", "rhs", "slack", "pass", "abs_tol", "rel_tol")


@dataclass(slots=True, eq=False)
class Reports:
    """Verified inequalities lhs <= rhs, one row per site, as equal-length
    columns: float arrays lhs, rhs, abs_tol, rel_tol and object arrays check,
    site, extra (a dict or None). A row passes when
    slack = rhs - lhs >= -(abs_tol + rel_tol * |rhs|).
    """

    check: np.ndarray
    site: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    abs_tol: np.ndarray
    rel_tol: np.ndarray
    extra: np.ndarray

    def __len__(self) -> int:
        return len(self.check)

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def passed(self) -> np.ndarray:
        return self.slack >= -(self.abs_tol + self.rel_tol * np.abs(self.rhs))


def site_reports(check, sites, lhs, rhs, abs_tol=DEFAULT_ABS_TOL,
                 rel_tol=DEFAULT_REL_TOL, extras=None) -> Reports:
    """One row per site from 1-d arrays of the two sides.

    A scalar side or tolerance applies to every site; a side or extras list
    whose length differs from the number of sites raises ValueError.
    """
    sites = np.fromiter(sites, dtype=object)
    n = len(sites)
    extras = np.full(n, None) if extras is None else np.fromiter(extras, dtype=object)
    if len(extras) != n:
        raise ValueError(f"{len(extras)} extras for {n} sites")
    return Reports(np.full(n, check, dtype=object), sites,
                   *(np.broadcast_to(np.asarray(col, dtype=float), (n,)).copy()
                     for col in (lhs, rhs, abs_tol, rel_tol)), extras)


def concat(parts) -> Reports:
    """The rows of several Reports, in order, as one."""
    parts = [site_reports("", [], [], []), *parts]  # so concat([]) is empty
    return Reports(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(Reports)))


def _records(reports) -> list:
    # a Reports, or a sequence of them (the CLI keeps one per verifier call)
    return [reports] if isinstance(reports, Reports) else list(reports)


def all_pass(reports) -> bool:
    return all(r.passed.all() for r in _records(reports))


def summarize(reports) -> dict:
    """Pass counts and minimum slack grouped by check name, in the order the
    checks first appear."""
    summary = {}
    for r in _records(reports):
        slack, passed = r.slack, r.passed
        for check in dict.fromkeys(r.check):
            rows = r.check == check
            low = float(slack[rows].min())
            s = summary.setdefault(check, {"n": 0, "n_pass": 0, "min_slack": low})
            s["n"] += int(np.count_nonzero(rows))
            s["n_pass"] += int(np.count_nonzero(passed & rows))
            s["min_slack"] = min(s["min_slack"], low)
    return summary


def _rows(reports):
    # each row's values in FIELDS order, then its extra
    for r in _records(reports):
        yield from zip(r.check.tolist(), r.site.tolist(), r.lhs.tolist(),
                       r.rhs.tolist(), r.slack.tolist(), r.passed.tolist(),
                       r.abs_tol.tolist(), r.rel_tol.tolist(), r.extra.tolist())


def write_jsonl(path, reports, config, summary) -> None:
    """Write a config line, one report row per line and a summary footer
    (the result of summarize(reports)). Every line is standalone JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        for *row, extra in _rows(reports):
            obj = dict(zip(FIELDS, row))
            if extra:
                obj["extra"] = extra
            fh.write(json.dumps(obj) + "\n")
        fh.write(json.dumps({"summary": summary}) + "\n")


def write_csv(path, reports) -> None:
    """One CSV row per report row in FIELDS order, without extra; the site
    column holds the site's JSON text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FIELDS)
        for check, site, *values, _ in _rows(reports):
            w.writerow([check, json.dumps(site), *values])
