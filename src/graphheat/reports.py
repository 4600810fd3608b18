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
    extra (a dict or None) and site, 1-d or (rows, positions) for list sites.
    A row passes when slack = rhs - lhs >= -(abs_tol + rel_tol * |rhs|).
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

    A scalar side or tolerance applies to every site; only an owning float
    array of one value per site is not copied. A side or extras list whose
    length differs from the number of sites raises ValueError.
    """
    sites = np.asarray(sites, dtype=object)
    n = len(sites)
    extras = np.full(n, None) if extras is None else np.fromiter(extras, dtype=object)
    if len(extras) != n:
        raise ValueError(f"{len(extras)} extras for {n} sites")
    cols = [np.asarray(col, dtype=float) for col in (lhs, rhs, abs_tol, rel_tol)]
    return Reports(np.full(n, check, dtype=object), sites,
                   *(c if c.shape == (n,) and c.base is None
                     else np.broadcast_to(c, (n,)).copy() for c in cols), extras)


def concat(parts) -> Reports:
    """The rows of several Reports of one site layout, in order, as one."""
    parts = list(parts) or [site_reports("", [], [], [])]
    return Reports(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(Reports)))


def _records(reports) -> list:
    # a Reports, or a sequence of them (the CLI keeps one per verifier call)
    return [reports] if isinstance(reports, Reports) else list(reports)


def all_pass(reports) -> bool:
    return all(r.passed.all() for r in _records(reports))


def summarize(reports) -> dict:
    """Pass counts and minimum slack grouped by check name, in the order the
    checks first appear; a NaN slack makes its check's minimum NaN."""
    summary = {}
    for checks, _, _, _, slack, passed, *_ in _chunks(reports):
        for check in dict.fromkeys(checks):
            rows = checks == check
            low = float(slack[rows].min())
            s = summary.setdefault(check, {"n": 0, "n_pass": 0, "min_slack": low})
            s["n"] += int(np.count_nonzero(rows))
            s["n_pass"] += int(np.count_nonzero(passed & rows))
            s["min_slack"] = float(np.minimum(s["min_slack"], low))
    return summary


CHUNK_ROWS = 1024  # rows joined per write, to bound the text in memory
# a report line as json.dumps writes it, up to the line end that fills the last %s
_ROW = "{" + ", ".join(f"{json.dumps(f)}: %s" for f in FIELDS) + "%s"
_SPELLED = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json does


def _chunks(reports):
    # each record's columns in FIELDS order, then extra, CHUNK_ROWS rows at a
    # time; slack and pass per chunk, so a large record adds no large temporaries
    for r in _records(reports):
        for i in range(0, len(r), CHUNK_ROWS):
            c = Reports(*(getattr(r, f.name)[i:i + CHUNK_ROWS] for f in fields(Reports)))
            yield (c.check, c.site, c.lhs, c.rhs, c.slack, c.passed, c.abs_tol,
                   c.rel_tol, c.extra)


def _float_texts(col, spelled) -> np.ndarray:
    # float.__repr__ once per bit pattern (0.0 and -0.0 apart), respelled by spelled
    bits, inverse = np.unique(np.asarray(col, float).view(np.int64), return_inverse=True)
    texts = [spelled.get(t, t) for t in map(float.__repr__, bits.view(float).tolist())]
    return np.array(texts, dtype=object)[inverse]


def _json_texts(values) -> list:
    # json.dumps of each value, memoized for str only: 0.0 == -0.0, 1 == 1.0 == True
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map({v: json.dumps(v) for v in set(values)}.__getitem__, values))
    if kinds == {float}:
        return _float_texts(values, _SPELLED).tolist()
    return list(map(json.dumps, values))


def _site_texts(sites):
    # json.dumps of each site; a (rows, positions) array of list sites is
    # composed from the texts at each position, and (rows, 0) writes []
    if sites.ndim == 2 and sites.shape[1]:
        return map(("[" + ", ".join(["%s"] * sites.shape[1]) + "]").__mod__,
                   zip(*map(_json_texts, sites.T.tolist())))
    return _json_texts(sites.tolist())


def write_jsonl(path, reports, config, summary) -> None:
    """Write a config line, one report row per line and a summary footer
    (the result of summarize(reports)). Every line is standalone JSON, and
    the bytes are those of one json.dumps per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        for check, site, lhs, rhs, slack, passed, *tols, extra in _chunks(reports):
            lhs, rhs, slack, *tols = (_float_texts(c, _SPELLED)
                                      for c in (lhs, rhs, slack, *tols))
            fh.write("".join(map(_ROW.__mod__, zip(
                _json_texts(check.tolist()), _site_texts(site),
                lhs, rhs, slack, map(("false", "true").__getitem__, passed.tolist()),
                *tols, [f', "extra": {json.dumps(e)}}}\n' if e else "}\n"
                        for e in extra.tolist()]))))
        fh.write(json.dumps({"summary": summary}) + "\n")


def write_csv(path, reports) -> None:
    """One CSV row per report row in FIELDS order, without extra; the site
    column holds the site's JSON text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FIELDS)
        for check, site, lhs, rhs, slack, passed, *tols, _ in _chunks(reports):
            w.writerows(zip(check.tolist(), _site_texts(site),
                            *(_float_texts(c, {}) for c in (lhs, rhs, slack)),
                            passed.tolist(), *(_float_texts(c, {}) for c in tols)))
