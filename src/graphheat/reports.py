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

    A scalar side or tolerance, the check name and extras=None become
    read-only zero-stride views of a copy of their one value; an owning float
    array of one value per site is adopted, and any other side copied. A side
    or extras list whose length differs from the number of sites raises
    ValueError.
    """
    sites = np.asarray(sites, dtype=object)
    n = len(sites)
    extras = np.array(None) if extras is None else np.fromiter(extras, dtype=object)
    if extras.shape not in ((), (n,)):
        raise ValueError(f"{len(extras)} extras for {n} sites")
    cols = [np.asarray(col, dtype=float) for col in (lhs, rhs, abs_tol, rel_tol)]
    check, *cols, extras = (
        np.broadcast_to(c.copy(), (n,)) if c.ndim == 0 else c if c.shape == (n,) and c.base is None
        else np.broadcast_to(c, (n,)).copy() for c in (np.array(check, object), *cols, extras))
    return Reports(check, sites, *cols, extras)


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
    for *_, c in _chunks(reports):
        for check in dict.fromkeys(c.check):
            rows = c.check == check
            low = float(c.slack[rows].min())
            s = summary.setdefault(check, {"n": 0, "n_pass": 0, "min_slack": low})
            s["n"] += int(np.count_nonzero(rows))
            s["n_pass"] += int(np.count_nonzero(c.passed & rows))
            s["min_slack"] = float(np.minimum(s["min_slack"], low))
    return summary


CHUNK_ROWS = 1024  # rows joined per write, to bound the text in memory
_SPELLED = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json does
_KEYS = [f'{", " if i else "{"}{json.dumps(f)}: ' for i, f in enumerate(FIELDS)]
_ZERO = np.zeros(1, np.int64), np.array(["0.0"], dtype=object)  # the table of 0.0


def _chunks(reports):
    # each record, and its rows CHUNK_ROWS at a time from row i as a Reports
    for r in _records(reports):
        for i in range(0, len(r), CHUNK_ROWS):
            yield r, i, Reports(*(getattr(r, f.name)[i:i + CHUNK_ROWS] for f in fields(Reports)))


def _texts(col, strs, spelled, table=_ZERO) -> list:
    """The json text of each value of a column, once for a broadcast scalar: a str
    memoized in strs, keyed by str only (as keys 0.0 == -0.0 and 1 == 1.0 == True);
    a float found by its bit pattern in table, or formatted, respelled by spelled."""
    if len(col) > 1 and not col.strides[0]:
        return _texts(col[:1], strs, spelled, table) * len(col)
    if col.dtype == object:
        values = col.tolist()
        if (kinds := set(map(type, values))) == {str}:
            strs.update((v, json.dumps(v)) for v in set(values).difference(strs))
            return list(map(strs.__getitem__, values))
        if kinds == {float}:  # a list site's times: a few per chunk, each formatted once
            keys, at = np.unique(np.array(values).view(np.int64), return_inverse=True)
            return np.array(_texts(keys.view(float), strs, _SPELLED), dtype=object)[at].tolist()
        return list(map(json.dumps, values))
    keys, texts = table
    at = np.minimum(np.searchsorted(keys, bits := col.view(np.int64)), len(keys) - 1)
    texts, new = texts[at], keys[at] != bits
    texts[new] = [spelled.get(t, t) for t in map(float.__repr__, col[new].tolist())]
    return texts.tolist()


def _fields(reports, spelled, bools):
    """Each chunk of each record and its fields' pieces in FIELDS order, a str or one text
    per row; a float repeated in its record's column is formatted once; pass is bools[passed]."""
    strs = {}
    for r, i, c in _chunks(reports):
        if not i:  # the sorted bit patterns that repeat in each float column, and 0.0
            floats = [np.asarray(f, float) for f in (r.lhs, r.rhs, r.slack, r.abs_tol, r.rel_tol)]
            keys = [np.union1d(k[n > 1], 0) for k, n in (np.unique(f.view(np.int64)[
                :len(f) if f.strides[0] else 1], return_counts=True) for f in floats)]
            tables = [(k, np.array(_texts(k.view(float), strs, spelled), object)) for k in keys]
        site = [_texts(p, strs, spelled) for p in (c.site.T if c.site.ndim == 2 else [c.site])]
        values = [[_texts(f[i:i + len(c)], strs, spelled, t)] for f, t in zip(floats, tables)]
        yield c, [[_texts(c.check, strs, spelled)], ["[", *[t for s in site for t in (
            ", ", s)][1:], "]"] if c.site.ndim == 2 else site, *values[:3],
            [list(map(bools.__getitem__, c.passed.tolist()))], *values[3:]]


def write_jsonl(path, reports, config, summary) -> None:
    """Write a config line, one report row per line and a summary footer
    (the result of summarize(reports)). Every line is standalone JSON, and
    the bytes are those of one json.dumps per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        for c, values in _fields(reports, _SPELLED, ("false", "true")):
            pieces = [p for key, v in zip(_KEYS, values) for p in (key, *v)] + [[
                f', "extra": {json.dumps(e)}}}\n' if e else "}\n" for e in c.extra.tolist()]]
            rows = [""] * (len(pieces) * len(c))  # stitched a piece at a time, joined once
            for j, p in enumerate(pieces):
                rows[j::len(pieces)] = [p] * len(c) if isinstance(p, str) else p
            fh.write("".join(rows))
        fh.write(json.dumps({"summary": summary}) + "\n")


def write_csv(path, reports) -> None:
    """One CSV row per report row in FIELDS order, without extra; the site
    column holds the site's JSON text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FIELDS)
        for c, (_, site, *values) in _fields(reports, {}, (False, True)):
            site = map("".join, zip(*([p] * len(c) if isinstance(p, str) else p for p in site)))
            w.writerows(zip(c.check.tolist(), site, *(v for [v] in values)))
