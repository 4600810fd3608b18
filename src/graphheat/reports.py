"""Per-check inequality records, held as columns built from per-site arrays,
and their JSON-lines and CSV emission."""

import csv
import io
import json
import operator
from dataclasses import dataclass, fields
from itertools import repeat

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
    for r in _records(reports):
        slack, passed = r.slack, r.passed
        names = r.check if r.check.strides[0] else r.check[:1]  # a broadcast: one group
        for check in dict.fromkeys(names.tolist()):
            rows = r.check == check if names is r.check else slice(None)
            low = float(slack[rows].min())
            s = summary.setdefault(check, {"n": 0, "n_pass": 0, "min_slack": low})
            s["n"] += len(slack[rows])
            s["n_pass"] += int(np.count_nonzero(passed[rows]))
            s["min_slack"] = float(np.minimum(s["min_slack"], low))
    return summary


CHUNK_ROWS = 1024  # rows joined per write, to bound the text in memory
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _texts(text):
    """texts(col): text(v) of each value v of an object column, a str's memoized for
    the whole write (keyed by str only, as keys 0.0 == -0.0 and 1 == 1.0 == True),
    any other value's made once per object per chunk."""
    memo = {}

    def texts(col):
        values = col.tolist()
        try:
            return list(map(memo.__getitem__, values))
        except (KeyError, TypeError):  # a str not seen yet, or not a str
            objs = dict(zip(map(id, values), values))
            memo.update((v, text(v)) for v in objs.values() if type(v) is str and v not in memo)
            out = {i: memo[v] if type(v) is str else text(v) for i, v in objs.items()}
            return list(map(out.__getitem__, map(id, values)))
    return texts


def _floats(cols, reprs):
    """texts(col) of a record's float columns: a bit pattern that occurs more than once
    over all of them (or is 0.0, so the table is never empty) is formatted once by
    reprs and found by searchsorted, any other in its chunk."""
    keys = [np.zeros(2, np.int64)]
    for c in cols:  # the unique keys of each column, and twice those it repeats
        k, n = np.unique(c.view(np.int64), return_counts=True)
        keys += [k, k[n > 1]]
    keys, n = np.unique(np.concatenate(keys), return_counts=True)
    keys = keys[n > 1]  # listed more than once
    table = np.array(reprs(keys.view(float)), dtype=object)

    def texts(col):
        at = np.minimum(keys.searchsorted(bits := col.view(np.int64)), len(keys) - 1)
        out, new = table[at], keys[at] != bits
        if new.any():
            out[new] = reprs(col[new])
        return out.tolist()
    return texts


def _same(col) -> bool:
    # whether every row holds the first row's object, or a number's bit pattern
    if col.dtype == object:
        return not col.strides[0] or all(map(operator.is_, col.tolist(), repeat(col[0])))
    bits = col.view(f"i{col.itemsize}")
    return bool((bits == bits[0]).all())


def _write(fh, reports, keys, end, check, site, listed, passed, reprs, extra=None):
    """Write each record's rows by one template: keys[i] precedes field i and end
    ends a row; check, site, passed and extra (if given, written before end) give
    a column's texts, and listed(k) the (start, separator, stop, texts) of a list
    site of k positions; reprs(floats) the texts of floats. A column whose rows
    all hold one object, or one float bit pattern, is text of the template; each
    other column fills a slot, CHUNK_ROWS rows at a time, before a chunk's join."""
    def field(col, texts):
        return texts(col[:1])[0] if _same(col) else (texts, col)

    for r in _records(reports):
        if not len(r):
            continue
        values = [np.asarray(f, float) for f in (r.lhs, r.rhs, r.slack, r.abs_tol, r.rel_tol)]
        floats = _floats([f for f in values if not _same(f)], reprs)
        if r.site.ndim == 2:
            start, sep, stop, texts = listed(r.site.shape[1])
            sites = [start, *[x for p in r.site.T for x in (sep, field(p, texts))][1:], stop]
        else:
            sites = [field(r.site, site)]
        fields = [[field(r.check, check)], sites, *([field(f, floats)] for f in values[:3]),
                  [field(r.passed, passed)], *([field(f, floats)] for f in values[3:])]
        row = [""]  # text, slot, text, ..., slot, text
        for x in [x for key, items in zip(keys, fields) for x in (key, *items)] + (
                [field(r.extra, extra)] if extra else []) + [end]:
            if isinstance(x, str):
                row[-1] += x
            else:
                row += [x, ""]
        for i in range(0, len(r), CHUNK_ROWS):
            rows = row * min(CHUNK_ROWS, len(r) - i)
            for j in range(1, len(row), 2):
                texts, col = row[j]
                rows[j::len(row)] = texts(col[i:i + CHUNK_ROWS])
            fh.write("".join(rows))


def write_jsonl(path, reports, config, summary) -> None:
    """Write a config line, one report row per line and a summary footer
    (the result of summarize(reports)). Every line is standalone JSON, and
    the bytes are those of one json.dumps per line."""
    dumps = _texts(json.dumps)
    keys = [f'{", " if i else "{"}{json.dumps(f)}: ' for i, f in enumerate(FIELDS)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        _write(fh, reports, keys, "}\n", dumps, dumps, lambda k: ("[", ", ", "]", dumps), dumps,
               lambda v: [_JSON_FLOATS.get(t, t) for t in map(float.__repr__, v.tolist())],
               _texts(lambda e: f', "extra": {json.dumps(e)}' if e else ""))
        fh.write(json.dumps({"summary": summary}) + "\n")


def _csv_field(value) -> str:
    # value as csv.writer writes it as a field of a row
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[:-3]


def write_csv(path, reports) -> None:
    """One CSV row per report row in FIELDS order, without extra; the site
    column holds the site's JSON text. The bytes are those of csv.writer."""
    inner = _texts(lambda v: json.dumps(v).replace('"', '""'))  # in a quoted field
    single = _texts(lambda v: _csv_field(f"[{json.dumps(v)}]"))

    def listed(k):  # the separator ", " of k > 1 positions makes csv quote the field
        if k > 1:
            return '"[', ", ", ']"', inner
        return ("", "", "", single) if k else ("[", "", "]", None)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(FIELDS)
        _write(fh, reports, ["", *","*7], "\r\n", _texts(_csv_field),
               _texts(lambda v: _csv_field(json.dumps(v))), listed, _texts(str),
               lambda v: list(map(float.__repr__, v.tolist())))
