"""Per-check inequality records, held as columns built from per-site arrays,
and their JSON-lines and CSV emission."""

import csv
import io
import json
import operator
import os
import shutil
from dataclasses import dataclass, field, fields
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
    A row passes when slack = rhs - lhs >= -(abs_tol + rel_tol * |rhs|); slack
    and passed are computed once, when the record is made.
    """

    check: np.ndarray
    site: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    abs_tol: np.ndarray
    rel_tol: np.ndarray
    extra: np.ndarray
    slack: np.ndarray = field(init=False)
    passed: np.ndarray = field(init=False)

    def __post_init__(self):
        self.slack = self.rhs - self.lhs
        self.passed = self.slack >= -(self.abs_tol + self.rel_tol * np.abs(self.rhs))

    def __len__(self) -> int:
        return len(self.check)


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
                     for f in fields(Reports) if f.init))


@dataclass(slots=True, eq=False)
class Part:
    """Rows already written, in the format of the writer that meets it, at the
    start of the binary file `file` (None when only summarized), and their
    summary. Summarize and the writers take it in place of its records: its
    summary is merged, and its bytes copied."""

    file: object
    summary: dict


def _records(reports):
    # a Reports, or any iterable of Reports and Parts, taken one at a time (the
    # CLI streams one per verifier call, so the whole run is never held)
    return (reports,) if isinstance(reports, Reports) else reports


def all_pass(reports) -> bool:
    return all(r.passed.all() for r in _records(reports))


def merge_summary(summary, part) -> None:
    """Fold part, the summary of later rows, into summary: the result is the
    summary of both sets of rows in turn. A new check goes last; the minimum is
    np.minimum's, as between records: of equal slacks (0.0 and -0.0) it keeps
    the earlier, and a NaN wins."""
    for check, p in part.items():
        s = summary.setdefault(check, {"n": 0, "n_pass": 0, "min_slack": p["min_slack"]})
        s["n"] += p["n"]
        s["n_pass"] += p["n_pass"]
        s["min_slack"] = float(np.minimum(s["min_slack"], p["min_slack"]))


def _fold(summary, r) -> None:
    # r's rows into summary, grouped by check name in first-seen order
    if isinstance(r, Part):
        return merge_summary(summary, r.summary)
    names = r.check if r.check.strides[0] else r.check[:1]  # a broadcast: one group
    for check in dict.fromkeys(names.tolist()):
        # compared as objects: a str scalar would lose trailing NULs
        rows = r.check == np.array(check, object) if names is r.check else slice(None)
        merge_summary(summary, {check: {"n": len(r.slack[rows]),
                                        "n_pass": int(np.count_nonzero(r.passed[rows])),
                                        "min_slack": float(r.slack[rows].min())}})


def _tally(reports, summary):
    """Each record of reports in turn, after folding it into summary."""
    for r in _records(reports):
        _fold(summary, r)
        yield r
        del r  # let go of a record before the next one is made


def summarize(reports) -> dict:
    """Pass counts and minimum slack grouped by check name, in the order the
    checks first appear: {check: {"n", "n_pass", "min_slack"}}. A NaN slack
    makes its check's minimum NaN."""
    summary = {}
    for r in _records(reports):
        _fold(summary, r)
        del r  # let go of a record before the next one is made
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
    def piece(col, texts):
        return texts(col[:1])[0] if _same(col) else (texts, col)

    def write(r):
        values = [np.asarray(f, float) for f in (r.lhs, r.rhs, r.slack, r.abs_tol, r.rel_tol)]
        floats = _floats([f for f in values if not _same(f)], reprs)
        if r.site.ndim == 2:
            start, sep, stop, texts = listed(r.site.shape[1])
            sites = [start, *[x for p in r.site.T for x in (sep, piece(p, texts))][1:], stop]
        else:
            sites = [piece(r.site, site)]
        fields = [[piece(r.check, check)], sites, *([piece(f, floats)] for f in values[:3]),
                  [piece(r.passed, passed)], *([piece(f, floats)] for f in values[3:])]
        row = [""]  # text, slot, text, ..., slot, text
        for x in [x for key, items in zip(keys, fields) for x in (key, *items)] + (
                [piece(r.extra, extra)] if extra else []) + [end]:
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

    for r in _records(reports):
        if isinstance(r, Part):
            fh.flush()
            _append(fh.fileno(), r.file.fileno())
        elif len(r):
            write(r)
        del r  # let go of a record before the next one is made


def _append(dst, src) -> None:
    # the whole file src, written at dst's offset (both descriptors): sendfile
    # copies in the kernel, and a plain copy stands in where it fails at once
    done, size = 0, os.fstat(src).st_size
    try:
        while done < size and (n := os.sendfile(dst, src, done, size - done)):
            done += n
    except OSError:
        if done:
            raise
        with open(src, "rb", closefd=False) as a, open(dst, "wb", closefd=False) as b:
            a.seek(0)
            shutil.copyfileobj(a, b)


def open_report(file):
    """A report's text file, opened for writing: UTF-8, each line ended as the
    writer writes it. file is a path, or a descriptor left open on close."""
    return open(file, "w", encoding="utf-8", newline="", closefd=not isinstance(file, int))


def write_jsonl_rows(fh, reports) -> dict:
    """Write one JSON line per report row to the text file fh and return
    summarize(reports), folded while the rows are written. The bytes are those
    of one json.dumps per line."""
    dumps = _texts(json.dumps)
    keys = [f'{", " if i else "{"}{json.dumps(f)}: ' for i, f in enumerate(FIELDS)]
    summary = {}
    _write(fh, _tally(reports, summary), keys, "}\n", dumps, dumps,
           lambda k: ("[", ", ", "]", dumps), dumps,
           lambda v: [_JSON_FLOATS.get(t, t) for t in map(float.__repr__, v.tolist())],
           _texts(lambda e: f', "extra": {json.dumps(e)}' if e else ""))
    return summary


def write_jsonl(path, reports, config) -> dict:
    """Write a config line, write_jsonl_rows and a summary footer, and return
    the summary. Every line is standalone JSON."""
    with open_report(path) as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        summary = write_jsonl_rows(fh, reports)
        fh.write(json.dumps({"summary": summary}) + "\n")
    return summary


def _csv_field(value) -> str:
    # value as csv.writer writes it as a field of a row
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[:-3]


def write_csv_rows(fh, reports) -> dict:
    """Write one CSV row per report row in FIELDS order, without extra, to the
    text file fh; the site column holds the site's JSON text. The bytes are
    those of csv.writer. Returns summarize(reports), folded while the rows are
    written."""
    inner = _texts(lambda v: json.dumps(v).replace('"', '""'))  # in a quoted field
    single = _texts(lambda v: _csv_field(f"[{json.dumps(v)}]"))

    def listed(k):  # the separator ", " of k > 1 positions makes csv quote the field
        if k > 1:
            return '"[', ", ", ']"', inner
        return ("", "", "", single) if k else ("[", "", "]", None)
    summary = {}
    _write(fh, _tally(reports, summary), ["", *","*7], "\r\n", _texts(_csv_field),
           _texts(lambda v: _csv_field(json.dumps(v))), listed, _texts(str),
           lambda v: list(map(float.__repr__, v.tolist())))
    return summary


def write_csv(path, reports) -> dict:
    """Write a header of FIELDS and write_csv_rows, and return the summary."""
    with open_report(path) as fh:
        csv.writer(fh).writerow(FIELDS)
        return write_csv_rows(fh, reports)
