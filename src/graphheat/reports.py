"""Per-check inequality records, held as columns built from per-site arrays,
and their JSON-lines and CSV emission."""

import collections
import csv
import io
import json
import operator
import os
import shutil
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import compress, count, repeat

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
    and passed are computed once, when the record is made. shares_floats, if
    set, says that the records after it repeat its float values, as a
    kernel's source blocks do: a writer keeps their texts for those records.
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
    shares_floats: bool = field(init=False, default=False)

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
    collections.deque(_tally(reports, summary), maxlen=0)  # holds no record
    return summary


CHUNK_ROWS = 1024  # rows joined per write, to bound the text in memory
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


def _texts(text):
    """column(col): (col, slot) of an object column, one row if all hold one
    object; slot(s), text(v) of each row s's value v: a str's memoized (keyed by
    str only: 0.0 == -0.0, 1 == 1.0 == True), any other's once per chunk."""
    memo = {}

    def texts(values):
        try:
            return operator.itemgetter(*values)(memo) if len(values) > 1 else [memo[values[0]]]
        except (KeyError, TypeError):  # a str not seen yet, or not a str
            starts = [0, *compress(count(1), map(operator.is_not, values[1:], values))]
            objs = dict(zip(map(id, heads := [values[i] for i in starts]), heads))
            memo.update((v, text(v)) for v in objs.values() if type(v) is str and v not in memo)
            out = {i: memo[v] if type(v) is str else text(v) for i, v in objs.items()}
            return np.repeat(np.array(list(map(out.__getitem__, map(id, heads))), object),
                             np.diff(starts + [len(values)])).tolist()

    def column(col):
        col = col[:1] if _same(col) else col
        return col, lambda s: texts(col[s].tolist())
    return column


def _same(col) -> bool:
    # whether every row holds the first row's number (by bit pattern) or object:
    # an object column's strided sample first, so one that varies is seldom read whole
    if col.dtype != object:
        bits = col.view(f"i{col.itemsize}")
        return bool((bits == bits[0]).all())
    return not col.strides[0] or all(all(map(operator.is_, c.tolist(), repeat(col[0])))
                                     for c in (col[::max(1, len(col) // 64)], col))


VOCABULARY_FLOATS = 1 << 18  # float texts kept for later records: 8 MiB as bytes


def _vocabulary(reprs):
    """slots(floats, r): (column, slot) of each float column of record r, as for
    _texts, by reprs: one sort of r's patterns; those kept, repeated or to keep
    in a table for r, any other made in its chunk. The texts made for records that
    share_floats are kept, up to VOCABULARY_FLOATS, until one does not."""
    runs = []  # (bit patterns, texts), disjoint

    def slots(floats, r):
        floats = [f[:1] if _same(f) else f for f in floats]
        keys, counts = np.unique(np.concatenate([f.view(np.int64) for f in floats]),
                                 return_counts=True)
        table, new = np.empty(len(keys), object), np.ones(len(keys), bool)
        for known, texts in runs:
            i = np.minimum(known.searchsorted(keys), len(known) - 1)
            new[hit := np.flatnonzero(known[i] == keys)] = False
            table[hit] = list(map(bytes.decode, texts[i[hit]].tolist()))
        now = new & ((counts > 1) | r.shares_floats)
        now[0] = new[0]  # so that some pattern has a text
        table[now] = made = reprs(keys[now].view(float))
        if not r.shares_floats:
            runs.clear()
        elif made and (room := VOCABULARY_FLOATS - sum(len(k) for k, _ in runs)) > 0:
            runs.append((keys[now][:room], np.array(made[:room], "S24")))  # a text has <= 24
            while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
                (known, texts), (k, t) = runs[-2:]
                i = known.searchsorted(k)
                runs[-2:] = [(np.insert(known, i, k), np.insert(texts, i, t))]
        keys, table = keys[new <= now], table[new <= now]  # those with a text

        def slot(f, at, s):
            out = table[at := at[s]]
            if not (hit := keys[at] == f[s].view(np.int64)).all():
                out[~hit] = reprs(f[s][~hit])
            return out.tolist()
        return [(f, partial(slot, f, np.minimum(keys.searchsorted(f.view(np.int64)),
                                                len(keys) - 1).astype(np.int32))) for f in floats]
    return slots


def _write(fh, reports, keys, end, check, site, listed, passed, reprs, extra=None) -> dict:
    """Write each record's rows by one template and return summarize(reports):
    keys[i] precedes field i, end ends a row; check, site, passed and listed(k)'s
    texts (a list site's start, separator, stop, texts) are _texts columns, and
    extra(col) the extra column's pieces: texts, and (column, _texts or None)."""
    slots = _vocabulary(reprs)

    def write(r):
        if r.site.ndim == 2:
            start, sep, stop, texts = listed(r.site.shape[1])
            sites = [start, *[x for p in r.site.T for x in (sep, (p, texts))][1:], stop]
        else:
            sites = [(r.site, site)]
        f = [[(np.asarray(c, float), None)] for c in (r.lhs, r.rhs, r.slack, r.abs_tol, r.rel_tol)]
        fields = [[(r.check, check)], sites, *f[:3], [(r.passed, passed)], *f[3:]]
        pieces = [x for key, items in zip(keys, fields) for x in (key, *items)]
        pieces += [*(extra(r.extra) if extra else []), end]
        floats = iter(slots([f for f, texts in (x for x in pieces if not isinstance(x, str))
                             if texts is None], r))
        row = [""]  # text, slot, text, ..., slot, text
        for x in pieces:
            if not isinstance(x, str):
                col, slot = next(floats) if x[1] is None else x[1](x[0])
                if len(col) > 1:
                    row += [slot, ""]
                    continue
                x = slot(slice(1))[0]
            row[-1] += x
        for i in range(0, len(r), CHUNK_ROWS):
            rows = row * min(CHUNK_ROWS, len(r) - i)
            for j in range(1, len(row), 2):
                rows[j::len(row)] = row[j](slice(i, min(i + CHUNK_ROWS, len(r))))
            rows = "".join(rows)  # the list let go before the text is encoded
            fh.write(rows)

    summary = {}
    for r in _tally(reports, summary):
        if isinstance(r, Part):
            fh.flush()
            _append(fh.fileno(), r.file.fileno())
        elif len(r):
            write(r)
        del r  # let go of a record before the next one is made
    return summary


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
    writer writes it. file is a path, or a descriptor left open on close. A
    path is emptied as by mode "w", but truncated only if it holds bytes: on
    ext4 (auto_da_alloc) closing a truncated file starts writing it back."""
    if isinstance(file, int):
        return open(file, "w", encoding="utf-8", newline="", closefd=False)
    fd = os.open(file, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        if os.fstat(fd).st_size:
            os.ftruncate(fd, 0)
        return open(fd, "w", encoding="utf-8", newline="")
    except BaseException:
        os.close(fd)
        raise


def _json_floats(floats) -> list:
    # float.__repr__ of each float, with nan, inf and -inf spelled as json does
    texts = list(map(float.__repr__, floats.tolist()))
    for i in np.flatnonzero(~np.isfinite(floats)).tolist():
        texts[i] = _JSON_FLOATS[texts[i]]
    return texts


def write_jsonl_rows(fh, reports) -> dict:
    """Write one JSON line per report row to the text file fh and return
    summarize(reports), folded while the rows are written. The bytes are those
    of one json.dumps per line."""
    dumps = _texts(json.dumps)
    extras = _texts(lambda e: f', "extra": {json.dumps(e)}' if e else "")

    def extra(col):
        # dicts of one tuple of str keys make a template, no dict dumped on its own:
        # a key's values are a float column if all are floats, else an object column
        es = col.tolist() if col.strides[0] else [None]
        names = tuple(es[0]) if type(es[0]) is dict else ()
        if not (names and all(type(k) is str for k in names)
                and all(type(e) is dict and tuple(e) == names for e in es)):
            return [(col, extras)]
        pieces = [', "extra": {']
        for name, values in zip(names, zip(*map(dict.values, es))):
            floats = all(type(v) is float for v in values)
            pieces += [f"{json.dumps(name)}: ", (np.fromiter(values, float if floats else object),
                                                  None if floats else dumps), ", "]
        return pieces[:-1] + ["}"]
    keys = [f'{", " if i else "{"}{json.dumps(f)}: ' for i, f in enumerate(FIELDS)]
    return _write(fh, reports, keys, "}\n", dumps, dumps, lambda k: ("[", ", ", "]", dumps), dumps,
                  _json_floats, extra)


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
    return _write(fh, reports, ["", *","*7], "\r\n", _texts(_csv_field),
                  _texts(lambda v: _csv_field(json.dumps(v))), listed, _texts(str),
                  lambda v: list(map(float.__repr__, v.tolist())))


def write_csv(path, reports) -> dict:
    """Write a header of FIELDS and write_csv_rows, and return the summary."""
    with open_report(path) as fh:
        csv.writer(fh).writerow(FIELDS)
        return write_csv_rows(fh, reports)
