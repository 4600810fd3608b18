import csv
import errno
import io
import json
import math
import os
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from graphheat import cli, estimates, generate, reports as reports_module, save_graph
from graphheat.semigroup import heat_kernel
from graphheat.reports import (CHUNK_ROWS, FIELDS, Part, Reports, all_pass, concat,
                               merge_summary, open_report, site_reports, summarize,
                               write_csv, write_csv_rows, write_jsonl, write_jsonl_rows)

ROOT = Path(__file__).resolve().parents[1]


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
    # a NaN slack makes the minimum NaN wherever its row falls
    ok, bad = site_reports("c", [0], 0.0, 1.0), site_reports("c", [1], np.nan, 1.0)
    for split in ([ok, bad], [bad, ok], concat([ok, bad]), concat([bad, ok])):
        assert math.isnan(summarize(split)["c"]["min_slack"])


def test_summarize_groups_interleaved_checks_in_first_seen_order():
    mixed = concat([site_reports("b", [0], 0.0, 1.0),
                    site_reports("a", [0], 2.0, 1.0),
                    site_reports("b", [1], 0.5, 1.0)])
    assert list(summarize(mixed)) == ["b", "a"]
    assert summarize(mixed)["b"] == {"n": 2, "n_pass": 2, "min_slack": 0.5}
    # names that differ only by a trailing NUL are two checks
    nul = concat([site_reports("a", [0], 0.0, 1.0), site_reports("a\x00", [0], 2.0, 1.0)])
    assert summarize(nul) == {"a": {"n": 1, "n_pass": 1, "min_slack": 1.0},
                              "a\x00": {"n": 1, "n_pass": 0, "min_slack": -1.0}}
    assert not all_pass(mixed) and all_pass([])


def _first_min(values):
    # the minimum of values in turn: a NaN wins, and of equal values the first
    low = values[0]
    for v in values[1:]:
        if not math.isnan(low) and (math.isnan(v) or v < low):
            low = v
    return low


def test_merged_summaries_of_consecutive_rows_are_the_summary_of_all():
    # any split of the records into runs, each summarized and merged in
    # order, gives the summary of all: equal zeros keep the first one's sign,
    # and a NaN wins wherever it falls
    slacks = [(1.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (np.nan, 1.0), (0.0, 2.0)]  # lhs, rhs
    for picks in ([0, 1, 2], [2, 1, 0], [1, 4, 2], [3, 0, 1], [0, 1, 3, 2], [4, 2, 1], [1, 3]):
        recs = [site_reports("c" if i % 2 else "d", [i], *slacks[i]) for i in picks]
        want = {}
        for r in recs:
            want.setdefault(r.check[0], []).append(float(r.slack[0]))
        want = {check: {"n": len(v), "n_pass": sum(not math.isnan(x) for x in v),
                        "min_slack": _first_min(v)} for check, v in want.items()}
        assert json.dumps(summarize(recs)) == json.dumps(want), picks
        for cut in range(len(recs) + 1):
            merged = {}
            for part in (recs[:cut], recs[cut:]):
                merge_summary(merged, summarize(part))
            assert json.dumps(merged) == json.dumps(want), (picks, cut)


@pytest.mark.parametrize("nan", [False, True])
def test_block_summaries_merge_to_the_record_summary(nan):
    # a verifier's rows split into blocks at any row: merged block by block,
    # the footer is the one record's, with a minimum of exactly 0.0 (lhs =
    # rhs) kept as 0.0, or a NaN; a -0.0 slack would need rhs = -0.0, which no
    # function verifier makes
    rng = np.random.default_rng(4)
    rhs = rng.uniform(1.0, 2.0, 40)
    lhs = rhs - rng.uniform(0.0, 1.0, 40)
    lhs[[3, 17, 18, 33]] = rhs[[3, 17, 18, 33]]
    if nan:
        lhs[25] = np.nan
    checks = np.where(np.arange(40) % 3, "a", "b")
    record = site_reports(checks, list(range(40)), lhs, rhs)
    want = json.dumps(summarize(record))
    for cut in range(41):
        blocks = [site_reports(checks[i:j], list(range(i, j)), lhs[i:j], rhs[i:j])
                  for i, j in ((0, cut), (cut, 40))]
        assert json.dumps(summarize(blocks)) == want, cut
    assert ('"min_slack": NaN' in want) == nan and '"min_slack": 0.0' in want


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
    # scalar columns are read-only zero-stride views of a value of their own
    rhs, abs_tol = np.array(1.0), np.zeros(())
    shared = site_reports("c", ["x", "y", "z"], lhs, rhs, abs_tol)
    for name in ("check", "rhs", "abs_tol", "rel_tol", "extra"):
        col = getattr(shared, name)
        assert col.shape == (3,) and col.strides == (0,) and not col.flags.writeable, name
        assert not any(np.shares_memory(col, a) for a in (lhs, rhs, abs_tol)), name
    tagged = site_reports("c", [0, 1], 0.0, [1.0, 2.0],
                          extras=[{"k": 1}, {"k": 2}])
    assert tagged.rhs.tolist() == [1.0, 2.0]
    assert tagged.extra.tolist() == [{"k": 1}, {"k": 2}]


def test_site_reports_copies_views_and_adopts_fresh_arrays():
    matrix = np.arange(4.0).reshape(2, 2)
    view = matrix.ravel()  # as verify_kernel_upper passes a kernel matrix
    fresh = np.array([1.0, 2.0, 3.0, 4.0])
    reports = site_reports("c", range(4), view, fresh)
    assert reports.lhs.tolist() == view.tolist()
    assert not np.shares_memory(reports.lhs, matrix)
    assert reports.rhs is fresh  # an owning float column is adopted, not copied


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
    assert write_jsonl(path, reports, config) == summarize(reports)
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
    # records of one site layout, and one record holding their rows, write the
    # same bytes
    for sites in ([["x", 0.5]], [["y", 1.5]]), (["x"], ["y"]):
        same = [site_reports("a", sites[0], 0.25, 1.0),
                site_reports("b", sites[1], 2.0, 1.0, extras=[{"note": True}])]
        two, one = tmp_path / "two.jsonl", tmp_path / "one.jsonl"
        write_jsonl(two, same, config)
        write_jsonl(one, concat(same), config)
        assert one.read_bytes() == two.read_bytes()


def test_summarize_and_writers_take_a_one_shot_generator(tmp_path):
    recs = [*_sample(), site_reports("a", [["z", 1.5]], 3.0, 1.0)]
    assert summarize(r for r in recs) == summarize(recs)
    for name, write, args in [("jsonl", write_jsonl, ({"seed": 1},)), ("csv", write_csv, ())]:
        listed, once = tmp_path / f"listed.{name}", tmp_path / f"once.{name}"
        assert write(once, (r for r in recs), *args) == write(listed, recs, *args) \
            == summarize(recs)
        assert once.read_bytes() == listed.read_bytes(), name


@pytest.mark.parametrize("sendfile", [True, False], ids=["sendfile", "plain-copy"])
def test_writers_copy_parts_as_the_rows_they_hold(tmp_path, monkeypatch, sendfile):
    # a Part's rows, written beforehand by the rows writer, are copied in
    # place of its records, and its summary merged
    if not sendfile:
        def no_sendfile(*args):
            raise OSError(errno.EINVAL, "no sendfile between these files")
        monkeypatch.setattr(os, "sendfile", no_sendfile, raising=False)
    recs = [*_sample(), site_reports("a", [["z", 1.5]], 3.0, 1.0)]
    for name, rows, write, args in [("jsonl", write_jsonl_rows, write_jsonl, ({"seed": 1},)),
                                    ("csv", write_csv_rows, write_csv, ())]:
        parts = []
        for r in recs:
            part = tempfile.TemporaryFile(dir=tmp_path)
            with open_report(part.fileno()) as fh:
                parts.append(Part(part, rows(fh, [r])))
        want, got = tmp_path / f"want.{name}", tmp_path / f"got.{name}"
        assert write(got, [parts[0], recs[1], parts[2]], *args) == write(want, recs, *args)
        assert got.read_bytes() == want.read_bytes(), name
        for part in parts:
            part.file.close()


def test_open_report_truncates_only_a_file_that_holds_bytes(tmp_path, monkeypatch):
    # a path is emptied and made as by mode "w", but an empty one, such as the
    # stage of a --out, is not truncated: closing a truncated file can start
    # its writeback at once
    truncated = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, size: truncated.append(size) or ftruncate(fd, size))
    old, empty, new, plain = (tmp_path / name for name in ("old", "empty", "new", "plain"))
    old.write_text("a text longer than the report\n")
    empty.touch()
    for path in (old, empty, new):
        with open_report(path) as fh:
            fh.write("row\r\n")
    assert truncated == [0]
    assert old.read_bytes() == empty.read_bytes() == new.read_bytes() == b"row\r\n"
    open(plain, "w").close()
    assert new.stat().st_mode == plain.stat().st_mode
    # the CLI writes a replaced --out through its empty stage
    graph = str(ROOT / "example_graphs" / "grid3x3.json")
    for argv in (["verify", "--graph", graph, "--out", str(old)],
                 ["kernel", "--graph", graph, "--out", str(old)]):
        assert cli.main(argv) == 0
        assert old.read_bytes().startswith((b'{"config"', b"t,x,y,p\r\n"))
    assert truncated == [0]


def test_concat_rejects_records_of_different_site_layouts():
    listed, bare = _sample()
    assert listed.site.shape == (1, 2) and bare.site.shape == (1,)
    longer = site_reports("a", [["x", 0.5, "z"]], 0.25, 1.0)
    for parts in ([listed, bare], [bare, listed], [listed, longer]):
        with pytest.raises(ValueError, match="dimension"):
            concat(parts)


def test_csv_header_is_json_key_order(tmp_path):
    reports = _sample()
    path = tmp_path / "r.csv"
    assert write_csv(path, reports) == summarize(reports)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == FIELDS
    assert rows[1:] == [
        ["a", '["x", 0.5]', "0.25", "1.0", "0.75", "True", "1e-10", "1e-09"],
        ["b", '"y"', "2.0", "1.0", "-1.0", "False", "0.0", "0.0"],
    ]


# -- the writers against one json.dumps per row ------------------------------

def _oracle_rows(records):
    # each row's values in FIELDS order, then its extra
    for r in records:
        yield from zip(r.check.tolist(), r.site.tolist(), r.lhs.tolist(),
                       r.rhs.tolist(), r.slack.tolist(), r.passed.tolist(),
                       r.abs_tol.tolist(), r.rel_tol.tolist(), r.extra.tolist())


def oracle_jsonl(path, records, config):
    summary = summarize(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": config}) + "\n")
        for *row, extra in _oracle_rows(records):
            obj = dict(zip(FIELDS, row)) | ({"extra": extra} if extra else {})
            fh.write(json.dumps(obj) + "\n")
        fh.write(json.dumps({"summary": summary}) + "\n")


def oracle_csv(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FIELDS)
        for check, site, *values, _ in _oracle_rows(records):
            w.writerow([check, json.dumps(site), *values])


def _written(write, path, *args):
    # the bytes written, or the error: a check name holding a lone surrogate
    # has no UTF-8 text in a CSV file, for the writer and the oracle alike
    try:
        write(path, *args)
    except UnicodeEncodeError as exc:
        return type(exc)
    return path.read_bytes()


def _assert_writers_match_oracle(directory, records, config):
    for name, got, want, args in [("jsonl", write_jsonl, oracle_jsonl, (records, config)),
                                  ("csv", write_csv, oracle_csv, (records,))]:
        assert _written(got, directory / f"got.{name}", *args) == _written(
            want, directory / f"want.{name}", *args), name


_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
FLOATS = st.sampled_from([math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf,
                          0.0, -0.0, 5e-324, 1e16, 1e-5]) | st.floats()
SPECIAL_CHARS = '"\\/\x00\x1f\x7f\n\té\u2028\U0001F600'  # escaped by json, or not ASCII
TEXT = st.text(st.sampled_from(SPECIAL_CHARS) | st.characters(), max_size=5)
MIXED = st.sampled_from([1, 1.0, True, 0.0, -0.0])
ATOMS = TEXT | st.integers() | st.booleans() | FLOATS | MIXED
EXTRAS = st.none() | st.just({}) | st.dictionaries(TEXT, ATOMS, max_size=2)


# a few floats, so that a column drawn from them repeats values across chunks
# and records: both zeros and NaNs of several bit patterns among them
POOL = st.sampled_from([0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf,
                        1.0, 0.1, 1e-10])


def _column(draw, n, values, dtype, pool=POOL):
    # n of values, n from pool (for floats) or one value as a zero-stride broadcast
    how = draw(st.sampled_from(["any", "pool", "broadcast"]))
    if how == "broadcast":
        return np.broadcast_to(np.array(draw(values), dtype=dtype), (n,))
    if how == "pool" and dtype is float:
        values = pool
    return np.fromiter(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)


def _objects(draw, n, values):
    # n values, one object n times, or a few objects each row takes one of, as
    # a list site's time position does
    how = draw(st.sampled_from(["any", "one", "few"]))
    if how == "one":
        return [draw(values)] * n
    if how == "few":
        few = draw(st.lists(values, min_size=1, max_size=3))
        return [few[i] for i in draw(st.lists(st.integers(0, len(few) - 1), min_size=n,
                                              max_size=n))]
    return draw(st.lists(values, min_size=n, max_size=n))


def _extras(draw, n):
    # any extras, or a dict of one tuple of keys in every row: a key's values
    # may all be floats
    if draw(st.booleans()):
        return _column(draw, n, EXTRAS, object)
    keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    columns = [draw(st.lists(draw(st.sampled_from([FLOATS, POOL, ATOMS])), min_size=n, max_size=n))
               for _ in keys]
    return np.fromiter((dict(zip(keys, values)) for values in zip(*columns)), object, n)


@st.composite
def records(draw, lengths):
    """A Reports record whose sites are a 1-d array of any values or lists,
    or a (rows, positions) array whose positions each hold values of one
    kind; a site position may hold one object in every row or a few shared
    objects, and the other columns may repeat a few values or be broadcasts.
    Its extras may be dicts of one tuple of keys. Its rows may all pass or all
    fail, and it may share its floats with the records after it."""
    n = draw(lengths)
    k = draw(st.none() | st.integers(0, 3))
    if k is None:
        sites = np.fromiter(_objects(draw, n, ATOMS | st.lists(ATOMS, max_size=3)),
                            dtype=object)
    else:
        positions = [_objects(draw, n, draw(st.sampled_from([TEXT, FLOATS, st.integers(), MIXED])))
                     for _ in range(k)]
        sites = np.array([[p[i] for p in positions] for i in range(n)],
                         dtype=object).reshape(n, k)
    check = _column(draw, n, st.sampled_from(["a", "b"]) | TEXT, object)
    lhs, rhs, abs_tol, rel_tol = (_column(draw, n, FLOATS, float) for _ in range(4))
    verdict = draw(st.sampled_from([None, True, False]))
    if verdict is not None:  # lhs <= 0 <= rhs, or rhs <= 0 < 1 <= lhs, without tolerance
        low, high = (_column(draw, n, st.floats(0, 1e300), float, st.sampled_from([0.0, 0.5, 1.0]))
                     for _ in range(2))
        lhs, rhs = (-low, high) if verdict else (high + 1.0, -low)
        abs_tol = rel_tol = np.zeros(n)
    record = Reports(check, sites, lhs, rhs, abs_tol, rel_tol, _extras(draw, n))
    record.shares_floats = draw(st.booleans())  # a writer reuses its float texts after it
    return record


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_writers_match_one_json_dumps_per_row(tmp_path, data):
    # chunk sizes drawn small, so records of 0, 1, chunk and chunk + 1 rows stay
    # cheap; the next test uses the writers' own CHUNK_ROWS. The float texts
    # kept for later records may fill a small vocabulary
    chunk = data.draw(st.sampled_from([1, 2, 3, 5]))
    vocabulary = data.draw(st.sampled_from([1, 3, reports_module.VOCABULARY_FLOATS]))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and the like
        recs = data.draw(st.lists(records(st.sampled_from([0, 1, chunk, chunk + 1])),
                                  max_size=3))
        with mock.patch.object(reports_module, "CHUNK_ROWS", chunk), \
                mock.patch.object(reports_module, "VOCABULARY_FLOATS", vocabulary):
            _assert_writers_match_oracle(tmp_path, recs, {"seed": 0})


@pytest.mark.parametrize("n", [CHUNK_ROWS, CHUNK_ROWS + 1])
def test_writers_match_one_json_dumps_per_row_at_the_chunk_size(tmp_path, n):
    rows = np.arange(n)
    kinds = ["v\u00e9", 1, 1.0, True, -0.0]
    mixed = site_reports("a", [kinds[i % 5] for i in range(n)],
                         np.where(rows % 2, -0.0, rows * 0.1), 1.0,
                         extras=[{"i": i} if i % 3 else None for i in range(n)])
    lists = site_reports("b", [[f"v{i % 7}", (0.0, -0.0, i * 0.5)[i % 3], "w"]
                               for i in range(n)], np.nan, rows / 3.0)
    empty = site_reports("c", [[] for _ in range(n)], rows * 0.5, 1.0)
    # harnack's [x, t1, y, t2] with a few shared times, and dicts of one key set
    t1, t2 = 0.5, 2.0
    times = site_reports("h", [[f"x{i % 7}", (t1, t2)[i % 2], f"y{i % 5}", t2] for i in range(n)],
                         rows * 0.25, 1.0, extras=[{"tighter": ("current", "prior")[i % 2],
                                                    "rel": i / 7.0, "f": -0.0} for i in range(n)])
    assert lists.site.shape == (n, 3) and empty.site.shape == (n, 0)
    recs = [mixed, lists, empty, times]
    _assert_writers_match_oracle(tmp_path, recs, {})


def test_writers_keep_values_that_are_equal_keys_apart(tmp_path):
    # as dict keys 1 == 1.0 == True and 0.0 == -0.0: each is written as
    # itself, within a chunk and when one chunk holds only one of them
    kinds = [1, 1.0, True]
    mixed = site_reports("a", kinds * 4, [0.0] * 3 + [-0.0] * 3 + [0.0, -0.0] * 3, -0.0)
    uniform = site_reports("b", [[k, "v"] for k in kinds for _ in range(3)],
                           [-0.0] * 3 + [0.0] * 6, [0.0] * 6 + [-0.0] * 3)
    with mock.patch.object(reports_module, "CHUNK_ROWS", 3):
        _assert_writers_match_oracle(tmp_path, [mixed, uniform], {})
        lines = (tmp_path / "got.jsonl").read_text().splitlines()[1:-1]
    assert [line.split('"site": ')[1].split(",")[0] for line in lines[:3]] == ["1", "1.0", "true"]
    assert [line.count('"lhs": -0.0,') for line in lines[2:5]] == [0, 1, 1]


_NAN_OTHER = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000002))[0]


def test_writers_fold_a_site_position_only_if_it_holds_one_object(tmp_path):
    # a list-site position becomes text of the row only when every row holds
    # one object: 0.0 and -0.0, and 1, 1.0 and True, are equal but each is
    # written as itself; NaNs of other payloads all write NaN
    t = 0.5
    zeros = site_reports("a", [[z, t] for z in [0.0, -0.0] * 3], 0.0, 1.0)
    ones = site_reports("b", [[v, t, "w"] for v in [1, 1.0, True] * 2], 0.0, 1.0)
    nans = site_reports("c", [[v, t] for v in [math.nan, _NAN_PAYLOAD, _NAN_OTHER] * 2],
                        [math.nan, _NAN_PAYLOAD, _NAN_OTHER] * 2, 1.0)
    assert [type(v) for v in ones.site[:3, 0]] == [int, float, bool]
    for chunk in (2, 4, CHUNK_ROWS):
        with mock.patch.object(reports_module, "CHUNK_ROWS", chunk):
            _assert_writers_match_oracle(tmp_path, [zeros, ones, nans], {})
        lines = (tmp_path / "got.jsonl").read_text().splitlines()[1:-1]
        assert [line[:line.index(", 0.5")].split("[")[1] for line in lines[:12]] == [
            "0.0", "-0.0"] * 3 + ["1", "1.0", "true"] * 2
        assert all('"site": [NaN, 0.5], "lhs": NaN,' in line for line in lines[12:])


def test_writers_fold_pass_columns_and_share_floats(tmp_path):
    rows = np.arange(5.0)
    passing = site_reports("p", ["x", "y", "z", "x", "y"], 0.0, rows / 3.0)
    failing = site_reports("f", [["x", 1.0]] * 5, rows + 2.0, 1.0, 0.0, 0.0)
    mixed = site_reports("m", [["x", 1.0]] * 5, rows, 2.0, 0.0, 0.0)
    assert passing.passed.all() and not failing.passed.any()
    assert mixed.passed.tolist() == [True, True, True, False, False]
    # slack = rhs - 0.0 equals rhs bit for bit: one float text for both
    assert passing.slack.tobytes() == passing.rhs.tobytes()
    for chunk in (2, CHUNK_ROWS):
        with mock.patch.object(reports_module, "CHUNK_ROWS", chunk):
            _assert_writers_match_oracle(tmp_path, [passing, failing, mixed], {})
    lines = (tmp_path / "got.jsonl").read_text().splitlines()[1:-1]
    assert "".join(line.split('"pass": ')[1][0] for line in lines) == "tttttffffftttff"


def _count_formatted(monkeypatch):
    # the bit patterns of the floats the JSON writer formats, call by call
    formatted, json_floats = [], reports_module._json_floats

    def counted(floats):
        formatted.append(floats.view(np.int64).copy())
        return json_floats(floats)
    monkeypatch.setattr(reports_module, "_json_floats", counted)
    return formatted


def _float_bits(records):
    return np.concatenate([np.asarray(c, float).view(np.int64) for r in records
                           for c in (r.lhs, r.rhs, r.slack, r.abs_tol, r.rel_tol)])


def test_writer_formats_each_float_of_a_kernel_once(monkeypatch):
    # counted, not timed: each bit pattern of one kernel's records (its source
    # blocks, then its diagonal) is formatted once while the vocabulary has
    # room; small blocks and chunks make 17 records of many chunks
    g = generate("grid", rows=6, cols=6, measure_mode="degree")
    monkeypatch.setattr(estimates, "BLOCK_ROWS", 5 * g.n)
    monkeypatch.setattr(reports_module, "CHUNK_ROWS", 7)
    formatted = _count_formatted(monkeypatch)
    for t in (0.1, 1.0, 10.0):
        kernel = heat_kernel(g, t)
        records = [*estimates._kernel_blocks(g, t, kernel),
                   estimates.verify_diagonal_lower(g, t, kernel=kernel)]
        assert len(records) == 17
        formatted.clear()
        write_jsonl_rows(io.StringIO(), records)
        bits = np.concatenate(formatted)
        assert np.array_equal(np.sort(bits), np.unique(_float_bits(records))), t


def test_writer_formats_each_float_of_a_function_record_once(monkeypatch):
    # counted, not timed: a function block's record, written alone, has each
    # distinct bit pattern of its floats (extras' included) formatted once,
    # whether it repeats in the record or not
    g = generate("grid", rows=6, cols=6, measure_mode="degree")
    monkeypatch.setattr(reports_module, "CHUNK_ROWS", 7)
    formatted = _count_formatted(monkeypatch)
    for suite in ("harnack", "heat-gradient", "previous"):
        for r in cli._run_suite(g, suite, [0.1, 1.0], 0, 1e-12, 4):
            formatted.clear()
            write_jsonl_rows(io.StringIO(), [r])
            extra = [np.array([v for e in r.extra.tolist() for v in (e or {}).values()
                               if type(v) is float]).view(np.int64)]
            assert np.array_equal(np.sort(np.concatenate(formatted)),
                                  np.unique(np.concatenate([_float_bits([r]), *extra]))), suite


@pytest.mark.parametrize("graph", sorted((ROOT / "example_graphs").glob("*.json"))
                         + ["grid8"], ids=lambda p: getattr(p, "stem", p))
def test_verify_reports_match_one_json_dumps_per_row(tmp_path, monkeypatch, graph):
    # one CPU: the records reach the writer in this process, not as worker parts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if graph == "grid8":  # its 4096-row kernel records span four chunks
        graph = tmp_path / "grid8.json"
        save_graph(graph, generate("grid", rows=8, cols=8, measure_mode="degree"))
    seen = []

    def keep(path, records, config):
        seen.append((list(records), config))
        return summarize(seen[-1][0])
    monkeypatch.setattr(reports_module, "write_jsonl", keep)
    assert cli.main(["verify", "--graph", str(graph), "--suite", "all",
                     "--seed", "0", "--out", str(tmp_path / "r.jsonl")]) == 0
    (records, config), = seen
    _assert_writers_match_oracle(tmp_path, records, config)
