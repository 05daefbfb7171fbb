"""Finite differences, log-log fitting, and stable serialization."""

import csv
import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmspace import util


def test_fornberg_matches_textbook_stencils():
    got = util.fornberg_weights(2, np.arange(-2.0, 3.0))
    assert np.allclose(got, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
                       rtol=0, atol=1e-14)
    got = util.fornberg_weights(1, np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(got, [-0.5, 0.0, 0.5], rtol=0, atol=1e-15)
    got = util.fornberg_weights(1, np.array([0.0, 1.0]))
    assert np.allclose(got, [-1.0, 1.0], rtol=0, atol=1e-15)


def test_fornberg_rejects_short_stencils():
    with pytest.raises(ValueError):
        util.fornberg_weights(3, np.array([0.0, 1.0, 2.0]))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(min_value=1, max_value=4))
def test_fornberg_moment_conditions(m):
    # weights annihilate lower powers and give m! on x^m
    x = np.arange(-3.0, 4.0)
    w = util.fornberg_weights(m, x)
    for j in range(m):
        assert abs(w @ x ** j) < 1e-10
    assert w @ x ** m == pytest.approx(math.factorial(m), rel=1e-12)


def test_fd_derivative_exponential():
    for m in (1, 2, 3):
        got = util.fd_derivative(math.exp, 0.3, m, 0.05)
        assert got == pytest.approx(math.exp(0.3), rel=1e-9)


def test_fd_derivative_order_of_accuracy():
    # error should drop by about 2^(2w+2-m) when h halves
    f = math.sin
    e1 = abs(util.fd_derivative(f, 1.0, 2, 0.2, width=2) + math.sin(1.0))
    e2 = abs(util.fd_derivative(f, 1.0, 2, 0.1, width=2) + math.sin(1.0))
    assert e1 / e2 > 8.0


def test_discrete_laplacian_flags_harmonicity():
    harm = lambda q: q[0] ** 2 - q[1] ** 2
    bump = lambda q: q[0] ** 2 + q[1] ** 2
    q0 = np.array([0.4, -0.2])
    assert abs(util.discrete_laplacian(harm, q0, 0.05)) < 1e-10
    assert util.discrete_laplacian(bump, q0, 0.05) == pytest.approx(4.0, rel=1e-9)


def test_fit_loglog_recovers_power_law():
    x = 2.0 ** np.arange(-3, 4)
    slope, inter, resid = util.fit_loglog(x, 0.7 * x ** -1.5)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert math.exp(inter) == pytest.approx(0.7, rel=1e-12)
    assert resid < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    slope=st.floats(min_value=-4.0, max_value=4.0),
    pref=st.floats(min_value=0.1, max_value=10.0),
)
def test_fit_loglog_property(slope, pref):
    x = 2.0 ** np.arange(0, 6)
    got, inter, _ = util.fit_loglog(x, pref * x ** slope)
    assert got == pytest.approx(slope, abs=1e-9)


def test_dump_json_canonical(tmp_path):
    p = tmp_path / "x.json"
    util.dump_json({"b": 1.5, "a": [1, 2]}, p)
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1.5, "a": [1, 2]}
    with pytest.raises(ValueError):
        util.dump_json({"v": float("nan")}, tmp_path / "y.json")


def test_dump_csv_repr_stable(tmp_path):
    p = tmp_path / "t.csv"
    util.dump_csv(p, ["a", "b"], [[0.1, 1], [np.float64(2.0), "x"]])  # columns
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.1,2.0"
    assert float(lines[1].split(",")[0]) == 0.1


# ------------------------------------------- report writers, byte for byte

_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7])
_FLOAT = st.one_of(st.floats(), _SPECIAL)  # NaN and infinities included
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SPECIAL)
_NUMBER = st.one_of(st.integers(), _FINITE)
_TEXT = st.text(alphabet=st.sampled_from(list('ab %"\\,\n\r\'\u00e9\u2603\U0001f600')),
                max_size=6)


def _repeated(elements, length=st.integers(1, 150)):
    """Lists of a few drawn items repeated in a drawn order: long enough for
    the writers' deduplicating path (util._DEDUPE_MIN items and more)."""
    @st.composite
    def build(draw):
        pool = draw(st.lists(elements, min_size=1, max_size=5))
        n = draw(length)
        picks = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        return [pool[i % len(pool)] for i in picks]
    return build()


@st.composite
def _records(draw):
    """A list of dicts with one set of keys, each key's values numbers or
    lists of one width; sometimes broken so the writer must fall back."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    widths = {k: draw(st.integers(-1, 3)) for k in keys}  # 0 a number, -1 []

    def value(k):
        w = widths[k]
        return draw(_NUMBER) if w == 0 else draw(st.lists(_NUMBER, min_size=max(w, 0),
                                                          max_size=max(w, 0)))

    base = [{k: value(k) for k in keys} for _ in range(draw(st.integers(1, 4)))]
    recs = [dict(base[i % len(base)]) for i in range(draw(st.sampled_from([1, 3, 100])))]
    flaw = draw(st.sampled_from(["none", "none", "drop-key", "ragged", "bool",
                                 "numpy", "nan", "tuple"]))
    d, k = recs[-1], keys[0]
    if flaw == "drop-key":
        del d[k]
    elif flaw == "ragged":
        d[k] = [1.5] * (widths[k] + 2)
    elif flaw == "bool":
        d[k] = True
    elif flaw == "numpy":
        d[k] = draw(st.sampled_from([np.float64(0.5), np.int64(3)]))
    elif flaw == "nan":
        d[k] = float("nan") if widths[k] == 0 else [float("inf")] * max(widths[k], 1)
    elif flaw == "tuple" and isinstance(d[k], list):
        d[k] = tuple(d[k])
    return recs


_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOAT, _TEXT, st.text(max_size=4),
    st.builds(np.float64, _FINITE), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    # number lists, bools and np.float64 mixed in
    st.lists(_NUMBER, min_size=1, max_size=6), st.lists(_FLOAT, min_size=1, max_size=4),
    _repeated(_FINITE), _repeated(_FLOAT), _repeated(_NUMBER),
    st.lists(st.one_of(_NUMBER, st.booleans()), min_size=1, max_size=4),
    st.lists(st.one_of(_FINITE, st.builds(np.float64, _FINITE)), min_size=1, max_size=4),
    _records(), st.just([]), st.just({}))
_KEY = st.one_of(_TEXT, st.integers(), _FINITE)
_JSON_OBJECTS = st.recursive(
    _LEAF, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                   st.dictionaries(_KEY, inner, max_size=4),
                                   st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=12)


def _outcome(fn, obj):
    """fn(obj), or the type of the TypeError or ValueError it raises."""
    try:
        return fn(obj)
    except (TypeError, ValueError) as e:
        return type(e)


def _reference_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(obj=_JSON_OBJECTS)
def test_dumps_json_equals_json_dumps(obj):
    assert _outcome(util.dumps_json, obj) == _outcome(_reference_json, obj)


@settings(max_examples=200, deadline=None)
@given(records=_records())
def test_dumps_json_equals_json_dumps_on_record_lists(records):
    for obj in (records, {"r": records, "%s": [records]}):
        assert _outcome(util.dumps_json, obj) == _outcome(_reference_json, obj)


def test_dumps_json_equals_json_dumps_on_a_whitney_summary():
    from harmspace.geometry import Region, box_centers, whitney_cubes
    cubes = whitney_cubes(Region(2.0, 2.0 ** -4, 4.0), 2)
    centers = box_centers(cubes)
    # the summary's records, one dict per box, as the reference writer takes them
    dicts = [{"level": j, "index": k, "center": c, "side": s} for j, k, c, s
             in zip(cubes.level.tolist(), cubes.index.tolist(), centers.tolist(),
                    cubes.side.tolist())]
    obj = {"count": len(cubes), "%key\"": [-0.0, 5e-324],
           "cubes": util.Records(level=cubes.level, index=cubes.index, center=centers,
                                 side=cubes.side)}
    assert util.dumps_json(obj) == _reference_json({**obj, "cubes": dicts})
    # json.dumps meets the TypeError of the first record before the NaN
    # of the second
    for bad in (np.int64(1), [1.0, np.int64(1)], {"a": [{"x": 1.0}, {"x": np.nan}]},
                [{"a": 1.0, "b": np.int64(1)}, {"a": np.nan, "b": 2}], {1: 1, "a": 2}):
        assert _outcome(util.dumps_json, bad) == _outcome(_reference_json, bad)


_COLUMN_KINDS = {  # dtype: its values, NaN and infinities included for floats
    np.int64: st.integers(-2**63, 2**63 - 1), np.uint8: st.integers(0, 255),
    np.float64: _FLOAT, np.float32: st.floats(width=32)}


@st.composite
def _record_columns(draw):
    """The columns of a Records: int and float arrays, 1-d or 2-d of width 1
    to 3, of 0 to 150 records, each of a few values repeated so that the
    writers' deduplicating path runs."""
    count = draw(st.sampled_from([0, 1, 3, 63, 64, 65, 150]))
    columns = {}
    for key in draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True)):
        width = draw(st.integers(0, 3))  # 0: a number a record
        dtype = draw(st.sampled_from(list(_COLUMN_KINDS)))
        size = count * max(width, 1)
        values = draw(_repeated(_COLUMN_KINDS[dtype], length=st.just(size)))
        columns[key] = np.array(values, dtype).reshape((count, width) if width else count)
    return columns


@settings(max_examples=300, deadline=None)
@given(columns=_record_columns())
def test_dumps_json_writes_records_as_their_dicts(columns):
    records = util.Records(**columns)
    assert len(records) == len(next(iter(columns.values())))
    dicts = [{k: c[i].tolist() for k, c in columns.items()} for i in range(len(records))]
    for obj, want in ((records, dicts), ({"r": records, "%s": [records]},
                                         {"r": dicts, "%s": [dicts]})):
        assert _outcome(util.dumps_json, obj) == _outcome(_reference_json, want)


def test_records_reject_what_json_would_misprint():
    good = np.arange(3.0)
    for bad in (np.array([True, False, True]), np.arange(3) + 0j, np.array(["a"] * 3),
                np.array([1, None, 2], dtype=object), [0.0, 1.0, 2.0], np.float64(1.0),
                np.zeros((3, 2, 1)), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="column 'b'"):
            util.Records(a=good, b=bad)
    for lengths in ((3, 2), ()):
        with pytest.raises(ValueError, match="one length"):
            util.Records(**{f"c{i}": np.zeros(n) for i, n in enumerate(lengths)})
    for v in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            util.dumps_json(util.Records(a=np.array([[0.5, v]]), b=np.arange(1)))
    assert util.dumps_json({"r": util.Records(a=np.zeros((0, 2)))}) == '{\n  "r": []\n}'


def _csv_cell(v):
    """The row writer's cell: floats by repr, numpy integers as ints."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def _reference_csv(path, header, rows):
    """The row-by-row writer the column writer replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(v) for v in row])


_CELL = st.one_of(st.none(), st.booleans(), st.integers(), _FLOAT, _TEXT,
                  st.builds(np.float64, _FLOAT),
                  st.builds(np.float32, st.floats(width=32)),
                  st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
                  st.builds(np.bool_, st.booleans()))


@st.composite
def _tables(draw):
    """(header, columns, rows) of one table; columns are float, float32,
    int64 or bool arrays, or lists of any cells."""
    nrows = draw(st.sampled_from([0, 1, 3, 6, 63, 64, 65, 150]))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "float32", "int", "bool", "cells"]))
        element = {"float": _FLOAT, "float32": st.floats(width=32),
                   "int": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(),
                   "cells": _CELL}[kind]
        col = draw(_repeated(element, st.just(nrows))) if nrows else []
        if kind != "cells":
            col = np.array(col, dtype={"float": float, "float32": np.float32,
                                       "int": np.int64, "bool": bool}[kind])
        cols.append(col)
    rows = [[c[i] for c in cols] for i in range(nrows)]
    return [f"h{i}" for i in range(len(cols))], cols, rows


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_dump_csv_equals_the_row_writer(tmp_path_factory, table):
    header, cols, rows = table
    d = tmp_path_factory.mktemp("csv")
    util.dump_csv(d / "new.csv", header, cols)
    _reference_csv(d / "old.csv", header, rows)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
    # the row form of the same table, through row_columns
    util.dump_csv(d / "rows.csv", header, util.row_columns(rows, len(header)))
    assert (d / "rows.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_dump_csv_quoting_and_ragged_tables(tmp_path):
    cols = [["a,b", 'say "hi"', "two\nlines", "", None],
            [np.nan, -np.inf, -0.0, np.float64(5e-324), 1e308],
            np.array([1, -2, 3, 2**62, 0], dtype=np.int64),
            [True, np.bool_(False), np.int64(-7), 2**70, np.float32(0.1)]]
    rows = [list(r) for r in zip(*cols)]
    util.dump_csv(tmp_path / "new.csv", list("abcd"), cols)
    _reference_csv(tmp_path / "old.csv", list("abcd"), rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a one-column table whose cell is empty: csv.writer writes ""
    util.dump_csv(tmp_path / "one.csv", ["a"], [["", "x"]])
    assert (tmp_path / "one.csv").read_text() == 'a\n""\nx\n'
    with pytest.raises(ValueError):
        util.dump_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        util.dump_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2]])
    with pytest.raises(ValueError):
        util.dump_csv(tmp_path / "bad.csv", ["a"], [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        util.row_columns([[1, 2], [3]], 2)
    assert util.row_columns([], 3) == [(), (), ()]


# ------------------------------------------------ streamed file writers

def _box_records(count, n=2, seed=0):
    """A whitney-like Records of count boxes with distinct centres."""
    rng = np.random.default_rng(seed)
    return util.Records(level=rng.integers(-4, 2, count), index=rng.integers(0, 64, (count, n)),
                        center=rng.random((count, n + 1)), side=rng.random(count))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_json_memory_does_not_grow_with_the_record_count(tmp_path):
    # the whole-text writer took about 0.7 KB a box, 35 MB here; the
    # streamed one holds one chunk of records' text
    obj = {"count": 50_000, "cubes": _box_records(50_000)}
    assert _traced_peak(util.dump_json, obj, tmp_path / "big.json") < 4 << 20
    assert (tmp_path / "big.json").read_text() == util.dumps_json(obj) + "\n"


@settings(max_examples=200, deadline=None)
@given(obj=st.one_of(_JSON_OBJECTS, st.builds(lambda c: util.Records(**c), _record_columns())),
       chunk=st.integers(1, 70))
def test_dump_json_writes_dumps_json_across_chunks(tmp_path_factory, obj, chunk):
    path = tmp_path_factory.mktemp("json") / "s.json"
    with mock.patch.object(util, "_RECORD_CHUNK", chunk):
        want = _outcome(util.dumps_json, obj)
        if isinstance(want, str):
            util.dump_json(obj, path)
            assert path.read_bytes() == (want + "\n").encode()
        else:
            with pytest.raises(want):
                util.dump_json(obj, path)
            assert list(path.parent.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(table=_tables(), chunk=st.integers(1, 70))
def test_dump_csv_writes_the_row_writer_across_chunks(tmp_path_factory, table, chunk):
    header, cols, rows = table
    d = tmp_path_factory.mktemp("csv")
    _reference_csv(d / "old.csv", header, rows)
    with mock.patch.object(util, "_RECORD_CHUNK", chunk):
        util.dump_csv(d / "new.csv", header, cols)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


def test_dump_csv_of_several_chunks_equals_the_row_writer(tmp_path):
    rows = 2 * util._RECORD_CHUNK + 3
    rng = np.random.default_rng(1)
    cols = [rng.integers(-4, 2, rows), rng.random(rows), np.resize([0.5, -0.0, 1e-300], rows),
            [f"r{i}" if i % 7 else None for i in range(rows)]]
    util.dump_csv(tmp_path / "new.csv", list("abcd"), cols)
    _reference_csv(tmp_path / "old.csv", list("abcd"), [list(r) for r in zip(*cols)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("no text")


def test_failed_writes_leave_no_file_and_the_old_file_as_it_was(tmp_path, monkeypatch):
    removed = []  # the size of each temporary file deleted
    remove = os.remove

    def spy(path):
        removed.append(os.path.getsize(path))
        remove(path)
    monkeypatch.setattr(util.os, "remove", spy)

    records = _box_records(3 * util._RECORD_CHUNK)
    records.columns["center"][-1, -1] = np.nan  # in the last record
    cells = [1.5] * (3 * util._RECORD_CHUNK) + [_Unprintable()]
    failures = [
        ("s.json", lambda p: util.dump_json({"cubes": records}, p), ValueError,
         "Out of range float values are not JSON compliant"),
        ("t.csv", lambda p: util.dump_csv(p, ["a", "b"], [[1, 2], [3]]), ValueError,
         r"2 header names for columns of lengths \[2, 1\]"),
        ("t.csv", lambda p: util.dump_csv(p, ["a"], [cells]), RuntimeError, "no text"),
    ]
    for name, write, error, says in failures:
        for old in (None, "old text\n"):
            path = tmp_path / name
            if old is not None:
                path.write_text(old)
            with pytest.raises(error, match=says):
                write(path)
            assert [f.name for f in tmp_path.iterdir()] == ([name] if old else [])
            if old is not None:
                assert path.read_text() == old
                path.unlink()
    # the NaN and the unprintable cell were met after text had gone to the
    # temporary file, twice each; the ragged table is refused before any file
    assert len(removed) == 4 and all(size > 0 for size in removed), removed
