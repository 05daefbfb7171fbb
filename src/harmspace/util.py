"""Shared numerical helpers: the scalar parameter checks, gamma ratios,
finite differences, log-log fits, and the deterministic report writers.

``dump_json``/``dumps_json`` write exactly what ``json.dumps(obj,
sort_keys=True, indent=2, allow_nan=False)`` writes, with a ``Records``
(a list of like records given column by column) written as its list of
dicts; ``dump_csv`` writes a table given column by column.  Both format a
column of floats at once, calling ``float.__repr__`` once per distinct
value: a list of numbers in JSON, each column of a ``Records`` through
one per-record template, and each float column of a CSV.  They format a
``Records`` or a CSV table _RECORD_CHUNK records or rows at a time, and
the file writers hand each piece of text to the file as it is made, so
their memory does not grow with the table.  Each file writer writes a
temporary file beside its target and moves it into place only when the
whole text is written; on an error it leaves no file and the target as
it was.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np


def check_finite(**params) -> None:
    """Reject, by name, parameters that are not finite.  A test such as
    alpha <= -1 is false for NaN, so it needs this one first."""
    for name, v in params.items():
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def check_positive(**params) -> None:
    """Reject, by name, parameters that are not finite and positive."""
    for name, v in params.items():
        if not (v > 0 and np.isfinite(v)):  # NaN fails v > 0
            raise ValueError(f"{name} must be finite and positive, got {v}")


def gamma_ratio(a: float, t: float) -> float:
    """Gamma(a + t) / Gamma(a), computed in log space.

    Requires a > 0 and a + t > 0 so both gammas are positive and the
    log-space form is exact.
    """
    if a <= 0 or a + t <= 0:
        raise ValueError("gamma_ratio needs a > 0 and a + t > 0")
    from scipy.special import gammaln

    return float(math.exp(gammaln(a + t) - gammaln(a)))


def fornberg_weights(m: int, offsets) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at 0.

    Classic Fornberg recurrence on the stencil `offsets` (distinct floats,
    in units of the step h).  Returns w with
    f^(m)(x) ~ sum_j w[j] f(x + offsets[j] h) / h^m.
    """
    x = np.asarray(offsets, dtype=float)
    npts = x.size
    if m >= npts:
        raise ValueError("stencil too small for derivative order")
    c = np.zeros((npts, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def fd_derivative(fn, x0: float, order: int, h: float, width: int = 5) -> float:
    """Central finite-difference approximation of fn^(order)(x0).

    Uses a (2*width+1)-point Fornberg stencil, so the truncation error is
    O(h^(2*width+2-order)) for smooth fn.
    """
    offs = np.arange(-width, width + 1, dtype=float)
    w = fornberg_weights(order, offs)
    vals = np.array([fn(x0 + o * h) for o in offs])
    return float(vals @ w / h**order)


def discrete_laplacian(fn, point, h: float) -> float:
    """Second-order centered Laplacian of fn at `point` (any dimension).

    fn takes a 1d numpy array.  Error is O(h^2) times the fourth
    derivatives, which is exactly what the harmonicity checks halve h to
    confirm.
    """
    p = np.asarray(point, dtype=float)
    f0 = fn(p)
    acc = 0.0
    for i in range(p.size):
        e = np.zeros_like(p)
        e[i] = h
        acc += fn(p + e) - 2.0 * f0 + fn(p - e)
    # fn may hand back a one-element array; the contract is scalar
    return np.asarray(acc).item() / h**2


def fit_loglog(x, y):
    """Least-squares slope of log y against log x.

    Returns (slope, intercept, max_residual) where the residual is the max
    abs deviation of log y from the fitted line.  Inputs must be positive.
    """
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points to fit a slope")
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = np.max(np.abs(ly - (slope * lx + intercept)))
    return float(slope), float(intercept), float(resid)


# ------------------------------------------------------- report writers

_INDENT = "  "
_NUMBERS = {int, float}
_NON_FINITE = {"nan", "inf", "-inf"}  # float.__repr__ of the non-finite floats
# Fewer values than this are formatted one by one: below it numpy's fixed
# cost (about 20 us a call) exceeds the float.__repr__ calls it saves.
_DEDUPE_MIN = 64
# Records of a Records, or rows of a CSV table, that the writers format
# at once: about 1 KB of cell and row text each at n = 2.
_RECORD_CHUNK = 1 << 10


def _float_texts(values) -> list:
    """float.__repr__ of each value of a sequence or 1-d array, as float64,
    in order; from _DEDUPE_MIN values on, called once per distinct bit
    pattern, so 0.0 and -0.0 stay apart."""
    if len(values) < _DEDUPE_MIN:
        return [float.__repr__(float(v)) for v in values]
    a = np.ascontiguousarray(values, dtype=np.float64)
    bits, where = np.unique(a.view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, where.tolist()))


def _json_float(v) -> str:
    if math.isfinite(v):
        return float.__repr__(v)
    raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")


def _numbers(values) -> bool:
    return set(map(type, values)) <= _NUMBERS


def _json_numbers(values) -> list:
    """JSON texts of a sequence of exact ints and floats."""
    kinds = set(map(type, values))
    if float not in kinds:
        return list(map(int.__repr__, values))
    if int in kinds:
        return [int.__repr__(v) if type(v) is int else _json_float(v) for v in values]
    texts = _float_texts(values)
    if not _NON_FINITE.isdisjoint(texts):
        raise ValueError("Out of range float values are not JSON compliant")
    return texts


class Records:
    """A list of like records given column by column, for dumps_json, which
    writes it as the list of dicts {key: column[i].tolist()}.  Each column
    is a numpy int or float array (bool is rejected: it would print 1, not
    true) with one entry per record, a number (1-d) or a non-empty number
    list (2-d); all columns have one length.  Else ValueError."""

    def __init__(self, **columns):
        for key, col in columns.items():
            if not (isinstance(col, np.ndarray) and col.dtype.kind in "iuf"
                    and (col.ndim == 1 or col.ndim == 2 and col.shape[1])):
                raise ValueError(f"record column {key!r} must be a 1-d or 2-d int or"
                                 f" float array, got {col!r:.60}")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"records need columns of one length, got {sorted(lengths)}")
        self.columns = columns
        [self.count] = lengths

    def __len__(self) -> int:
        return self.count


def _record_chunks(records: Records, level):
    """JSON texts of the records at indent level, through one template:
    a list of texts per _RECORD_CHUNK records, made as it is asked for."""
    inner, item = "\n" + _INDENT * (level + 1), "\n" + _INDENT * (level + 2)
    pieces, columns, text = [], [], "{"
    for i, key in enumerate(sorted(records.columns)):
        col = records.columns[key]
        columns.append(col)
        text += ("," if i else "") + inner + encode_basestring_ascii(key) + ": "
        if col.ndim == 1:
            pieces.append(text)
            text = ""
            continue
        for j in range(col.shape[1]):
            pieces.append(text + ("," if j else "[") + item)
            text = ""
        text = inner + "]"
    template = "".join(p.replace("%", "%%") + "%s" for p in pieces)
    template += (text + "\n" + _INDENT * level + "}").replace("%", "%%")
    for a in range(0, records.count, _RECORD_CHUNK):
        cells = []
        for col in columns:
            texts = _json_numbers(col[a : a + _RECORD_CHUNK].ravel().tolist())
            width = 1 if col.ndim == 1 else col.shape[1]
            cells.extend(texts[j::width] for j in range(width))
        yield [template % row for row in zip(*cells)]


def _json_key(key) -> str:
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _json_float(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError("keys must be str, int, float, bool or None, not"
                        f" {type(key).__name__}")
    return encode_basestring_ascii(key)


def _json_encode(o, level, put):
    """Pass the JSON text of o at indent level to put, piece by piece."""
    if isinstance(o, str):
        put(encode_basestring_ascii(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        put(_json_float(o))
    elif isinstance(o, (list, tuple, Records)):
        if not len(o):
            put("[]")
            return
        inner = "\n" + _INDENT * (level + 1)
        sep = "[" + inner
        if isinstance(o, Records):
            for texts in _record_chunks(o, level + 1):
                put(sep + ("," + inner).join(texts))
                sep = "," + inner
        elif _numbers(o):
            put(sep + ("," + inner).join(_json_numbers(o)))
        else:
            for v in o:
                put(sep)
                _json_encode(v, level + 1, put)
                sep = "," + inner
        put("\n" + _INDENT * level + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = "\n" + _INDENT * (level + 1)
        sep = "{" + inner
        for key, value in sorted(o.items()):
            put(sep + _json_key(key) + ": ")
            _json_encode(value, level + 1, put)
            sep = "," + inner
        put("\n" + _INDENT * level + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """Canonical JSON text: exactly json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False), with a Records written as its list of dicts, and the
    same ValueError on a non-finite float and TypeError on a value or key
    JSON cannot hold (numpy integers included) or keys that do not sort.
    Circular structures are not detected."""
    out: list = []
    _json_encode(obj, 0, out.append)
    return "".join(out)


@contextlib.contextmanager
def _replacing(path, **open_args):
    """A new text file beside path that replaces path when the block ends,
    or is deleted, leaving path as it was, when the block raises."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", **open_args)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def dump_json(obj, path) -> None:
    """Canonical JSON (see dumps_json) with a trailing newline, streamed to
    path through a temporary file: on an error path is left as it was."""
    with _replacing(path) as fh:
        _json_encode(obj, 0, fh.write)
        fh.write("\n")


def _csv_cells(column) -> list:
    """The cells of one CSV column: floats as float.__repr__, numpy integers
    as ints, anything else as it is, for csv.writer to format and quote."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return _float_texts(column)
        if column.dtype.kind != "O":
            return column.tolist()  # Python ints, bools and strings
    cells = list(column)
    at = []
    for i, v in enumerate(cells):
        if isinstance(v, (float, np.floating)):
            at.append(i)
        elif isinstance(v, np.integer):
            cells[i] = int(v)
    for i, text in zip(at, _float_texts([cells[i] for i in at])):
        cells[i] = text
    return cells


def row_columns(rows, width) -> list:
    """The width columns of a table given row by row; a row of any other
    length raises ValueError."""
    rows = list(rows)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"a CSV row has {len(row)} cells, not {width}: {row!r}")
    return list(zip(*rows)) if rows else [()] * width


def dump_csv(path, header, columns) -> None:
    """CSV of a table given column by column: one column per header name,
    each a sequence or 1-d array, all of one length (else ValueError),
    streamed to path through a temporary file _RECORD_CHUNK rows at a time."""
    for column in columns:
        if isinstance(column, np.ndarray) and column.ndim != 1:
            raise ValueError(f"a CSV column must be 1-d, got shape {column.shape}")
    lengths = [len(c) for c in columns]
    if len(lengths) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths {lengths}")
    with _replacing(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for a in range(0, max(lengths, default=0), _RECORD_CHUNK):
            w.writerows(zip(*[_csv_cells(c[a : a + _RECORD_CHUNK]) for c in columns]))
