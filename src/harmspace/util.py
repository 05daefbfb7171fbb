"""Shared numerical helpers: gamma ratios, finite differences, log-log fits,
deterministic report serialization."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln


def gamma_ratio(a: float, t: float) -> float:
    """Gamma(a + t) / Gamma(a), computed in log space.

    Requires a > 0 and a + t > 0 so both gammas are positive and the
    log-space form is exact.
    """
    if a <= 0 or a + t <= 0:
        raise ValueError("gamma_ratio needs a > 0 and a + t > 0")
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


def dump_json(obj, path) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def dump_csv(path, header, rows) -> None:
    """CSV writer with repr-stable float formatting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_cell(v) for v in row])


def _csv_cell(v):
    # np.float64 subclasses float, so coerce before repr
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v
