"""Poisson-type kernels on the upper half-space, in (D, tau) form.

Every kernel here takes D = |x - y|^2 and tau = t + s, never points:
the point API is the field classes in fields.py, which form D and tau
and call these.  Everything is expressed through two integer-coefficient
polynomial families, so kernel values are exact up to floating point:

* R_m(tau, D), the numerator of the m-th tau-derivative of the Poisson
  kernel,
      d^m/dtau^m P = c_n R_m(tau, D) (D + tau^2)^(-(n+1)/2 - m),
  built from R_0 = tau and
      R_{m+1} = dR_m/dtau (D + tau^2) - (n + 1 + 2m) tau R_m.

* P_l(u), the profile of the harmonic test field
      f_{w,l}(z) = |z - wbar|^(-(n-1+l)) P_l(u),  u = (t+s)/|z - wbar|,
  built from P_0 = 1 and P_{l+1} = (1 - u^2) P_l' - (n - 1 + l) u P_l.
  Repeated d/dt of f_{w,0} walks down this ladder, so the family is
  harmonic whenever n >= 2.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# Largest order of R_m and P_l: from about m, l = 146 on, their integer
# coefficients pass the float64 range at n <= 3, so no kernel value there
# is finite, and a far larger order would only keep the builders busy.
MAX_ORDER = 128


def _check_order(what, m, top=MAX_ORDER):
    if not 0 <= m <= top:
        raise ValueError(f"{what} must be in 0..{top}, got {m}")


def poisson_constant(n: int) -> float:
    """Normalizer making the Poisson kernel integrate to 1 over R^n."""
    return math.gamma((n + 1) / 2) / math.pi ** ((n + 1) / 2)


def poisson_from_sq(n: int, sq, t):
    """Poisson kernel P = c_n t / (|x|^2 + t^2)^((n+1)/2) from sq = |x|^2."""
    sq = np.asarray(sq, dtype=float)
    t = np.asarray(t, dtype=float)
    return poisson_constant(n) * t * (sq + t * t) ** (-(n + 1) / 2)


@lru_cache(maxsize=None)
def poisson_deriv_poly(m: int, n: int) -> tuple:
    """Integer coefficients of R_m as ((a, b, coeff), ...) for tau^a D^b."""
    _check_order("derivative order", m)
    coeffs = {(1, 0): 1}  # R_0 = tau
    for k in range(m):
        nxt: dict = {}
        for (a, b), c in coeffs.items():
            if a > 0:
                # dR/dtau * (D + tau^2)
                _add(nxt, (a - 1, b + 1), a * c)
                _add(nxt, (a + 1, b), a * c)
            _add(nxt, (a + 1, b), -(n + 1 + 2 * k) * c)
        coeffs = nxt
    return tuple(sorted((a, b, c) for (a, b), c in coeffs.items() if c != 0))


def _add(d, key, val):
    d[key] = d.get(key, 0) + val


def _eval_poly(terms, tau, D):
    # the same operations, in the same order, as acc = acc + c * tau**a * D**b
    # starting from acc = 0.0.  A missing variable's power is 1.0 and a
    # product with 1.0 is exact, so such a term is built in the shape of
    # the variable it has; acc grows to the full shape when a term needs it
    acc = 0.0
    for a, b, c in terms:
        if b == 0:
            term = c * tau**a
        elif a == 0:
            term = c * D**b
        else:
            term = c * tau**a * D**b
        if np.shape(acc) == np.broadcast_shapes(np.shape(acc), np.shape(term)):
            acc += term
        else:
            acc = acc + term
    return acc


@lru_cache(maxsize=None)
def _bergman_factors(l: int, n: int):
    """(terms of R_{l+1}, scale, exponent) of
    Q_l = scale R_{l+1}(tau, D) (D + tau^2)^exponent.  Q_l takes R_{l+1},
    so its order l stops one below MAX_ORDER."""
    _check_order("Bergman order", l, MAX_ORDER - 1)
    scale = (-2.0) ** (l + 1) / math.factorial(l) * poisson_constant(n)
    return poisson_deriv_poly(l + 1, n), scale, -(n + 1) / 2 - (l + 1)


def bergman_from_sq(l: int, n: int, sq, tau):
    """Weighted Bergman kernel Q_l from D = |x-y|^2 and tau = t + s.

    Q_l = ((-2)^(l+1) / l!) c_n R_{l+1}(tau, D) (D + tau^2)^(-(n+1)/2 - l - 1).
    """
    sq = np.asarray(sq, dtype=float)
    tau = np.asarray(tau, dtype=float)
    terms, scale, expo = _bergman_factors(l, n)
    out = _eval_poly(terms, tau, sq)
    out *= scale
    out *= (sq + tau * tau) ** expo
    return out


# Byte boundary of every array BergmanRows owns: one cache line, and one
# AVX-512 vector, so no full-size load or store spans two lines.
_ALIGN = 64


def _aligned(shape):
    """An uninitialised float64 array of shape whose data starts on an
    _ALIGN-byte boundary: numpy allocations are only 16-byte aligned, so
    over-allocate one line and slice."""
    size = math.prod(shape)
    raw = np.empty(size + _ALIGN // 8)
    skip = -raw.ctypes.data % _ALIGN // 8
    return raw[skip : skip + size].reshape(shape)


class BergmanRows:
    """Q_l against one fixed tau, for one block of D rows at a time.

    block(D) equals bergman_from_sq(l, n, D[:, None], tau.ravel()[None, :])
    bit for bit: the same operations on the same operands, in the same
    order.  The D-free factors c tau^a and tau^2 are laid out once, as
    contiguous (rows, n_tau) tiles, and each block lays its D column out
    once as a third tile, so a block costs contiguous full-size passes,
    one np.power, and a broadcast only for a power D^b with b >= 3 (which
    stays libm's pow of the column).  It all runs in three buffers that
    every block reuses.  Every tile and buffer starts on a 64-byte
    boundary: numpy's own 16-byte alignment lets a tile start mid-line,
    and then every AVX-512 load and store of a pass is split over two
    cache lines (about 20% slower per value, with the same bits).
    Instances whose blocks are never alive at once may share the buffers:
    pass `buffers`, three (rows, n_tau) float arrays, best made aligned
    the same way.
    """

    def __init__(self, l: int, n: int, tau, rows: int, buffers=None):
        tau = np.asarray(tau, dtype=float).reshape(1, -1)
        tile = (rows, tau.shape[1])

        def laid_out(row):
            out = _aligned(tile)
            out[...] = row
            return out

        terms, self._scale, self._expo = _bergman_factors(l, n)
        # (b, c, tile of c tau^a, or None for a = 0: a term c D^b)
        self._terms = [(b, c, None if a == 0 else laid_out(c * tau**a))
                       for a, b, c in terms]
        self._tau2 = laid_out(tau * tau)
        self._acc, self._tmp, self._D = buffers or [_aligned(tile) for _ in range(3)]

    def block(self, D):
        """Q_l at r <= rows values of D against every tau: (r, n_tau).

        The result lives in a buffer that the next call overwrites.
        """
        D = np.asarray(D, dtype=float).reshape(-1, 1)
        r = D.shape[0]
        buf, tmp, Dt = self._acc[:r], self._tmp[:r], self._D[:r]
        Dt[...] = D
        # acc is 0.0, then a column while only D-terms came, then buf.  The
        # first full-size term is made in buf itself, and a column of
        # D-terms added to it: 0.0 + x is x but at x = -0.0, and the
        # tau^(l+2) term that every R_{l+1} has comes last and is nonzero,
        # so the sum keeps its bits
        acc = 0.0
        for b, c, ct in self._terms:
            out = tmp if acc is buf else buf
            if ct is None:
                term = c * D**b
            elif b == 0:
                term = ct[:r]
            elif b == 1:
                term = np.multiply(ct[:r], Dt, out=out)
            elif b == 2:  # D**2 is np.square(D), the bits of Dt * Dt
                term = np.multiply(Dt, Dt, out=out)
                term *= ct[:r]
            else:
                term = np.multiply(ct[:r], D**b, out=out)
            if acc is buf:
                acc += term
            elif term is buf:
                if np.ndim(acc):
                    buf += acc
                acc = buf
            elif term.shape == buf.shape:
                acc = np.add(acc, term, out=buf)
            else:
                acc = acc + term
        acc *= self._scale
        np.add(Dt, self._tau2[:r], out=tmp)
        np.power(tmp, self._expo, out=tmp)
        acc *= tmp
        return acc


@lru_cache(maxsize=None)
def deriv_polynomial(l: int, n: int) -> tuple:
    """Coefficients of P_l, ascending powers of u.  Integers."""
    _check_order("profile order", l)
    p = [1]
    for k in range(l):
        # (1 - u^2) p' - (n - 1 + k) u p
        dp = [i * p[i] for i in range(1, len(p))]
        nxt = [0] * (len(p) + 1)
        for i, c in enumerate(dp):
            nxt[i] += c
            nxt[i + 2] -= c
        for i, c in enumerate(p):
            nxt[i + 1] -= (n - 1 + k) * c
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        p = nxt
    return tuple(p)


def deriv_polynomial_eval(l: int, n: int, u):
    u = np.asarray(u, dtype=float)
    acc = np.zeros_like(u)
    for c in reversed(deriv_polynomial(l, n)):
        acc = acc * u + c
    return acc


def test_fn_from_sq(l: int, n: int, sq, tau):
    """f_{w,l} from D = |x - y|^2 and tau = t + s.  Harmonic for n >= 2."""
    sq = np.asarray(sq, dtype=float)
    tau = np.asarray(tau, dtype=float)
    rho = np.sqrt(sq + tau * tau)
    u = tau / rho
    return rho ** (-(n - 1 + l)) * deriv_polynomial_eval(l, n, u)


def profile_roots(l: int, n: int) -> np.ndarray:
    """Real roots of P_l inside (0, 1)."""
    coeff = list(deriv_polynomial(l, n))
    if len(coeff) == 1:
        return np.array([])
    r = np.roots(list(reversed(coeff)))
    r = r[np.abs(r.imag) < 1e-12].real
    return np.sort(r[(r > 0) & (r < 1)])


def default_delta(l: int, n: int) -> float:
    """Threshold separating |P_l(u)| from its zeros on the u-range of Q_w.

    Half the minimum of |P_l| over a coarse grid of (0, 1] that excludes
    0.05-neighbourhoods of the roots.  Inside the reference box Q_w the
    variable u stays in a compact subinterval of (0, 1], so |P_l| > delta
    on a definite fraction of the box.
    """
    grid = np.linspace(0.01, 1.0, 400)
    for r in profile_roots(l, n):
        grid = grid[np.abs(grid - r) > 0.05]
    if grid.size == 0:
        raise ValueError("no admissible grid points; widen the grid")
    vals = np.abs(deriv_polynomial_eval(l, n, grid))
    return 0.5 * float(vals.min())


def profile_excursion(l: int, n: int, delta: float, z, w):
    """Indicator of |P_l(u)| > delta at z (u built from the w-reflection)."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    diff = z[..., :-1] - w[..., :-1]
    tau = z[..., -1] + w[..., -1]
    # rho = |z - wbar|, wbar = (y, -s) the reflection of w
    rho = np.sqrt(np.sum(diff * diff, axis=-1) + tau**2)
    u = tau / rho
    return np.abs(deriv_polynomial_eval(l, n, u)) > delta

