"""Harmonic function spaces on the unit ball via spherical expansions.

All sphere integrals use the NORMALIZED surface measure (quadrature
weights sum to 1).  With that convention the ball Poisson kernel is
    P(x, y') = (1 - |x|^2) / |x - y'|^n,
its zonal expansion is sum_k r^k Z_k(x'.y') with Z_k(1) = d_k, and
Parseval reads  int |f(r.)|^2 dsigma = sum_k r^(2k) sum_j |b_k^j|^2.

Expansions are finite (degree cap K) with complex coefficients over a
real orthonormal basis; n = 2 uses {1, sqrt2 cos k, sqrt2 sin k} and
n = 3 the normalized associated-Legendre basis.  The fractional
derivative acts diagonally with the gamma-ratio multiplier
    Lambda_t: b_k -> Gamma(k + n/2 + t) / (Gamma(k + n/2) Gamma(t)) b_k.
Note Lambda_t Lambda_u != Lambda_{t+u}: gamma ratios at shifted bases do
not telescope, so this family is not a semigroup in t; linearity and
injectivity are what the property tests assert.

A coefficient multiplier c = {c_k^j} is held as its symbol: the Expansion
of its g-function g_c, whose coefficients are the c_k^j.  It acts on f as
the coefficient product convolve(f, g_c); diagonal_symbol builds the
symbol that scales each degree by one value, as Lambda_t does.

The norms take a sphere-grid resolution, or a SphereGrid built already,
whose basis rows they then share with the grid's other users.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .quadrature import gauss_rule
from .util import check_finite, check_positive, fit_loglog, gamma_ratio


def dim_harmonics(n: int, k: int) -> int:
    """Dimension d_k of degree-k spherical harmonics on S^(n-1)."""
    if k == 0:
        return 1
    if n == 2:
        return 2
    if n == 3:
        return 2 * k + 1
    # general: C(n+k-1, k) - C(n+k-3, k-2); second term vanishes for k < 2
    low = math.comb(n + k - 3, k - 2) if k >= 2 else 0
    return math.comb(n + k - 1, k) - low


def sphere_grid(n: int, resolution: int):
    """(points (m, n), weights (m,)) with weights summing to 1.

    n = 2: uniform angles (trapezoid; exact through trig degree
    resolution-1).  n = 3: Gauss-Legendre in cos(theta) x uniform phi.
    """
    if resolution < 1:
        raise ValueError(f"sphere grid resolution must be >= 1, got {resolution}")
    if n == 2:
        ang = 2 * np.pi * np.arange(resolution) / resolution
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        return pts, np.full(resolution, 1.0 / resolution)
    if n == 3:
        nt = resolution
        nph = 2 * resolution
        xg, wg = gauss_rule(nt)
        ph = 2 * np.pi * np.arange(nph) / nph
        st = np.sqrt(1 - xg**2)
        pts = np.stack(
            [
                np.outer(st, np.cos(ph)).ravel(),
                np.outer(st, np.sin(ph)).ravel(),
                np.outer(xg, np.ones(nph)).ravel(),
            ],
            axis=-1,
        )
        w = np.outer(wg / 2, np.full(nph, 1.0 / nph)).ravel()
        return pts, w
    raise NotImplementedError("sphere grids provided for n in {2, 3}")


def _angles(points):
    x = np.asarray(points, dtype=float)
    if x.shape[-1] == 2:
        return (np.arctan2(x[..., 1], x[..., 0]),)
    theta = np.arccos(np.clip(x[..., 2], -1.0, 1.0))
    phi = np.arctan2(x[..., 1], x[..., 0])
    return theta, phi


# Cephes' Stirling-series coefficients for ln Gamma(x), x >= 13
_LGAM_SERIES = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                7.93650340457716943945e-4, -2.77777777730099687205e-3,
                8.33333333333331927722e-2)


def _log_factorial(n: int) -> float:
    """ln n! as Cephes' lgam(n + 1) forms it for n < 999, bit for bit: the
    log of the exact product below 12!, its Stirling series from there."""
    x = n + 1.0
    if x < 13.0:
        return math.log(math.factorial(n))
    p = 1.0 / (x * x)
    series = _LGAM_SERIES[0]
    for c in _LGAM_SERIES[1:]:
        series = series * p + c
    return (x - 0.5) * math.log(x) - x + 0.91893853320467274178 + series / x


@lru_cache(maxsize=None)
def _assoc_norm(l: int, m: int) -> float:
    # orthonormal under the normalized measure on S^2:
    # sqrt((2 - [m = 0]) (2l + 1) (l - m)! / (l + m)!), each (l, m) built once
    if m == 0:
        return math.sqrt(2 * l + 1)
    return math.sqrt(2 * (2 * l + 1) * math.exp(_log_factorial(l - m) - _log_factorial(l + m)))


@lru_cache(maxsize=None)
def _classic_step(l: int):
    """The step to degree l of the classical recurrence (see
    _legendre_sweep): the norms (l + 1, 1), the seed factors of m = l - 1
    and m = l, and the coefficients l - 1 + m and l - m, (l - 1, 1) over
    m < l - 1; built once per degree."""
    m = np.arange(l - 1.0)[:, None]
    norms = np.array([_assoc_norm(l, j) for j in range(l + 1)])[:, None]
    return norms, _seed_factor(l, l - 1), _seed_factor(l, l), l - 1.0 + m, l - m


def _seed_factor(v: int, m: int) -> float:
    """(-1)^v v (v + m) prod_{0<j<m} (v^2 - j^2), that is (-1)^v (v + m)! /
    (v - m)!, multiplied out as Zhang & Jin's LPMV0 does (1 at m = 0)."""
    if m == 0:
        return (-1.0) ** v
    rg = float(v) * (v + m)
    for j in range(1, m):
        rg *= v * v - j * j
    return (-1.0) ** v * rg


@lru_cache(maxsize=None)
def _legendre_coefficients(l: int):
    """The step to degree l of the fully normalized recurrences: (a, b, s)
    with a (l, 1) over m < l, b (l - 1, 1) over m < l - 1 and the
    sectoral factor s (see _legendre_sweep); built once per degree."""
    m = np.arange(float(l))[:, None]
    a = np.sqrt((2 * l - 1) * (2 * l + 1) / ((l - m) * (l + m)))
    m = m[:l - 1]
    b = np.sqrt((2 * l + 1) * (l + m - 1) * (l - m - 1) / ((l - m) * (l + m) * (2 * l - 3)))
    return a, b, -math.sqrt((2 * l + 1) / (2 * l))


# Through this degree every (l + m)! is a float64, and the sweep keeps the
# classical recurrence, whose rows the stored ball reports were made from.
CLASSIC_TOP = 85


def _legendre_sweep(pts):
    """(P_{k-1}, P_k, cos, sin) at the unit points pts (m, 3), for k = 0, 1, 2, ...

    P_l holds the fully normalized P_l^m(cos theta), Condon-Shortley
    phase included, for m = 0..l, shape (l + 1, m): the rows of unit mean
    square over the sphere (P_{-1} is empty).  cos and sin hold cos(m phi)
    and sin(m phi) for m = 0..k.  Each degree comes from the two before
    it, all m at once.

    Through CLASSIC_TOP, P_l^m is _assoc_norm(l, m) times the unnormalized
    function of the upward recurrence
        P_l^m = ((2l - 1) x P_{l-1}^m - (l - 1 + m) P_{l-2}^m) / (l - m),
    x = cos(theta), seeded at m and m + 1 by the series of Zhang & Jin's
    LPMV0 (Computation of Special Functions, 1996), step for step as
    scipy's lpmv takes them, so every bit of the rows it gave is kept: the
    Laplacian rows of ball-basis difference rounding noise, and one ulp
    in f moves them by 3e-10.  That form overflows past CLASSIC_TOP, where
    scipy's rows were NaN; there the fully normalized recurrences of
    Holmes & Featherstone (J. Geodesy, 2002) take over,
        P_ll = s_l sin(theta) P_{l-1,l-1},  s_l = -sqrt((2l + 1) / (2l)),
        P_lm = a_lm x P_{l-1,m} - b_lm P_{l-2,m}  (m < l),
    a_lm = sqrt((2l - 1)(2l + 1) / ((l - m)(l + m))) and
    b_lm = sqrt((2l + 1)(l + m - 1)(l - m - 1) / ((l - m)(l + m)(2l - 3))),
    which form no factorial, so no row overflows at any degree.
    """
    theta, phi = _angles(pts)
    ct = np.cos(theta)
    st = np.sqrt(1.0 - ct * ct)
    one_minus = 1.0 - (1.0 + ct)  # LPMV0's two-term series at degree m + 1
    prev, cur = np.empty((0,) + ct.shape), np.ones((1,) + ct.shape)
    u_prev, u_cur = prev, cur  # the unnormalized P_{k-1}^m, P_k^m
    r0_prev = r0 = 1.0  # ((sin theta) / 2)^m / m!, in LPMV0's order
    cos_m = sin_m = np.empty((0,) + phi.shape)
    for k in itertools.count():
        if 0 < k <= CLASSIC_TOP:
            norms, seed_below, seed_top, c_prev, c_div = _classic_step(k)
            r0_prev, r0 = r0, 0.5 * r0 * st / k
            nxt = np.empty((k + 1,) + ct.shape)
            nxt[:k - 1] = ((2 * k - 1.0) * ct * u_cur[:k - 1] - c_prev * u_prev) / c_div
            nxt[k - 1] = seed_below * r0_prev * one_minus
            nxt[k] = seed_top * r0
            u_prev, u_cur = u_cur, nxt
            prev, cur = cur, norms * nxt
            if k == 2:  # lpmv's own series at degree 2, m = 0
                x1 = 1.0 + ct
                r = -3.0 * x1
                cur[0] = norms[0] * (1.0 + r + (0.5 * r * -1.0 * 4 / 4) * x1)
        elif k:
            a, b, s = _legendre_coefficients(k)
            nxt = np.empty((k + 1,) + ct.shape)
            nxt[:k] = a * (ct * cur)
            nxt[:k - 1] -= b * prev
            nxt[k] = s * st * cur[k - 1]
            prev, cur = cur, nxt
        if k == len(cos_m):  # the cos(m phi), sin(m phi) table grows by doubling
            m_phi = np.multiply.outer(np.arange(2 * k + 8), phi)
            cos_m, sin_m = np.cos(m_phi), np.sin(m_phi)
        yield prev, cur, cos_m[:k + 1], sin_m[:k + 1]


def _interleave(first, cos_rows, sin_rows):
    """The rows first, cos_rows[0], sin_rows[0], cos_rows[1], ...: the
    n = 3 basis order (m = 0, then the cos and sin row of each m > 0)."""
    out = np.empty((1 + 2 * len(cos_rows),) + cos_rows.shape[1:])
    out[0] = first
    out[1::2] = cos_rows
    out[2::2] = sin_rows
    return out


def _sweep(n: int, points):
    """Each degree's orthonormal basis rows on points, (d_k,) + the points'
    shape, for k = 0, 1, 2, ... in turn: n = 2 from cos(k phi) and
    sin(k phi), n = 3 from one _legendre_sweep."""
    pts = np.asarray(points, dtype=float)
    if n == 2:
        (ang,) = _angles(pts)
        yield np.ones((1,) + ang.shape)
        for k in itertools.count(1):
            yield np.stack([math.sqrt(2) * np.cos(k * ang), math.sqrt(2) * np.sin(k * ang)])
    if n == 3:
        shape = (-1,) + pts.shape[:-1]
        for _, p, cos_m, sin_m in _legendre_sweep(pts.reshape(-1, 3)):
            yield _interleave(p[0], p[1:] * cos_m[1:], p[1:] * sin_m[1:]).reshape(shape)
    raise NotImplementedError("basis provided for n in {2, 3}")


def basis_matrix(n: int, k: int, points) -> np.ndarray:
    """Values of the d_k orthonormal degree-k basis functions: (d_k, m)."""
    return next(itertools.islice(_sweep(n, points), k, None))


class SphereGrid:
    """The points and weights of sphere_grid(n, resolution), with each
    degree's basis rows on those points.

    The rows come from one sweep over the degrees, continued as far as
    the highest degree requested so far, and are kept as long as the grid
    is, so a caller that evaluates several expansions, radii or symbols on
    one grid builds each degree once.  There is no module-level cache: a
    grid made inside a call is dropped with it.
    """

    def __init__(self, n: int, resolution: int):
        self.n = n
        self.points, self.weights = sphere_grid(n, resolution)
        self._sweep = _sweep(n, self.points)
        self._rows = []

    def rows(self, k: int) -> np.ndarray:
        """basis_matrix(n, k, points), built on the first request."""
        while len(self._rows) <= k:
            self._rows.append(next(self._sweep))
        return self._rows[k]


def _basis_on(n: int, points):
    """(point array, each degree's basis rows on it in turn): a SphereGrid
    serves the rows it keeps; on a plain point array one sweep builds them,
    and keeps none."""
    if isinstance(points, SphereGrid):
        if points.n != n:
            raise ValueError("dimension mismatch")
        return points.points, map(points.rows, itertools.count())
    pts = np.asarray(points, dtype=float)
    return pts, _sweep(n, pts)


def _sphere(n: int, resolution):
    """(points, weights) for a resolution, or (grid, its weights) for a
    SphereGrid, which the evaluations then take in place of its points."""
    if isinstance(resolution, SphereGrid):
        return resolution, resolution.weights
    return sphere_grid(n, resolution)


def zonal_values(n: int, k_max: int, cosg) -> np.ndarray:
    """Z_k(cos gamma), k = 0..k_max, stacked on axis 0.

    Z_0 = 1; n = 2: Z_k = 2 T_k; n >= 3: Z_k = (1 + 2k/(n-2)) C_k^{(n-2)/2}
    via the Gegenbauer recurrence.  Z_k(1) = d_k exactly.
    """
    x = np.asarray(cosg, dtype=float)
    out = np.empty((k_max + 1,) + x.shape)
    out[0] = 1.0
    if k_max == 0:
        return out
    if n == 2:
        # Z_k = 2 T_k via the Chebyshev recurrence (Z_0 = 1, not 2T_0)
        tk_prev = np.ones_like(x)  # T_0
        tk = x  # T_1
        out[1] = 2 * tk
        for k in range(2, k_max + 1):
            tk_prev, tk = tk, 2 * x * tk - tk_prev
            out[k] = 2 * tk
        return out
    mu = (n - 2) / 2.0
    c_prev = np.ones_like(x)  # C_0
    c = 2 * mu * x  # C_1
    out[1] = (1 + 2 / (n - 2)) * c
    for k in range(2, k_max + 1):
        c_prev, c = c, (2 * (k - 1 + mu) * x * c - (k - 2 + 2 * mu) * c_prev) / k
        out[k] = (1 + 2 * k / (n - 2)) * c
    return out


def poisson_ball(x, yprime) -> np.ndarray:
    """P(x, y') = (1 - |x|^2)/|x - y'|^n, normalized-measure convention."""
    x = np.asarray(x, dtype=float)
    yp = np.asarray(yprime, dtype=float)
    n = x.shape[-1]
    diff = x - yp
    return (1 - np.sum(x * x, axis=-1)) / np.sum(diff * diff, axis=-1) ** (n / 2)


class Expansion:
    """Finite spherical expansion sum_k r^k sum_j b_k^j Y_j^(k)."""

    def __init__(self, n: int, coeffs):
        """coeffs: degree k's block of d_k values for k = 0..cap, all finite."""
        self.n = n
        self.coeffs = [np.asarray(b, dtype=complex).ravel() for b in coeffs]
        for k, b in enumerate(self.coeffs):
            if b.size != dim_harmonics(n, k):
                raise ValueError(f"degree {k} block has wrong size {b.size}")
        if self.coeffs and not np.isfinite(np.concatenate(self.coeffs)).all():
            raise ValueError("expansion coefficients must be finite")

    @property
    def cap(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def random(cls, n: int, cap: int, seed: int, decay: float = 1.0) -> "Expansion":
        rng = np.random.default_rng(seed)
        blocks = []
        for k in range(cap + 1):
            d = dim_harmonics(n, k)
            blocks.append(
                (rng.standard_normal(d) + 1j * rng.standard_normal(d))
                / (1.0 + k) ** decay
            )
        return cls(n, blocks)

    def values(self, r, points) -> np.ndarray:
        """f(r * points) for radii r broadcastable against len(points);
        points may be a SphereGrid, whose basis rows are then shared."""
        pts, rows = _basis_on(self.n, points)
        r = np.asarray(r, dtype=float)
        out = np.zeros(np.broadcast_shapes(r.shape, pts.shape[:-1]), dtype=complex)
        for k, (c, Y) in enumerate(zip(self.coeffs, rows)):
            out = out + r**k * np.tensordot(c, Y, axes=(0, 0))
        return out

    def l2_moment(self, r: float) -> float:
        """sqrt(sum_k r^(2k) |b_k|^2): M_2(f, r) by Parseval."""
        return math.sqrt(
            sum(float(np.sum(np.abs(c) ** 2)) * r ** (2 * k) for k, c in enumerate(self.coeffs))
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cap": self.cap,
            "coeffs": [
                [[float(v.real), float(v.imag)] for v in c] for c in self.coeffs
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Expansion":
        blocks = [
            np.array([complex(re, im) for re, im in c]) for c in obj["coeffs"]
        ]
        return cls(obj["n"], blocks)


def diagonal_symbol(n: int, values) -> Expansion:
    """The symbol whose degree-k block is values[k] repeated d_k times: the
    multiplier that scales degree k of an expansion by values[k]."""
    return Expansion(n, [np.full(dim_harmonics(n, k), v, dtype=complex)
                         for k, v in enumerate(values)])


def convolve(f: Expansion, g: Expansion) -> Expansion:
    """Blockwise coefficient product, truncated to the smaller cap.

    With g a multiplier symbol (diagonal_symbol, multiplier_lambda) this is
    the multiplier's action on f; callers pass the expansion first and the
    symbol second.  It is commutative and linear in each argument, which
    the property tests assert.  The multiplier functional
    (slice_functional) takes the Poisson slice of a diagonal symbol as one
    zonal row instead.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    cap = min(f.cap, g.cap)
    return Expansion(f.n, [f.coeffs[k] * g.coeffs[k] for k in range(cap + 1)])


def fractional_derivative(t: float, f: Expansion) -> Expansion:
    """Lambda_t f: diagonal gamma-ratio multiplier of order t > 0."""
    return convolve(f, multiplier_lambda(f.n, f.cap, t))


def multiplier_lambda(n: int, cap: int, t: float) -> Expansion:
    """The diagonal symbol of Lambda_t through degree cap."""
    check_positive(order=t)
    try:
        vals = [gamma_ratio(k + n / 2, t) / math.gamma(t) for k in range(cap + 1)]
    except OverflowError:  # a gamma past the float64 range
        raise ValueError(f"the order-{t:g} multiplier overflows float64")
    return diagonal_symbol(n, vals)


def conv_poisson_matrix(c: Expansion, rho: float, grid) -> np.ndarray:
    """h_rho(x', y') = sum_k rho^k sum_j c_k^j Y_j(x') Y_j(y') on the points
    of grid (a SphereGrid or a point array), shape (m, m), for the symbol c.

    h_rho is (g_c * P_{x'})(rho y'): the Poisson slice of the multiplier
    symbol.  Symmetric for any symbol; for a diagonal one it is zonal:
    h = sum_k rho^k c_k Z_k(x'.y').  Each degree's term
    E_k = sum_j c_k^j Y_j Y_j is added, as rho^k E_k, in degree order.  The
    matrix itself is what ball-norms' slice-convolution-identity and
    conv-matrix-symmetry rows test; the multiplier functionals use only the
    zonal row.
    """
    _, rows = _basis_on(c.n, grid)
    rho = float(rho)
    for k, (b, Y) in enumerate(zip(c.coeffs, rows)):
        E = np.einsum("j,jx,jy->xy", b, Y, Y)
        if k == 0:
            h = rho**k * E
        else:
            h += rho**k * E
    return h


FINITE_TREND = -0.05
DIVERGENT_TREND = -0.2


def trend_class(slope):
    """A slice_functional trend at or above FINITE_TREND has settled as
    rho -> 1; one at or below DIVERGENT_TREND still climbs."""
    if slope >= FINITE_TREND:
        return "finite"
    if slope <= DIVERGENT_TREND:
        return "divergent"
    return "inconclusive"


def slice_functional(c, s_prime, weight_exp, lam_order, rho_levels, grid):
    """Weighted boundary-slice functional of a diagonal n = 2 symbol.

    Per radius 1 - 2^-i: sup over the outer point x' of
    (1-rho)^weight_exp (int |D(g*P_x')(rho y')|^s' dy')^(1/s'), where D is
    an optional fractional derivative of the stated order and the integral
    runs over the n = 2 SphereGrid grid.  Returns the sup, the log-log
    trend slope in (1-rho) over the last rows unaffected by the symbol's
    degree cap, and the trace rows.  Negative trend means the value still
    climbs as rho -> 1.

    For a diagonal symbol the Poisson slice is zonal (the addition
    theorem): h_rho(x', y') = sum_k rho^k c_k Z_k(x'.y').  The grid is
    uniform in angle, so each outer point's row is a rotation of the
    first point's, and every row has the same integral: the sup is that
    one row's.  The row is summed in degree order with elementwise
    products, so no value depends on BLAS threading.  Any other symbol or
    grid raises ValueError.
    """
    if not (c.n == 2 and all(np.all(b == b[0]) for b in c.coeffs)):
        raise ValueError("slice_functional takes a diagonal n = 2 symbol")
    if not (isinstance(grid, SphereGrid) and grid.n == 2):
        raise ValueError("slice_functional takes an n = 2 SphereGrid")
    coef = np.array([b[0] for b in c.coeffs])
    if lam_order is not None:
        lam = multiplier_lambda(2, c.cap, lam_order)
        coef = np.array([b[0] for b in lam.coeffs]) * coef
    rhos = 1.0 - 2.0 ** -np.arange(1.0, rho_levels + 1)
    Z = zonal_values(2, c.cap, grid.points @ grid.points[0])
    terms = rhos[:, None] ** np.arange(c.cap + 1) * coef  # (levels, cap + 1)
    row = terms[:, :1] * Z[0]  # (levels, res): the first point's row per level
    for k in range(1, c.cap + 1):
        row += terms[:, k:k + 1] * Z[k]
    integ = (np.abs(row) ** s_prime @ grid.weights) ** (1.0 / s_prime)
    rows = [(rho, (1.0 - rho) ** weight_exp * v)
            for rho, v in zip(rhos.tolist(), integ.tolist())]
    vals = np.array([v for _, v in rows])
    sup = float(vals.max())
    usable = [i for i in range(1, rho_levels + 1) if 2.0 ** i <= c.cap / 2]
    usable = usable[-4:]
    if len(usable) >= 3 and all(vals[i - 1] > 0 for i in usable):
        onem = np.array([2.0 ** -i for i in usable])
        slope = fit_loglog(onem, vals[[i - 1 for i in usable]])[0]
    else:
        slope = 0.0
    return sup, slope, [[float(r), float(v)] for r, v in rows]


# The largest weight exponent a accepted.  At 40 nodes the rule of
# _jacobi_rule matches a 40-digit one within 1e-16 in its nodes and 6e-14
# in its weights here, and stays finite far beyond (to a = 1e8), but its
# total weight drifts by 5e-13 at a = 1e4; 1021 keeps the accepted range
# of the earlier rule, whose scale 2^-(a+1) left the normal range above it.
MAX_WEIGHT_EXPONENT = 1021.0


def check_weight_exponent(a_exp: float, what: str) -> None:
    """The one check of a radial weight exponent a: (-1, MAX_WEIGHT_EXPONENT]."""
    if not -1 < a_exp <= MAX_WEIGHT_EXPONENT:  # NaN fails too
        raise ValueError(f"{what}, the radial weight exponent, must lie in"
                         f" (-1, {MAX_WEIGHT_EXPONENT:g}], got {a_exp:g}")


def _jacobi_recurrence(x, diag, off):
    """(q_N, q_N', sum_{k<N} q_k^2) at the points x, for the polynomials
    q_k orthonormal under a probability measure: q_0 = 1 and
    off[k] q_{k+1} = (x - diag[k]) q_k - off[k - 1] q_{k-1}, N = len(diag)."""
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    e = 0.0
    for b, e_next in zip(diag, off):
        total += q * q
        q_prev, q, d_prev, d = (q, ((x - b) * q - e * q_prev) / e_next,
                                d, (q + (x - b) * d - e * d_prev) / e_next)
        e = e_next
    return q, d, total


@lru_cache(maxsize=256)
def _jacobi_rule(a_exp: float, count: int):
    """The count-node Gauss rule of int_0^1 g(r) (1 - r)^a dr, built once
    per (a, count); the arrays are shared by every caller and therefore
    read-only.

    In xi = 2r - 1 the weight is (1 - xi)^a, the Jacobi weight with
    beta = 0.  a = 0 is gauss_rule.  Otherwise the nodes are the
    eigenvalues of the Jacobi matrix of the measure scaled to total 1
    (Golub & Welsch, 1969), polished by one Newton step on the recurrence
    of its orthonormal polynomials, and the weights are the Christoffel
    numbers 1 / sum_k q_k(xi)^2, scaled to the total 1 / (a + 1).  Every
    recurrence coefficient is written in a + 1, which is exact near
    a = -1, so the rule stays finite as a -> -1; no 2^(a + 1) is formed.
    Near a = -1 nearly all the weight sits on the last node, which rounds
    to xi = 1; its Christoffel number moves with that rounding (3e-11 at
    a = -1 + 2^-53, 40 nodes), and the scaling, which fixes the total,
    takes that error out.
    """
    if a_exp == 0.0:
        xi, w = gauss_rule(count)
        w = w / 2.0
    else:
        ap1 = a_exp + 1.0
        k = np.arange(1.0, count + 1.0)
        s = 2 * k - 1 + ap1  # 2k + a
        diag = np.concatenate(([-a_exp / (1.0 + ap1)], -a_exp * a_exp / (s * (s + 2))))[:count]
        off = 2 * k * (k - 1 + ap1) / (s * np.sqrt((2 * k + ap1) * (2 * k - 2 + ap1)))
        jac = np.diag(diag) + np.diag(off[:-1], -1)  # eigvalsh reads the lower triangle
        xi = np.linalg.eigvalsh(jac)
        q, d, _ = _jacobi_recurrence(xi, diag, off)
        xi = xi - q / d
        w = 1.0 / _jacobi_recurrence(xi, diag, off)[2]
        w = w / (w.sum() * ap1)
    r = 0.5 * (xi + 1.0)
    r.flags.writeable = False
    w.flags.writeable = False
    return r, w


def radial_jacobi_quadrature(a_exp: float, n: int, count: int, what: str = "a"):
    """Nodes/weights for int_0^1 g(r) (1-r)^a r^(n-1) dr, a > -1.

    Gauss-Jacobi in xi = 2r - 1 with weight (1-xi)^a (_jacobi_rule); the
    r^(n-1) factor is folded into the returned weights, which therefore
    carry r^(n-1) and the (1-r)^a factor.  A rejected a is named `what`:
    one outside (-1, MAX_WEIGHT_EXPONENT], or one whose count-node rule
    is not finite in float64.
    """
    check_weight_exponent(a_exp, what)
    if count < 1:
        raise ValueError(f"a Gauss-Jacobi rule needs at least one node, got {count}")
    with np.errstate(all="ignore"):  # a non-finite rule is refused below instead
        r, w = _jacobi_rule(float(a_exp), count)
    if not (np.isfinite(r).all() and np.isfinite(w).all()):
        raise ValueError(f"{what}, the radial weight exponent, gives no finite {count}-node"
                         f" Gauss-Jacobi rule in float64, got {a_exp!r}")
    return r, w * r ** (n - 1)


def _abs_values(f: Expansion, r, points) -> np.ndarray:
    return np.abs(f.values(r, points))


def _power_mean(vals, w, p):
    """(vals^p @ w)^(1/p) over the last axis of vals >= 0, taken as
    m ((vals / m)^p @ w)^(1/p) with m near the largest value of each row,
    so that the power cannot underflow (or overflow) for a large p."""
    top = np.max(vals, axis=-1, keepdims=True)
    # m is the power of two just above the row's largest value.  For an
    # integer p, (v / m)^p is then v^p scaled without rounding, and the
    # stored ball outputs (perfbench/reference: ball-norms, ball-basis,
    # thm8-thm10, ball functional) keep every bit; scaling by the largest
    # value itself moves 92 of their values in the last bit.  Past
    # p = 512, (1/2)^p nears the subnormal range (2^-1022), so there m is
    # the largest value itself.
    m = top if p > 512 else np.ldexp(1.0, np.frexp(top)[1])
    m = np.where((top > 0) & (top < np.inf), m, 1.0)  # zero or inf: unscaled
    return m[..., 0] * ((vals / m) ** p @ w) ** (1.0 / p)


def _radial_mean(f, values, p, q, a_exp, what, resolution, radial) -> float:
    """(int_0^1 M_q^p (1-r)^a (1+r)^a r^(n-1) dr)^(1/p), where M_q is the
    q-mean of values(f, r, x') over the sphere: the Gauss-Jacobi rule
    takes the (1-r)^a endpoint factor, so a in (-1, 0) costs nothing.  The
    rule, which checks a (named `what`), is built before the sphere grid."""
    r, wr = radial_jacobi_quadrature(a_exp, f.n, radial, what)
    pts, w = _sphere(f.n, resolution)
    mq = _power_mean(values(f, r[:, None], pts), w, q)
    return float(_power_mean(mq, wr * (1.0 + r) ** a_exp, p))


def _volume_integral(f, values, p, alpha, resolution, radial) -> float:
    """(int_B values(f, r, x')^p (1-|x|^2)^alpha dx)^(1/p), normalized sigma:
    the mixed integral with q = p, volume element r^(n-1) dr dsigma(x');
    the rule checks the weight exponent alpha."""
    check_positive(p=p)
    return _radial_mean(f, values, p, p, alpha, "alpha", resolution, radial)


def _mixed_integral(f, values, p, q, alpha, resolution, radial) -> float:
    """(int_0^1 M_q^p (1-r^2)^(alpha p - 1) r^(n-1) dr)^(1/p), where M_q
    is the q-mean of values(f, r, x') over the sphere; the rule checks the
    weight exponent alpha p - 1."""
    check_positive(p=p, q=q)
    return _radial_mean(f, values, p, q, alpha * p - 1, "alpha p - 1", resolution, radial)


def volume_norm(
    f: Expansion, p: float, alpha: float, resolution: int = 24, radial: int = 40
) -> float:
    """||f||^p = int_B |f|^p (1-|x|^2)^alpha dx -> ^(1/p), normalized sigma."""
    return _volume_integral(f, _abs_values, p, alpha, resolution, radial)


def slice_norm_ball(f: Expansion, q: float, r: float, resolution: int = 24) -> float:
    """M_q(f, r) under the normalized measure."""
    check_positive(q=q)
    check_finite(r=r)
    pts, w = _sphere(f.n, resolution)
    return float(_power_mean(np.abs(f.values(np.asarray(r), pts)), w, q))


def mixed_norm_ball(
    f: Expansion, p: float, q: float, alpha: float, resolution: int = 24, radial: int = 40
) -> float:
    """||f||_{B(p,q,alpha)}^p = int_0^1 M_q(f,r)^p (1-r^2)^(alpha p - 1) r^(n-1) dr."""
    return _mixed_integral(f, _abs_values, p, q, alpha, resolution, radial)


def sup_mixed_norm_ball(f: Expansion, q: float, alpha: float, resolution: int = 24) -> float:
    """||f||_{infty,q,alpha} = sup_r (1-r^2)^alpha M_q(f, r) on the 24 radii
    1 - 2^(-i/2)."""
    check_finite(alpha=alpha)
    rhos = 1.0 - 2.0 ** (-np.arange(24) / 2.0)
    grid = resolution if isinstance(resolution, SphereGrid) else SphereGrid(f.n, resolution)
    best = 0.0
    for rho in rhos:
        best = max(best, (1 - rho * rho) ** alpha * slice_norm_ball(f, q, rho, grid))
    return best


def hardy_norm(f: Expansion, s: float, resolution: int = 24) -> float:
    """H^s norm: sup_r M_s(f, r) = M_s(f, 1) for finite expansions."""
    return slice_norm_ball(f, s, 1.0, resolution)


def gradient_values(f: Expansion, r, points) -> np.ndarray:
    """|grad f| at r * points (full gradient, complex coefficients).

    n = 2 uses d/dx, d/dy of r^k trig terms via the degree shift; n = 3
    uses the spherical frame (radial, theta, phi components).
    """
    pts, _ = _basis_on(f.n, points)
    r = np.asarray(r, dtype=float)
    shape = np.broadcast_shapes(r.shape, pts.shape[:-1])
    if f.n == 2:
        (ang,) = _angles(pts)
        gx = np.zeros(shape, dtype=complex)
        gy = np.zeros(shape, dtype=complex)
        for k in range(1, f.cap + 1):
            c = f.coeffs[k]
            A = math.sqrt(2) * c[0]
            B = math.sqrt(2) * c[1] if c.size > 1 else 0.0
            rk = r ** (k - 1)
            cos1, sin1 = np.cos((k - 1) * ang), np.sin((k - 1) * ang)
            # d/dx Re-part basis: k r^(k-1) cos((k-1)a); see degree shift of
            # (x+iy)^k.  With f_k = A cos(k a) r^k + B sin(k a) r^k:
            gx = gx + k * rk * (A * cos1 + B * sin1)
            gy = gy + k * rk * (-A * sin1 + B * cos1)
        return np.sqrt(np.abs(gx) ** 2 + np.abs(gy) ** 2)
    if f.n == 3:
        flat = pts.reshape(-1, 3)
        theta, _ = _angles(flat)
        ct, st = np.cos(theta), np.sin(theta)
        st = np.where(np.abs(st) < 1e-12, 1e-12, st)
        g_r = np.zeros(shape, dtype=complex)
        g_t = np.zeros(shape, dtype=complex)
        g_p = np.zeros(shape, dtype=complex)

        def term(c, first, cos_rows, sin_rows):  # sum_j c_j (row j), on pts
            rows = _interleave(first, cos_rows, sin_rows)
            return np.tensordot(c, rows, axes=(0, 0)).reshape(pts.shape[:-1])

        sweep = itertools.islice(_legendre_sweep(flat), 1, f.cap + 1)
        for k, (p_prev, p, cos_m, sin_m) in enumerate(sweep, start=1):
            c = f.coeffs[k]
            rk1 = r ** (k - 1)
            m = np.arange(k + 1.0)[:, None]
            # d/dtheta P_k^m(cos theta) = -sin(theta) dP/dx with
            # (x^2 - 1) dP/dx = k x P_k^m - g_km P_{k-1}^m for the normalized
            # rows, g_km = sqrt((2k + 1)(k - m)(k + m) / (2k - 1)); grid
            # points avoid the poles so x^2 - 1 stays away from 0
            dp = k * ct * p
            dp[:k] -= np.sqrt((2 * k + 1) * (k - m[:k]) * (k + m[:k]) / (2 * k - 1)) * p_prev
            dp = -st * dp / (ct * ct - 1.0)
            mp = m[1:] / st * p[1:]  # (1 / sin theta) d/dphi, up to the cos/sin swap
            g_r = g_r + k * rk1 * term(c, p[0], p[1:] * cos_m[1:], p[1:] * sin_m[1:])
            g_t = g_t + rk1 * term(c, dp[0], dp[1:] * cos_m[1:], dp[1:] * sin_m[1:])
            g_p = g_p + rk1 * term(c, 0.0, -mp * sin_m[1:], mp * cos_m[1:])
        return np.sqrt(np.abs(g_r) ** 2 + np.abs(g_t) ** 2 + np.abs(g_p) ** 2)
    raise NotImplementedError


def grad_volume_norm(
    f: Expansion, p: float, alpha: float, resolution: int = 24, radial: int = 40
) -> float:
    """DA-type norm: |f(0)| + ( int |grad f|^p (1-|x|^2)^alpha dx )^(1/p)."""
    integ = _volume_integral(f, gradient_values, p, alpha, resolution, radial)
    return abs(complex(f.coeffs[0][0])) + integ


def grad_mixed_norm(
    f: Expansion, p: float, q: float, alpha: float, resolution: int = 24, radial: int = 40
) -> float:
    """DB-type norm: |f(0)| + mixed norm of |grad f| with weight alpha."""
    integ = _mixed_integral(f, gradient_values, p, q, alpha, resolution, radial)
    return abs(complex(f.coeffs[0][0])) + integ
