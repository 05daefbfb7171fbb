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

The norms take a sphere-grid resolution, or a SphereGrid built already,
whose basis rows they then share with the grid's other users.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quadrature import gauss_rule
from .util import check_finite, check_positive, gamma_ratio


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


@lru_cache(maxsize=None)
def _assoc_norm(l: int, m: int) -> float:
    # orthonormal under the normalized measure on S^2; each (l, m) is
    # built once, though every basis_matrix and gradient_values call reads it
    from scipy.special import gammaln

    if m == 0:
        return math.sqrt(2 * l + 1)
    return math.sqrt(
        2 * (2 * l + 1) * math.exp(gammaln(l - m + 1) - gammaln(l + m + 1))
    )


def basis_matrix(n: int, k: int, points) -> np.ndarray:
    """Values of the d_k orthonormal degree-k basis functions: (d_k, m)."""
    if n == 2:
        (ang,) = _angles(points)
        if k == 0:
            return np.ones((1,) + ang.shape)
        return np.stack([math.sqrt(2) * np.cos(k * ang), math.sqrt(2) * np.sin(k * ang)])
    if n == 3:
        from scipy.special import lpmv

        theta, phi = _angles(points)
        c = np.cos(theta)
        rows = [_assoc_norm(k, 0) * lpmv(0, k, c)]
        for m in range(1, k + 1):
            nm = _assoc_norm(k, m)
            pm = lpmv(m, k, c)
            rows.append(nm * pm * np.cos(m * phi))
            rows.append(nm * pm * np.sin(m * phi))
        return np.stack(rows)
    raise NotImplementedError("basis provided for n in {2, 3}")


class SphereGrid:
    """The points and weights of sphere_grid(n, resolution), with each
    degree's basis rows on those points.

    A degree's rows are built on first use and kept as long as the grid
    is, so a caller that evaluates several expansions, radii or symbols on
    one grid builds each degree once.  There is no module-level cache: a
    grid made inside a call is dropped with it.
    """

    def __init__(self, n: int, resolution: int):
        self.n = n
        self.points, self.weights = sphere_grid(n, resolution)
        self._rows = {}

    def rows(self, k: int) -> np.ndarray:
        """basis_matrix(n, k, points), built on the first request."""
        if k not in self._rows:
            self._rows[k] = basis_matrix(self.n, k, self.points)
        return self._rows[k]


def _basis_on(n: int, points):
    """(point array, k -> degree-k basis rows on it): a SphereGrid serves
    the rows it keeps; on a plain point array each degree is built anew."""
    if isinstance(points, SphereGrid):
        if points.n != n:
            raise ValueError("dimension mismatch")
        return points.points, points.rows
    pts = np.asarray(points, dtype=float)
    return pts, lambda k: basis_matrix(n, k, pts)


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


def _degree_blocks(n: int, blocks, what: str) -> list:
    """blocks as flat complex arrays, degree k's of size d_k, all finite."""
    out = [np.asarray(b, dtype=complex).ravel() for b in blocks]
    for k, b in enumerate(out):
        if b.size != dim_harmonics(n, k):
            raise ValueError(f"degree {k} block has wrong size {b.size}")
    if out and not np.isfinite(np.concatenate(out)).all():
        raise ValueError(f"{what} must be finite")
    return out


class Expansion:
    """Finite spherical expansion sum_k r^k sum_j b_k^j Y_j^(k)."""

    def __init__(self, n: int, coeffs):
        self.n = n
        self.coeffs = _degree_blocks(n, coeffs, "expansion coefficients")

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
        for k, c in enumerate(self.coeffs):
            out = out + r**k * np.tensordot(c, rows(k), axes=(0, 0))
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


class Multiplier:
    """Coefficient multiplier c = {c_k^j}; acts blockwise on expansions."""

    def __init__(self, n: int, blocks):
        self.n = n
        self.blocks = _degree_blocks(n, blocks, "multiplier values")

    @property
    def cap(self) -> int:
        return len(self.blocks) - 1

    @classmethod
    def diagonal(cls, n: int, cap: int, values) -> "Multiplier":
        vals = np.asarray(values, dtype=complex).ravel()
        if vals.size != cap + 1:
            raise ValueError("need one value per degree")
        return cls(
            n, [np.full(dim_harmonics(n, k), vals[k]) for k in range(cap + 1)]
        )

    def diagonal_values(self) -> np.ndarray:
        return np.array([b[0] for b in self.blocks])

    def apply(self, f: Expansion) -> Expansion:
        if f.n != self.n:
            raise ValueError("dimension mismatch")
        cap = min(self.cap, f.cap)
        return Expansion(
            self.n, [self.blocks[k] * f.coeffs[k] for k in range(cap + 1)]
        )

    def g_function(self) -> Expansion:
        """The expansion g_c with coefficients c_k^j (the symbol itself)."""
        return Expansion(self.n, self.blocks)


def convolve(f: Expansion, g: Expansion) -> Expansion:
    """Blockwise coefficient product, truncated to the smaller cap.

    This is the multiplier action of g's coefficients on f; it is
    commutative and linear in each argument, which the property tests
    assert.  The multiplier functionals (verify.slice_functional) take
    the Poisson slice of a diagonal symbol as one zonal row instead.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    cap = min(f.cap, g.cap)
    return Expansion(f.n, [f.coeffs[k] * g.coeffs[k] for k in range(cap + 1)])


def fractional_derivative(t: float, f: Expansion) -> Expansion:
    """Lambda_t f: diagonal gamma-ratio multiplier of order t > 0."""
    return multiplier_lambda(f.n, f.cap, t).apply(f)


def multiplier_lambda(n: int, cap: int, t: float) -> Multiplier:
    check_positive(order=t)
    try:
        vals = [gamma_ratio(k + n / 2, t) / math.gamma(t) for k in range(cap + 1)]
    except OverflowError:  # a gamma past the float64 range
        raise ValueError(f"the order-{t:g} multiplier overflows float64")
    return Multiplier.diagonal(n, cap, vals)


def conv_poisson_matrix(c: Multiplier, rho: float, grid) -> np.ndarray:
    """h_rho(x', y') = sum_k rho^k sum_j c_k^j Y_j(x') Y_j(y') on the points
    of grid (a SphereGrid or a point array), shape (m, m).

    h_rho is (g_c * P_{x'})(rho y'): the Poisson slice of the multiplier
    symbol.  Symmetric for any blocks; for diagonal blocks it is zonal:
    h = sum_k rho^k c_k Z_k(x'.y').  Each degree's term
    E_k = sum_j c_k^j Y_j Y_j is added, as rho^k E_k, in degree order.  The
    matrix itself is what ball-norms' slice-convolution-identity and
    conv-matrix-symmetry rows test; the multiplier functionals use only the
    zonal row.
    """
    _, rows = _basis_on(c.n, grid)
    rho = float(rho)
    for k, b in enumerate(c.blocks):
        Y = rows(k)
        E = np.einsum("j,jx,jy->xy", b, Y, Y)
        if k == 0:
            h = rho**k * E
        else:
            h += rho**k * E
    return h


# Up to this weight exponent a, the Gauss-Jacobi rule's scale 2^-(a+1) is
# a normal float64 and its total weight 2^(a+1) / (a+1) is finite; from
# about a = 1034 on, scipy's weights overflow and the rule is NaN or fails.
MAX_WEIGHT_EXPONENT = 1021.0


def check_weight_exponent(a_exp: float, what: str) -> None:
    """The one check of a radial weight exponent a: (-1, MAX_WEIGHT_EXPONENT]."""
    if not -1 < a_exp <= MAX_WEIGHT_EXPONENT:  # NaN fails too
        raise ValueError(f"{what}, the radial weight exponent, must lie in"
                         f" (-1, {MAX_WEIGHT_EXPONENT:g}], got {a_exp:g}")


def radial_jacobi_quadrature(a_exp: float, n: int, count: int, what: str = "a"):
    """Nodes/weights for int_0^1 g(r) (1-r)^a r^(n-1) dr, a > -1.

    Gauss-Jacobi in xi = 2r - 1 with weight (1-xi)^a; the r^(n-1) factor
    and the remaining smooth parts belong to g and are folded into the
    returned weights as (1+...) terms evaluated at the nodes.
    Returned weights include r^(n-1) and the (1-r)^a factor.  A
    rejected a is named `what`.
    """
    from scipy.special import roots_jacobi

    check_weight_exponent(a_exp, what)
    xi, w = roots_jacobi(count, a_exp, 0.0)
    r = 0.5 * (xi + 1.0)
    # (1 - xi)^a dxi = (2(1-r))^a 2 dr
    scale = 2.0 ** (-(a_exp + 1))
    return r, w * scale * r ** (n - 1)


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
        from scipy.special import lpmv

        theta, phi = _angles(pts)
        ct, st = np.cos(theta), np.sin(theta)
        st = np.where(np.abs(st) < 1e-12, 1e-12, st)
        g_r = np.zeros(shape, dtype=complex)
        g_t = np.zeros(shape, dtype=complex)
        g_p = np.zeros(shape, dtype=complex)
        for k in range(1, f.cap + 1):
            c = f.coeffs[k]
            rk1 = r ** (k - 1)
            i = 0
            for m in range(0, k + 1):
                nm = _assoc_norm(k, m)
                pm = lpmv(m, k, ct)
                # d/dtheta P_k^m(cos theta) = -sin(theta) dP/dx with
                # (x^2 - 1) dP/dx = k x P_k^m - (k + m) P_{k-1}^m; grid
                # points avoid the poles so x^2 - 1 stays away from 0
                pm_km1 = lpmv(m, k - 1, ct) if m <= k - 1 else np.zeros_like(ct)
                dpm_dtheta = -st * (k * ct * pm - (k + m) * pm_km1) / (ct * ct - 1.0)
                if m == 0:
                    ylm = nm * pm
                    dth = nm * dpm_dtheta
                    b = c[0]
                    g_r = g_r + b * k * rk1 * ylm
                    g_t = g_t + b * rk1 * dth
                    i = 1
                else:
                    bc, bs = c[i], c[i + 1]
                    i += 2
                    cosm, sinm = np.cos(m * phi), np.sin(m * phi)
                    yc, ys = nm * pm * cosm, nm * pm * sinm
                    dthc, dths = nm * dpm_dtheta * cosm, nm * dpm_dtheta * sinm
                    g_r = g_r + k * rk1 * (bc * yc + bs * ys)
                    g_t = g_t + rk1 * (bc * dthc + bs * dths)
                    g_p = g_p + rk1 * (m / st) * nm * pm * (-bc * sinm + bs * cosm)
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
