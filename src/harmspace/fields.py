"""Field objects over the upper half-space.

A Field evaluates on arrays of points z = (x, t) and, when it is a radial
function of x about some center, exposes the profile (r, t) |-> f so norm
and operator quadratures can collapse the spatial integral to one radial
dimension.  All the closed-form families here are built on kernels.py.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .geometry import half_space_points
from .util import check_finite


class Field:
    """Base: scalar function of z = (x, t), vectorized over points."""

    n: int
    label: str
    radial_center = None  # np.ndarray (n,) when f(x,t) depends on |x - center| only
    scale: float = 1.0  # characteristic length for quadrature panel sizing

    def values(self, points):
        """Evaluate at points of shape (..., n+1)."""
        raise NotImplementedError

    def radial_values(self, r, t):
        """Profile at |x - center| = r, height t.  Radial fields only."""
        raise NotImplementedError

    @property
    def is_radial(self) -> bool:
        return self.radial_center is not None

    def _split(self, points):
        pts = np.asarray(points, dtype=float)
        return pts[..., :-1], pts[..., -1]


class _Centered(Field):
    """Common code for fields radial about a source point w = (y, s)."""

    def __init__(self, n, w):
        w = half_space_points(w, n, "source point")
        if w.ndim != 1:
            raise ValueError(f"source point must have shape ({n + 1},), got {w.shape}")
        self.n = n
        self.w = w
        self.radial_center = w[:-1]
        self.scale = float(w[-1])

    def values(self, points):
        x, t = self._split(points)
        diff = x - self.radial_center
        sq = np.sum(diff * diff, axis=-1)
        return self._from_sq(sq, t + self.w[-1])

    def radial_values(self, r, t):
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        return self._from_sq(r * r, t + self.w[-1])

    def _from_sq(self, sq, tau):
        raise NotImplementedError


class PoissonField(_Centered):
    """f(z) = P(x - y, t + s): the Poisson kernel seen from w = (y, s)."""

    def __init__(self, n, w):
        super().__init__(n, w)
        self.label = f"poisson-n{n}-s{self.w[-1]:g}"

    def _from_sq(self, sq, tau):
        return kernels.poisson_from_sq(self.n, sq, tau)


class BergmanField(_Centered):
    """f(z) = Q_l(z, w), the weighted Bergman kernel with one leg fixed."""

    def __init__(self, l, n, w):
        super().__init__(n, w)
        self.l = l
        self.label = f"bergman{l}-n{n}-s{self.w[-1]:g}"

    def _from_sq(self, sq, tau):
        return kernels.bergman_from_sq(self.l, self.n, sq, tau)


class TestField(_Centered):
    """f(z) = f_{w,l}(z) = |z - wbar|^(-(n-1+l)) P_l(u)."""

    def __init__(self, l, n, w):
        if n < 2:
            raise ValueError("test fields need n >= 2")
        super().__init__(n, w)
        self.l = l
        self.label = f"testfield{l}-n{n}-s{self.w[-1]:g}"

    def _from_sq(self, sq, tau):
        return kernels.test_fn_from_sq(self.l, self.n, sq, tau)


class PowerField(Field):
    """f(z) = t^(-lam): x-independent, the extremal for the sup norms."""

    def __init__(self, n, lam):
        self.n = n
        self.lam = float(lam)
        check_finite(power_exponent=self.lam)
        self.radial_center = np.zeros(n)
        self.label = f"power-n{n}-lam{lam:g}"

    def values(self, points):
        _, t = self._split(points)
        return t ** (-self.lam)

    def radial_values(self, r, t):
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(t ** (-self.lam), np.broadcast_shapes(r.shape, t.shape)).copy()


class ProductField(Field):
    """Pointwise product; harmonic only by accident, used for integrands.
    Never radial, even when its factors share a centre."""

    def __init__(self, a: Field, b: Field):
        if a.n != b.n:
            raise ValueError("dimension mismatch")
        self.n = a.n
        self.a, self.b = a, b
        self.scale = min(a.scale, b.scale)
        self.label = f"prod({a.label},{b.label})"

    def values(self, points):
        return self.a.values(points) * self.b.values(points)


def dilated(field_cls, l, n, s):
    """Convenience: the family member centered on the axis at height s."""
    if n < 1:
        raise ValueError(f"spatial dimension must be >= 1, got {n}")
    w = np.zeros(n + 1)
    w[-1] = s
    if field_cls is PoissonField:
        return PoissonField(n, w)
    return field_cls(l, n, w)
