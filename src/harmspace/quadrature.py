"""Node and weight construction for half-space integrals.

Three geometries cover everything the toolkit integrates:

* per-box Gauss-Legendre tensors over Whitney boxes (the weight t^alpha is
  smooth on a box, so low order suffices);
* layered grids: composite Gauss-Legendre in t on the dyadic layers
  crossed with composite radial or per-axis spatial panels that refine
  geometrically toward the field centers;
* axisymmetric (u, v, s) grids for integrals of kernels against fields
  that are radial about a point on the axis, collapsing R^n x (0,oo) to
  three dimensions regardless of n.

Weights always include the jacobians of the chosen coordinates; surface
factors (omega_{n-1} and friends) are included where the docstring says
so and nowhere else.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Region
from .util import check_positive


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (omega_{n-1})."""
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


@dataclass(frozen=True)
class QuadSpec:
    """Budget knobs shared by all node builders: integer orders and splits
    of at least 1 and a finite min_panel > 0, checked when a spec is made
    (refined() included)."""

    order: int = 8  # Gauss-Legendre order per spatial panel
    t_order: int = 6  # order per t panel
    t_splits: int = 1  # extra equal-log splits of each dyadic t layer
    min_panel: float = 0.125  # finest panel width at a field center
    cube_order: int = 4  # per-dim order on Whitney boxes

    def __post_init__(self):
        for name in ("order", "t_order", "t_splits", "cube_order"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"QuadSpec {name} must be an integer >= 1, got {v!r}")
        check_positive(min_panel=self.min_panel)

    def refined(self) -> "QuadSpec":
        """The spec with every order and split doubled and min_panel halved."""
        return replace(
            self,
            order=self.order * 2,
            t_order=self.t_order * 2,
            t_splits=self.t_splits * 2,
            min_panel=self.min_panel / 2,
            cube_order=self.cube_order * 2,
        )


@functools.lru_cache(maxsize=None)
def gauss_rule(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], built once per order.

    The rule is that of Golub & Welsch (1969), which is what leggauss
    computes, so caching it is exact.  The arrays are shared by every
    caller and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_nodes(a: float, b: float, order: int):
    """Gauss-Legendre nodes/weights on [a, b] (fresh arrays)."""
    x, w = gauss_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def tensor_rule(axes):
    """Tensor product of 1-D rules [(x_0, w_0), (x_1, w_1), ...].

    Axis 0 varies slowest (meshgrid "ij" order) and the weight is the
    product w_0 * w_1 * ... taken in axis order.  Every x_i, w_i may carry
    the same leading batch shape (..., k_i); the result is points
    (..., K, d) and weights (..., K) with K = prod k_i and d = len(axes).
    """
    d = len(axes)
    batch = np.shape(axes[0][0])[:-1]
    sizes = tuple(np.shape(x)[-1] for x, _ in axes)
    pts = np.empty(batch + sizes + (d,))
    w = np.ones(batch + sizes)
    for i, (x, wi) in enumerate(axes):
        shape = batch + (1,) * i + (sizes[i],) + (1,) * (d - 1 - i)
        pts[..., i] = np.reshape(x, shape)
        w *= np.reshape(wi, shape)
    K = math.prod(sizes)
    return pts.reshape(batch + (K, d)), w.reshape(batch + (K,))


def box_tensor_rule(lo, hi, order: int):
    """Gauss-Legendre tensors on B boxes at once; exact jacobians.

    lo, hi: corner arrays of shape (B, d).  Returns points (B, k, d) and
    weights (B, k) with k = order^d, each box's nodes in the order of a
    single-box tensor_rule over its panel_nodes axes.
    """
    x, w = gauss_rule(order)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    axes = [
        (mid[:, i, None] + half[:, i, None] * x, half[:, i, None] * w)
        for i in range(lo.shape[1])
    ]
    return tensor_rule(axes)


def composite_nodes(breaks, order: int):
    """Concatenated Gauss-Legendre panels over consecutive breakpoints."""
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        x, w = panel_nodes(a, b, order)
        xs.append(x)
        ws.append(w)
    if not xs:
        return np.array([]), np.array([])
    return np.concatenate(xs), np.concatenate(ws)


def outward_breaks(width0: float, limit: float) -> np.ndarray:
    """0 = b_0 < b_1 = width0 < 2*width0 < 4*width0 ... first >= limit."""
    if limit <= 0:
        return np.array([0.0])
    pts = [0.0]
    b = min(width0, limit)
    while True:
        pts.append(b)
        if b >= limit:
            break
        b = min(2 * b, limit)
    return np.array(pts)


def line_breaks(center: float, width0: float, lo: float, hi: float) -> np.ndarray:
    """Breakpoints on [lo, hi] refining geometrically toward `center`."""
    right = center + outward_breaks(width0, max(hi - center, 0.0))
    left = center - outward_breaks(width0, max(center - lo, 0.0))
    pts = np.concatenate([left, right])
    pts = pts[(pts >= lo - 1e-12) & (pts <= hi + 1e-12)]
    pts = np.unique(np.clip(pts, lo, hi))
    if pts.size < 2 or pts[0] > lo or pts[-1] < hi:
        pts = np.unique(np.concatenate([[lo, hi], pts]))
    return pts


def merge_breaks(groups, lo: float, hi: float) -> np.ndarray:
    pts = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    pts = np.clip(pts, lo, hi)
    pts = np.unique(np.concatenate([[lo, hi], pts]))
    # drop near-duplicates that would create zero-width panels
    keep = [pts[0]]
    span = hi - lo
    for p in pts[1:]:
        if p - keep[-1] > 1e-12 * span:
            keep.append(p)
    keep[-1] = hi
    return np.array(keep)


def t_breaks(region: Region, splits: int = 1) -> np.ndarray:
    """Dyadic-layer breakpoints of [t_min, t_max], each layer split in
    `splits` log-equal parts.  Aligned with the Whitney layers."""
    region.check_t_range()
    j_lo = math.floor(math.log2(region.t_min))
    j_hi = math.ceil(math.log2(region.t_max))
    dyadic = 2.0 ** np.arange(j_lo, j_hi + 1)
    pts = [region.t_min]
    for a, b in zip(dyadic[:-1], dyadic[1:]):
        a2, b2 = max(a, region.t_min), min(b, region.t_max)
        if b2 <= a2:
            continue
        inner = np.exp(np.linspace(math.log(a2), math.log(b2), splits + 1))
        pts.extend(inner[1:])
    return np.unique(np.array(pts))


def t_quadrature(region: Region, spec: QuadSpec):
    return composite_nodes(t_breaks(region, spec.t_splits), spec.t_order)


def radial_quadrature(n: int, scale: float, r_max: float, spec: QuadSpec):
    """Nodes r on [0, r_max], refined toward 0 at `scale`, and weights for
    integrals over the ball |y| <= r_max in R^n of radial integrands: the
    weights carry omega_{n-1} r^(n-1) (2.0 at n = 1, the two half-lines).
    """
    width0 = max(min(spec.min_panel * scale, r_max), 1e-12)
    r, w = composite_nodes(outward_breaks(width0, r_max), spec.order)
    return r, w * (sphere_area(n) * r ** (n - 1))


def box_axis_quadrature(region: Region, spec: QuadSpec):
    """Composite nodes on [-x_max, x_max] refined toward 0."""
    lo, hi = -region.x_max, region.x_max
    groups = [line_breaks(0.0, spec.min_panel, lo, hi)]
    return composite_nodes(merge_breaks(groups, lo, hi), spec.order)


class AxisymmetricNodes:
    """Quadrature for integrals over {|y| <= x_max, t_min <= s <= t_max}
    of integrands depending on (|y|, |y - x|, s) with x on the node axis.

    Coordinates: u along the axis, v the distance from it.  The (u, v)
    weight carries the full angular jacobian omega_{n-2} v^(n-2), so
        integral = sum_{uv} sum_s w_uv w_s F(u, v, s).
    Requires n >= 2.
    """

    def __init__(self, region: Region, n: int, spec: QuadSpec, offsets=(0.0,)):
        if n < 2:
            raise ValueError("axisymmetric reduction needs n >= 2")
        self.n = n
        self.region = region
        R = region.x_max
        u_breaks = merge_breaks(
            [line_breaks(c, spec.min_panel, -R, R) for c in offsets], -R, R
        )
        u_all, v_all, w_all = [], [], []
        ang = sphere_area(n - 1) if n > 2 else 2.0  # n=2: two half-lines
        for a, b in zip(u_breaks[:-1], u_breaks[1:]):
            un, uw = panel_nodes(a, b, spec.order)
            for ui, wi in zip(un, uw):
                vmax = math.sqrt(max(R * R - ui * ui, 0.0))
                if vmax <= 0:
                    continue
                vb = outward_breaks(spec.min_panel, vmax)
                vn, vw = composite_nodes(vb, spec.order)
                u_all.append(np.full_like(vn, ui))
                v_all.append(vn)
                w_all.append(wi * vw * ang * vn ** (n - 2))
        self.u = np.concatenate(u_all)
        self.v = np.concatenate(v_all)
        self.w_uv = np.concatenate(w_all)
        self.s, self.w_s = t_quadrature(region, spec)

    def center_radius(self) -> np.ndarray:
        """|y| at the (u, v) nodes."""
        return np.hypot(self.u, self.v)

    def dist_sq_to(self, d, rows=slice(None)) -> np.ndarray:
        """|y - x|^2 at the (u, v) nodes `rows` for the axis point at
        distance d from the origin; a column of distances d gives one row
        per distance."""
        return (self.u[rows] - d) ** 2 + self.v[rows] ** 2
