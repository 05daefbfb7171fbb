"""Weighted integral norms over truncated half-space regions.

Conventions, fixed across the toolkit:

* slice norm      M_q(f, t)^q = integral over the slice of |f(x, t)|^q dx
* Bergman norm    ||f||_{p,alpha}^p = integral |f|^p t^alpha dz
* mixed norm      ||f||_{B(p,q,alpha)}^p = int_0^oo M_q(f,t)^p t^(alpha p - 1) dt
                  (outer exponent first: B(p, q, alpha))
* Triebel norm    ||f||_{F(p,q,alpha)}^p =
                  int_x ( int_t |f|^q t^(alpha q - 1) dt )^(p/q) dx
* sup norm        ||f||_{oo,lambda} = sup t^lambda |f(z)|

All integrals are truncated to a Region.  Radial fields integrate over
the ball |x - center| <= x_max crossed with [t_min, t_max]; non-radial
fields use the box |x_i| <= x_max and are limited to n <= 2 (the tensor
grid would not be desk-scale beyond that).  Identity checks must compare
like with like, which they do by fixing the field type.

Exponents p, q below 1 are legal (quasi-norm regime); rows emitted by
norm_row carry a flag for them.
"""

from __future__ import annotations

import numpy as np

from . import quadrature as quad
from .geometry import (
    Region, WhitneyBoxes, box_corners, box_volumes, clipped_corners, enlarged_corners,
    whitney_cubes,
)
from .quadrature import QuadSpec, sphere_area


def _check_finite(**params):
    """Reject NaN and infinite parameters by name.  Tests such as p <= 0
    are false for NaN, which would otherwise reach the quadrature."""
    for name, v in params.items():
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def _slice_values_radial(f, region: Region, spec: QuadSpec):
    r, wr = quad.radial_quadrature(f.scale, region.x_max, spec)
    surf = sphere_area(f.n) * r ** (f.n - 1)
    return r, wr * surf


def slice_norm(f, q: float, t: float, region: Region, spec: QuadSpec) -> float:
    """M_q(f, t) over the truncated slice."""
    if not q > 0:  # NaN included
        raise ValueError("exponent must be positive")
    if not np.isfinite(q):
        raise NotImplementedError("sup slice norms are not provided")
    if f.is_radial:
        r, w = _slice_values_radial(f, region, spec)
        vals = np.abs(f.radial_values(r, np.full_like(r, t)))
        return float((w @ vals**q) ** (1.0 / q))
    if f.n > 2:
        raise ValueError("non-radial slice norms limited to n <= 2")
    X, w = quad.tensor_rule([quad.box_axis_quadrature(region, spec)] * f.n)
    pts = np.column_stack([X, np.full(X.shape[0], t)])
    vals = np.abs(f.values(pts))
    return float((w @ vals**q) ** (1.0 / q))


# Points per field evaluation on the cubes path (a chunk always holds at
# least one box): bounds the chunk arrays whatever the number of boxes.
_CUBE_CHUNK_POINTS = 1 << 15


def bergman_norm(
    f, p: float, alpha: float, region: Region, spec: QuadSpec, method: str = "auto"
) -> float:
    """||f||_{A^p_alpha} over the region.

    method "cubes": tensor quadrature per Whitney box, boxes clipped to
    the region (n <= 2).  The field is evaluated on chunks of boxes
    holding at most _CUBE_CHUNK_POINTS = 32768 points (one box when a box
    alone has more), so memory does not grow with the number of boxes.
    method "layers": dyadic-layer t panels crossed with a radial grid
    (radial fields, any n).  "auto" picks layers for
    radial fields with n >= 3, cubes otherwise.
    """
    _check_finite(p=p, alpha=alpha)
    if p <= 0:
        raise ValueError("exponent must be positive")
    if alpha <= -1:
        raise ValueError("Bergman weight needs alpha > -1")
    if method == "auto":
        method = "layers" if (f.is_radial and f.n > 2) else "cubes"
    if method == "cubes":
        if f.n > 2:
            raise ValueError("cube path limited to n <= 2")
        if region.degenerate:
            raise ValueError("degenerate t range")
        lo, hi = clipped_corners(*box_corners(whitney_cubes(region, f.n)), region)
        k = spec.cube_order ** (f.n + 1)
        step = max(1, _CUBE_CHUNK_POINTS // k)
        total = 0.0
        for a in range(0, lo.shape[0], step):
            box = slice(a, a + step)
            pts, w = quad.box_tensor_rule(lo[box], hi[box], spec.cube_order)
            g = np.abs(f.values(pts)) ** p * pts[..., -1] ** alpha
            # per-box dot products, added in box order
            for v in np.matmul(w[:, None, :], g[:, :, None]).ravel().tolist():
                total += v
        return total ** (1.0 / p)
    if not f.is_radial:
        raise ValueError("layer path needs a radial field")
    t, wt = quad.t_quadrature(region, spec)
    r, wr = _slice_values_radial(f, region, spec)
    vals = np.abs(f.radial_values(r[:, None], t[None, :]))
    inner = wr @ vals**p  # spatial integral per t node
    return float((wt @ (inner * t**alpha)) ** (1.0 / p))


def mixed_norm(
    f, outer_p: float, inner_q: float, alpha: float, region: Region, spec: QuadSpec
) -> float:
    """||f||_{B(outer_p, inner_q, alpha)} over the region."""
    if not (outer_p > 0 and inner_q > 0):  # NaN included
        raise ValueError("exponents must be positive")
    if not (np.isfinite(outer_p) and np.isfinite(inner_q)):
        raise NotImplementedError("infinite exponents: only the sup norm is provided")
    _check_finite(alpha=alpha)
    t, wt = quad.t_quadrature(region, spec)
    if f.is_radial:
        r, wr = _slice_values_radial(f, region, spec)
        vals = np.abs(f.radial_values(r[:, None], t[None, :]))
        slices = (wr @ vals**inner_q) ** (1.0 / inner_q)
    else:
        slices = np.array(
            [slice_norm(f, inner_q, ti, region, spec) for ti in t]
        )
    return float(
        (wt @ (slices**outer_p * t ** (alpha * outer_p - 1))) ** (1.0 / outer_p)
    )


def triebel_norm(
    f, p: float, q: float, alpha: float, region: Region, spec: QuadSpec
) -> float:
    """||f||_{F(p, q, alpha)} over the region (inner t integral first)."""
    _check_finite(p=p, q=q, alpha=alpha)
    if p <= 0 or q <= 0:
        raise ValueError("exponents must be positive")
    t, wt = quad.t_quadrature(region, spec)
    if f.is_radial:
        r, wr = _slice_values_radial(f, region, spec)
        vals = np.abs(f.radial_values(r[:, None], t[None, :]))
        inner = (vals**q * t ** (alpha * q - 1)) @ wt
        return float((wr @ inner ** (p / q)) ** (1.0 / p))
    if f.n > 2:
        raise ValueError("non-radial Triebel norms limited to n <= 2")
    x_axes = [quad.box_axis_quadrature(region, spec)] * f.n
    _, wx = quad.tensor_rule(x_axes)
    pts, _ = quad.tensor_rule(x_axes + [(t, wt)])
    vals = np.abs(f.values(pts)).reshape(wx.size, t.size)
    inner = (vals**q * t ** (alpha * q - 1)) @ wt
    return float((wx @ inner ** (p / q)) ** (1.0 / p))


def sup_norm(f, lam: float, region: Region, rounds: int = 4, grid: int = 48):
    """sup over the region of t^lambda |f|, by grid search plus refinement.

    Deterministic: geometric t grid crossed with a radial (or per-axis)
    grid, then `rounds` of local refinement around the argmax.  Returns
    (value, argmax point as (x..., t) array).
    """
    _check_finite(lam=lam)
    if not f.is_radial and f.n > 2:
        raise ValueError("sup norm sampling limited to radial fields for n > 2")

    def eval_rt(r, t):
        R, T = np.meshgrid(r, t, indexing="ij")
        vals = np.abs(f.radial_values(R, T)) * T**lam
        return R, T, vals

    t_lo, t_hi = region.t_min, region.t_max
    r_lo, r_hi = 0.0, region.x_max
    best = (-np.inf, 0.0, t_lo)
    for _ in range(rounds + 1):
        t = np.exp(np.linspace(np.log(t_lo), np.log(t_hi), grid))
        r = np.linspace(r_lo, r_hi, grid)
        if f.is_radial:
            R, T, vals = eval_rt(r, t)
        else:
            # n <= 2 non-radial: search along each axis and the diagonal
            R, T = np.meshgrid(r, t, indexing="ij")
            pts = np.stack([R.ravel()] * f.n + [T.ravel()], axis=-1)
            vals = (np.abs(f.values(pts)) * T.ravel() ** lam).reshape(R.shape)
        k = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[k] > best[0]:
            best = (float(vals[k]), float(R[k]), float(T[k]))
        # shrink the window around the argmax
        i, j = k
        r_lo = max(0.0, r[max(i - 1, 0)])
        r_hi = min(region.x_max, r[min(i + 1, grid - 1)])
        if r_hi <= r_lo:
            r_hi = r_lo + 1e-9
        t_lo = t[max(j - 1, 0)]
        t_hi = t[min(j + 1, grid - 1)]
        if t_hi <= t_lo:
            t_hi = t_lo * (1 + 1e-9)
    value, r_star, t_star = best
    point = np.zeros(f.n + 1)
    if f.is_radial:
        point[: f.n] = f.radial_center
        point[0] += r_star
    else:
        point[: f.n] = r_star
    point[-1] = t_star
    return value, point


def whitney_discrete_norm(
    f, p: float, alpha: float, region: Region, samples: int = 3
) -> float:
    """Discrete Bergman norm: sum_k eta_k^(alpha p - 1) max_{box}|f|^p |box|.

    The max runs over a per-box tensor sample grid including the corners.
    Comparable to bergman_norm with weight t^(alpha p - 1) within
    two-sided constants on positive smooth fields.
    """
    _check_finite(p=p, alpha=alpha)
    if p <= 0:
        raise ValueError("exponent must be positive")
    cubes = whitney_cubes(region, f.n)
    lo, hi = box_corners(cubes)
    etas, volumes = (1.5 * cubes.side).tolist(), box_volumes(lo, hi).tolist()
    total = 0.0
    for blo, bhi, eta, volume in zip(lo.tolist(), hi.tolist(), etas, volumes):
        m = _box_grid_max(f, blo, bhi, samples)
        total += eta ** (alpha * p - 1) * m**p * volume
    return total ** (1.0 / p)


def _box_grid_max(f, lo, hi, samples):
    """max |f| over the tensor grid of `samples` points per axis, corners
    included, on the box [lo, hi]: one field evaluation."""
    axes = [np.linspace(a, b, samples) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return float(np.max(np.abs(f.values(pts))))


def lemma2_ratio(
    f, p: float, alpha: float, cube: WhitneyBoxes, spec: QuadSpec, enlarge: float = 1.25
) -> float:
    """Pointwise-vs-average ratio on one Whitney box.

    cube is a one-box WhitneyBoxes record, such as cubes[[i]] or
    cubes[i:i + 1].
    ratio = eta^(alpha p - 1) max_{box}|f|^p
            / ( (1/|box*|) int_{box*} |f|^p t^(alpha p - 1) dz )
    with box* the box enlarged by `enlarge` about its centre.  Bounded by
    a constant independent of the box for harmonic f; callers fit and
    report the constant.
    """
    if len(cube) != 1:
        raise ValueError(f"lemma2_ratio takes one box, got {len(cube)}")
    lo, hi = box_corners(cube)
    eta = (1.5 * cube.side).tolist()[0]
    lhs = eta ** (alpha * p - 1) * _box_grid_max(f, lo[0].tolist(), hi[0].tolist(), 4) ** p
    big_lo, big_hi = enlarged_corners(cube, enlarge)
    qpts, qw = quad.box_tensor_rule(big_lo, big_hi, spec.cube_order)
    qpts, qw = qpts[0], qw[0]
    integral = float(qw @ (np.abs(f.values(qpts)) ** p * qpts[:, -1] ** (alpha * p - 1)))
    return lhs * box_volumes(big_lo, big_hi)[0] / integral


def discrete_vs_integral(f, p: float, alpha: float, region: Region, spec: QuadSpec):
    """(discrete norm, integral norm with matching weight, their ratio)."""
    disc = whitney_discrete_norm(f, p, alpha, region)
    # matching weight: t^(alpha p - 1) means bergman alpha' = alpha p - 1
    integ = bergman_norm(f, p, alpha * p - 1, region, spec, method="cubes")
    return disc, integ, disc / integ


def norm_row(space: str, f, region: Region, value: float, spec: QuadSpec, **params):
    """CSV-ready record for a computed norm."""
    row = {
        "space": space,
        "field": f.label,
        "region": region.key(),
        "value": value,
        "order": spec.order,
        "quasi": any(
            0 < params.get(k, 1.0) < 1 for k in ("p", "q", "outer_p", "inner_q")
        ),
    }
    row.update(params)
    return row
