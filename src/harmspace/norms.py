"""Weighted integral norms over truncated half-space regions.

Conventions, fixed across the toolkit:

* slice norm      M_q(f, t)^q = integral over the slice of |f(x, t)|^q dx
* Bergman norm    ||f||_{p,alpha}^p = integral |f|^p t^alpha dz
* mixed norm      ||f||_{B(p,q,alpha)}^p = int_0^oo M_q(f,t)^p t^(alpha p - 1) dt
                  (outer exponent first: B(p, q, alpha))
* Triebel norm    ||f||_{F(p,q,alpha)}^p =
                  int_x ( int_t |f|^q t^(alpha q - 1) dt )^(p/q) dx
* sup norm        ||f||_{oo,lambda} = sup t^lambda |f(z)|

All integrals are truncated to a Region.  The slice, mixed, Triebel and
sup norms and the layers path of bergman_norm take radial fields only and
integrate over the ball |x - center| <= x_max crossed with [t_min, t_max].
The Whitney-box paths (the cubes path of bergman_norm, the discrete norm
and lemma2_ratio) take any field with n <= 2 (the tensor grid would not be
desk-scale beyond that) and use the box |x_i| <= x_max.  Identity checks
must compare like with like, which they do by fixing the field type.

Each exponent is checked once, on entry, with util.check_finite and
util.check_positive.

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
from .quadrature import QuadSpec
from .util import check_finite, check_positive


def _require_radial(f):
    if not f.is_radial:
        raise ValueError(f"this norm needs a radial field, got {f.label}")


def _slice_values_radial(f, region: Region, spec: QuadSpec):
    """Radial nodes r on [0, x_max] and their weights over the slice;
    radial fields only."""
    _require_radial(f)
    return quad.radial_quadrature(f.n, f.scale, region.x_max, spec)


def slice_norm(f, q: float, t: float, region: Region, spec: QuadSpec) -> float:
    """M_q(f, t) over the truncated slice of a radial field."""
    if q == np.inf:
        raise NotImplementedError("sup slice norms are not provided")
    check_positive(q=q)
    r, w = _slice_values_radial(f, region, spec)
    vals = np.abs(f.radial_values(r, np.full_like(r, t)))
    # an overflow or an inf * 0 leaves a total that _root rejects
    with np.errstate(over="ignore", invalid="ignore"):
        total = w @ vals**q
    _reject_underflow(total, np.any(vals), "slice")
    return _root(total, q, "slice")


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
    check_positive(p=p)
    check_finite(alpha=alpha)
    if alpha <= -1:
        raise ValueError("Bergman weight needs alpha > -1")
    if method == "auto":
        method = "layers" if (f.is_radial and f.n > 2) else "cubes"
    if method == "cubes":
        if f.n > 2:
            raise ValueError("cube path limited to n <= 2")
        region.check_t_range()
        lo, hi = clipped_corners(*box_corners(whitney_cubes(region, f.n)), region)
        k = spec.cube_order ** (f.n + 1)
        step = max(1, _CUBE_CHUNK_POINTS // k)
        total, nonzero = 0.0, False
        for a in range(0, lo.shape[0], step):
            box = slice(a, a + step)
            pts, w = quad.box_tensor_rule(lo[box], hi[box], spec.cube_order)
            vals = np.abs(f.values(pts))
            nonzero = nonzero or bool(vals.any())
            g = vals**p * pts[..., -1] ** alpha
            # per-box dot products, added in box order
            for v in np.matmul(w[:, None, :], g[:, :, None]).ravel().tolist():
                total += v
        _reject_underflow(total, nonzero, "Bergman")
        return _root(total, p, "Bergman")
    t, wt = quad.t_quadrature(region, spec)
    r, wr = _slice_values_radial(f, region, spec)
    vals = np.abs(f.radial_values(r[:, None], t[None, :]))
    inner = wr @ vals**p  # spatial integral per t node
    total = wt @ (inner * t**alpha)
    _reject_underflow(total, np.any(vals), "Bergman")
    return _root(total, p, "Bergman")


def _reject_underflow(sums, nonzero, name):
    """A ValueError naming the `name` norm where a sum of powers reads 0.0
    though the values it sums are nonzero (`nonzero`, a flag per sum):
    every power underflowed, and the norm would read a plausible wrong
    0.0, or too small a value."""
    if np.any((np.asarray(sums) == 0.0) & nonzero):
        raise ValueError(f"the {name} norm underflows in float64 at these parameters"
                         " (a sum of powers of nonzero values reads 0.0)")


def _root(total, p, name):
    """total ** (1/p) in total's own float type, as a float; a ValueError
    naming the `name` norm past float64."""
    with np.errstate(over="ignore"):
        try:
            value = float(total ** (1.0 / p))
        except OverflowError:  # a Python float power past the float64 range
            value = np.inf
    if not np.isfinite(value):
        raise ValueError(f"the {name} norm is not finite in float64 at these"
                         f" parameters (got {value})")
    return value


def mixed_norm(
    f, outer_p: float, inner_q: float, alpha: float, region: Region, spec: QuadSpec
) -> float:
    """||f||_{B(outer_p, inner_q, alpha)} over the region, f radial."""
    if np.inf in (outer_p, inner_q):
        raise NotImplementedError("infinite exponents: only the sup norm is provided")
    check_positive(outer_p=outer_p, inner_q=inner_q)
    check_finite(alpha=alpha)
    t, wt = quad.t_quadrature(region, spec)
    r, wr = _slice_values_radial(f, region, spec)
    vals = np.abs(f.radial_values(r[:, None], t[None, :]))
    # an overflow or an inf * 0 leaves a total that _root rejects
    with np.errstate(over="ignore", invalid="ignore"):
        sums = wr @ vals**inner_q
        _reject_underflow(sums, np.any(vals, axis=0), "mixed")
        slices = sums ** (1.0 / inner_q)
        total = wt @ (slices**outer_p * t ** (alpha * outer_p - 1))
    _reject_underflow(total, np.any(vals), "mixed")
    return _root(total, outer_p, "mixed")


def triebel_norm(
    f, p: float, q: float, alpha: float, region: Region, spec: QuadSpec
) -> float:
    """||f||_{F(p, q, alpha)} over the region (inner t integral first), f
    radial."""
    check_positive(p=p, q=q)
    check_finite(alpha=alpha)
    t, wt = quad.t_quadrature(region, spec)
    r, wr = _slice_values_radial(f, region, spec)
    vals = np.abs(f.radial_values(r[:, None], t[None, :]))
    # an overflow or an inf * 0 leaves a total that _root rejects
    with np.errstate(over="ignore", invalid="ignore"):
        inner = (vals**q * t ** (alpha * q - 1)) @ wt
        _reject_underflow(inner, np.any(vals, axis=1), "Triebel-Lizorkin")
        total = wr @ inner ** (p / q)
    _reject_underflow(total, np.any(vals), "Triebel-Lizorkin")
    return _root(total, p, "Triebel-Lizorkin")


def sup_norm(f, lam: float, region: Region):
    """sup over the region of t^lambda |f| for a radial f, by grid search
    plus refinement.

    Deterministic: geometric t grid crossed with a radial grid, 48 points
    each, then 4 rounds of local refinement around the argmax.  Returns
    (value, argmax point as (x..., t) array).
    """
    rounds, grid = 4, 48
    check_finite(lam=lam)
    _require_radial(f)
    region.check_t_range()
    t_lo, t_hi = region.t_min, region.t_max
    r_lo, r_hi = 0.0, region.x_max
    best = (-np.inf, 0.0, t_lo)
    for _ in range(rounds + 1):
        t = np.exp(np.linspace(np.log(t_lo), np.log(t_hi), grid))
        r = np.linspace(r_lo, r_hi, grid)
        R, T = np.meshgrid(r, t, indexing="ij")
        vals = np.abs(f.radial_values(R, T)) * T**lam
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
    point[: f.n] = f.radial_center
    point[0] += r_star
    point[-1] = t_star
    return value, point


def whitney_discrete_norm(f, p: float, alpha: float, region: Region) -> float:
    """Discrete Bergman norm: sum_k eta_k^(alpha p - 1) max_{box}|f|^p |box|.

    The max runs over a per-box tensor grid of 3 points per axis, corners
    included; the terms are added in box order.  Comparable to
    bergman_norm with weight t^(alpha p - 1) within two-sided constants on
    positive smooth fields.
    """
    check_positive(p=p)
    check_finite(alpha=alpha)
    region.check_t_range()
    cubes = whitney_cubes(region, f.n)
    lo, hi = box_corners(cubes)
    maxima = _box_grid_maxima(f, lo, hi, 3)
    etas, volumes = (1.5 * cubes.side).tolist(), box_volumes(lo, hi).tolist()
    total = 0.0
    try:
        for m, eta, volume in zip(maxima, etas, volumes):
            total += eta ** (alpha * p - 1) * m**p * volume
    except OverflowError:  # a term past the float64 range
        total = np.inf
    _reject_underflow(total, any(maxima), "discrete Whitney")
    return _root(total, p, "discrete Whitney")


def _box_grid_maxima(f, lo, hi, samples):
    """max |f| over the tensor grid of `samples` points per axis, corners
    included, on each box [lo, hi] (corner arrays (B, d)), as a list.

    The field is evaluated on chunks of boxes holding at most
    _CUBE_CHUNK_POINTS points, as on the cubes path of bergman_norm.
    """
    axes = np.linspace(lo, hi, samples, axis=0)  # (samples, B, d)
    step = max(1, _CUBE_CHUNK_POINTS // samples ** lo.shape[1])
    maxima = []
    for a in range(0, lo.shape[0], step):
        grid = axes[:, a : a + step].T  # (d, boxes, samples)
        pts, _ = quad.tensor_rule([(x, np.ones_like(x)) for x in grid])
        maxima += np.max(np.abs(f.values(pts)), axis=1).tolist()
    return maxima


def lemma2_ratio(f, ps, alpha: float, cube: WhitneyBoxes, spec: QuadSpec) -> np.ndarray:
    """Pointwise-vs-average ratios on one Whitney box, one per exponent p
    of the sequence ps.

    cube is a one-box WhitneyBoxes record, such as cubes[[i]] or
    cubes[i:i + 1].
    ratio = eta^(alpha p - 1) max_{box}|f|^p
            / ( (1/|box*|) int_{box*} |f|^p t^(alpha p - 1) dz )
    with box* the box enlarged by geometry.DEFAULT_ENLARGE = 1.25 about its
    centre.  The field is evaluated once on the box's sample grid and once
    on box*'s Gauss nodes for all exponents.  Bounded by a constant independent of the box
    for harmonic f; callers fit and report the constant.
    """
    if len(cube) != 1:
        raise ValueError(f"lemma2_ratio takes one box, got {len(cube)}")
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1:
        raise ValueError("lemma2_ratio takes a sequence of exponents")
    eta = (1.5 * cube.side).tolist()[0]
    (m,) = _box_grid_maxima(f, *box_corners(cube), 4)
    big_lo, big_hi = enlarged_corners(cube)
    qpts, qw = quad.box_tensor_rule(big_lo, big_hi, spec.cube_order)
    qpts, qw = qpts[0], qw[0]
    vals, t = np.abs(f.values(qpts)), qpts[:, -1]
    volume = box_volumes(big_lo, big_hi)[0]
    ratios = []
    for p in ps.tolist():
        lhs = eta ** (alpha * p - 1) * m**p
        integral = float(qw @ (vals**p * t ** (alpha * p - 1)))
        ratios.append(lhs * volume / integral)
    return np.array(ratios)


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
