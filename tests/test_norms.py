"""Weighted norms: cross-implementation identities and scipy oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from harmspace import ball as bl
from harmspace import carleson as ca
from harmspace import norms as no
from harmspace import fields as fl
from harmspace import quadrature as quad
from harmspace.fields import BergmanField, PoissonField, PowerField
from harmspace.geometry import (
    Region, box_corners, box_volumes, enlarged_corners, half_space_points, whitney_cubes,
)
from harmspace.quadrature import QuadSpec

SPEC = QuadSpec(order=8, t_order=6)
REGION = Region(4.0, 0.25, 4.0)


def _poisson(n):
    w = np.zeros(n + 1)
    w[-1] = 1.0
    return PoissonField(n, w)


def test_mixed_norm_collapses_to_bergman():
    # B(p, p, a) integrates |f|^p t^(ap-1): exactly the A^p weight ap-1
    f = _poisson(2)
    for p, a in ((2.0, 0.75), (1.0, 1.5), (3.0, 0.5)):
        mx = no.mixed_norm(f, p, p, a, REGION, SPEC)
        bg = no.bergman_norm(f, p, a * p - 1, REGION, SPEC, method="layers")
        assert mx == pytest.approx(bg, rel=1e-13)


def test_triebel_diagonal_matches_mixed():
    # F(p, p, a) and B(p, p, a) are the same double integral reordered
    f = _poisson(2)
    for p, a in ((2.0, 0.75), (1.0, 1.5)):
        tl = no.triebel_norm(f, p, p, a, REGION, SPEC)
        mx = no.mixed_norm(f, p, p, a, REGION, SPEC)
        assert tl == pytest.approx(mx, rel=1e-13)


def test_bergman_paths_agree_where_domains_match():
    # n = 1 is the one case where the cube box and the radial ball are the
    # same set, so the two quadrature paths compute the same integral
    f = _poisson(1)
    cu = no.bergman_norm(f, 2.0, 0.5, REGION, SPEC.refined(), method="cubes")
    ly = no.bergman_norm(f, 2.0, 0.5, REGION, SPEC.refined(), method="layers")
    assert cu == pytest.approx(ly, rel=1e-12)


def test_bergman_norm_scipy_oracle():
    f = _poisson(1)
    region = Region(2.0, 0.25, 2.0)
    val = no.bergman_norm(f, 2.0, 0.5, region, SPEC, method="cubes")

    def integrand(x, t):
        return (1.0 / math.pi * (t + 1) / (x * x + (t + 1) ** 2)) ** 2 * t**0.5

    oracle = integrate.dblquad(integrand, 0.25, 2.0, -2.0, 2.0,
                               epsabs=1e-12, epsrel=1e-12)[0] ** 0.5
    assert val == pytest.approx(oracle, rel=1e-6)


def test_slice_norm_scipy_oracle():
    f = _poisson(1)
    region = Region(3.0, 0.25, 2.0)
    val = no.slice_norm(f, 2.0, 1.0, region, SPEC)
    oracle = integrate.quad(
        lambda x: (1.0 / math.pi * 2.0 / (x * x + 4.0)) ** 2, -3.0, 3.0,
        epsabs=1e-14)[0] ** 0.5
    assert val == pytest.approx(oracle, rel=1e-12)


def test_sup_norm_poisson_closed_form():
    # on the axis t^1 P(0, t+1) = t / (2 pi (t+1)^2) peaks at t = 1 with
    # value 1/(8 pi); off-axis values are strictly smaller
    f = _poisson(2)
    val, arg = no.sup_norm(f, 1.0, Region(4.0, 0.125, 8.0))
    assert val == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-8)
    assert np.linalg.norm(arg[:2]) < 1e-8
    assert arg[2] == pytest.approx(1.0, rel=1e-4)


def test_sup_norm_power_field_is_one():
    # t^lam * t^(-lam) = 1 everywhere, grid search included
    for lam in (0.5, 1.5):
        val, _ = no.sup_norm(PowerField(2, lam), lam, REGION)
        assert val == pytest.approx(1.0, abs=1e-12)


def test_fields_reject_non_finite_parameters():
    for w in ([0.0, np.nan], [0.0, np.inf], [np.nan, 1.0], [-np.inf, 1.0]):
        for make in (lambda w: PoissonField(1, w), lambda w: BergmanField(1, 1, w),
                     lambda w: fl.TestField(1, 2, np.r_[0.0, w])):
            with pytest.raises(ValueError, match="finite"):
                make(np.array(w))
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PowerField(2, lam)
    # a source is one point of exactly n + 1 coordinates, not n + 1 numbers
    for w in ([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0, 0.0, 1.0]], [[0.0], [0.0], [0.0], [1.0]]):
        for make in (lambda w: PoissonField(3, w), lambda w: BergmanField(1, 3, w)):
            with pytest.raises(ValueError, match="shape"):
                make(w)


NAN, INF = math.nan, math.inf
NON_FINITE = (NAN, INF, -INF)


def _validation_rows():
    """(entry point and parameter, call taking the one bad value, values it
    must reject with ValueError, values it must reject otherwise as
    {value: exception type}).  Every other argument is valid, so each row
    tests the one check of its parameter."""
    f = _poisson(2)
    e = bl.Expansion.random(2, 3, seed=5)
    mu = ca.AtomicMeasure.point_mass([0.1], 1.5, 2.0)
    cubes = whitney_cubes(Region(4.0, 0.25, 4.0), 1)
    big, wide = BergmanField(2, 1, (0, 1)), Region(8, 2**-4, 8)
    unbounded = {INF: NotImplementedError}
    rows = [
        ("slice_norm q", lambda v: no.slice_norm(f, v, 1.0, REGION, SPEC),
         (NAN, -INF, 0.0, -1.0), unbounded),
        ("bergman_norm p", lambda v: no.bergman_norm(f, v, 0.5, REGION, SPEC),
         NON_FINITE + (0.0, -1.0), {}),
        ("bergman_norm alpha", lambda v: no.bergman_norm(f, 2.0, v, REGION, SPEC),
         NON_FINITE + (-1.0, -2.0), {}),
        # a finite p at which the norm itself is past the float64 range
        *((f"bergman_norm p, {m} path, past float64", lambda v, m=m: no.bergman_norm(
            big, v, 8.0, wide, QuadSpec(), method=m),
           (2.0**-6,), {}) for m in ("cubes", "layers")),
        ("slice_norm q, past float64",
         lambda v: no.slice_norm(big, v, 1.0, wide, QuadSpec()),
         (2.0**-9,), {}),
        ("mixed_norm p = q, past float64",
         lambda v: no.mixed_norm(big, v, v, 8.0, wide, QuadSpec()),
         (2.0**-9,), {}),
        ("triebel_norm p, past float64",
         lambda v: no.triebel_norm(big, v, 2.0, 8.0, wide, QuadSpec()),
         (2.0**-9,), {}),
        ("whitney_discrete_norm p, past float64",
         lambda v: no.whitney_discrete_norm(big, v, 8.0, Region(2, 2**-4, 2)),
         (2.0**-9,), {}),
        # a term past the float64 range, and an inf * 0 in the mixed norm
        ("whitney_discrete_norm alpha, past float64",
         lambda v: no.whitney_discrete_norm(big, 2.0, v, Region(2, 2**-4, 2)),
         (1e300,), {}),
        ("mixed_norm outer_p, past float64",
         lambda v: no.mixed_norm(big, v, 1.0, 1.0, wide, QuadSpec()),
         (1e300,), {}),
        ("mixed_norm outer_p", lambda v: no.mixed_norm(f, v, 2.0, 1.0, REGION, SPEC),
         (NAN, -INF, 0.0, -1.0), unbounded),
        ("mixed_norm inner_q", lambda v: no.mixed_norm(f, 2.0, v, 1.0, REGION, SPEC),
         (NAN, -INF, 0.0, -1.0), unbounded),
        ("mixed_norm alpha", lambda v: no.mixed_norm(f, 2.0, 2.0, v, REGION, SPEC),
         NON_FINITE, {}),
        ("triebel_norm p", lambda v: no.triebel_norm(f, v, 2.0, 1.0, REGION, SPEC),
         NON_FINITE + (0.0, -1.0), {}),
        ("triebel_norm q", lambda v: no.triebel_norm(f, 2.0, v, 1.0, REGION, SPEC),
         NON_FINITE + (0.0, -1.0), {}),
        ("triebel_norm alpha", lambda v: no.triebel_norm(f, 2.0, 2.0, v, REGION, SPEC),
         NON_FINITE, {}),
        ("sup_norm lam", lambda v: no.sup_norm(f, v, REGION), NON_FINITE, {}),
        ("whitney_discrete_norm p", lambda v: no.whitney_discrete_norm(f, v, 1.0, REGION),
         NON_FINITE + (0.0, -1.0), {}),
        ("whitney_discrete_norm alpha",
         lambda v: no.whitney_discrete_norm(f, 2.0, v, REGION), NON_FINITE, {}),
        # the ball norms
        ("volume_norm p", lambda v: bl.volume_norm(e, v, 0.5), NON_FINITE + (0.0,), {}),
        # just above -1, scipy's Gauss-Jacobi rule is not finite
        ("volume_norm alpha", lambda v: bl.volume_norm(e, 2.0, v),
         NON_FINITE + (-1.0, math.nextafter(-1.0, 0.0), 2000.0), {}),
        ("grad_volume_norm p", lambda v: bl.grad_volume_norm(e, v, 0.5),
         NON_FINITE + (0.0,), {}),
        ("grad_volume_norm alpha", lambda v: bl.grad_volume_norm(e, 2.0, v),
         NON_FINITE + (-1.0,), {}),
        ("mixed_norm_ball p", lambda v: bl.mixed_norm_ball(e, v, 2.0, 0.5),
         NON_FINITE + (0.0,), {}),
        ("mixed_norm_ball q", lambda v: bl.mixed_norm_ball(e, 2.0, v, 0.5),
         NON_FINITE + (0.0,), {}),
        ("mixed_norm_ball alpha", lambda v: bl.mixed_norm_ball(e, 2.0, 2.0, v),
         NON_FINITE + (0.0, -1.0, 600.0), {}),
        ("grad_mixed_norm q", lambda v: bl.grad_mixed_norm(e, 2.0, v, 0.5),
         NON_FINITE + (0.0,), {}),
        ("grad_mixed_norm alpha", lambda v: bl.grad_mixed_norm(e, 2.0, 2.0, v),
         NON_FINITE + (0.0,), {}),
        ("slice_norm_ball q", lambda v: bl.slice_norm_ball(e, v, 0.5),
         NON_FINITE + (0.0,), {}),
        ("slice_norm_ball r", lambda v: bl.slice_norm_ball(e, 2.0, v), NON_FINITE, {}),
        ("hardy_norm s", lambda v: bl.hardy_norm(e, v), NON_FINITE + (0.0,), {}),
        ("sup_mixed_norm_ball q", lambda v: bl.sup_mixed_norm_ball(e, v, 0.5),
         NON_FINITE + (0.0,), {}),
        ("sup_mixed_norm_ball alpha", lambda v: bl.sup_mixed_norm_ball(e, 2.0, v),
         NON_FINITE, {}),
        ("multiplier_lambda t", lambda v: bl.multiplier_lambda(2, 3, v),
         NON_FINITE + (0.0, -1.0), {}),
        ("fractional_derivative t", lambda v: bl.fractional_derivative(v, e),
         NON_FINITE + (0.0,), {}),
        # the expansion constructor, in either part of a coefficient, and the
        # diagonal symbol built on it
        ("Expansion coeffs", lambda v: bl.Expansion(2, [[1.0], [v, 0.5]]),
         NON_FINITE + (complex(0.0, NAN), complex(1.0, -INF)), {}),
        ("diagonal_symbol values", lambda v: bl.diagonal_symbol(2, [0.5, v]),
         NON_FINITE + (complex(0.0, NAN),), {}),
        # the carleson conditions
        ("condition_vector s", lambda v: ca.condition_vector(mu, cubes, 2, (0.5, v)),
         NON_FINITE, {}),
        ("condition_single alpha", lambda v: ca.condition_single(mu, cubes, v),
         NON_FINITE, {}),
        ("condition_mixed p", lambda v: ca.condition_mixed(mu, cubes, v, 3.0, 0.5),
         NON_FINITE + (0.0, 4.0), {}),  # 4 > q
        ("condition_mixed q", lambda v: ca.condition_mixed(mu, cubes, 2.0, v, 0.5),
         NON_FINITE + (0.0, 1.0), {}),  # 1 < p
        ("condition_mixed alpha", lambda v: ca.condition_mixed(mu, cubes, 2.0, 3.0, v),
         NON_FINITE + (0.0, -1.0), {}),
        ("condition_tent p", lambda v: ca.condition_tent(mu, cubes, v, 0.5),
         NON_FINITE + (0.0,), {}),
        ("condition_tent alpha", lambda v: ca.condition_tent(mu, cubes, 2.0, v),
         NON_FINITE + (0.0,), {}),
        ("condition_tent tau", lambda v: ca.condition_tent(mu, cubes, 2.0, 0.5, v),
         NON_FINITE + (0.0, 3.0), {}),  # 3 > p
    ]
    # the constructors: QuadSpec is only made, so no builder can loop on it
    for i, name in enumerate(("x_max", "t_min", "t_max")):
        def region(v, i=i):
            extents = [4.0, 0.25, 4.0]
            extents[i] = v
            return Region(*extents)
        rows.append((f"Region {name}", region, NON_FINITE + (0.0, -1.0), {}))
    for name in ("order", "t_order", "t_splits", "cube_order"):
        rows.append((f"QuadSpec {name}", lambda v, name=name: QuadSpec(**{name: v}),
                     (0, -1, 1.5, 2.0, NAN, INF), {}))
    rows.append(("QuadSpec min_panel", lambda v: QuadSpec(min_panel=v),
                 NON_FINITE + (0.0, -0.125), {}))
    # the point helper, on the t and the x coordinate of a point of R^3_+
    rows.append(("half_space_points t", lambda v: half_space_points([0.0, 0.0, v], 2),
                 NON_FINITE + (0.0, -1.0), {}))
    rows.append(("half_space_points x", lambda v: half_space_points([[0.0, 0.0, 1.0],
                                                                     [v, 0.0, 1.0]]),
                 NON_FINITE, {}))
    return rows


def test_exponent_validation():
    for name, call, rejected, others in _validation_rows():
        for v, exc in [(v, ValueError) for v in rejected] + list(others.items()):
            with pytest.raises(exc):
                call(v)
                pytest.fail(f"{name} accepted {v!r}")
    # a norm past the float64 range says so, on every path
    for name, call, rejected, _ in _validation_rows():
        if name.endswith(", past float64"):
            with pytest.raises(ValueError, match="not finite in float64"):
                call(*rejected)
    # the point helper: finite is in its message, and the point's length is
    # checked when n is given
    with pytest.raises(ValueError, match="finite"):
        half_space_points([0.0, NAN, 1.0])
    with pytest.raises(ValueError, match="shape"):
        half_space_points([0.0, 1.0], 2)
    # and what the checks let through is a valid spec, region or point
    assert QuadSpec(t_splits=1, min_panel=1e-300).refined().t_splits == 2
    assert half_space_points([[0.0, 1e-300]], 1).shape == (1, 2)
    # a ball norm's rejected radial weight exponent is named by its parameters
    e = bl.Expansion.random(2, 3, seed=5)
    with pytest.raises(ValueError, match="^alpha p - 1, the radial weight exponent,"):
        bl.mixed_norm_ball(e, 2.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="^alpha, the radial weight exponent,"):
        bl.grad_volume_norm(e, 2.0, -1.0)


# Bergman kernels of order 1 at height 1: every value below 1 on these
# regions, so each q-th power past about 1100 underflows; alpha = 5e-4
# makes the weight t^(alpha 2000 - 1) equal 1 where it would overflow
_Q1 = BergmanField(1, 2, (0.0, 0.0, 1.0))
_Q1_N3 = BergmanField(1, 3, (0.0, 0.0, 0.0, 1.0))
_HIGH = Region(8.0, 1.0, 8.0)


@pytest.mark.parametrize("name, call", [
    ("slice", lambda: no.slice_norm(_Q1, 2000.0, 1.0, _HIGH, QuadSpec())),
    ("Bergman", lambda: no.bergman_norm(_Q1, 2000.0, 1.0, Region(2.0, 1.0, 8.0),
                                        QuadSpec(), method="cubes")),
    ("Bergman", lambda: no.bergman_norm(_Q1_N3, 2000.0, 1.0, _HIGH, QuadSpec(),
                                        method="layers")),
    # every inner sum, some inner sums (it read 0.1717 where the scaled sum
    # gives 0.2573), and the outer total alone
    ("mixed", lambda: no.mixed_norm(_Q1, 2.0, 2000.0, 1.0, _HIGH, QuadSpec())),
    ("mixed", lambda: no.mixed_norm(_Q1, 2.0, 700.0, 1.0, Region(8.0, 0.6, 8.0),
                                    QuadSpec())),
    ("mixed", lambda: no.mixed_norm(_Q1, 2000.0, 2.0, 5e-4, _HIGH, QuadSpec())),
    ("Triebel-Lizorkin", lambda: no.triebel_norm(_Q1, 2000.0, 2.0, 1.0, _HIGH, QuadSpec())),
    ("Triebel-Lizorkin", lambda: no.triebel_norm(_Q1, 2.0, 2000.0, 5e-4, _HIGH, QuadSpec())),
    ("discrete Whitney", lambda: no.whitney_discrete_norm(_Q1, 2000.0, 5e-4, _HIGH)),
], ids=["slice", "bergman-cubes", "bergman-layers", "mixed-every-slice",
        "mixed-some-slices", "mixed-total", "tl-total", "tl-inner", "discrete-whitney"])
def test_underflowed_powers_are_rejected_not_read_as_zero(name, call):
    with pytest.raises(ValueError, match=f"^the {name} norm underflows in float64"):
        call()


def test_degenerate_t_range_is_rejected_on_every_t_path():
    f, f3 = _poisson(2), _poisson(3)
    for region in (Region(4.0, 2.0, 2.0), Region(4.0, 8.0, 1.0)):
        for call in (lambda: no.bergman_norm(f, 2.0, 0.5, region, SPEC),  # cubes
                     lambda: no.bergman_norm(f3, 2.0, 0.5, region, SPEC),  # layers
                     lambda: no.mixed_norm(f, 2.0, 2.0, 1.0, region, SPEC),
                     lambda: no.triebel_norm(f, 2.0, 2.0, 1.0, region, SPEC),
                     lambda: no.sup_norm(f, 1.0, region),
                     lambda: no.whitney_discrete_norm(f, 2.0, 1.0, region)):
            with pytest.raises(ValueError, match="degenerate t range"):
                call()
    # a slice norm takes one height, not a t range
    assert no.slice_norm(f, 2.0, 1.0, Region(4.0, 8.0, 1.0), SPEC) > 0


def test_radial_norms_reject_non_radial_fields():
    # two sources at different centres: a non-radial product
    fa, fb = PoissonField(2, [0.0, 0.0, 1.0]), PoissonField(2, [1.0, 0.0, 1.0])
    g = fl.ProductField(fa, fb)
    z = np.array([[0.1, 0.2, 0.5], [1.0, -1.0, 2.0]])
    assert np.array_equal(g.values(z), fa.values(z) * fb.values(z))
    for call in (lambda: no.slice_norm(g, 2.0, 1.0, REGION, SPEC),
                 lambda: no.mixed_norm(g, 2.0, 2.0, 1.0, REGION, SPEC),
                 lambda: no.triebel_norm(g, 2.0, 2.0, 1.0, REGION, SPEC),
                 lambda: no.sup_norm(g, 1.0, REGION),
                 lambda: no.bergman_norm(g, 2.0, 0.5, REGION, SPEC, method="layers")):
        with pytest.raises(ValueError, match="radial"):
            call()
    # the Whitney-box paths take it
    assert no.bergman_norm(g, 2.0, 0.5, Region(1.0, 0.5, 2.0), QuadSpec(cube_order=2)) > 0


def test_cube_path_rejects_high_dimension():
    f = _poisson(3)
    with pytest.raises(ValueError):
        no.bergman_norm(f, 2.0, 0.5, REGION, SPEC, method="cubes")
    # layers path handles the radial n = 3 field fine
    assert no.bergman_norm(f, 2.0, 0.5, REGION, SPEC, method="layers") > 0


def test_discrete_vs_integral_comparable():
    # box-max discrete norm dominates the integral norm, within a
    # two-sided desk-scale constant
    for f in (_poisson(2), BergmanField(1, 2, np.array([0.0, 0.0, 1.0]))):
        disc, integ, ratio = no.discrete_vs_integral(f, 2.0, 1.0, REGION, SPEC)
        assert ratio == pytest.approx(disc / integ, rel=1e-12)
        assert 0.8 <= ratio <= 5.0


def test_lemma2_ratio_bounded_over_levels():
    f = _poisson(2)
    cubes = whitney_cubes(Region(2.0, 0.25, 2.0), 2)
    ratios = [no.lemma2_ratio(f, (2.0,), 1.0, cubes[[i]], SPEC)[0]
              for i in range(0, len(cubes), 7)]
    assert all(0.0 < r < 50.0 for r in ratios)
    with pytest.raises(ValueError, match="one box"):
        no.lemma2_ratio(f, (2.0,), 1.0, cubes[:2], SPEC)
    with pytest.raises(ValueError, match="sequence"):
        no.lemma2_ratio(f, 2.0, 1.0, cubes[:1], SPEC)


def _grid_max(f, lo, hi, samples):
    """max |f| over one box's corner grid, one field call: the per-box form."""
    axes = [np.linspace(a, b, samples) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))
    return float(np.max(np.abs(f.values(grid))))


def _lemma2_one_exponent(f, p, alpha, cube, spec):
    """The ratio for one exponent, from one box's own field calls."""
    lo, hi = box_corners(cube)
    eta = (1.5 * cube.side).tolist()[0]
    lhs = eta ** (alpha * p - 1) * _grid_max(f, lo[0].tolist(), hi[0].tolist(), 4) ** p
    big_lo, big_hi = enlarged_corners(cube)
    qpts, qw = quad.box_tensor_rule(big_lo, big_hi, spec.cube_order)
    qpts, qw = qpts[0], qw[0]
    integral = float(qw @ (np.abs(f.values(qpts)) ** p * qpts[:, -1] ** (alpha * p - 1)))
    return lhs * box_volumes(big_lo, big_hi)[0] / integral


def test_lemma2_ratio_equals_the_per_box_formula():
    # eta^(alpha p - 1) max|f|^p over a 4^(n+1) corner grid, times the
    # box's volume, enlarged by 1.25, over the Gauss integral of
    # |f|^p t^(alpha p - 1) on it; the box and its enlargement from the
    # closed forms
    # the field peaks at x = (0.3, -0.2), inside the boxes above it and off
    # their sample grids, so the grid's size shows in the max
    f, alpha = PoissonField(2, np.array([0.3, -0.2, 1.0])), 0.8
    ps = (0.7, 1.5, 2.0)
    cubes = whitney_cubes(Region(2.0, 0.25, 2.0), 2)
    lo, hi = box_corners(cubes)
    above = np.flatnonzero(np.all((lo[:, :2] < [0.3, -0.2]) & (hi[:, :2] > [0.3, -0.2]), axis=1))
    assert len(above) == 3  # one box per level
    for i in [0, 17, len(cubes) - 1, *above]:
        got = no.lemma2_ratio(f, ps, alpha, cubes[i:i + 1], SPEC)
        assert got.shape == (len(ps),)
        j, k = int(cubes.level[i]), cubes.index[i].tolist()
        s = 2.0 ** j
        axes = [np.linspace(a * s, (a + 1) * s, 4) for a in k] + [np.linspace(s, 2 * s, 4)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        center = [(a + 0.5) * s for a in k] + [1.5 * s]
        half = 0.5 * s * 1.25
        pts, w = quad.box_tensor_rule([[c - half for c in center]],
                                      [[c + half for c in center]], SPEC.cube_order)
        for p, ratio in zip(ps, got):
            lhs = (1.5 * s) ** (alpha * p - 1) * float(np.max(np.abs(f.values(grid)))) ** p
            integral = float(w[0] @ (np.abs(f.values(pts[0])) ** p
                                     * pts[0][:, -1] ** (alpha * p - 1)))
            want = lhs * (2.0 * half) ** 3 / integral
            assert ratio == pytest.approx(want, rel=1e-13, abs=0.0)
            # and bit for bit the ratio of that exponent alone, on its own field calls
            assert ratio == _lemma2_one_exponent(f, p, alpha, cubes[i:i + 1], SPEC)


def _discrete_norm_per_box(f, p, alpha, region):
    """whitney_discrete_norm with one field call per box."""
    cubes = whitney_cubes(region, f.n)
    lo, hi = box_corners(cubes)
    etas, volumes = (1.5 * cubes.side).tolist(), box_volumes(lo, hi).tolist()
    total = 0.0
    for blo, bhi, eta, volume in zip(lo.tolist(), hi.tolist(), etas, volumes):
        total += eta ** (alpha * p - 1) * _grid_max(f, blo, bhi, 3) ** p * volume
    return total ** (1.0 / p)


def test_whitney_discrete_norm_equals_the_per_box_sum(monkeypatch):
    # sum over the boxes of eta^(alpha p - 1) max|f|^p |box|, the max over a
    # 3^(n+1) corner grid, from the closed forms
    f, p, alpha = _poisson(2), 2.0, 1.0
    region = Region(2.0, 0.25, 2.0)
    cubes = whitney_cubes(region, 2)
    total = 0.0
    for j, k in zip(cubes.level.tolist(), cubes.index.tolist()):
        s = 2.0 ** j
        axes = [np.linspace(a * s, (a + 1) * s, 3) for a in k] + [np.linspace(s, 2 * s, 3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        m = float(np.max(np.abs(f.values(grid))))
        total += (1.5 * s) ** (alpha * p - 1) * m ** p * s ** 3
    got = no.whitney_discrete_norm(f, p, alpha, region)
    assert got == pytest.approx(total ** (1.0 / p), rel=1e-13, abs=0.0)
    # bit for bit the per-box loop, n = 1 and 2, in one chunk and in chunks
    # of 100 points: 11 boxes a chunk at n = 1 and 3 at n = 2
    cases = [(PoissonField(1, np.array([0.3, 1.0])), 1.5, 0.8),
             (BergmanField(1, 2, np.array([0.3, -0.2, 0.5])), 0.7, 1.0)]
    for chunk in (no._CUBE_CHUNK_POINTS, 100):
        monkeypatch.setattr(no, "_CUBE_CHUNK_POINTS", chunk)
        for f, p, alpha in cases:
            want = _discrete_norm_per_box(f, p, alpha, region)
            asked, values = [], f.values

            def counted(pts, values=values, asked=asked):
                asked.append(np.shape(pts)[:-1])
                return values(pts)

            monkeypatch.setattr(f, "values", counted)
            assert no.whitney_discrete_norm(f, p, alpha, region) == want
            # whole boxes a call, at most the chunk's points unless one box is more
            per_box = 3 ** (f.n + 1)
            assert all(k == per_box and b * k <= max(chunk, k) for b, k in asked)
            assert sum(b for b, _ in asked) == len(whitney_cubes(region, f.n))


def test_norm_row_contract():
    f = _poisson(2)
    row = no.norm_row("bergman", f, REGION, 1.25, SPEC, p=0.5, alpha=1.0)
    assert row["space"] == "bergman"
    assert row["field"] == f.label
    assert row["value"] == 1.25
    assert row["quasi"] is True
    row2 = no.norm_row("mixed", f, REGION, 2.0, SPEC, outer_p=2.0, inner_q=1.5)
    assert row2["quasi"] is False


def _cubes_per_box_loop(f, p, alpha, region, spec):
    """The cubes path as one Gauss tensor per clipped box, added in order."""
    total = 0.0
    lo, hi = box_corners(no.whitney_cubes(region, f.n))
    for blo, bhi in zip(lo.tolist(), hi.tolist()):
        blo = [max(a, -region.x_max) for a in blo[:-1]] + [max(blo[-1], region.t_min)]
        bhi = [min(b, region.x_max) for b in bhi[:-1]] + [min(bhi[-1], region.t_max)]
        if any(a >= b for a, b in zip(blo, bhi)):
            continue  # the box misses the region
        axes = [quad.panel_nodes(a, b, spec.cube_order) for a, b in zip(blo, bhi)]
        grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        w = np.ones(pts.shape[0])
        for g in wgrids:
            w *= g.ravel()
        total += float(w @ (np.abs(f.values(pts)) ** p * pts[:, -1] ** alpha))
    return total ** (1.0 / p)


def test_batched_cubes_path_matches_per_box_loop(monkeypatch):
    # cubes of a larger region, clipped to a smaller one: some boxes are
    # cut and some collapse to zero volume
    region = Region(1.7, 0.3, 2.5)
    monkeypatch.setattr(
        no, "whitney_cubes", lambda reg, n: whitney_cubes(Region(3.0, 0.1, 6.0), n))
    for n in (1, 2):
        lo, hi = box_corners(no.whitney_cubes(region, n))
        clo = np.maximum(lo, [-region.x_max] * n + [region.t_min])
        chi = np.minimum(hi, [region.x_max] * n + [region.t_max])
        inside = np.all(chi > clo, axis=1)
        cut = inside & np.any((clo > lo) | (chi < hi), axis=1)
        assert not inside.all() and cut.any()
        w = np.zeros(n + 1)
        w[0], w[-1] = 0.3, 0.7
        for f in (PoissonField(n, w), BergmanField(1, n, w)):
            for p, a in ((2.0, 0.5), (1.5, -0.3)):
                for spec in (SPEC, QuadSpec(cube_order=3)):
                    got = no.bergman_norm(f, p, a, region, spec, method="cubes")
                    want = _cubes_per_box_loop(f, p, a, region, spec)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cubes_path_value_is_independent_of_chunk_size(monkeypatch):
    # a budget of one box per chunk gives the default budget's value exactly
    f = _poisson(2)
    region = Region(2.0, 0.25, 2.0)
    whole = no.bergman_norm(f, 2.0, 0.5, region, SPEC, method="cubes")
    monkeypatch.setattr(no, "_CUBE_CHUNK_POINTS", 1)
    assert no.bergman_norm(f, 2.0, 0.5, region, SPEC, method="cubes") == whole


def test_gauss_rule_is_read_only():
    x, w = quad.gauss_rule(4)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_panel_nodes_returns_fresh_arrays():
    ref_x, ref_w = np.polynomial.legendre.leggauss(5)
    x, w = quad.panel_nodes(-1.0, 1.0, 5)
    x[:] = 7.0
    w[:] = 7.0
    x2, w2 = quad.panel_nodes(-1.0, 1.0, 5)
    assert np.array_equal(x2, ref_x) and np.array_equal(w2, ref_w)
    assert np.array_equal(quad.gauss_rule(5)[0], ref_x)


def test_cubes_path_builds_each_gauss_rule_once(monkeypatch):
    # the region of `norm --x-max 2 --n 2`: about 5k Whitney boxes
    region = Region(2.0, 2.0 ** -4, 8.0)
    assert len(whitney_cubes(region, 2)) > 5000
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(deg):
        calls.append(deg)
        return leggauss(deg)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quad.gauss_rule.cache_clear()
    f = fl.dilated(fl.TestField, 1, 2, 1.0)
    for spec in (SPEC, SPEC.refined()):
        no.bergman_norm(f, 2.0, 0.5, region, spec, method="cubes")
    assert sorted(calls) == [4, 8]
