"""Weighted norms: cross-implementation identities and scipy oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from harmspace import norms as no
from harmspace import fields as fl
from harmspace import quadrature as quad
from harmspace.fields import BergmanField, PoissonField, PowerField
from harmspace.geometry import Region, whitney_cubes
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
    cu = no.bergman_norm(f, 2.0, 0.5, REGION, SPEC.refined(2), method="cubes")
    ly = no.bergman_norm(f, 2.0, 0.5, REGION, SPEC.refined(2), method="layers")
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


def test_exponent_validation():
    f = _poisson(2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            no.bergman_norm(f, bad, 0.5, REGION, SPEC)
        with pytest.raises(ValueError):
            no.bergman_norm(f, 2.0, bad, REGION, SPEC)
        with pytest.raises(ValueError):
            no.mixed_norm(f, 2.0, 2.0, bad, REGION, SPEC)
        with pytest.raises(ValueError):
            no.triebel_norm(f, bad, 2.0, 1.0, REGION, SPEC)
        with pytest.raises(ValueError):
            no.triebel_norm(f, 2.0, bad, 1.0, REGION, SPEC)
        with pytest.raises(ValueError):
            no.triebel_norm(f, 2.0, 2.0, bad, REGION, SPEC)
        with pytest.raises(ValueError):
            no.sup_norm(f, bad, REGION)
    with pytest.raises(ValueError):
        no.slice_norm(f, math.nan, 1.0, REGION, SPEC)
    with pytest.raises(ValueError):
        no.mixed_norm(f, math.nan, 2.0, 1.0, REGION, SPEC)
    with pytest.raises(ValueError):
        no.mixed_norm(f, 2.0, math.nan, 1.0, REGION, SPEC)
    with pytest.raises(ValueError):
        no.slice_norm(f, 0.0, 1.0, REGION, SPEC)
    with pytest.raises(NotImplementedError):
        no.slice_norm(f, math.inf, 1.0, REGION, SPEC)
    with pytest.raises(ValueError):
        no.bergman_norm(f, -1.0, 0.0, REGION, SPEC)
    with pytest.raises(ValueError):
        no.bergman_norm(f, 2.0, -1.0, REGION, SPEC)
    with pytest.raises(NotImplementedError):
        no.mixed_norm(f, math.inf, 2.0, 1.0, REGION, SPEC)
    with pytest.raises(ValueError):
        no.triebel_norm(f, 2.0, 0.0, 1.0, REGION, SPEC)
    with pytest.raises(ValueError):
        no.whitney_discrete_norm(f, 0.0, 1.0, REGION)


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
    from harmspace.geometry import whitney_cubes

    f = _poisson(2)
    ratios = [
        no.lemma2_ratio(f, 2.0, 1.0, c, SPEC)
        for c in whitney_cubes(Region(2.0, 0.25, 2.0), 2)[::7]
    ]
    assert all(0.0 < r < 50.0 for r in ratios)


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
    for cube in no.whitney_cubes(region, f.n):
        box = cube.box().clipped(region)
        if box.volume == 0.0:
            continue
        axes = [quad.panel_nodes(a, b, spec.cube_order) for a, b in zip(box.lo, box.hi)]
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
        boxes = [c.box() for c in no.whitney_cubes(region, n)]
        vols = [b.clipped(region).volume for b in boxes]
        assert 0.0 in vols
        assert any(0.0 < v < b.volume for v, b in zip(vols, boxes))
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
    for spec in (SPEC, SPEC.refined(2)):
        no.bergman_norm(f, 2.0, 0.5, region, spec, method="cubes")
    assert sorted(calls) == [4, 8]
