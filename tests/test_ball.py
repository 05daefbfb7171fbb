"""Ball expansions: scipy special-function oracles and exact algebra."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn
from scipy.special import eval_chebyt, eval_chebyu, eval_legendre, gammaln, lpmv

from harmspace import ball as bl
from harmspace import verify as vf


def test_dim_harmonics_frozen():
    assert [bl.dim_harmonics(2, k) for k in range(5)] == [1, 2, 2, 2, 2]
    assert [bl.dim_harmonics(3, k) for k in range(5)] == [1, 3, 5, 7, 9]
    assert [bl.dim_harmonics(4, k) for k in range(5)] == [1, 4, 9, 16, 25]
    assert bl.dim_harmonics(5, 2) == 14


def test_basis_gram_orthonormal():
    for n, cap in ((2, 6), (3, 5)):
        res = 4 * cap if n == 2 else cap + 6
        pts, w = bl.sphere_grid(n, res)
        B = np.vstack([bl.basis_matrix(n, k, pts) for k in range(cap + 1)])
        gram = (B * w) @ B.T
        assert np.abs(gram - np.eye(len(gram))).max() < 1e-12


def test_zonal_matches_classical_polynomials():
    x = np.linspace(-1.0, 1.0, 17)
    z2 = bl.zonal_values(2, 5, x)
    z3 = bl.zonal_values(3, 5, x)
    z4 = bl.zonal_values(4, 5, x)
    for k in range(6):
        t_k = 2.0 * eval_chebyt(k, x) if k else np.ones_like(x)
        assert np.abs(z2[k] - t_k).max() < 1e-12
        assert np.abs(z3[k] - (2 * k + 1) * eval_legendre(k, x)).max() < 1e-12
        assert np.abs(z4[k] - (k + 1) * eval_chebyu(k, x)).max() < 1e-11


def test_zonal_at_one_is_dimension():
    for n in (2, 3, 4, 5):
        z = bl.zonal_values(n, 8, np.array([1.0]))
        for k in range(9):
            assert z[k, 0] == pytest.approx(bl.dim_harmonics(n, k), rel=1e-11)


def test_poisson_kernel_zonal_series():
    rho = 0.5
    for n in (2, 3):
        pts, _ = bl.sphere_grid(n, 20)
        x0 = pts[3]
        Z = bl.zonal_values(n, 40, pts @ x0)
        series = ((rho ** np.arange(41))[:, None] * Z).sum(axis=0)
        exact = bl.poisson_ball(rho * x0, pts)
        assert np.abs(series - exact).max() < 1e-6


def test_expansion_validation_and_zero():
    with pytest.raises(ValueError):
        bl.Expansion(2, [np.array([1.0, 2.0])])  # degree-0 block of size 2
    z = bl.Expansion(3, [np.zeros(bl.dim_harmonics(3, k)) for k in range(3)])
    assert z.cap == 2
    assert all(np.all(c == 0) for c in z.coeffs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6), st.integers(0, 10 ** 6))
def test_expansion_json_round_trip(cap, seed):
    f = bl.Expansion.random(2, cap, seed=seed)
    back = bl.Expansion.from_json(f.to_json())
    assert back.n == 2 and back.cap == cap
    assert all(np.array_equal(a, c) for a, c in zip(back.coeffs, f.coeffs))


def test_parseval_slice_identity():
    for n in (2, 3):
        f = bl.Expansion.random(n, 8, seed=11, decay=1.0)
        res = 40 if n == 2 else 14
        for r in (0.3, 0.8, 1.0):
            lhs = bl.slice_norm_ball(f, 2.0, r, resolution=res)
            assert lhs == pytest.approx(f.l2_moment(r), rel=1e-12)


def test_value_at_origin_is_mean_coefficient():
    f = bl.Expansion.random(3, 5, seed=4)
    pts, _ = bl.sphere_grid(3, 8)
    vals = f.values(np.array(0.0), pts)
    assert np.abs(vals - f.coeffs[0][0]).max() < 1e-14


def test_convolve_truncates_and_commutes():
    f = bl.Expansion.random(2, 6, seed=1)
    g = bl.Expansion.random(2, 3, seed=2)
    fg, gf = bl.convolve(f, g), bl.convolve(g, f)
    assert fg.cap == 3
    # complex products commute only up to FMA rounding, so not array_equal
    assert all(np.allclose(a, c, rtol=1e-12)
               for a, c in zip(fg.coeffs, gf.coeffs))
    for k in range(4):
        assert np.allclose(fg.coeffs[k], f.coeffs[k] * g.coeffs[k], rtol=1e-13)
    with pytest.raises(ValueError):
        bl.convolve(f, bl.Expansion.random(3, 3, seed=3))


def test_exponents_and_orders_must_be_finite_and_positive():
    f = bl.Expansion.random(2, 3, seed=5)
    calls = [
        lambda v: bl.volume_norm(f, v, 0.5),
        lambda v: bl.grad_volume_norm(f, v, 0.5),
        lambda v: bl.mixed_norm_ball(f, 2.0, v, 0.5),
        lambda v: bl.grad_mixed_norm(f, v, 2.0, 0.5),
        lambda v: bl.slice_norm_ball(f, v, 0.5),
        lambda v: bl.hardy_norm(f, v),
        lambda v: bl.sup_mixed_norm_ball(f, v, 0.5),
        lambda v: bl.multiplier_lambda(2, 3, v),
        lambda v: bl.fractional_derivative(v, f),
    ]
    for call in calls:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                call(bad)


def test_multiplier_algebra():
    # a diagonal symbol scales degree k by values[k], bit for bit.  numpy's
    # complex product need not commute in the last bit, so a complex symbol
    # is pinned in convolve's order: the expansion first
    rng = np.random.default_rng(4)
    for n in (2, 3):
        f = bl.Expansion.random(n, 4, seed=9)
        v = rng.standard_normal(5)
        c = bl.diagonal_symbol(n, v)
        assert [b.size for b in c.coeffs] == [bl.dim_harmonics(n, k) for k in range(5)]
        assert all(np.all(b == v[k]) for k, b in enumerate(c.coeffs))
        out = bl.convolve(f, c)
        assert all(np.array_equal(out.coeffs[k], v[k] * f.coeffs[k]) for k in range(5))
        w = v + 1j * rng.standard_normal(5)
        out = bl.convolve(f, bl.diagonal_symbol(n, w))
        assert all(np.array_equal(out.coeffs[k], f.coeffs[k] * w[k]) for k in range(5))
        with pytest.raises(ValueError):  # a symbol of another dimension
            bl.convolve(bl.Expansion.random(5 - n, 4, seed=9), c)
    with pytest.raises(ValueError):
        bl.diagonal_symbol(2, [1.0, math.nan])
    with pytest.raises(ValueError):  # degree 0's block has one value
        bl.Expansion(2, [np.array([1.0, 1.0])])


def test_multiplier_lambda_gamma_ratio():
    # Lambda_t diagonal is Gamma(k + n/2 + t) / (Gamma(k + n/2) Gamma(t))
    for n, t in ((2, 0.7), (3, 1.9)):
        vals = np.array([b[0] for b in bl.multiplier_lambda(n, 8, t).coeffs])
        k = np.arange(9)
        expect = np.exp(gammaln(k + n / 2 + t) - gammaln(k + n / 2) - gammaln(t))
        assert np.abs(vals / expect - 1.0).max() < 1e-13


def test_fractional_derivative_order_one():
    # Gamma(x + 1)/Gamma(x) = x, so Lambda_1 scales degree k by k + n/2
    f = bl.Expansion.random(2, 5, seed=7)
    out = bl.fractional_derivative(1.0, f)
    for k in range(6):
        assert np.allclose(out.coeffs[k], (k + 1.0) * f.coeffs[k], rtol=1e-13)
    with pytest.raises(ValueError):
        bl.fractional_derivative(0.0, f)


def test_radial_jacobi_beta_moments():
    # weights carry (1-r)^a r^(n-1): moments are Beta integrals
    for n, a in ((2, 0.5), (3, -0.25), (4, 2.0)):
        r, w = bl.radial_jacobi_quadrature(a, n, 30)
        assert np.sum(w) == pytest.approx(beta_fn(n, a + 1), rel=1e-13)
        assert np.sum(w * r**2) == pytest.approx(beta_fn(n + 2, a + 1), rel=1e-13)
    with pytest.raises(ValueError):
        bl.radial_jacobi_quadrature(-1.0, 2, 10)


def test_radial_jacobi_refuses_a_non_finite_rule_just_above_minus_one():
    # every a that check_weight_exponent admits is either a finite rule or a
    # ValueError naming the parameter, never a NaN norm.  The rule writes its
    # recurrence in a + 1, so it is finite at every float just above -1: its
    # nodes lie in [0, 1] (the last one rounds to 1), its weights are
    # positive and total 1 / (a + 1)
    for count in (2, 32, 40):
        for k in range(1, 120):
            a = -1.0 + k * 2.0 ** -53
            r, w = bl.radial_jacobi_quadrature(a, 1, count, "alpha")
            assert np.isfinite(r).all() and np.isfinite(w).all(), (count, k)
            assert (np.diff(r) > 0).all() and r[0] > 0 and r[-1] <= 1, (count, k)
            assert (w > 0).all() and abs(w.sum() * (a + 1.0) - 1.0) < 1e-15, (count, k)
    a = math.nextafter(-1.0, 0.0)
    f = bl.Expansion.random(2, 3, seed=5)
    for value in (bl.volume_norm(f, 2.0, a), bl.grad_volume_norm(f, 2.0, a),
                  bl.mixed_norm_ball(f, 2.0, 2.0, a / 2.0 + 0.5)):  # alpha p - 1 = a
        assert math.isfinite(value) and value > 0
    # where the rule itself is not finite (many nodes at a large a), the
    # refusal names the parameter
    with pytest.raises(ValueError, match="^alpha, the radial weight exponent, gives no finite"
                                         " 1000-node Gauss-Jacobi rule"):
        bl.radial_jacobi_quadrature(bl.MAX_WEIGHT_EXPONENT, 2, 1000, "alpha")
    with pytest.raises(ValueError, match="at least one node"):
        bl.radial_jacobi_quadrature(0.5, 2, 0)


def test_assoc_norm_is_built_once_and_keeps_every_bit():
    # the closed form sqrt((2 - [m = 0]) (2l + 1) (l - m)! / (l + m)!), and
    # bit for bit the gammaln expression the basis rows have always used (its
    # Cephes lgam is ported, so the classical rows keep every bit)
    bl._assoc_norm.cache_clear()
    for l in range(41):
        for m in range(l + 1):
            got = bl._assoc_norm(l, m)
            ratio = Fraction(math.factorial(l - m), math.factorial(l + m))
            assert got == pytest.approx(math.sqrt((2 - (m == 0)) * (2 * l + 1) * ratio),
                                        rel=1e-13, abs=0)
            old = math.sqrt(2 * l + 1) if m == 0 else math.sqrt(
                2 * (2 * l + 1) * math.exp(gammaln(l - m + 1) - gammaln(l + m + 1)))
            assert got == old, (l, m)
    built = bl._assoc_norm.cache_info().misses
    assert built == 41 * 42 // 2
    bl.basis_matrix(3, 40, bl.sphere_grid(3, 4)[0])
    assert bl._assoc_norm.cache_info().misses == built


def test_gauss_jacobi_rule_matches_40_digit_mpmath():
    import mpmath

    with mpmath.workdps(40):
        for a in (-0.9, -0.5, 0.0, 0.7, 1.7, 40.0, 500.0):
            for count in (2, 32, 40):
                xs, ws = mpmath.gauss_quadrature(count, "jacobi", mpmath.mpf(a), 0)
                # in r = (xi + 1) / 2 the weight (1 - xi)^a dxi is 2^(a + 1) (1 - r)^a dr
                ref = sorted(((x + 1) / 2, wt / mpmath.mpf(2) ** (a + 1)) for x, wt in zip(xs, ws))
                r, w = bl.radial_jacobi_quadrature(a, 1, count)
                # a = 0 is gauss_rule, numpy's leggauss, whose weights are off by
                # up to 7e-13 at 40 nodes; the Jacobi rule's by up to 1e-13
                tol = 1e-12 if a == 0.0 else 2e-13
                for i, (x_ref, w_ref) in enumerate(ref):
                    assert abs(r[i] - float(x_ref)) <= 2e-16, (a, count, i)
                    assert abs(w[i] / float(w_ref) - 1.0) <= tol, (a, count, i)


def test_jacobi_rule_is_built_once_and_read_only():
    bl._jacobi_rule.cache_clear()
    r, w = bl.radial_jacobi_quadrature(0.7, 3, 40)
    r2, w2 = bl.radial_jacobi_quadrature(0.7, 2, 40)
    assert bl._jacobi_rule.cache_info().misses == 1
    base_r, base_w = bl._jacobi_rule(0.7, 40)
    assert r is base_r and r2 is base_r
    assert np.array_equal(w, base_w * base_r ** 2) and np.array_equal(w2, base_w * base_r)
    for arr in (base_r, base_w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_normalized_legendre_rows_match_40_digit_mpmath():
    # the sweep's P_l^m against the unnormalized upward recurrence in 40-digit
    # arithmetic times the exact norm sqrt((2 - [m = 0]) (2l + 1) (l - m)! / (l + m)!),
    # through degree 120 (the rows scipy's lpmv made NaN from degree 86 on, which
    # the fully normalized recurrence gives past CLASSIC_TOP)
    import mpmath

    top = 120
    x, _ = bl.gauss_rule(5)
    pts = np.column_stack([np.sqrt(1.0 - x * x), np.zeros_like(x), x])
    sweep = list(itertools.islice(bl._legendre_sweep(pts), top + 1))
    ct = np.cos(np.arccos(x))
    with mpmath.workdps(40):
        for j, c in enumerate(ct.tolist()):
            c = mpmath.mpf(c)
            s = mpmath.sqrt(1 - c * c)
            for m in range(top + 1):
                p_prev, p = 0, (-1) ** m * mpmath.fac2(2 * m - 1) * s ** m
                for l in range(m, top + 1):
                    if l > m:
                        p_prev, p = p, ((2 * l - 1) * c * p - (l + m - 1) * p_prev) / (l - m)
                    norm = mpmath.sqrt((2 - (m == 0)) * (2 * l + 1) * mpmath.factorial(l - m)
                                       / mpmath.factorial(l + m))
                    # measured: 3e-13 through CLASSIC_TOP, 7e-13 past it,
                    # where |P| reaches sqrt(2 (2l + 1)), 22 at degree 120
                    assert abs(sweep[l][1][m, j] - float(norm * p)) <= 1e-12, (l, m, j)
    # the recurrences' coefficients are built once per degree
    built = (bl._classic_step.cache_info().misses,
             bl._legendre_coefficients.cache_info().misses)
    bl.basis_matrix(3, top, pts)
    assert (bl._classic_step.cache_info().misses,
            bl._legendre_coefficients.cache_info().misses) == built


def test_rows_through_the_classic_top_are_scipys_bit_for_bit():
    # through CLASSIC_TOP the sweep is scipy's lpmv times the gammaln norm,
    # the rows every stored ball report was made from; past it lpmv overflows
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((300, 3))
    pts = np.vstack([pts / np.linalg.norm(pts, axis=1)[:, None], bl.sphere_grid(3, 9)[0]])
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    c, phi = np.cos(theta), np.arctan2(pts[:, 1], pts[:, 0])
    for l, (_, p, cos_m, _) in enumerate(itertools.islice(bl._legendre_sweep(pts),
                                                           bl.CLASSIC_TOP + 1)):
        for m in range(l + 1):
            assert np.array_equal(p[m], bl._assoc_norm(l, m) * lpmv(m, l, c)), (l, m)
        assert np.array_equal(cos_m, np.cos(np.multiply.outer(np.arange(l + 1), phi)))
    assert not np.isfinite(lpmv(bl.CLASSIC_TOP + 1, bl.CLASSIC_TOP + 1, c)).any()


def test_parseval_holds_through_degree_120_on_the_two_sphere():
    f = bl.Expansion.random(3, 120, seed=4, decay=2.0)
    for r in (0.5, 0.7):
        assert bl.slice_norm_ball(f, 2.0, r, resolution=64) == pytest.approx(
            f.l2_moment(r), rel=1e-13)


def test_an_evaluation_builds_one_sweep(monkeypatch):
    calls = []
    sweep = bl._legendre_sweep

    def counted(pts):
        calls.append(len(pts))
        return sweep(pts)

    monkeypatch.setattr(bl, "_legendre_sweep", counted)
    f = bl.Expansion.random(3, 12, seed=2)
    pts = bl.sphere_grid(3, 6)[0]
    r = np.array([0.3, 0.8])[:, None]
    f.values(r, pts)
    bl.gradient_values(f, r, pts)
    assert calls == [len(pts), len(pts)]
    grid = bl.SphereGrid(3, 6)
    for k in (3, 12, 5):
        grid.rows(k)
    f.values(r, grid)
    assert calls == [len(pts)] * 3


def test_conv_poisson_matrix_zonal_reduction():
    cap = 6
    diag = 1.0 / (1.0 + np.arange(cap + 1.0))
    c = bl.diagonal_symbol(2, diag)
    pts, _ = bl.sphere_grid(2, 20)
    rho = 0.7
    M = bl.conv_poisson_matrix(c, rho, pts)
    assert np.abs(M - M.T).max() < 1e-12
    Z = bl.zonal_values(2, cap, pts @ pts.T)
    zonal = sum(rho**k * diag[k] * Z[k] for k in range(cap + 1))
    assert np.abs(M - zonal).max() < 1e-12


def test_volume_norm_constant_closed_form():
    # int_0^1 (1 - r^2)^a r^(n-1) dr = B(n/2, a+1) / 2
    for n in (2, 3):
        one = bl.Expansion(n, [np.array([1.0])])
        for p, al in ((2.0, 0.7), (1.0, -0.3)):
            v = bl.volume_norm(one, p, al)
            assert v == pytest.approx((0.5 * beta_fn(n / 2, al + 1)) ** (1 / p),
                                      rel=1e-13)
    with pytest.raises(ValueError):
        bl.volume_norm(one, 0.0, 0.5)
    with pytest.raises(ValueError):
        bl.volume_norm(one, 2.0, -1.0)


def test_hardy_and_sup_norms_constant_field():
    one = bl.Expansion(2, [np.array([2.5])])
    assert bl.hardy_norm(one, 2.0) == pytest.approx(2.5, rel=1e-14)
    assert bl.sup_mixed_norm_ball(one, 2.0, 0.7) == pytest.approx(2.5, rel=1e-12)


def test_gradient_of_linear_fields_is_one():
    fx = bl.Expansion(2, [np.array([0.0]), np.array([1 / math.sqrt(2), 0.0])])
    pts, _ = bl.sphere_grid(2, 16)
    g = bl.gradient_values(fx, np.array([0.3, 0.8])[:, None], pts[None, :, :])
    assert np.abs(g - 1.0).max() < 1e-13
    fz = bl.Expansion(3, [np.array([0.0]),
                          np.array([1 / math.sqrt(3), 0.0, 0.0])])
    pts3, _ = bl.sphere_grid(3, 10)
    g3 = bl.gradient_values(fz, np.array([[0.5]]), pts3[None, :, :])
    assert np.abs(g3 - 1.0).max() < 1e-13


def test_grad_volume_norm_linear_closed_form():
    fx = bl.Expansion(2, [np.array([0.0]), np.array([1 / math.sqrt(2), 0.0])])
    got = bl.grad_volume_norm(fx, 1.0, 0.7)
    assert got == pytest.approx(0.5 * beta_fn(1.0, 1.7), rel=1e-13)


def test_ball_norms_scale_without_underflow_at_large_exponents():
    # |c f|^q underflows for q = 400 unless the largest value is factored out
    c = 1e-3
    for n in (2, 3):
        f = bl.Expansion.random(n, 4, seed=n)
        g = bl.Expansion(n, [c * b for b in f.coeffs])
        for norm in (lambda h, q: bl.slice_norm_ball(h, q, 0.9),
                     lambda h, q: bl.hardy_norm(h, q),
                     lambda h, q: bl.volume_norm(h, q, 0.5),
                     lambda h, q: bl.mixed_norm_ball(h, 2.0, q, 0.5),
                     lambda h, q: bl.sup_mixed_norm_ball(h, q, 0.5)):
            for q in (2.0, 400.0, 1e300):
                small, big = norm(g, q), norm(f, q)
                assert small > 0
                assert small == pytest.approx(c * big, rel=1e-12, abs=0)
    # a large outer exponent as well (the Jacobi weight grows with it)
    assert bl.mixed_norm_ball(g, 400.0, 300.0, 0.5) == pytest.approx(
        c * bl.mixed_norm_ball(f, 400.0, 300.0, 0.5), rel=1e-12, abs=0)
    zero = bl.Expansion(2, [np.zeros(bl.dim_harmonics(2, k)) for k in range(4)])
    assert bl.slice_norm_ball(zero, 400.0, 0.5) == 0.0
    assert bl.volume_norm(zero, 400.0, 0.5) == 0.0


def _conv_poisson_per_level(c, rho, pts):
    # the per-level formula: every degree's basis rows built afresh, then
    # rho^k E_k summed in degree order
    out = None
    for k, b in enumerate(c.coeffs):
        Y = bl.basis_matrix(c.n, k, pts)
        term = rho**k * np.einsum("j,jx,jy->xy", b, Y, Y)
        out = term if out is None else out + term
    return out


def test_conv_matrix_is_bit_identical_to_per_level_at_each_radius():
    rhos = [1.0 - 2.0 ** -i for i in range(1, 9)]
    rng = np.random.default_rng(5)
    for n, cap, res in ((2, 12, 56), (3, 6, 9)):
        dims = [bl.dim_harmonics(n, k) for k in range(cap + 1)]
        diagonal = bl.diagonal_symbol(n, (1.0 + np.arange(cap + 1.0)) ** -2)
        full = bl.Expansion(n, [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                                for d in dims])
        grid = bl.SphereGrid(n, res)
        for c in (diagonal, full):
            for rho in rhos:
                want = _conv_poisson_per_level(c, rho, grid.points)
                assert np.array_equal(bl.conv_poisson_matrix(c, rho, grid), want)
                assert np.array_equal(bl.conv_poisson_matrix(c, rho, grid.points), want)
    # the single radius of the ball-norms slice-convolution identity
    K = 16
    diag = np.random.default_rng(0).normal(size=K + 1) * (1.0 + np.arange(K + 1.0)) ** -1.5
    c2 = bl.diagonal_symbol(2, diag)
    grid2 = bl.SphereGrid(2, 4 * K + 8)
    M = bl.conv_poisson_matrix(c2, 0.75, grid2)
    assert np.array_equal(M, _conv_poisson_per_level(c2, 0.75, grid2.points))


def test_values_on_a_shared_grid_are_bit_identical_to_fresh_ones():
    for n, res in ((2, 40), (3, 10)):
        grid = bl.SphereGrid(n, res)
        f = bl.Expansion.random(n, 8, seed=1)
        g = bl.Expansion.random(n, 5, seed=2)
        r = np.array([0.0, 0.3, 0.9, 1.0])[:, None]
        for h in (f, g, f):  # the second use of each degree reads kept rows
            assert np.array_equal(h.values(r, grid), h.values(r, grid.points))
            assert np.array_equal(h.values(np.array(0.6), grid),
                                  h.values(np.array(0.6), grid.points))
        assert np.array_equal(grid.rows(3), bl.basis_matrix(n, 3, grid.points))
        assert bl.slice_norm_ball(f, 3.0, 0.7, grid) == bl.slice_norm_ball(f, 3.0, 0.7, res)
        assert bl.volume_norm(f, 2.0, 0.5, grid) == bl.volume_norm(f, 2.0, 0.5, res)
    with pytest.raises(ValueError):
        bl.Expansion.random(2, 2, seed=0).values(0.5, bl.SphereGrid(3, 4))


# gamma_ratio is Gamma(a + t) / Gamma(a) through math.gamma below its
# overflow: through degree 40 Lambda_1 is off by at most 4 eps and
# Lambda_0.5, Lambda_2.5 by 3 eps (the log-space form it replaced was off by
# up to 3.4e-14 there).  A Lambda shifted by one degree is off by about 1/a.
_LAMBDA_TOL = 8 * np.finfo(float).eps


def test_lambda_of_order_one_is_the_degree_shift():
    # Gamma(a + 1) / (Gamma(a) Gamma(1)) = a, a = k + n/2
    for n in (2, 3):
        vals = np.real([b[0] for b in bl.multiplier_lambda(n, 40, 1.0).coeffs])
        for k, v in enumerate(vals):
            a = k + n / 2
            assert abs(v / a - 1.0) <= _LAMBDA_TOL, (n, k)


def test_lambda_matches_a_50_digit_gamma_ratio():
    import mpmath

    with mpmath.workdps(50):
        for n in (2, 3):
            for t in (0.5, 2.5):
                vals = np.real([b[0] for b in bl.multiplier_lambda(n, 40, t).coeffs])
                for k, v in enumerate(vals):
                    a = mpmath.mpf(k) + mpmath.mpf(n) / 2
                    ref = mpmath.gamma(a + t) / (mpmath.gamma(a) * mpmath.gamma(t))
                    assert abs(v / float(ref) - 1.0) <= _LAMBDA_TOL, (n, t, k)


def test_volume_norm_of_one_degree_closed_form():
    # |f|^2 = r^(2k) |b|^2 on average over the sphere, and
    # int_0^1 r^(2k + n - 1) (1 - r^2)^alpha dr = B(k + n/2, alpha + 1) / 2
    for n in (2, 3):
        for k, alpha in ((1, 0.7), (3, 0.0), (4, -0.4)):
            blocks = [np.zeros(bl.dim_harmonics(n, j)) for j in range(k + 1)]
            blocks[k] = np.linspace(0.5, 1.5, bl.dim_harmonics(n, k)) * (1 - 0.5j)
            f = bl.Expansion(n, blocks)
            b2 = float(np.sum(np.abs(blocks[k]) ** 2))
            exact = math.sqrt(b2 * beta_fn(k + n / 2, alpha + 1) / 2)
            assert bl.volume_norm(f, 2.0, alpha) == pytest.approx(exact, rel=1e-12)


def test_trend_class_matches_the_check_rows():
    # thm8's finite-trend row passes at slope >= FINITE_TREND and its
    # divergent-trend row at slope <= DIVERGENT_TREND: same boundaries here
    assert bl.trend_class(-0.05) == "finite"
    assert bl.trend_class(-0.2) == "divergent"
    assert bl.trend_class(-0.1) == "inconclusive"
    assert vf._above("finite-trend", -0.05, bl.FINITE_TREND)["ok"]
    assert vf._below("divergent-trend", -0.2, bl.DIVERGENT_TREND)["ok"]


def _slice_functional_by_matrix(c, s_prime, levels, lam_order, grid):
    # the route slice_functional replaced: each outer point's integral over
    # the rows of the (res, res) Poisson-slice matrix, then the max
    if lam_order is not None:
        c = bl.convolve(c, bl.multiplier_lambda(2, c.cap, lam_order))
    out = []
    for i in range(1, levels + 1):
        rho = 1.0 - 2.0 ** -i
        M = bl.conv_poisson_matrix(c, rho, grid)
        out.append((1.0 - rho) * float(np.max((grid.weights @ np.abs(M) ** s_prime)
                                              ** (1.0 / s_prime))))
    return out


def test_slice_functional_is_the_matrix_route_from_one_zonal_row(monkeypatch):
    cap = 12
    k = np.arange(cap + 1.0)
    grid = bl.SphereGrid(2, 4 * cap + 8)
    symbols = {"decay": (1.0 + k) ** -2, "growth": 1.0 + k, "identity": np.ones(cap + 1),
               "zero": np.zeros(cap + 1),
               "random": np.random.default_rng(3).standard_normal(cap + 1)}
    cases = list(itertools.product(symbols, (1.5, 2.0, 3.0), (1, 3, 8), (None, 3.0)))
    c = {name: bl.diagonal_symbol(2, v) for name, v in symbols.items()}
    want = {case: _slice_functional_by_matrix(c[case[0]], *case[1:], grid)
            for case in cases}

    def unreachable(*args, **kwargs):
        raise AssertionError("slice_functional must build no slice matrix")

    monkeypatch.setattr(bl, "conv_poisson_matrix", unreachable)
    for name, sp, levels, lam in cases:
        sup, _, rows = bl.slice_functional(c[name], sp, 1.0, lam, levels, grid)
        assert [r for r, _ in rows] == [1.0 - 2.0 ** -i for i in range(1, levels + 1)]
        got = [v for _, v in rows]
        assert sup == max(got)
        if name == "zero":
            assert got == [0.0] * levels
        else:
            np.testing.assert_allclose(got, want[name, sp, levels, lam], rtol=1e-13, atol=0)

    grid3 = bl.SphereGrid(3, 6)
    wrong = [  # an n = 3 symbol, a non-constant n = 2 block, an n = 3 grid
        (bl.diagonal_symbol(3, np.ones(5)), grid),
        (bl.Expansion(2, [[1.0], [1.0, 2.0], [0.5, 0.5]]), grid),
        (c["decay"], grid3),
    ]
    for sym, g in wrong:
        with pytest.raises(ValueError):
            bl.slice_functional(sym, 2.0, 1.0, None, 3, g)
