"""Poisson and weighted Bergman kernels against closed forms and stencils.

Frozen reference numbers were produced with 30-digit mpmath from the
tau-derivative definition of the higher kernels.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from harmspace import fields as fl, kernels as kr, util
from harmspace.fields import BergmanField, PoissonField


def test_poisson_closed_form_values():
    # c_1 t/(x^2+t^2); at (0,1) this is 1/pi
    got = kr.poisson(1, np.array([[0.0]]), np.array([1.0]))[0]
    assert got == pytest.approx(1.0 / math.pi, rel=1e-14)
    got = kr.poisson(2, np.array([[0.5, 0.0]]), np.array([1.0]))[0]
    assert got == pytest.approx(0.11388200694674833, rel=1e-14)


def test_poisson_unit_mass_on_the_boundary():
    for n, t in ((1, 0.7), (1, 2.0)):
        val, err = integrate.quad(
            lambda x: kr.poisson(n, np.array([[x]]), np.array([t]))[0],
            -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_bergman_q_matches_tau_derivative_definition():
    # ((-2)^(l+1)/l!) d^(l+1)/dtau^(l+1) P at z=(0.3,1.2), w=(0,0.7)
    z, w = np.array([0.3, 1.2]), np.array([0.0, 0.7])
    assert kr.bergman_q(0, 1, z, w) == pytest.approx(
        0.16368894074024005, rel=1e-13)
    assert kr.bergman_q(2, 1, z, w) == pytest.approx(
        0.45208213625452911, rel=1e-13)
    diag = np.array([0.0, 1.0])
    assert kr.bergman_q(0, 1, diag, diag) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14)


def test_bergman_matches_numeric_tau_derivative():
    # independent route: Fornberg differences of P in the tau slot
    for n in (1, 2, 3):
        x = np.array([[0.4] + [0.1] * (n - 1)])
        for l in (1, 3):
            num = util.fd_derivative(
                lambda tau: kr.poisson(n, x, np.array([tau]))[0],
                1.7, l + 1, 0.04)
            want = (-2.0) ** (l + 1) / math.factorial(l) * num
            got = kr.bergman_from_sq(l, n, np.array([0.16 + 0.01 * (n - 1)]),
                                     np.array([1.7]))[0]
            assert got == pytest.approx(want, rel=1e-6)


def test_diagonal_scaling_is_exact_power_law():
    # |Q_l(z,z)| (2t)^(n+1+l) is one constant along the diagonal
    for n, l in ((1, 3), (2, 2), (3, 4)):
        z = lambda t: np.array([0.0] * n + [t])
        vals = [abs(kr.bergman_q(l, n, z(t), z(t))) * (2 * t) ** (n + 1 + l)
                for t in (0.25, 1.0, 5.0)]
        assert max(vals) / min(vals) == pytest.approx(1.0, rel=1e-12)


def test_deriv_polynomial_coefficients():
    assert kr.deriv_polynomial(1, 3) == (0, -2)
    assert kr.deriv_polynomial(2, 3) == (-2, 0, 8)


def test_profile_polynomial_eval_matches_coefficients():
    for n in (2, 3):
        for l in (1, 2, 3):
            u = np.linspace(-0.9, 0.9, 7)
            got = kr.deriv_polynomial_eval(l, n, u)
            coef = np.array(kr.deriv_polynomial(l, n), dtype=float)
            want = sum(c * u ** i for i, c in enumerate(coef))
            assert np.allclose(got, want, rtol=1e-13)


def test_test_fn_frozen_values():
    w = np.array([0.0, 0.0, 0.0, 1.0])
    z = np.array([[0.0, 0.0, 0.0, 1.0]])
    assert fl.TestField(0, 3, w).values(z)[0] == pytest.approx(0.25, rel=1e-15)
    assert fl.TestField(1, 3, w).values(z)[0] == pytest.approx(-0.25, rel=1e-15)
    assert fl.TestField(2, 3, w).values(z)[0] == pytest.approx(0.375, rel=1e-15)


def test_fields_are_harmonic():
    rng = np.random.default_rng(7)
    for field in (
        PoissonField(2, np.array([0.3, -0.1, 0.8])),
        BergmanField(2, 2, np.array([0.0, 0.0, 1.0])),
        fl.TestField(1, 2, np.array([0.2, 0.0, 1.0])),
        fl.TestField(3, 3, np.array([0.0, 0.0, 0.0, 1.0])),
    ):
        n = field.n
        for _ in range(3):
            q = np.concatenate([rng.uniform(-1, 1, n), rng.uniform(0.8, 2.0, 1)])
            fn = lambda p: float(field.values(p[None, :])[0])
            scale = abs(fn(q)) + 1e-12
            r1 = abs(util.discrete_laplacian(fn, q, 0.02)) / scale
            r2 = abs(util.discrete_laplacian(fn, q, 0.01)) / scale
            # small residual that keeps shrinking like h^2
            assert r1 < 1e-2
            assert r2 < max(0.3 * r1, 1e-11)


def test_harmonicity_residual_is_second_order():
    field = BergmanField(3, 2, np.array([0.0, 0.0, 1.0]))
    q = np.array([0.35, -0.2, 1.1])
    fn = lambda p: float(field.values(p[None, :])[0])
    r1 = abs(util.discrete_laplacian(fn, q, 0.08))
    r2 = abs(util.discrete_laplacian(fn, q, 0.04))
    assert r1 / r2 == pytest.approx(4.0, rel=0.25)


def test_t_derivative_ladder():
    # f_{w,l} = d/dt f_{w,l-1}: the ladder is an exact t-derivative
    w = np.array([0.0, 0.0, 1.0])
    for l in (1, 2):
        lo, hi = fl.TestField(l - 1, 2, w), fl.TestField(l, 2, w)
        x = np.array([0.3, -0.4])
        num = util.fd_derivative(
            lambda t: float(lo.values(np.array([[x[0], x[1], t]]))[0]),
            1.3, 1, 0.02)
        got = float(hi.values(np.array([[x[0], x[1], 1.3]]))[0])
        assert got == pytest.approx(num, rel=1e-8)


def test_reflected_distance():
    z = np.array([1.0, 2.0])
    w = np.array([0.5, 0.25])
    assert kr.reflected_distance_sq(z, w) == pytest.approx(
        0.25 + 2.25 ** 2, rel=1e-15)


# ----------------------------------- shape-aware and per-row kernel evaluation


def _same_bits(a, b):
    """Equal bit for bit, so even a zero must keep its sign."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _old_eval_poly(terms, tau, D):
    """The full-shape loop that _eval_poly replaced."""
    acc = 0.0
    for i, (a, b, c) in enumerate(terms):
        term = c * tau**a * D**b
        if i == 0:
            acc = acc + term
        else:
            acc += term
    return acc


def _kernel_operands():
    rng = np.random.default_rng(5)
    D = rng.uniform(0.0, 50.0, (37, 1))
    D[0] = D[17] = 0.0
    tau = rng.uniform(0.05, 20.0, (1, 23))
    return D, tau


def test_eval_poly_matches_full_shape_loop():
    D, tau = _kernel_operands()
    full = [np.broadcast_to(x, (37, 23)).copy() for x in (D, tau)]
    for l in range(6):
        for n in (1, 2, 3):
            terms = kr.poisson_deriv_poly(l + 1, n)
            for Dx, tx in ((D, tau), full, (D[5, 0], tau[0, 3])):
                assert _same_bits(kr._eval_poly(terms, tx, Dx),
                                  _old_eval_poly(terms, tx, Dx))
    # a term in tau alone may come first: acc must still grow to full shape
    terms = ((2, 0, -3), (0, 1, 1), (1, 1, 4))
    assert _same_bits(kr._eval_poly(terms, tau, D), _old_eval_poly(terms, tau, D))


def test_bergman_rows_match_bergman_from_sq():
    D, tau = _kernel_operands()
    for l in range(6):
        for n in (1, 2, 3):
            # one-row blocks, a partial last block (37 = 2 * 16 + 5), and
            # one block larger than the rows it gets
            for rows in (1, 16, 64):
                q = kr.BergmanRows(l, n, tau, rows)
                for a in range(0, D.shape[0], rows):
                    blk = D[a : a + rows]
                    assert _same_bits(q.block(blk[:, 0]),
                                      kr.bergman_from_sq(l, n, blk, tau))
    # a 2-D tau is one flattened row of the table
    tau2 = tau.reshape(1, 23)[:, :20].reshape(4, 5)
    q = kr.BergmanRows(4, 3, tau2, 8)
    assert _same_bits(q.block(D[:8]),
                      kr.bergman_from_sq(4, 3, D[:8, :, None], tau2[None]).reshape(8, 20))
