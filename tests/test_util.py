"""Finite differences, log-log fitting, and stable serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmspace import util


def test_fornberg_matches_textbook_stencils():
    got = util.fornberg_weights(2, np.arange(-2.0, 3.0))
    assert np.allclose(got, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
                       rtol=0, atol=1e-14)
    got = util.fornberg_weights(1, np.array([-1.0, 0.0, 1.0]))
    assert np.allclose(got, [-0.5, 0.0, 0.5], rtol=0, atol=1e-15)
    got = util.fornberg_weights(1, np.array([0.0, 1.0]))
    assert np.allclose(got, [-1.0, 1.0], rtol=0, atol=1e-15)


def test_fornberg_rejects_short_stencils():
    with pytest.raises(ValueError):
        util.fornberg_weights(3, np.array([0.0, 1.0, 2.0]))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(min_value=1, max_value=4))
def test_fornberg_moment_conditions(m):
    # weights annihilate lower powers and give m! on x^m
    x = np.arange(-3.0, 4.0)
    w = util.fornberg_weights(m, x)
    for j in range(m):
        assert abs(w @ x ** j) < 1e-10
    assert w @ x ** m == pytest.approx(math.factorial(m), rel=1e-12)


def test_fd_derivative_exponential():
    for m in (1, 2, 3):
        got = util.fd_derivative(math.exp, 0.3, m, 0.05)
        assert got == pytest.approx(math.exp(0.3), rel=1e-9)


def test_fd_derivative_order_of_accuracy():
    # error should drop by about 2^(2w+2-m) when h halves
    f = math.sin
    e1 = abs(util.fd_derivative(f, 1.0, 2, 0.2, width=2) + math.sin(1.0))
    e2 = abs(util.fd_derivative(f, 1.0, 2, 0.1, width=2) + math.sin(1.0))
    assert e1 / e2 > 8.0


def test_discrete_laplacian_flags_harmonicity():
    harm = lambda q: q[0] ** 2 - q[1] ** 2
    bump = lambda q: q[0] ** 2 + q[1] ** 2
    q0 = np.array([0.4, -0.2])
    assert abs(util.discrete_laplacian(harm, q0, 0.05)) < 1e-10
    assert util.discrete_laplacian(bump, q0, 0.05) == pytest.approx(4.0, rel=1e-9)


def test_fit_loglog_recovers_power_law():
    x = 2.0 ** np.arange(-3, 4)
    slope, inter, resid = util.fit_loglog(x, 0.7 * x ** -1.5)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert math.exp(inter) == pytest.approx(0.7, rel=1e-12)
    assert resid < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    slope=st.floats(min_value=-4.0, max_value=4.0),
    pref=st.floats(min_value=0.1, max_value=10.0),
)
def test_fit_loglog_property(slope, pref):
    x = 2.0 ** np.arange(0, 6)
    got, inter, _ = util.fit_loglog(x, pref * x ** slope)
    assert got == pytest.approx(slope, abs=1e-9)


def test_dump_json_canonical(tmp_path):
    p = tmp_path / "x.json"
    util.dump_json({"b": 1.5, "a": [1, 2]}, p)
    text = p.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1.5, "a": [1, 2]}
    with pytest.raises(ValueError):
        util.dump_json({"v": float("nan")}, tmp_path / "y.json")


def test_dump_csv_repr_stable(tmp_path):
    p = tmp_path / "t.csv"
    util.dump_csv(p, ["a", "b"], [[0.1, np.float64(2.0)], [1, "x"]])
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.1,2.0"
    assert float(lines[1].split(",")[0]) == 0.1
