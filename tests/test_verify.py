"""Harness contracts: registry, budgets, determinism, report shape."""

import itertools
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from harmspace import ball as bl
from harmspace import kernels
from harmspace import quadrature as quad
from harmspace import util
from harmspace import verify as vf
from harmspace.geometry import Region

REGISTRY = [
    "whitney", "kernels", "lemma2", "lemma4", "lemma5", "lemma6",
    "eq14-scaling", "eq15-scaling", "thm4-scaling", "norm-identities",
    "thm2-equivalence", "thm3-carleson", "thm4-carleson", "thm5-trace",
    "thm6-trace", "prop1", "thm7-distance", "ball-basis", "ball-norms",
    "thm8-multiplier", "thm9-multiplier", "thm10-functionals",
]


def test_registry_is_frozen():
    assert vf.experiment_ids() == REGISTRY
    for exp_id, exp in vf.EXPERIMENTS.items():
        assert exp.id == exp_id
        assert exp.summary and isinstance(exp.summary, str)


def test_budget_names():
    assert list(vf.BUDGETS) == ["smoke", "standard", "deep"]
    assert vf.BUDGETS["deep"].fit_points > vf.BUDGETS["smoke"].fit_points


def test_run_experiment_rejects_unknowns():
    with pytest.raises(KeyError):
        vf.run_experiment("no-such-id", budget="smoke")
    with pytest.raises(ValueError):
        vf.run_experiment("whitney", budget="huge")
    with pytest.raises(ValueError):
        vf.run_experiment("whitney", budget="smoke", overrides={"bogus": 1})
    for bad in ("nan", float("inf"), "-inf"):  # outside every range
        with pytest.raises(ValueError, match="^lemma4 needs gamma in "):
            vf.run_experiment("lemma4", budget="smoke", overrides={"gamma": bad})


def test_override_coercion_echoed_in_params():
    # string values coerce to the default's type before the run
    rep = vf.run_experiment("lemma4", budget="smoke",
                            overrides={"n": "2", "gamma": "4.5"})
    assert rep["params"]["n"] == 2
    assert rep["params"]["gamma"] == 4.5
    assert rep["params"]["budget"] == "smoke"
    assert rep["params"]["seed"] == 0


def test_int_override_rejects_a_fractional_float():
    # a float for an int parameter is taken only when it is integral: 2.7
    # once ran as n = 2 while the summary echoed 2.7
    for bad in (2.7, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer"):
            vf.run_experiment("lemma6", budget="smoke", overrides={"n": bad})
    assert vf._coerce("n", 2, 2.0) == 2 and type(vf._coerce("n", 2, 2.0)) is int
    assert vf._coerce("n", 2, "3") == 3
    with pytest.raises(ValueError):
        vf._coerce("n", 2, "2.7")


def test_every_default_is_inside_the_table():
    for exp_id, exp in vf.EXPERIMENTS.items():
        assert vf.check_params(exp_id) == exp.defaults
        assert all(key in vf._RANGES for key in exp.defaults), exp_id


def test_each_range_rejects_the_first_value_past_either_end():
    for exp_id, exp in vf.EXPERIMENTS.items():
        for key, default in exp.defaults.items():
            lo, hi = vf._RANGES[key]
            if isinstance(default, int):
                ends, past = (lo, hi), (lo - 1, hi + 1)
            else:
                ends = (lo, hi)
                past = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
            for v in past:
                with pytest.raises(ValueError, match=f"^{exp_id} needs {key} in "):
                    vf.check_params(exp_id, {key: v})
            for v in ends:  # an end passes the range, if perhaps not a need
                try:
                    vf.check_params(exp_id, {key: v})
                except ValueError as e:
                    assert not str(e).startswith(f"{exp_id} needs {key} in "), e


def test_needs_answer_everywhere_in_the_ranges():
    # at every corner of the box of ranges (and the defaults), each need is
    # decided: no predicate divides by zero or leaves the float range
    for exp_id, exp in vf.EXPERIMENTS.items():
        keys = sorted(exp.defaults)
        for point in itertools.product(*((*vf._RANGES[k], exp.defaults[k]) for k in keys)):
            try:
                vf.check_params(exp_id, dict(zip(keys, point)))
            except ValueError as e:
                assert str(e).startswith(f"{exp_id} needs "), e


_UP, _DOWN = math.inf, -math.inf

# Each need's boundary, pinned: (id, need text, key, accepted, refused, other
# overrides), where refused is the next float past accepted (the next integer
# for an int), so the margin changes sign between the two.
NEED_BOUNDARIES = [
    ("lemma4", "delta > -1", "delta", math.nextafter(-1.0, _UP), -1.0, {}),
    ("lemma4", "gamma > n + 1 + delta", "gamma", math.nextafter(2.0, _UP), 2.0, {}),
    ("lemma5", "alpha > -1", "alpha", math.nextafter(-1.0, _UP), -1.0, {}),
    ("lemma5", "n + alpha < 2 * gamma - 1", "gamma", math.nextafter(1.0, _UP), 1.0, {}),
    ("eq14-scaling", "n >= 2", "n", 2, 1, {}),
    ("eq14-scaling", "s > 0", "s", 5e-324, 0.0, {}),
    ("eq14-scaling", "p_exp * (n - 1 + l) > n", "p_exp", math.nextafter(1.0, _UP), 1.0, {}),
    # at q_exp's boundary the third need admits only alpha below about 4e-16
    ("eq15-scaling", "q_exp * (n - 1 + l) > n", "q_exp", math.nextafter(1.0, _UP), 1.0,
     {"alpha": 1e-16}),
    ("eq15-scaling", "alpha * p_exp > 0", "alpha", 5e-324, 0.0, {}),
    ("eq15-scaling", "(n / q_exp - (n - 1 + l) + alpha) * p_exp < 0", "alpha",
     math.nextafter(1.5, _DOWN), 1.5, {}),
    ("thm4-scaling", "n >= 2", "n", 2, 1, {}),
    # 2 alpha - 1 rounds to -1 up to alpha = 2^-55 (a tie, to even)
    ("thm4-scaling", "alpha * p_exp - 1 > -1", "alpha", math.nextafter(2.0 ** -55, _UP),
     2.0 ** -55, {}),
    ("thm4-scaling", "p_exp * (n - 1 + l - alpha) > n", "alpha", math.nextafter(1.5, _DOWN),
     1.5, {}),
    ("thm2-equivalence", "min((s1, s2)[:m]) > -1", "s1", math.nextafter(-1.0, _UP), -1.0, {}),
    ("thm2-equivalence", "p_exp * (2 + l) > 2 + max((s1, s2)[:m])", "p_exp",
     math.nextafter(0.5, _UP), 0.5, {}),
    ("thm3-carleson", "alpha > -1", "alpha", math.nextafter(-1.0, _UP), -1.0, {}),
    ("thm3-carleson", "1 + alpha < p_exp * (2 + l) - 1", "p_exp", math.nextafter(0.5, _UP),
     0.5, {}),
    ("thm4-carleson", "alpha > 0", "alpha", 5e-324, 0.0, {}),
    ("thm4-carleson", "p_exp <= q_exp", "p_exp", 2.0, math.nextafter(2.0, _UP), {}),
    ("thm4-carleson", "p_exp * (2 + l) > 1 + alpha * p_exp", "l", 4, 3, {"alpha": 4.0}),
    ("thm5-trace", "1 <= k_order <= 2", "k_order", 1, 0, {}),
    ("thm5-trace", "1 <= k_order <= 2", "k_order", 2, 3, {}),
    ("thm6-trace", "s1 > -1", "s1", math.nextafter(-1.0, _UP), -1.0, {}),
    ("thm6-trace", "s2 > -1", "s2", math.nextafter(-1.0, _UP), -1.0, {}),
    ("thm6-trace", "k_order > 1 + s1 + s2", "k_order", 2, 1, {}),
    ("prop1", "p_exp * a1 > -1 - s1", "a1", math.nextafter(-1.5, _UP), -1.5, {}),
    ("prop1", "p_exp * a2 > -1 - s2", "a2", math.nextafter(-1.5, _UP), -1.5, {}),
    ("prop1", "p_exp * b1 > 2 + s1", "b1", math.nextafter(2.5, _UP), 2.5, {}),
    ("prop1", "p_exp * b2 > 2 + s2", "b2", math.nextafter(2.5, _UP), 2.5, {}),
    ("thm7-distance", "p_exp * (2 + l) > 4 + alpha", "l", 3, 2, {"alpha": 0.0}),
    ("thm7-distance", "m_order > max((alpha + 4) / p_exp - 1, alpha / p_exp)", "m_order",
     3, 2, {}),
    # n = 3 fits the cover's mask limit at deep; n = 4 exceeds it at smoke
    ("lemma6", "n <= 3", "n", 3, 4, {}),
    ("ball-norms", "alpha > -1", "alpha", math.nextafter(-1.0, _UP), -1.0, {}),
    ("thm8-multiplier", "s > 1", "s", math.nextafter(1.0, _UP), 1.0, {}),
    ("thm8-multiplier", "beta > 0", "beta", 5e-324, 0.0, {}),
    ("thm9-multiplier", "q > 1", "q", math.nextafter(1.0, _UP), 1.0, {}),
    ("thm9-multiplier", "m_order > max(alpha - beta - 1, beta - 1)", "m_order", 2, 1,
     {"alpha": 2.5}),
    ("thm10-functionals", "s > 1", "s", math.nextafter(1.0, _UP), 1.0, {}),
    # alpha - 1 rounds to -1 up to alpha = 2^-54 (a tie, to even)
    ("thm10-functionals", "alpha - 1 > -1", "alpha", math.nextafter(2.0 ** -54, _UP),
     2.0 ** -54, {}),
]


def test_reject_rows_alter_a_parameter_past_its_need():
    # the precondition-reject, kernel-order-reject and exponent-reject rows
    for exp_id, key, value in (("lemma4", "gamma", 2.0), ("lemma5", "gamma", 1.0),
                               ("thm6-trace", "k_order", 1), ("prop1", "b1", 2.4)):
        with pytest.raises(ValueError, match=f"^{exp_id} needs .*{key} = {value}"):
            vf.check_params(exp_id, {key: value})
    # every need's boundary, between neighbouring values of one parameter
    for exp_id, text, key, good, bad, others in NEED_BOUNDARIES:
        if isinstance(good, int):
            assert abs(good - bad) == 1
        else:
            assert math.nextafter(good, bad) == bad, (exp_id, text)
        assert vf.check_params(exp_id, {**others, key: good})[key] == good
        with pytest.raises(ValueError, match="^" + re.escape(f"{exp_id} needs {text}") + ".*"
                           + re.escape(f"{key} = {bad}") + r".* \(margin -?[0-9.e-]+\)$"):
            vf.check_params(exp_id, {**others, key: bad})
    pinned = {(exp_id, text) for exp_id, text, *_ in NEED_BOUNDARIES}
    for exp_id, exp in vf.EXPERIMENTS.items():
        for text, _ in exp.needs:
            assert any(exp_id == i and text.startswith(t) for i, t in pinned), (exp_id, text)


REJECT_ROW_POINTS = [
    ("thm6-trace", {"s1": 0.0, "s2": -0.1}, "kernel-order-reject"),
    ("thm6-trace", {"s1": -0.5, "s2": -0.5}, "kernel-order-reject"),
    ("prop1", {"s1": -0.5}, "exponent-reject"),
    ("prop1", {"p_exp": 2.0}, "exponent-reject"),
]


@pytest.mark.parametrize("exp_id, overrides, row", REJECT_ROW_POINTS)
def test_reject_rows_hold_inside_each_hypothesis(exp_id, overrides, row):
    # at these parameters k_order = 1 and b1 = 2.4 meet the hypothesis: each
    # row probes a value on the refused side of the run's own boundary
    rep = vf.run_experiment(exp_id, budget="smoke", overrides=overrides)
    [check] = [c for c in rep["checks"] if c["name"] == row]
    assert check["ok"], check
    # prop1 at s1 = -0.5 also fails slot-region-growth, which is not this row
    if exp_id == "thm6-trace":
        assert rep["verdict"] == "pass"


# the key each experiment's reject row moves, and the need that must refuse it
REJECT_ROW_NEEDS = {"lemma4": ("gamma", "gamma > n + 1 + delta"),
                    "lemma5": ("gamma", "n + alpha < 2 * gamma - 1"),
                    "thm6-trace": ("k_order", "k_order > 1 + s1 + s2"),
                    "prop1": ("b1", "p_exp * b1 > 2 + s1")}


@pytest.mark.parametrize("exp_id, overrides, probe", [
    ("lemma4", {}, 1.9), ("lemma5", {}, 0.9), ("thm6-trace", {}, 1), ("prop1", {}, 2.4),
    *((i, o, probe) for (i, o, _), probe in zip(REJECT_ROW_POINTS, (0, 0, 1.4, 1.15))),
])
def test_reject_row_probe_is_refused_by_its_need(monkeypatch, exp_id, overrides, probe):
    # the row steps 0.1 (a float) or to the next integer past the zero of the
    # first need naming its key; at the defaults it probes prop1's b1 = 2.4 and
    # thm6's k_order = 1, and the range never refuses the probe
    key, need = REJECT_ROW_NEEDS[exp_id]
    real, refused = vf.check_params, []

    def recorded(i, over):
        try:
            return real(i, over)
        except ValueError as e:
            refused.append((over[key], str(e)))
            raise

    p = real(exp_id, overrides)
    monkeypatch.setattr(vf, "check_params", recorded)
    assert vf._reject_row("row", exp_id, p, key) == {"name": "row", "ok": True}
    [(value, message)] = refused
    assert type(value) is type(probe) and value == pytest.approx(probe, rel=1e-15)
    assert message.startswith(f"{exp_id} needs {need}, got "), message


def test_box_condition_norm_takes_each_distinct_slot_exponent_once(monkeypatch):
    # thm2's product norm: one cubes-path norm per test field and distinct s
    real, calls = vf.no.bergman_norm, {}

    def counted(f, p, alpha, *args, **kw):
        calls.setdefault(tuple(f.w), []).append(alpha)
        return real(f, p, alpha, *args, **kw)

    monkeypatch.setattr(vf.no, "bergman_norm", counted)
    for s2, per_field in ((0.5, [0.5]), (0.75, [0.5, 0.75])):
        calls.clear()
        rep = vf.run_experiment("thm2-equivalence", budget="smoke", overrides={"s2": s2})
        assert rep["params"]["s2"] == s2
        assert calls and all(alphas == per_field for alphas in calls.values())


def test_lemma4_source_rule_memory_is_bounded_at_n2():
    # the radial source rule is one small table: 1.7 MB peak at smoke
    tracemalloc.start()
    try:
        vf.run_experiment("lemma4", budget="smoke", overrides={"n": 2, "gamma": 4.5})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def _source_integrands(n):
    """lemma4's integrand (m = 0, gamma = n + 2.5) and lemma5's (alpha = 0,
    gamma = n/2 + 1.5)."""
    g4, g5 = n + 2.5, n / 2 + 1.5
    return (lambda t, dsq, s: np.abs(kernels.bergman_from_sq(0, n, dsq, t + s)) ** (g4 / (n + 1)),
            lambda s, dsq, t: (dsq + (t + s) ** 2) ** -g5)


def test_source_series_is_the_radial_rule_of_the_ball():
    xs = 2.0 ** np.arange(-3, 4)
    # the radial weights carry the sphere factor: they sum to the ball's volume
    for n in (1, 2, 3):
        w = quad.radial_quadrature(n, 1.0, 4.0, quad.QuadSpec())[1]
        assert w.sum() == pytest.approx(quad.sphere_area(n) * 4.0 ** n / n, rel=1e-14)
    # n = 1: the nodes of the line rule on [-x_max, x_max], summed over one
    # half-line with weight 2
    region = Region(4096.0, 2.0 ** -12, 4096.0)
    spec = quad.QuadSpec(order=5, t_order=3)
    x, w_x = quad.box_axis_quadrature(region, spec)
    s, w_s = quad.t_quadrature(region, spec)
    w = (w_x[:, None] * w_s).ravel()
    for f in _source_integrands(1):
        line = [w @ f(v, x[:, None] ** 2, s).ravel() for v in xs]
        np.testing.assert_allclose(vf._source_series(1, region, spec, xs, f), line,
                                   rtol=1e-14, atol=0)
    # n = 2, 3: the axisymmetric (u, v) grid of the ball, on a small region;
    # at this spec the two rules were measured 8.7e-5 apart at most (n = 2)
    region = Region(4.0, 2.0 ** -3, 4.0)
    spec = quad.QuadSpec(order=8, t_order=5)
    for n in (2, 3):
        nd = quad.AxisymmetricNodes(region, n, spec)
        w = (nd.w_uv[:, None] * nd.w_s).ravel()
        for f in _source_integrands(n):
            grid = [w @ f(v, nd.dist_sq_to(0.0)[:, None], nd.s).ravel() for v in xs]
            np.testing.assert_allclose(vf._source_series(n, region, spec, xs, f), grid,
                                       rtol=1.5e-4, atol=0)


def test_report_schema_and_verdict():
    rep = vf.run_experiment("whitney", budget="smoke")
    assert list(rep) == ["id", "summary", "params", "verdict", "checks",
                         "fitted_constants", "artifacts"]
    assert rep["verdict"] == "pass"
    assert rep["checks"] and all(set(c) >= {"name", "ok"} for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == len(set(names))


def test_run_experiment_deterministic():
    a = vf.run_experiment("thm2-equivalence", budget="smoke", seed=3)
    b = vf.run_experiment("thm2-equivalence", budget="smoke", seed=3)
    assert util.dumps_json(a) == util.dumps_json(b)


def test_run_suite_preserves_registry_order():
    out = vf.run_suite(["kernels", "whitney"], budget="smoke")
    assert [r["id"] for r in out["reports"]] == ["whitney", "kernels"]
    assert out["verdict"] == "pass"
    assert out["n_pass"] == 2 and out["n_fail"] == 0


def test_run_suite_on_two_threads_equals_one_thread():
    ids = ["whitney", "kernels", "lemma4"]
    one = vf.run_suite(ids, budget="smoke", threads=1)
    two = vf.run_suite(ids, budget="smoke", threads=2)
    assert [r["id"] for r in two["reports"]] == ids
    assert util.dumps_json(two) == util.dumps_json(one)


def test_run_suite_rejects_bad_input():
    with pytest.raises(KeyError):
        vf.run_suite(["whitney", "nope"], budget="smoke")
    with pytest.raises(ValueError):
        vf.run_suite(["whitney", "kernels"], budget="smoke",
                     overrides={"n": 2})
    with pytest.raises(ValueError):
        vf.run_suite(["whitney"], budget="nope")


def test_sanitize_nonfinite_floats():
    out = vf._sanitize({"a": float("nan"), "b": [np.float64(2.0), math.inf],
                        "c": np.bool_(True), "d": (np.int64(3),)})
    assert out["a"] == "nan"
    assert out["b"] == [2.0, "inf"]
    assert out["c"] is True
    assert out["d"] == [3]
    util.dumps_json(out)  # must be serializable


def test_check_row_helpers():
    assert vf._close("x", 1.0, 1.0 + 1e-9, 1e-8)["ok"]
    assert not vf._close("x", float("nan"), 0.0, 1e9)["ok"]
    assert vf._below("x", 0.5, 0.5)["ok"]
    assert not vf._above("x", 0.4, 0.5)["ok"]
    assert vf._within("x", 0.3, 0.1, 0.4)["ok"]
    assert vf._eq("x", (1, 2), (1, 2)) == {
        "name": "x", "value": [1, 2], "target": [1, 2], "ok": True}

    def boom():
        raise KeyError("k")

    assert vf._raises("x", boom, exc=KeyError)["ok"]
    wrong = vf._raises("x", boom, exc=ValueError)
    assert not wrong["ok"] and wrong["raised"] == "KeyError"
    silent = vf._raises("x", lambda: None)
    assert not silent["ok"] and silent["raised"] == "nothing"


def test_failure_is_an_honest_verdict():
    # degrading the trace operator to k = 0 breaks the reproducing identity;
    # thm5's needs refuse that order, so run the experiment's body on it
    with pytest.raises(ValueError, match="k_order = 0"):
        vf.check_params("thm5-trace", {"k_order": 0})
    exp = vf.EXPERIMENTS["thm5-trace"]
    rng = np.random.default_rng([0, zlib.crc32(b"thm5-trace")])
    checks, _, _ = exp.fn(vf.BUDGETS["smoke"], rng, {**exp.defaults, "k_order": 0})
    bad = [c for c in checks if not c["ok"]]
    assert bad and all(c["name"].startswith("roundtrip") for c in bad)


def test_trend_class_matches_the_check_rows():
    # thm8's finite-trend row passes at slope >= FINITE_TREND and its
    # divergent-trend row at slope <= DIVERGENT_TREND: same boundaries here
    assert vf.trend_class(-0.05) == "finite"
    assert vf.trend_class(-0.2) == "divergent"
    assert vf.trend_class(-0.1) == "inconclusive"
    assert vf._above("finite-trend", -0.05, vf.FINITE_TREND)["ok"]
    assert vf._below("divergent-trend", -0.2, vf.DIVERGENT_TREND)["ok"]


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
        sup, _, rows = vf.slice_functional(c[name], sp, 1.0, lam, levels, grid)
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
            vf.slice_functional(sym, 2.0, 1.0, None, 3, g)
