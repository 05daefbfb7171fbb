"""Harness contracts: registry, budgets, determinism, report shape."""

import itertools
import math
import tracemalloc

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


def test_reject_rows_alter_a_parameter_past_its_need():
    # the precondition-reject, kernel-order-reject and exponent-reject rows
    for exp_id, key, value in (("lemma4", "gamma", 2.0), ("lemma5", "gamma", 1.0),
                               ("thm6-trace", "k_order", 1), ("prop1", "b1", 2.4)):
        with pytest.raises(ValueError, match=f"^{exp_id} needs .*{key} = {value}"):
            vf.check_params(exp_id, {key: value})


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
    # degrading the trace operator to k = 0 breaks the reproducing identity
    rep = vf.run_experiment("thm5-trace", budget="smoke",
                            overrides={"k_order": 0})
    assert rep["verdict"] == "fail"
    bad = [c for c in rep["checks"] if not c["ok"]]
    assert bad and all(c["name"].startswith("roundtrip") for c in bad)


def test_trend_class_matches_the_check_rows():
    # thm8's finite-trend row passes at slope >= FINITE_TREND and its
    # divergent-trend row at slope <= DIVERGENT_TREND: same boundaries here
    assert vf.trend_class(-0.05) == "finite"
    assert vf.trend_class(-0.2) == "divergent"
    assert vf.trend_class(-0.1) == "inconclusive"
    assert vf._above("finite-trend", -0.05, vf.FINITE_TREND)["ok"]
    assert vf._below("divergent-trend", -0.2, vf.DIVERGENT_TREND)["ok"]


def test_slice_functional_builds_one_term_per_degree(monkeypatch):
    calls = []
    einsum = np.einsum

    def counting(spec, *ops, **kw):
        calls.append(spec)
        return einsum(spec, *ops, **kw)

    monkeypatch.setattr(np, "einsum", counting)
    cap = 12
    c = bl.Multiplier.diagonal(2, cap, (1.0 + np.arange(cap + 1.0)) ** -2)
    grid = bl.SphereGrid(2, 4 * cap + 8)
    for levels in (1, 3, 8):
        calls.clear()
        _, _, rows = vf.slice_functional(c, 2.0, 1.0, None, levels, grid)
        assert len(rows) == levels
        assert calls == ["j,jx,jy->xy"] * (cap + 1), levels
