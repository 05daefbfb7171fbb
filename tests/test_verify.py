"""Harness contracts: registry, budgets, determinism, report shape."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from harmspace import ball as bl
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
    for bad in ("nan", float("inf"), "-inf"):
        with pytest.raises(ValueError, match="finite"):
            vf.run_experiment("lemma4", budget="smoke", overrides={"gamma": bad})


def test_override_coercion_echoed_in_params():
    # string values coerce to the default's type before the run
    rep = vf.run_experiment("lemma4", budget="smoke",
                            overrides={"n": "2", "gamma": "4.5"})
    assert rep["params"]["n"] == 2
    assert rep["params"]["gamma"] == 4.5
    assert rep["params"]["budget"] == "smoke"
    assert rep["params"]["seed"] == 0


def test_lemma4_source_rule_memory_is_bounded_at_n2(monkeypatch):
    # at n = 2 the refined smoke rule has 16.6M nodes (133 MB per float
    # array); two fit points keep the run short
    smoke = dataclasses.replace(vf.BUDGETS["smoke"], fit_points=2)
    monkeypatch.setitem(vf.BUDGETS, "smoke", smoke)
    tracemalloc.start()
    try:
        vf.run_experiment("lemma4", budget="smoke", overrides={"n": 2, "gamma": 4.5})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * vf.SOURCE_BLOCK  # a dozen float blocks, 50 MB


def test_every_n1_source_rule_is_one_block():
    # the n = 1 lemma4/lemma5 reports rely on it: one dot per fit point
    region = Region(4096.0, 2.0 ** -12, 4096.0)
    for b in vf.BUDGETS.values():
        spec = quad.QuadSpec(order=b.order, t_order=b.t_order)
        for sp in (spec, spec.refined(2)):
            size = (len(quad.box_axis_quadrature(region, sp)[0])
                    * len(quad.t_quadrature(region, sp)[0]))
            assert size <= vf.SOURCE_BLOCK


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
