"""Acceptance gate: every promised bound, at its stated scale, with a
pinned tolerance and a runtime ceiling.

Each test re-asserts the binding numbers itself (from direct geometry
or from experiment check rows), so a regressed tolerance cannot hide
behind a passing verdict.  One summary line per test is printed with
the decisive quantities; `pytest -v` adds the pass/fail verdict line.
"""

import json
import math
import time

import numpy as np
import pytest

from harmspace import cli
from harmspace import verify as vf
from harmspace.geometry import (
    Region,
    box_centers,
    box_corners,
    box_volumes,
    clipped_corners,
    enlarged_corners,
    overlap_counts,
    sample_region,
    weighted_measures,
    whitney_cubes,
)


def _named(report):
    return {c["name"]: c for c in report["checks"]}


def _done(t0, limit, label, detail):
    elapsed = time.perf_counter() - t0
    print(f"PASS {label}: {detail} [{elapsed:.1f}s]")
    assert elapsed < limit, f"{label} took {elapsed:.1f}s (ceiling {limit}s)"


def _pairwise_max_overlap(lo, hi):
    worst = 0.0
    for start in range(0, len(lo), 256):
        rows = slice(start, min(start + 256, len(lo)))
        inter = (np.minimum(hi[rows, None, :], hi[None, :, :])
                 - np.maximum(lo[rows, None, :], lo[None, :, :]))
        vol = np.clip(inter, 0.0, None).prod(axis=2)
        idx = np.arange(rows.start, rows.stop)
        vol[np.arange(len(idx)), idx] = 0.0
        worst = max(worst, float(vol.max()))
    return worst


def test_box_cover_geometry_is_exact():
    t0 = time.perf_counter()
    overlap_seen = {}
    for n, x_max in ((1, 20.0), (2, 2.0)):
        region = Region(x_max, 2.0 ** -4, 32.0)
        cubes = whitney_cubes(region, n)
        assert np.unique(cubes.level).tolist() == list(range(-4, 5))
        lo, hi = box_corners(cubes)

        # interiors are pairwise disjoint: every intersection has zero volume
        assert _pairwise_max_overlap(lo, hi) == 0.0

        # the boxes cover the region exactly, and each sample point once
        vol = sum(box_volumes(*clipped_corners(lo, hi, region)).tolist())
        full = (2.0 * x_max) ** n * (32.0 - 2.0 ** -4)
        assert abs(vol / full - 1.0) <= 1e-12
        pts = sample_region(region, n, 2500, seed=7)
        counts = overlap_counts(pts, lo, hi)
        assert counts.min() == 1 and counts.max() == 1

        # diameter over the distance to t = 0, which the bottom face attains
        dev = np.max(np.abs(np.linalg.norm(hi - lo, axis=1) / lo[:, -1] - math.sqrt(n + 1)))
        assert dev <= 1e-13

        # bounded overlap of the 1.25-enlarged boxes, corner probes included
        first = np.flatnonzero(cubes.level == 0)[:8]
        probes = np.stack([lo[first] + 1e-6, hi[first] - 1e-6], axis=1).reshape(-1, n + 1)
        counts = overlap_counts(np.vstack([pts, probes]), *enlarged_corners(cubes))
        overlap_seen[n] = int(counts.max())
        assert overlap_seen[n] <= (4 if n == 1 else 2 ** (n + 1))

        # weighted box measure is the exact power of the side length
        for lam in (-0.5, 0.0, 1.0, 2.0):
            r = (weighted_measures(lo, hi, lam)
                 / np.array([eta ** (n + 1 + lam) for eta in box_centers(cubes)[:, -1].tolist()]))
            assert r.max() / r.min() - 1.0 <= 1e-12
    _done(t0, 10.0, "box cover geometry",
          f"disjoint, covering, diam/dist exact; overlap max {overlap_seen}")


def test_kernel_calculus_matches_finite_differences():
    t0 = time.perf_counter()
    rows = _named(vf.run_experiment("kernels", budget="smoke"))
    ladders = [r for name, r in rows.items() if "-ladder-" in name]
    assert len(ladders) == 15 + 8  # q_l for l<=4, n<=3; f_{w,l} for l<=4, n in {2,3}
    for r in ladders:
        assert r["tol"] == 1e-6 and abs(r["value"]) <= 1e-6
    laps = [r for name, r in rows.items() if name.startswith("laplacian-")]
    assert len(laps) == 13
    for r in laps:
        assert r["ok"]
        if "lo" in r:  # residual ratio under h -> h/2, target 4
            assert 3.2 <= r["value"] <= 4.8
    for n in (1, 2, 3):
        r = rows[f"poisson-mass-n{n}"]
        assert r["tol"] == 1e-4 and abs(r["value"] - 1.0) <= 1e-4
    assert all(r["ok"] for r in rows.values())
    _done(t0, 30.0, "kernel calculus",
          f"{len(ladders)} derivative ladders <= 1e-6, unit mass <= 1e-4")


SLOPE_TARGETS = {
    "lemma4": lambda p: p["delta"] - p["gamma"] + p["n"] + 1,
    "lemma5": lambda p: p["alpha"] + p["n"] + 1 - 2.0 * p["gamma"],
    "eq14-scaling": lambda p: p["n"] / p["p_exp"] - (p["n"] - 1 + p["l"]),
    "eq15-scaling": lambda p: (p["n"] / p["q_exp"] - (p["n"] - 1 + p["l"])
                               + p["alpha"]),
    "thm4-scaling": lambda p: p["n"] - p["p_exp"] * (p["n"] - 1 + p["l"]
                                                     - p["alpha"]),
}


def test_scaling_exponents_match_predictions():
    t0 = time.perf_counter()
    slopes = {}
    for exp_id, predict in SLOPE_TARGETS.items():
        # eq14 fits against t + s, so four doublings need the wider budget
        budget = "standard" if exp_id == "eq14-scaling" else "smoke"
        rep = vf.run_experiment(exp_id, budget=budget)
        rows = _named(rep)
        fit = rep["artifacts"]["fit"]["rows"]
        assert fit[-1][0] / fit[0][0] >= 16.0 - 1e-9  # >= 4 dyadic decades
        target = predict(rep["params"])
        assert rows["slope"]["target"] == pytest.approx(target, abs=1e-12)
        assert rows["slope"]["tol"] == 0.1
        assert abs(rows["slope"]["value"] - target) <= 0.1
        assert rows["slope-drift"]["bound"] == 0.05
        assert rows["slope-drift"]["value"] <= 0.05
        assert rows["fit-residual"]["ok"]
        slopes[exp_id] = round(rows["slope"]["value"], 4)
    _done(t0, 120.0, "scaling exponents",
          f"slopes within 0.1 and drift under 0.05: {slopes}")


def test_extension_trace_round_trip():
    t0 = time.perf_counter()
    rep = vf.run_experiment("thm5-trace", budget="smoke")
    rows = _named(rep)
    errs = {}
    for m in (1, 2):
        r = rows[f"roundtrip-m{m}"]
        assert r["bound"] == 0.02 and r["value"] <= 0.02
        errs[m] = r["value"]
    pts = rep["artifacts"]["roundtrip"]["rows"]
    assert len(pts) == 40  # 20 interior points for each slot count
    assert rep["params"]["l"] == 0
    assert all(rows[k]["ok"] for k in ("mean-slot-collapse",
                                       "diagonal-matches-trace",
                                       "slot-symmetry"))
    _done(t0, 120.0, "extension-trace round trip",
          f"worst relative error m=1: {errs[1]:.2e}, m=2: {errs[2]:.2e}")


PANEL = ("zero", "single-atom", "dyadic-density", "boundary-slice",
         "ray-origin", "ray-offset")
VIOLATORS = ("ray-origin", "ray-offset")


def test_measure_classification_and_embedding_agree():
    t0 = time.perf_counter()
    growth = {}
    for exp_id in ("thm2-equivalence", "thm3-carleson"):
        rows = _named(vf.run_experiment(exp_id, budget="smoke"))
        for label in PANEL:
            assert rows[f"classes-agree-{label}"]["ok"], (exp_id, label)
            assert rows[f"expected-{label}"]["ok"], (exp_id, label)
        for label in VIOLATORS:
            for kind in ("cond", "emb"):
                r = rows[f"{kind}-growth-{label}"]
                assert r["bound"] == 10.0 and r["value"] >= 10.0
                growth[f"{exp_id[:4]}-{kind}-{label}"] = r["value"]
    worst = min(growth.values())
    _done(t0, 120.0, "measure classification",
          f"6-measure panel agrees twice; violator growth >= {worst:.0f}x")


def test_distance_functionals():
    t0 = time.perf_counter()
    rows = _named(vf.run_experiment("thm7-distance", budget="smoke"))
    r = rows["split-reconstruction"]
    assert r["bound"] == 1e-3 and r["value"] <= 1e-3
    s = rows["sup-bound-stability"]
    assert s["tol"] == 0.05 and abs(s["value"] - 1.0) <= 0.05
    d2 = rows["power-grid-distance"]
    assert d2["ok"] and d2["value"] == d2["target"]
    assert d2["target"] / 2.0 < 1.0 < d2["target"]  # one grid step around 1
    assert rows["power-divergent-below-one"]["ok"]
    assert rows["member-never-divergent"]["ok"]
    assert rows["member-grid-distance"]["ok"]
    _done(t0, 180.0, "distance functionals",
          f"split error {r['value']:.2e}, d2 lands at grid point "
          f"{d2['value']:.3f} beside 1")


def test_ball_series_and_multiplier_functionals():
    t0 = time.perf_counter()
    basis = _named(vf.run_experiment("ball-basis", budget="smoke"))
    vals = {}
    for n in (2, 3):
        g = basis[f"gram-n{n}"]
        assert g["bound"] == 1e-8 and g["value"] <= 1e-8
        ps = basis[f"poisson-series-n{n}"]
        assert ps["bound"] == 1e-6 and ps["value"] <= 1e-6
        for rr in ("0.4", "0.9"):
            pv = basis[f"parseval-n{n}-r{rr}"]
            assert pv["tol"] == 1e-8 and abs(pv["value"] - 1.0) <= 1e-8
    norms = _named(vf.run_experiment("ball-norms", budget="smoke"))
    for n in (2, 3):
        r = norms[f"gradient-norms-agree-n{n}"]
        assert r["tol"] == 1e-3 and abs(r["value"] - 1.0) <= 1e-3
        vals[f"grad-ratio-n{n}"] = r["value"]
    conv = norms["slice-convolution-identity"]
    assert conv["bound"] == 1e-4 and conv["value"] <= 1e-4
    for exp_id, table in (("thm8-multiplier", "ratio-table-finite"),
                          ("thm9-multiplier", "slice-table-finite")):
        rows = _named(vf.run_experiment(exp_id, budget="smoke"))
        assert rows[table]["ok"]
        cap = rows["functional-cap-stable"]  # doubled degree cap
        assert cap["tol"] == 0.05 and abs(cap["value"] - 1.0) <= 0.05
        assert all(r["ok"] for r in rows.values())
    assert rows["end-ratio-finite"]["ok"]
    _done(t0, 180.0, "ball series and multipliers",
          f"gram/parseval/series within bounds, gradient-norm ratios {vals}")


def test_cli_suite_is_deterministic(tmp_path, capsys):
    t0 = time.perf_counter()

    def run_into(sub):
        d = tmp_path / sub
        code = cli.main(["verify", "all", "--budget", "smoke",
                         "--out", str(d)])
        capsys.readouterr()
        assert code == 0
        summary = [ln for ln in
                   (d / "verify-summary.json").read_text().splitlines()
                   if '"timestamp"' not in ln]
        data = json.loads((d / "verify-summary.json").read_text())
        assert data["verdict"] == "pass" and data["n_fail"] == 0
        csvs = {p.name: p.read_bytes() for p in d.iterdir()
                if p.suffix == ".csv"}
        return summary, csvs

    first, second = run_into("a"), run_into("b")
    assert first[0] == second[0]
    assert sorted(first[1]) == sorted(second[1])
    for name in first[1]:
        assert first[1][name] == second[1][name], name
    _done(t0, 300.0, "full-suite determinism",
          f"two runs byte-identical: summary plus {len(first[1])} CSV traces")
