"""In-process CLI runs: exit codes, artifacts, config precedence."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmspace import ball as bl
from harmspace import carleson as ca
from harmspace import cli, verify
from harmspace import norms as no
from harmspace.geometry import (
    Region, box_centers, box_corners, overlap_counts, whitney_count, whitney_cubes,
)


def run(tmp_path, *argv):
    return cli.main(list(argv) + ["--out", str(tmp_path)])


def read_summary(tmp_path, command):
    with open(tmp_path / f"{command}-summary.json") as fh:
        return json.load(fh)


def test_whitney_command_writes_summary_and_csv(tmp_path, capsys):
    assert run(tmp_path, "whitney", "--n", "1", "--lam", "2.0") == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "boxes" in out
    summary = read_summary(tmp_path, "whitney")
    assert "timestamp" in summary
    cubes = whitney_cubes(Region(4.0, 2.0 ** -4, 4.0), 1)
    assert summary["count"] == len(cubes)
    # the summary's text is json.dumps of it with one dict per box
    dicts = [{"level": j, "index": k, "center": c, "side": s} for j, k, c, s
             in zip(cubes.level.tolist(), cubes.index.tolist(),
                    box_centers(cubes).tolist(), cubes.side.tolist())]
    want = json.dumps({**summary, "cubes": dicts}, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "whitney-summary.json").read_text() == want
    lines = (tmp_path / "whitney-cubes.csv").read_text().strip().splitlines()
    assert len(lines) == len(cubes) + 1
    assert lines[0] == "level,side,center_0,center_t,weighted_measure"


def test_argparse_rejects_unknown_command_and_budget():
    with pytest.raises(SystemExit) as e:
        cli.main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "whitney", "--budget", "enormous"])
    assert e.value.code == 2


def test_usage_errors_exit_two(tmp_path, capsys):
    # an expansion file with a NaN coefficient (json writes the NaN token)
    f = bl.Expansion.random(2, 2, seed=5).to_json()
    (tmp_path / "g.json").write_text(json.dumps(f))
    f["coeffs"][1][0][0] = float("nan")
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(f))
    cases = [
        ["verify", "no-such-experiment"],
        ["verify", "whitney", "--bogus", "3"],
        ["verify", "lemma4", "--budget", "smoke", "--gamma", "abc"],
        ["verify", "whitney", "kernels", "--n", "2"],
        ["verify", "whitney", "--n"],
        ["norm", "--space", "sup", "--field", "nosuch:1"],
        ["norm", "--space", "sup", "--field", "power"],
        ["norm", "--space", "tl", "--field", "power:1.0", "--t-min", "8",
         "--t-max", "1"],
        ["ball", "functional"],
        ["ball", "convolve", "--left", "only.json"],
        ["ball", "multiplier-check", "--symbol", "wiggle:2"],
        ["carleson", "--measure", str(tmp_path / "absent.json"),
         "--condition", "single"],
        ["verify", "lemma6", "--n", "2.7", "--dry-run"],
        ["verify", "lemma6", "--budget", "smoke", "--n", "0"],
        ["verify", "lemma6", "--budget", "smoke", "--n", "-1"],
        ["verify", "thm5-trace", "--k_order", "3", "--dry-run"],
        ["verify", "eq14-scaling", "--budget", "smoke", "--s", "-1"],
        ["verify", "eq14-scaling", "--budget", "smoke", "--n", "1"],
        ["verify", "thm4-scaling", "--budget", "smoke", "--l", "3", "--n", "1"],
        ["ball", "convolve", "--left", str(nan), "--right", str(tmp_path / "g.json")],
        ["ball", "lambda", "--expansion", str(nan)],
    ]
    for argv in cases:
        assert run(tmp_path / "out", *argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if "abc" in argv:
            assert "parameter 'gamma' must be a number, got 'abc'" in err, err
        elif "2.7" in argv:
            assert "parameter 'n' must be an integer, got '2.7'" in err, err
        elif "lemma6" in argv:
            assert "lemma6 needs n in 1..4" in err, err
        elif "thm5-trace" in argv:
            assert "thm5-trace needs 1 <= k_order <= 2" in err and "k_order = 3" in err, err
        elif argv[1] in ("eq14-scaling", "thm4-scaling"):
            # the source's dilation height, and the dimension the test fields need
            need, got = ("s > 0", "s = -1.0") if "--s" in argv else ("n >= 2", "n = 1")
            assert f"{argv[1]} needs {need}" in err and got in err, err
        if str(nan) in argv:
            assert f"{nan} is not a valid expansion file" in err and "finite" in err, err
    assert not (tmp_path / "out").exists()


def test_non_finite_norm_exponents_exit_two(tmp_path, capsys):
    base = ["norm", "--space", "bergman", "--field", "test-fn:1", "--n", "2",
            "--x-max", "1"]
    cases = [["--p", "nan", "--alpha", "0.5"], ["--p", "2", "--alpha", "nan"],
             ["--p", "inf", "--alpha", "0.5"]]
    for extra in cases:
        assert run(tmp_path, *base, *extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    # infinite mixed-norm exponents are unsupported: a usage error too
    assert run(tmp_path, "norm", "--space", "mixed", "--field", "poisson",
               "--n", "2", "--p", "inf") == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, name", [
    (["--space", "slice", "--q", "2000"], "slice"),
    (["--space", "bergman", "--p", "2000", "--x-max", "2"], "Bergman"),
    (["--space", "mixed", "--q", "2000"], "mixed"),
    (["--space", "tl", "--p", "2000"], "Triebel-Lizorkin"),
    # only some slices underflow: this read 0.1717, where the scaled sum
    # gives 0.2573
    (["--space", "mixed", "--q", "700", "--t-min", "0.6"], "mixed"),
], ids=["slice", "bergman", "mixed", "tl", "mixed-some-slices"])
def test_underflowed_norms_exit_two_without_a_summary(tmp_path, capsys, flags, name):
    # the later --t-min wins
    assert run(tmp_path, "norm", "--field", "bergman-q:1", "--n", "2", "--t-min", "1",
               *flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: the {name} norm underflows in float64")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    # thm5's needs refuse k_order = 0, whose truncated round trip fails (see
    # test_usage_errors_exit_two); with them lifted the run still ends as a
    # failing verdict and exit 1
    exp = verify.EXPERIMENTS["thm5-trace"]
    monkeypatch.setitem(verify.EXPERIMENTS, "thm5-trace", dataclasses.replace(exp, needs=()))
    code = run(tmp_path, "verify", "thm5-trace", "--budget", "smoke",
               "--k-order", "0")
    assert code == 1
    out = capsys.readouterr().out
    assert "thm5-trace: fail" in out
    summary = read_summary(tmp_path, "verify")
    assert summary["verdict"] == "fail"
    assert summary["overrides"] == {"k_order": "0"}


def test_one_parser_per_process(tmp_path, monkeypatch, capsys):
    # parsing never changes the parser, so main builds it once; a new
    # $HARMSPACE_OUT, which sets the default of --out, builds another
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["whitney", "--n", "1", "--dry-run"]) == 0
        assert len(built) == 1
        monkeypatch.setenv("HARMSPACE_OUT", str(tmp_path / "envdir"))
        assert cli.main(["whitney", "--n", "1"]) == 0
        assert len(built) == 2 and (tmp_path / "envdir" / "whitney-summary.json").exists()
    finally:
        cli._parser.cache_clear()


def test_verify_success_writes_traces(tmp_path, capsys):
    assert run(tmp_path, "verify", "whitney", "--budget", "smoke") == 0
    assert "whitney: pass" in capsys.readouterr().out
    summary = read_summary(tmp_path, "verify")
    assert summary["verdict"] == "pass" and summary["ids"] == ["whitney"]
    names = {p.name for p in tmp_path.iterdir()}
    assert any(n.startswith("whitney-") and n.endswith(".csv") for n in names)


def test_dry_run_prints_config_and_writes_nothing(tmp_path, capsys):
    code = run(tmp_path, "verify", "whitney", "--budget", "smoke", "--dry-run")
    assert code == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["command"] == "verify"
    assert cfg["ids"] == ["whitney"] and cfg["budget"] == "smoke"
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_a_negative_seed_and_no_threads(tmp_path, capsys):
    # a usage error that names the flag, with or without --dry-run
    for flag, value, least in (("--seed", "-1", 0), ("--threads", "0", 1),
                               ("--threads", "-3", 1)):
        for dry in ((), ("--dry-run",)):
            assert run(tmp_path, "verify", "whitney", "--budget", "smoke",
                       flag, value, *dry) == 2
            assert capsys.readouterr().err == f"error: {flag} must be >= {least}, got {value}\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_merges_under_explicit_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "lam": 3.0}))
    code = run(tmp_path, "whitney", "--n", "1", "--config", str(cfg),
               "--dry-run")
    assert code == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["n"] == 1  # explicit flag beats config
    assert resolved["lam"] == 3.0  # config fills the rest
    cfg.write_text(json.dumps({"volume": 9}))
    assert run(tmp_path, "whitney", "--n", "1", "--config", str(cfg)) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_out_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HARMSPACE_OUT", str(tmp_path / "envdir"))
    assert cli.main(["whitney", "--n", "1"]) == 0
    assert (tmp_path / "envdir" / "whitney-summary.json").exists()


def test_norm_command_matches_library(tmp_path, capsys):
    code = run(tmp_path, "norm", "--space", "sup", "--field", "power:1.0",
               "--lam", "1.0", "--n", "1")
    assert code == 0
    assert read_summary(tmp_path, "norm")["value"] == pytest.approx(1.0, abs=1e-12)
    capsys.readouterr()


def test_carleson_command_matches_library(tmp_path, capsys):
    mu = ca.AtomicMeasure([[0.5], [1.5]], [0.5, 1.0], [1.0, 0.25], "pair")
    mpath = tmp_path / "mu.json"
    mpath.write_text(json.dumps(mu.to_json()))
    code = run(tmp_path, "carleson", "--measure", str(mpath),
               "--condition", "single", "--alpha", "1.5")
    assert code == 0
    region = Region(4.0, 2.0 ** -4, 4.0)
    rep = ca.condition_single(mu, whitney_cubes(region, 1), 1.5)
    summary = read_summary(tmp_path, "carleson")
    assert summary["constant"] == pytest.approx(rep.constant, rel=1e-14)
    lines = (tmp_path / "carleson-trace.csv").read_text().strip().splitlines()
    assert len(lines) == len(rep) + 1
    capsys.readouterr()


def test_carleson_over_a_degenerate_t_range_exits_two(tmp_path, capsys):
    # no boxes to test: the same rejection as the norm over that region
    mpath = tmp_path / "mu.json"
    mpath.write_text(json.dumps(
        ca.AtomicMeasure([[0.5]], [1.0], [1.0], "one").to_json()))
    out = tmp_path / "out"
    region = ["--t-min", "8", "--t-max", "1", "--out", str(out)]
    assert cli.main(["norm", "--space", "bergman", "--field", "poisson", "--n", "1",
                     *region]) == 2
    norm_err = capsys.readouterr().err
    for t_max in ("1", "8"):
        region[3] = t_max
        assert cli.main(["carleson", "--measure", str(mpath), "--condition", "single",
                         "--alpha", "1", *region]) == 2
        captured = capsys.readouterr()
        assert captured.err == norm_err == "error: degenerate t range\n"
        assert "constant" not in captured.out
    assert not out.exists()


def test_carleson_warns_of_atoms_outside_the_region(tmp_path, capsys):
    # atoms in no box of the region: one below it, one beside it past every
    # box; an atom past x_max inside a box that overhangs the region counts
    mpath = tmp_path / "mu.json"
    atoms = ca.AtomicMeasure([[0.5], [9.0], [1.5], [0.25]], [1.0, 5.0, 5.0, 6.0],
                             [1.0, 1.0, 1.0, 1.0], "mixed")
    mpath.write_text(json.dumps(atoms.to_json()))
    argv = ["carleson", "--measure", str(mpath), "--condition", "single", "--alpha", "1",
            "--x-max", "1", "--t-min", "4", "--t-max", "8"]
    assert run(tmp_path / "a", *argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: 2 of 4 atoms lie outside the region and are"
                            " not counted\n")
    summary = read_summary(tmp_path / "a", "carleson")
    assert summary["constant"] > 0.0 and not any("atom" in key for key in summary)
    # the one atom of a measure at x = 0.5, t = 1, under the region 4 <= t <= 8
    mpath.write_text(json.dumps(ca.AtomicMeasure([[0.5]], [1.0], [1.0]).to_json()))
    assert run(tmp_path / "b", *argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: 1 of 1 atoms lie outside the region and are"
                            " not counted\n")
    assert "constant=0.0" in captured.out
    # no warning when every atom is counted
    mpath.write_text(json.dumps(ca.AtomicMeasure([[0.5]], [5.0], [1.0]).to_json()))
    assert run(tmp_path / "c", *argv) == 0
    assert capsys.readouterr().err == ""
    # the count equals that of the atoms no box holds, box by box, for a
    # seeded measure over and around a region at n = 2
    rng = np.random.default_rng(7)
    mu = ca.AtomicMeasure(rng.uniform(-3.0, 3.0, (300, 2)),
                          np.exp(rng.uniform(np.log(0.02), np.log(12.0), 300)),
                          np.ones(300))
    mpath.write_text(json.dumps(mu.to_json()))
    region = Region(1.3, 0.1, 5.0)
    held = overlap_counts(mu.points, *box_corners(whitney_cubes(region, 2)))
    lost = int(np.count_nonzero(held == 0))
    assert run(tmp_path / "d", "carleson", "--measure", str(mpath), "--condition",
               "single", "--x-max", "1.3", "--t-min", "0.1", "--t-max", "5") == 0
    assert 0 < lost < 300
    assert capsys.readouterr().err == (f"warning: {lost} of 300 atoms lie outside the"
                                       " region and are not counted\n")


def test_verify_overrides_past_the_kernel_orders_exit_two(tmp_path, capsys):
    # a kernel order past the parameter table's is a usage error, before
    # any polynomial is built (l = 1e308 used to keep the profile builder
    # busy for good); so is a dimension below 1.  The library's own limit
    # for the Bergman kernel Q_l, which takes R_{l+1}, is 127
    cfg = tmp_path / "c.json"
    for exp_id, overrides, says in (("eq14-scaling", {"l": 1e308}, "needs l in 0..16"),
                                    ("eq14-scaling", {"l": 129}, "needs l in 0..16"),
                                    ("thm3-carleson", {"l": 128}, "needs l in 0..16"),
                                    ("thm4-scaling", {"n": -1, "l": 3}, "needs n in 1..4")):
        cfg.write_text(json.dumps({"overrides": overrides}))
        assert run(tmp_path, "verify", exp_id, "--budget", "smoke",
                   "--config", str(cfg)) == 2, overrides
        assert says in capsys.readouterr().err, overrides
    assert not (tmp_path / "verify-summary.json").exists()
    assert run(tmp_path, "norm", "--space", "bergman", "--field", "bergman-q:128") == 2
    assert "Bergman order must be in 0..127, got 128" in capsys.readouterr().err


def test_verify_config_int_override_must_be_integral(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"overrides": {"n": 2.7}}))
    assert run(tmp_path, "verify", "lemma6", "--budget", "smoke", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'n'" in err and "integer" in err
    assert not (tmp_path / "verify-summary.json").exists()
    cfg.write_text(json.dumps({"overrides": {"n": 2.0}}))
    assert run(tmp_path, "verify", "lemma6", "--budget", "smoke", "--config", str(cfg)) == 0
    [report] = read_summary(tmp_path, "verify")["reports"]
    assert report["params"]["n"] == 2 and type(report["params"]["n"]) is int
    capsys.readouterr()


def test_verify_overrides_outside_the_table_exit_two_before_the_run(
        tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the table must reject the override before this")

    for exp_id, key, value in (("thm2-equivalence", "m", "0"), ("eq14-scaling", "n", "-1"),
                               ("lemma2", "alpha", "1e308"),
                               ("eq15-scaling", "p-exp", "1e-300"),
                               ("thm2-equivalence", "p-exp", "1e308"),
                               ("lemma5", "gamma", "1e308")):
        exp = verify.EXPERIMENTS[exp_id]
        monkeypatch.setitem(verify.EXPERIMENTS, exp_id,
                            dataclasses.replace(exp, fn=unreachable))
        name = key.replace("-", "_")
        assert run(tmp_path, "verify", exp_id, "--budget", "smoke", f"--{key}", value) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {exp_id} needs {name} in "), err
        assert f"got {name} = " in err, err
        # a dry run rejects what a run does
        assert run(tmp_path, "verify", exp_id, f"--{key}", value, "--dry-run") == 2
        assert capsys.readouterr().err == err
    assert not list(tmp_path.iterdir())


def test_verify_never_abbreviates_an_override(tmp_path, capsys):
    # --s is thm10's s, not a prefix of --seed
    assert run(tmp_path, "verify", "thm10-functionals", "--s", "3", "--dry-run") == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["overrides"] == {"s": "3"} and cfg["seed"] == 0
    assert run(tmp_path, "verify", "thm10-functionals", "--s=2.0", "--dry-run") == 0
    assert json.loads(capsys.readouterr().out)["overrides"] == {"s": "2.0"}
    assert run(tmp_path, "verify", "thm10-functionals", "--s", "1", "--dry-run") == 2
    assert "thm10-functionals needs s > 1, got s = 1.0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_ball_convolve_round_trips_expansion(tmp_path, capsys):
    f = bl.Expansion.random(2, 4, seed=5)
    g = bl.Expansion.random(2, 4, seed=6)
    (tmp_path / "f.json").write_text(json.dumps(f.to_json()))
    (tmp_path / "g.json").write_text(json.dumps(g.to_json()))
    code = run(tmp_path, "ball", "convolve", "--left", str(tmp_path / "f.json"),
               "--right", str(tmp_path / "g.json"))
    assert code == 0
    summary = read_summary(tmp_path, "ball")
    got = bl.Expansion.from_json(summary["expansion"])
    want = bl.convolve(f, g)
    assert all(np.allclose(a, b, rtol=1e-15)
               for a, b in zip(got.coeffs, want.coeffs))
    capsys.readouterr()


def test_verify_output_bytes_deterministic(tmp_path, capsys):
    def run_into(sub, threads):
        d = tmp_path / sub
        assert run(d, "verify", "whitney", "kernels", "--budget", "smoke",
                   "--threads", threads) == 0
        capsys.readouterr()
        summary = [ln for ln in (d / "verify-summary.json").read_text().splitlines()
                   if '"timestamp"' not in ln]
        csvs = {p.name: p.read_bytes() for p in d.iterdir() if p.suffix == ".csv"}
        return summary, csvs

    first = run_into("a", "1")
    assert first == run_into("b", "1")
    # experiments run on two threads write the same bytes
    assert first == run_into("c", "2")


def test_degenerate_t_range_on_cubes_path_exits_two(tmp_path, capsys):
    base = ["norm", "--space", "bergman", "--field", "test-fn:1", "--n", "2",
            "--p", "2", "--alpha", "0.5", "--x-max", "1"]
    for lo, hi in (("8", "1"), ("2", "2")):
        assert run(tmp_path, *base, "--t-min", lo, "--t-max", hi) == 2, (lo, hi)
        err = capsys.readouterr().err
        assert err.startswith("error:") and "degenerate" in err
    assert not (tmp_path / "norm-summary.json").exists()


def test_non_finite_inputs_exit_two(tmp_path, capsys):
    atoms = [{"x": [0.0], "t": 1.0, "w": 1.0}, {"x": [0.5], "t": 0.5, "w": 2.0}]
    for key, bad in (("w", float("nan")), ("t", float("inf")), ("x", [float("nan")])):
        broken = [dict(atoms[0]), atoms[1]]
        broken[0][key] = bad
        path = tmp_path / f"bad-{key}.json"
        path.write_text(json.dumps({"atoms": broken}))  # NaN/Infinity tokens
        assert run(tmp_path, "carleson", "--measure", str(path),
                   "--condition", "single", "--x-max", "1") == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
    for value in ("nan", "inf", "-inf"):
        assert run(tmp_path, "verify", "lemma4", "--budget", "smoke",
                   "--gamma", value) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("error: lemma4 needs gamma in "), err


def test_lemma6_over_its_cover_limit_exits_two(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the limit must reject the request before this")

    # n = 4 needs a 1.4e9-boolean mask matrix at smoke: lemma6's need refuses
    # it, dry run or not, before any experiment code runs
    monkeypatch.setattr(ca, "lemma6_cover", unreachable)
    for extra in (["--budget", "smoke"], ["--budget", "deep", "--dry-run"]):
        assert run(tmp_path, "verify", "lemma6", *extra, "--n", "4") == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("error: lemma6 needs n <= 3") and "n = 4" in err, err
        assert "mask matrix" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_size_and_range_guards_exit_two(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the guard must reject the request before this")

    # nothing may be built: the guard reads the sizes off the command line
    monkeypatch.setattr(bl, "sphere_grid", unreachable)
    monkeypatch.setattr(bl, "diagonal_symbol", unreachable)
    cases = [
        ["ball", "multiplier-check", "--cap", "100000"],  # 298 GiB zonal table
        ["ball", "multiplier-check", "--cap", "1", "--resolution", str(5 * 10**6)],
        ["ball", "multiplier-check", "--cap", str(10**8), "--resolution", "8"],
        # 69 MiB at one level, but the default 8 levels hold 8 pairs of rows
        ["ball", "multiplier-check", "--cap", "1", "--resolution", str(10**6)],
        # a 160 MB symbol: with the Lambda multiplier, the zonal table and
        # the per-level coefficients, 1.2 GiB
        ["ball", "multiplier-check", "--cap", str(5 * 10**6), "--resolution", "8"],
        ["ball", "multiplier-check", "--cap", "-1"],
        ["ball", "multiplier-check", "--resolution", "-5"],
        ["whitney", "--n", "0"],
        ["norm", "--space", "bergman", "--field", "poisson", "--n", "0"],
        ["norm", "--space", "bergman", "--field", "poisson", "--n", "-1"],
        ["norm", "--space", "slice", "--field", "poisson", "--n", "0"],
    ]
    for argv in cases:
        assert run(tmp_path, *argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, argv
        if "--n" in argv:
            assert err.startswith("error: --n must be >= 1"), err
    assert not list(tmp_path.iterdir())
    # the guard counts what is held at once: the symbol and the Lambda
    # multiplier (complex), the grid's points and weights and the
    # (cap + 1, res) zonal table (float), the (levels, cap + 1) coefficients
    # and two (levels, res) rows (complex); no (res, res) matrix is built
    def predicted(cap, res, levels):
        degrees = cap + 1
        return (32 * (2 * degrees - 1) + 24 * res + 8 * degrees * res
                + 16 * levels * degrees + 32 * levels * res)

    # a request just within the budget passes the guard and reaches the
    # symbol; one more point is rejected
    assert predicted(1, 2581108, 2) <= cli.MAX_ARRAY_BYTES < predicted(1, 2581109, 2)
    argv = ["ball", "multiplier-check", "--cap", "1", "--rho-levels", "2"]
    with pytest.raises(AssertionError, match="guard"):
        run(tmp_path, *argv, "--resolution", "2581108")
    assert run(tmp_path, *argv, "--resolution", "2581109") == 2
    # both round to 256 MiB, so the message gives the two byte counts
    asked, budget = re.search(r"would take (.*), over the (.*) array budget",
                              capsys.readouterr().err).groups()
    assert asked != budget
    assert (asked, budget) == (f"256 MiB ({predicted(1, 2581109, 2)} bytes)",
                               f"256 MiB ({cli.MAX_ARRAY_BYTES} bytes)")


def test_oversized_whitney_and_ball_norm_requests_exit_two(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the guard must reject the request before this")

    f2, f3 = tmp_path / "f2.json", tmp_path / "f3.json"
    f2.write_text(json.dumps(bl.Expansion.random(2, 4, seed=1).to_json()))
    f3.write_text(json.dumps(bl.Expansion.random(3, 2, seed=1).to_json()))
    monkeypatch.setattr(cli, "whitney_cubes", unreachable)
    monkeypatch.setattr(bl, "sphere_grid", unreachable)
    cases = [
        ["whitney", "--n", "3"],  # 2.4 million boxes
        ["whitney", "--n", "40"],
        ["whitney", "--n", "1", "--t-min", "1e-300"],
        # complex (radial, resolution) tables on n = 2, (radial, 2 res^2) on n = 3
        ["norm", "--space", "volume", "--field", f"expansion-file:{f2}",
         "--resolution", str(10**8)],
        ["norm", "--space", "slice", "--field", f"expansion-file:{f3}",
         "--resolution", "5000"],
        ["ball", "functional", "--expansion", str(f3), "--kind", "grad-mixed",
         "--radial", str(10**8)],
        ["ball", "functional", "--expansion", str(f2), "--kind", "mixed",
         "--radial", "20000", "--resolution", "1000"],
        # a 122 MiB value table, but the sup kind also keeps 9 basis rows
        ["ball", "functional", "--expansion", str(f3), "--kind", "sup",
         "--resolution", "2000"],
    ]
    out = tmp_path / "out"
    for argv in cases:
        assert cli.main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "MiB" in err, argv
    for x_max in ("nan", "inf"):  # Region rejects them before any count
        assert cli.main(["whitney", "--n", "1", "--x-max", x_max, "--out", str(out)]) == 2
        assert "extents" in capsys.readouterr().err
    assert not out.exists()
    # whitney's per-box charge: test_whitney_budget_charges_its_measured_peak_a_box
    # a table of exactly the budget passes the guard and reaches sphere_grid
    cols = cli.MAX_ARRAY_BYTES // 16 // 32
    assert 16 * 32 * cols == cli.MAX_ARRAY_BYTES
    argv = ["ball", "functional", "--expansion", str(f2), "--kind", "volume",
            "--radial", "32", "--out", str(out)]
    with pytest.raises(AssertionError, match="guard"):
        cli.main(argv + ["--resolution", str(cols)])
    assert cli.main(argv + ["--resolution", str(cols + 1)]) == 2


def test_whitney_budget_charges_its_measured_peak_a_box(tmp_path, capsys, monkeypatch):
    # whitney charges 48 (n + 1) bytes a box, and 48 (n + 4) with --lam: 1.5
    # times the ru_maxrss peak measured at n = 1 to 5.  Under a 1 MiB budget
    # the largest region within it runs and writes every box; a region
    # 2^-40 wider holds more boxes and exits 2 before any is built
    monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 1 << 20)
    for n in (1, 2, 3):
        for lam in ([], ["--lam", "0.5"]):
            per_box = 48 * (n + (4 if lam else 1))

            def fits(x, n=n, per_box=per_box):
                return whitney_count(Region(x, 2.0 ** -4, 4.0), n) * per_box <= 1 << 20

            lo, hi = 0.125, 2048.0
            while hi - lo > 2.0 ** -40:
                lo, hi = ((lo + hi) / 2, hi) if fits((lo + hi) / 2) else (lo, (lo + hi) / 2)
            assert fits(lo) and not fits(hi)
            argv = ["whitney", "--n", str(n), *lam, "--out", str(tmp_path)]
            assert cli.main(argv + ["--x-max", repr(hi)]) == 2, (n, lam)
            err = capsys.readouterr().err
            assert "boxes would take" in err and "array budget" in err, err
            assert cli.main(argv + ["--x-max", repr(lo)]) == 0, (n, lam)
            capsys.readouterr()
            count = read_summary(tmp_path, "whitney")["count"]
            assert count == whitney_count(Region(lo, 2.0 ** -4, 4.0), n) > 1000


def test_oversized_carleson_and_cubes_norm_requests_exit_two(tmp_path, capsys,
                                                             monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the guard must reject the request before this")

    m = tmp_path / "m.json"
    m.write_text(json.dumps({"atoms": [{"x": [0.1, 0.2], "t": 0.5, "w": 1.0}]}))
    monkeypatch.setattr(cli, "whitney_cubes", unreachable)
    monkeypatch.setattr(no, "whitney_cubes", unreachable)
    carleson = ["carleson", "--measure", str(m), "--condition", "single", "--alpha", "1"]
    bergman = ["norm", "--space", "bergman", "--field", "test-fn:1", "--n", "2",
               "--p", "2", "--alpha", "0.5"]
    out = tmp_path / "out"
    cases = [
        carleson + ["--x-max", "1e4"],  # 1.4e11 boxes
        carleson + ["--x-max", "1", "--t-min", "1e-300"],
        bergman + ["--x-max", "1e4"],
        ["norm", "--space", "bergman", "--field", "poisson", "--n", "1", "--p", "2",
         "--alpha", "0.5", "--t-min", "1e-300"],
    ]
    for argv in cases:
        assert cli.main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "boxes" in err and "MiB" in err, argv
    for argv in (carleson, bergman):  # an unbounded region is never counted
        assert cli.main(argv + ["--x-max", "inf", "--out", str(out)]) == 2
        assert "region extents must be finite" in capsys.readouterr().err
    assert not out.exists()
    # the budget is 384 bytes a box for carleson at n = 2, 192 for the cubes
    # path: a region just within it passes the guard and reaches whitney_cubes
    count = [whitney_count(Region(x, 2.0 ** -4, 4.0), 2) for x in (22, 23, 32, 33)]
    assert count[0] * 384 <= cli.MAX_ARRAY_BYTES < count[1] * 384
    assert count[2] * 192 <= cli.MAX_ARRAY_BYTES < count[3] * 192
    for argv, fits, over in ((carleson, "22", "23"), (bergman, "32", "33")):
        with pytest.raises(AssertionError, match="guard"):
            cli.main(argv + ["--x-max", fits, "--out", str(out)])
        assert cli.main(argv + ["--x-max", over, "--out", str(out)]) == 2
    # the layers path (a radial field, n >= 3) builds no boxes
    assert cli.main(["norm", "--space", "bergman", "--field", "poisson", "--n", "3",
                     "--p", "2", "--alpha", "0.5", "--x-max", "1e4",
                     "--out", str(out)]) == 0


def test_oversized_gauss_orders_exit_two(tmp_path, capsys, monkeypatch):
    leggauss = np.polynomial.legendre.leggauss

    def guarded(deg):
        if deg > 1000:
            raise AssertionError(f"the guard let order {deg} through")
        return leggauss(deg)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", guarded)
    slice_norm = ["norm", "--space", "slice", "--field", "poisson", "--n", "2",
                  "--q", "2", "--t", "1"]
    out = tmp_path / "out"
    # an order-k rule's companion matrix is 8 k^2 bytes
    assert 8 * 5792 ** 2 <= cli.MAX_ARRAY_BYTES < 8 * 5793 ** 2
    for flags in (["--order", "5793"], ["--t-order", "5793"], ["--order", str(10**12)],
                  ["--t-order", str(10**9)]):
        for argv in (slice_norm, ["norm", "--space", "bergman", "--field", "poisson",
                                  "--n", "2", "--p", "2", "--alpha", "0.5"]):
            assert cli.main(argv + flags + ["--out", str(out)]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("error:") and flags[0] in err and "MiB" in err
    assert not out.exists()
    with pytest.raises(AssertionError, match="order 5792"):
        cli.main(slice_norm + ["--order", "5792", "--out", str(out)])


def test_gauss_orders_below_one_exit_two(tmp_path, capsys):
    slice_norm = ["norm", "--space", "slice", "--field", "poisson", "--n", "2",
                  "--q", "2", "--t", "1"]
    # the cubes path, which reads neither order
    cubes_norm = ["norm", "--space", "bergman", "--field", "poisson", "--n", "2",
                  "--p", "2", "--alpha", "0.5"]
    out = tmp_path / "out"
    for argv in (slice_norm, cubes_norm):
        for flag in ("--order", "--t-order"):
            for k in ("0", "-1", "-8"):
                assert cli.main(argv + [flag, k, "--out", str(out)]) == 2, (argv, flag, k)
                err = capsys.readouterr().err
                assert err.startswith(f"error: {flag} must be >= 1, got {k}"), err
    assert not out.exists()
    for argv in (slice_norm, cubes_norm):
        assert cli.main(argv + ["--order", "1", "--t-order", "1", "--out", str(out)]) == 0
    capsys.readouterr()


def test_ball_norm_overflow_exits_two(tmp_path, capsys):
    f2 = tmp_path / "f2.json"
    f2.write_text(json.dumps(bl.Expansion.random(2, 6, seed=0).to_json()))
    out = tmp_path / "out"
    # r**6 overflows at r = 1e308: no NaN report and no traceback.  (The
    # hardy kind's --t is its exponent, not a radius: its norm at 1e308 is
    # finite, see test_hardy_functional_of_a_small_expansion_at_a_large_order.)
    for argv in (["norm", "--space", "slice", "--field", f"expansion-file:{f2}",
                  "--t", "1e308"],
                 ["ball", "functional", "--expansion", str(f2), "--kind", "slice",
                  "--t", "1e308"]):
        assert cli.main(argv + ["--out", str(out)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert "Warning" not in captured.err and "nan" not in captured.out
    assert not out.exists()
    assert cli.main(["norm", "--space", "slice", "--field", f"expansion-file:{f2}",
                     "--t", "0.5", "--out", str(out)]) == 0
    # the file, not --n, sets an expansion's dimension
    assert cli.main(["norm", "--space", "slice", "--field", f"expansion-file:{f2}",
                     "--t", "0.5", "--n", "0", "--out", str(out)]) == 0


def test_ball_exponents_and_orders_exit_two(tmp_path, capsys):
    f2, f4 = tmp_path / "f2.json", tmp_path / "f4.json"
    f2.write_text(json.dumps(bl.Expansion.random(2, 4, seed=1).to_json()))
    f4.write_text(json.dumps(bl.Expansion.random(4, 2, seed=1).to_json()))
    field = ["--field", f"expansion-file:{f2}"]
    exp = ["--expansion", str(f2)]
    cases = [
        ["norm", "--space", "slice", *field, "--q", "0"],
        ["norm", "--space", "mixed", *field, "--q", "0"],
        ["norm", "--space", "slice", *field, "--t", "nan"],
        ["norm", "--space", "sup", *field, "--alpha", "nan"],
        ["norm", "--space", "volume", *field, "--resolution", "0"],
        ["ball", "functional", *exp, "--kind", "slice", "--q", "0"],
        ["ball", "functional", *exp, "--kind", "grad-mixed", "--q", "0"],
        ["ball", "functional", *exp, "--kind", "grad-volume", "--p", "0"],
        ["ball", "functional", *exp, "--kind", "volume", "--p", "nan"],
        ["ball", "functional", "--expansion", str(f4), "--kind", "volume"],
        ["ball", "lambda", *exp, "--t", "0"],
        ["ball", "lambda", *exp, "--t", "inf"],
        ["ball", "multiplier-check", "--cap", "4", "--s", "nan"],
        ["ball", "multiplier-check", "--cap", "4", "--beta", "nan"],
        ["ball", "multiplier-check", "--cap", "4", "--lam-order", "0"],
        ["ball", "multiplier-check", "--cap", "4", "--lam-order", "1e308"],
        ["ball", "lambda", *exp, "--t", "1e308"],
        ["ball", "multiplier-check", "--cap", "4", "--symbol", "decay:nan"],
        ["ball", "multiplier-check", "--cap", "4", "--symbol", "growth:inf"],
        ["ball", "multiplier-check", "--cap", "4", "--symbol", "growth:1e308"],
    ]
    out = tmp_path / "out"
    for argv in cases:
        assert cli.main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, argv
    assert not out.exists()


def test_rho_levels_guard_exits_two(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the guard must reject the request before this")

    # past level 53 the radius 1 - 2**-i rounds to 1.0; 100000 levels would
    # run until killed, so the functional must never be reached
    monkeypatch.setattr(verify, "slice_functional", unreachable)
    for levels in ("-1", "0", "54", "100000"):
        assert run(tmp_path, "ball", "multiplier-check", "--rho-levels", levels) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, levels
    assert not list(tmp_path.iterdir())
    for levels in ("1", "53"):
        with pytest.raises(AssertionError, match="guard"):
            run(tmp_path, "ball", "multiplier-check", "--rho-levels", levels)


def test_multiplier_check_classifies_like_the_check_rows(tmp_path, monkeypatch):
    for slope, kind in ((verify.FINITE_TREND, "finite"),
                        (verify.DIVERGENT_TREND, "divergent"),
                        (-0.1, "inconclusive")):
        monkeypatch.setattr(verify, "slice_functional",
                            lambda *args, slope=slope: (1.0, slope, [[0.5, 1.0]]))
        assert run(tmp_path, "ball", "multiplier-check", "--cap", "2") == 0
        assert read_summary(tmp_path, "ball")["classification"] == kind


def test_hardy_functional_of_a_small_expansion_at_a_large_order(tmp_path):
    # |f| about 0.01: |f|^400 underflows unless the norm scales it first
    f = bl.Expansion.random(2, 4, seed=0)
    small = bl.Expansion(2, [0.01 * b for b in f.coeffs])
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small.to_json()))
    values = {}
    for t in ("2", "400", "1e300"):
        assert run(tmp_path, "ball", "functional", "--expansion", str(path),
                   "--kind", "hardy", "--t", t) == 0
        values[t] = read_summary(tmp_path, "ball")["value"]
    assert 0 < values["2"] < values["400"] <= values["1e300"] < 1


def test_whitney_weight_exponent_out_of_range_exits_two(tmp_path, capsys):
    for lam in ("-1", "-2", "nan", "inf"):
        assert run(tmp_path, "whitney", "--n", "1", "--lam", lam) == 2, lam
        assert capsys.readouterr().err.startswith("error:")


def test_carleson_gauge_out_of_float_range_exits_two(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"atoms": [{"x": [0.0, 0.0], "t": 1e-300, "w": 1.0}]}))
    out = tmp_path / "out"
    # box volumes near 1e-900 underflow to 0: no ZeroDivisionError traceback
    assert cli.main(["carleson", "--measure", str(m), "--x-max", "1e-300",
                     "--t-min", "1e-300", "--t-max", "2e-300", "--condition", "single",
                     "--alpha", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "region" in err and "gauge" in err
    # and boxes of side 1e199 overflow their tent gauge to inf (ratio 0.0 before)
    m.write_text(json.dumps({"atoms": [{"x": [0.0, 0.0], "t": 1e200, "w": 1.0}]}))
    assert cli.main(["carleson", "--measure", str(m), "--x-max", "1e200",
                     "--t-min", "1e199", "--t-max", "2e200", "--condition", "tent",
                     "--p", "2", "--alpha", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "region" in err and "inf" in err
    assert not out.exists()


def test_multiplier_check_file_symbol_needs_one_value_per_degree(tmp_path, capsys):
    sym = tmp_path / "sym.json"
    out = tmp_path / "out"
    for values in ([1.0, 0.5, 0.25], [1.0] * 6, []):  # --cap 4 takes five
        sym.write_text(json.dumps(values))
        assert run(out, "ball", "multiplier-check", "--cap", "4",
                   "--symbol", f"file:{sym}") == 2, values
        err = capsys.readouterr().err
        assert err.startswith("error: malformed symbol spec") and \
            "need one value per degree" in err, err
    assert not out.exists()
    sym.write_text(json.dumps([1.0, 0.5, 0.25, 0.125, 0.0625]))
    assert run(out, "ball", "multiplier-check", "--cap", "4",
               "--symbol", f"file:{sym}") == 0


def test_ball_weight_exponent_just_above_minus_one_exits_two(tmp_path, capsys):
    # scipy's Gauss-Jacobi rule has NaN weights at the float just above
    # -1: each route refuses it, naming the exponent, and writes no NaN row
    f2 = tmp_path / "f2.json"
    f2.write_text(json.dumps(bl.Expansion.random(2, 3, seed=1).to_json()))
    out = tmp_path / "out"
    a = repr(-1.0 + 1e-15)
    cases = [
        (["norm", "--space", "volume", "--field", f"expansion-file:{f2}", "--alpha", a],
         "alpha"),
        (["norm", "--space", "mixed", "--field", f"expansion-file:{f2}", "--p", "2",
          "--alpha", repr(2.0 ** -54)], "alpha p - 1"),  # alpha p - 1 = -1 + 2^-53
        (["ball", "functional", "--expansion", str(f2), "--kind", "volume", "--alpha", a],
         "alpha"),
        (["ball", "functional", "--expansion", str(f2), "--kind", "grad-volume",
          "--alpha", a], "alpha"),
        (["verify", "ball-norms", "--budget", "smoke", "--alpha", a], "alpha"),
    ]
    for argv, name in cases:
        assert run(out, *argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}, the radial weight exponent, is too close"
                              " to -1"), (argv, err)
        assert "Warning" not in err
    assert not out.exists()


def test_ball_weight_exponent_over_the_limit_exits_two(tmp_path, capsys):
    f3 = tmp_path / "f3.json"
    f3.write_text(json.dumps(bl.Expansion.random(3, 2, seed=1).to_json()))
    out = tmp_path / "out"
    limit = f"{bl.MAX_WEIGHT_EXPONENT:g}"
    for kind in ("mixed", "grad-mixed"):
        for flag in ("--p", "--alpha"):
            argv = ["ball", "functional", "--expansion", str(f3), "--kind", kind,
                    flag, "1e300", "--out", str(out)]
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag in err and limit in err, argv
    assert cli.main(["norm", "--space", "mixed", "--field", f"expansion-file:{f3}",
                     "--alpha", "1e300", "--out", str(out)]) == 2
    assert "--alpha" in capsys.readouterr().err
    assert cli.main(["ball", "functional", "--expansion", str(f3), "--kind", "volume",
                     "--alpha", "1e300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and limit in err
    assert not out.exists()
    # at the limit the rule is still finite: mixed with alpha p - 1 = 1021
    assert cli.main(["ball", "functional", "--expansion", str(f3), "--kind", "mixed",
                     "--p", "1", "--alpha", "1022", "--out", str(out)]) == 0


def test_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "x_max": 7}))
    # a flag beats the config in either form, and a config value gets its
    # flag's type
    for argv in (["--n=1", "--x-max=3"], ["--n", "1", "--x-max", "3"]):
        assert run(tmp_path, "whitney", *argv, "--config", str(cfg), "--dry-run") == 0
        resolved = json.loads(capsys.readouterr().out)
        assert (resolved["n"], resolved["x_max"]) == (1, 3.0), argv
    assert run(tmp_path, "whitney", "--config", str(cfg), "--n", "1", "--dry-run") == 0
    assert json.loads(capsys.readouterr().out)["x_max"] == 7.0
    # null leaves a flag that defaults to None unset, and no other
    cfg.write_text(json.dumps({"lam": None}))
    assert run(tmp_path, "whitney", "--n", "1", "--config", str(cfg), "--dry-run") == 0
    assert json.loads(capsys.readouterr().out)["lam"] is None
    cfg.write_text(json.dumps({"x_max": None}))
    assert run(tmp_path, "whitney", "--n", "1", "--config", str(cfg)) == 2
    assert "'x_max' cannot be null" in capsys.readouterr().err
    # a value its flag's type or choices reject is an argparse usage error
    for command, bad in ((["norm", "--space", "sup", "--field", "poisson"], {"n": "x"}),
                         (["verify", "whitney"], {"threads": [2]}),
                         (["verify", "whitney"], {"budget": "enormous"})):
        cfg.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as e:
            run(tmp_path, *command, "--config", str(cfg))
        assert e.value.code == 2, bad
        assert "invalid" in capsys.readouterr().err
    assert not (tmp_path / "whitney-summary.json").exists()


def test_non_finite_field_parameters_exit_two(tmp_path, capsys):
    for space, field in (("sup", "power:nan"), ("bergman", "poisson:nan"),
                         ("mixed", "test-fn:1:inf"), ("slice", "bergman-q:1:-inf"),
                         ("sup", "power:inf")):
        assert run(tmp_path, "norm", "--space", space, "--field", field, "--n", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed field spec") and "finite" in err, err
    # a finite field whose norm overflows float64
    assert run(tmp_path, "norm", "--space", "sup", "--field", "poisson", "--n", "2",
               "--lam", "1e308") == 2
    assert "not finite in float64" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_SPECIAL_ON_FIRST_USE = """
import contextlib, io, sys
from harmspace import cli
out, expansion = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "kernels", "--budget", "smoke", "--threads", "1",
                     "--out", out]) == 0
    assert cli.main(["norm", "--space", "bergman", "--field", "poisson",
                     "--out", out]) == 0
    assert "scipy.special" not in sys.modules
    assert cli.main(["ball", "lambda", "--expansion", expansion, "--out", out]) == 0
assert "scipy.special" in sys.modules
"""


def test_half_space_commands_run_without_scipy_special(tmp_path):
    # a fresh interpreter, since this one has imported scipy.special already
    expansion = tmp_path / "e.json"
    expansion.write_text(json.dumps(bl.Expansion.random(2, 2, seed=5).to_json()))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _SPECIAL_ON_FIRST_USE, str(tmp_path / "out"),
         str(expansion)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# The argv grammar of the fuzz below: every exponent and region extent comes
# from the edge values, and every size stays small, so that whatever the
# guards let through runs in milliseconds.  The test is derandomized, so
# that every run of the suite draws the same examples.
_EDGES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e308", "0.5", "1.5", "2"]
_REGION_FLAGS = ["--x-max", "--t-min", "--t-max"]
_FIELDS = ["poisson", "poisson:{}", "bergman-q:1:{}", "test-fn:1:{}", "power:{}",
           "bergman-q:x", "power", "expansion-file:{file}"]
_SYMBOLS = ["decay:{}", "growth:{}", "identity", "zero", "file:{symbol}", "decay"]
_CONFIG_VALUES = [None, "x", [1.0], True, {}, 0, -1, 1e-300, 1e308, float("nan"), 2.0]
# verify ids whose smoke run takes well under 0.1 s, at their defaults
_FAST_IDS = ["lemma2", "eq14-scaling", "eq15-scaling", "thm4-scaling", "thm2-equivalence",
             "thm3-carleson", "thm4-carleson"]
_COMMANDS = ["norm", "whitney", "carleson", "ball functional", "verify", "ball convolve",
             "ball lambda", "ball multiplier-check"]


def _range_edges(key):
    """The ends of a parameter's range and the first values past them."""
    lo, hi = verify._RANGES[key]
    if isinstance(lo, int):
        return [str(v) for v in (lo - 1, lo, hi, hi + 1)]
    return [repr(v) for v in (math.nextafter(lo, -math.inf), lo, hi,
                              math.nextafter(hi, math.inf))]


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    edge = st.sampled_from(_EDGES)
    flags, exponents = [], []
    if command == "norm":
        spaces = sorted(set(cli._HALF_SPACES) | set(cli._BALL_SPACES))
        field = draw(st.sampled_from(_FIELDS)).replace("{}", draw(edge))
        flags += [("--space", draw(st.sampled_from(spaces))), ("--field", field),
                  ("--n", draw(st.sampled_from(["1", "2", "3", "0"]))),
                  ("--order", draw(st.sampled_from(["1", "2", "0"]))),
                  ("--t-order", draw(st.sampled_from(["1", "2"]))),
                  ("--resolution", draw(st.sampled_from(["4", "0"]))),
                  ("--radial", "4")]
        exponents = ["--p", "--q", "--alpha", "--lam", "--t"]
    elif command == "whitney":
        flags += [("--n", draw(st.sampled_from(["1", "2", "0", "-1"])))]
        exponents = ["--lam"]
    elif command == "carleson":
        flags += [("--measure", "{measure}"),
                  ("--condition", draw(st.sampled_from(["vector", "single", "mixed",
                                                        "tent"]))),
                  ("--s", f"{draw(edge)},{draw(edge)}")]
        exponents = ["--p", "--q", "--alpha", "--tau"]
    elif command == "ball functional":
        flags += [("--expansion", "{file}"),
                  ("--kind", draw(st.sampled_from(list(cli._BALL_NORMS)))),
                  ("--resolution", draw(st.sampled_from(["4", "0"]))), ("--radial", "4")]
        exponents = ["--p", "--q", "--alpha", "--t"]
    elif command == "verify":
        # overrides are the leftover --key value pairs, each drawn from the
        # ends of its range in the parameter table and the first values
        # past them, so the runs that the table lets through are at its ends
        exp_id = draw(st.sampled_from(_FAST_IDS))
        defaults = verify.EXPERIMENTS[exp_id].defaults
        command = f"verify {exp_id}"
        flags += [("--budget", "smoke")]
        for key in draw(st.lists(st.sampled_from(sorted(defaults)), unique=True)):
            flags.append((f"--{key}", draw(st.sampled_from(_range_edges(key)))))
    elif command == "ball convolve":
        flags += [("--left", "{file}"), ("--right", draw(st.sampled_from(["{file}",
                                                                         "{file3}"])))]
    elif command == "ball lambda":
        flags += [("--expansion", draw(st.sampled_from(["{file}", "{file3}"])))]
        exponents = ["--t"]
    else:
        flags += [("--symbol", draw(st.sampled_from(_SYMBOLS)).replace("{}", draw(edge))),
                  ("--cap", draw(st.sampled_from(["0", "1", "2", "-1"]))),
                  ("--rho-levels", draw(st.sampled_from(["1", "3", "0", "53", "54"]))),
                  ("--resolution", draw(st.sampled_from(["4", "0"])))]
        exponents = ["--s", "--beta", "--lam-order"]
    if command.split()[0] in ("norm", "whitney", "carleson"):
        exponents += _REGION_FLAGS
    for flag in draw(st.lists(st.sampled_from(exponents), unique=True)) if exponents else []:
        flags.append((flag, draw(edge)))
    if "--x-max" in exponents and not any(f == "--x-max" for f, _ in flags):
        flags.append(("--x-max", "1"))  # a small region unless an edge is drawn
    argv = command.split()
    for flag, value in flags:
        if draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    keys = [f[2:].replace("-", "_") for f, _ in flags]
    if command.startswith("verify"):
        # the config's overrides object reaches the same parameters
        keys = ["overrides"]
        values = st.dictionaries(st.sampled_from(sorted(defaults)),
                                 st.sampled_from(_CONFIG_VALUES), max_size=2)
    else:
        values = st.sampled_from(_CONFIG_VALUES)
    config = draw(st.dictionaries(st.sampled_from(keys), values, max_size=2)) if keys else {}
    return argv, config


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_fuzz_argv())
def test_fuzzed_argv_exits_zero_one_or_two(drawn):
    argv, config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, f"{name}.json")
                 for name in ("file", "file3", "measure", "symbol")}
        contents = {"file": bl.Expansion.random(2, 2, seed=0).to_json(),
                    "file3": bl.Expansion.random(3, 1, seed=0).to_json(),
                    "measure": {"atoms": [{"x": [0.25], "t": 0.5, "w": 1.0}]},
                    "symbol": [1.0, 0.5, 0.25]}
        for name, obj in contents.items():
            with open(files[name], "w") as fh:
                json.dump(obj, fh)
        argv = [a.format(**files) for a in argv] + ["--out", os.path.join(tmp, "out")]
        if config:
            path = os.path.join(tmp, "c.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse's usage error
                code = e.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 2:
            assert not os.path.exists(os.path.join(tmp, "out")), argv
