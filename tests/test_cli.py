"""In-process CLI runs: exit codes, artifacts, config precedence."""

import json
import math
import os

import numpy as np
import pytest

from harmspace import ball as bl
from harmspace import carleson as ca
from harmspace import cli, verify
from harmspace import norms as no
from harmspace.geometry import Region, cubes_to_json, whitney_count, whitney_cubes


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
    assert summary["cubes"] == json.loads(json.dumps(cubes_to_json(cubes)))
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
    ]
    for argv in cases:
        assert run(tmp_path, *argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:")


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


def test_verify_failure_exits_one(tmp_path, capsys):
    code = run(tmp_path, "verify", "thm5-trace", "--budget", "smoke",
               "--k-order", "0")
    assert code == 1
    out = capsys.readouterr().out
    assert "thm5-trace: fail" in out
    summary = read_summary(tmp_path, "verify")
    assert summary["verdict"] == "fail"
    assert summary["overrides"] == {"k_order": "0"}


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
        assert err.startswith("error:") and "finite" in err


def test_lemma6_over_its_cover_limit_exits_two(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the limit must reject the request before this")

    monkeypatch.setattr(ca, "excursion_masks", unreachable)
    assert run(tmp_path, "verify", "lemma6", "--budget", "smoke", "--n", "4") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mask matrix" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_size_and_range_guards_exit_two(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the guard must reject the request before this")

    # nothing may be built: the guard reads the sizes off the command line
    monkeypatch.setattr(bl, "sphere_grid", unreachable)
    monkeypatch.setattr(bl.Multiplier, "diagonal", unreachable)
    cases = [
        ["ball", "multiplier-check", "--cap", "100000"],  # 2.33 TiB matrix
        ["ball", "multiplier-check", "--cap", "1", "--resolution", "5000"],
        ["ball", "multiplier-check", "--cap", str(10**8), "--resolution", "8"],
        # one slice matrix of exactly the budget, but 8 levels hold 10 at once
        ["ball", "multiplier-check", "--cap", "1", "--resolution", "4096"],
        # a 160 MB symbol: with its scaled copy and basis rows, 960 MB
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
    # the guard counts what is held at once: the symbol and its scaled copy
    # (complex), the grid's points, weights and basis rows (float), and
    # levels + 2 complex (res, res) slice matrices
    def predicted(cap, res, levels):
        coeffs = 2 * cap + 1
        return 32 * coeffs + 24 * res + 8 * coeffs * res + 16 * (levels + 2) * res * res

    # a request just within the budget passes the guard and reaches sphere_grid
    assert predicted(1, 2047, 2) <= cli.MAX_ARRAY_BYTES < predicted(1, 2048, 2)
    argv = ["ball", "multiplier-check", "--cap", "1", "--rho-levels", "2"]
    with pytest.raises(AssertionError, match="guard"):
        run(tmp_path, *argv, "--resolution", "2047")
    assert run(tmp_path, *argv, "--resolution", "2048") == 2


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
        ["whitney", "--n", "1", "--x-max", "inf"],
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
    assert cli.main(["whitney", "--n", "1", "--x-max", "nan", "--out", str(out)]) == 2
    assert "extents" in capsys.readouterr().err
    assert not out.exists()
    # whitney's budget is 1792 bytes a box at n = 2
    count = [whitney_count(Region(x, 2.0 ** -4, 4.0), 2) for x in (10.25, 10.5)]
    assert count[0] * 1792 <= cli.MAX_ARRAY_BYTES < count[1] * 1792
    with pytest.raises(AssertionError, match="guard"):
        cli.main(["whitney", "--n", "2", "--x-max", "10.25", "--out", str(out)])
    assert cli.main(["whitney", "--n", "2", "--x-max", "10.5", "--out", str(out)]) == 2
    # a table of exactly the budget passes the guard and reaches sphere_grid
    cols = cli.MAX_ARRAY_BYTES // 16 // 32
    assert 16 * 32 * cols == cli.MAX_ARRAY_BYTES
    argv = ["ball", "functional", "--expansion", str(f2), "--kind", "volume",
            "--radial", "32", "--out", str(out)]
    with pytest.raises(AssertionError, match="guard"):
        cli.main(argv + ["--resolution", str(cols)])
    assert cli.main(argv + ["--resolution", str(cols + 1)]) == 2


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
        carleson + ["--x-max", "inf"],
        bergman + ["--x-max", "1e4"],
        bergman + ["--x-max", "inf"],
        ["norm", "--space", "bergman", "--field", "poisson", "--n", "1", "--p", "2",
         "--alpha", "0.5", "--t-min", "1e-300"],
    ]
    for argv in cases:
        assert cli.main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "boxes" in err and "MiB" in err, argv
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
