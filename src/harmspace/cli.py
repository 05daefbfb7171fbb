"""Command-line front end for the toolkit.

One invocation resolves one run configuration and produces one JSON
summary plus zero or more CSV traces in the output directory.  A JSON
config file supplies defaults that explicit flags override: its values
are parsed as flags ahead of the command line's; unknown config keys are
rejected.  Every command honors --dry-run, which prints the resolved
configuration and writes nothing.

Exit codes: 0 success, 1 verification check failure, 2 usage error (main
maps every ValueError and NotImplementedError to it).
The default output directory comes from $HARMSPACE_OUT, else the
working directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import ball as bl
from . import carleson as ca
from . import norms as no
from . import util, verify
from .fields import BergmanField, PoissonField, PowerField, TestField, dilated
from .geometry import (Region, box_centers, box_corners, overlap_counts,
                       weighted_measures, whitney_count, whitney_cubes)
from .quadrature import QuadSpec


class UsageError(ValueError):
    """Bad invocation.  main maps it, and every other ValueError or
    NotImplementedError (the library's rejections), to exit code 2."""


# Largest memory, in bytes, that the arrays a command sizes from its
# command line may take at once.  A request is checked against it before
# anything is allocated and, if over, rejected as a usage error.
MAX_ARRAY_BYTES = 1 << 28


def _check_array_bytes(what, nbytes):
    if nbytes > MAX_ARRAY_BYTES:
        asked, budget = f"{nbytes / 2**20:.4g} MiB", f"{MAX_ARRAY_BYTES / 2**20:g} MiB"
        if asked == budget:  # just over: only the bytes tell them apart
            asked += f" ({nbytes:.0f} bytes)"
            budget += f" ({MAX_ARRAY_BYTES} bytes)"
        raise UsageError(f"{what} would take {asked}, over the {budget} array budget")


def _check_whitney_bytes(region, n, per_box):
    """Reject a region whose decomposition at n would take more than the
    budget at per_box bytes a box; counted, not built."""
    count = whitney_count(region, n)
    _check_array_bytes(f"{count:.4g} boxes", count * per_box)


def _floats_csv(text):
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated floats, got {text!r}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"{path} is not valid JSON: {e}")


def _load_expansion(path):
    data = _load_json(path)
    try:
        return bl.Expansion.from_json(data)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"{path} is not a valid expansion file: {e}")


# ----------------------------------------------------------- run config


def _resolved_config(args, extra=None):
    """The run's flags as a report holds them: each float must be finite."""
    skip = {"command", "config", "dry_run", "func"}
    out = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{key.replace('_', '-')} must be finite to be"
                             f" reported, got {value}")
    out["command"] = args.command
    if extra:
        out.update(extra)
    return out


def _parse_with_config(parser, argv, args):
    """Parse argv again with the config file's values as `--key=value`
    tokens right after the subcommand, so every value gets its flag's type
    and choices, and a flag on the command line, which comes later, wins."""
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    flags = {a.dest: a for a in sub._actions
             if a.option_strings and a.dest not in ("help", "config", "dry_run")}
    special = {"ids", "overrides"} & set(vars(args))
    unknown = set(cfg) - set(flags) - special
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in cfg.items():
        if key in special:
            continue
        if value is None:  # leaves a flag that defaults to None unset
            if flags[key].default is not None:
                raise UsageError(f"config key {key!r} cannot be null")
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        tokens.append(f"{flags[key].option_strings[0]}={text}")
    at = argv.index(args.command) + 1
    args, extras = parser.parse_known_args(argv[:at] + tokens + argv[at:])
    if "ids" in cfg and not args.ids:  # positional ids win
        if not (isinstance(cfg["ids"], list) and all(isinstance(i, str) for i in cfg["ids"])):
            raise UsageError("config key 'ids' must be a list of experiment ids")
        args.ids = cfg["ids"]
    if "overrides" in cfg:  # under the command line's --key value pairs
        if not isinstance(cfg["overrides"], dict):
            raise UsageError("config key 'overrides' must be an object")
        args.overrides = dict(cfg["overrides"])
    return args, extras


def _parse_override_tokens(extras):
    """Leftover `--key value` (or `--key=value`) pairs as a dict."""
    out = {}
    toks = list(extras)
    while toks:
        tok = toks.pop(0)
        if not tok.startswith("--") or tok == "--":
            raise UsageError(f"unrecognized argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
        elif toks and not toks[0].startswith("--"):
            val = toks.pop(0)
        else:
            raise UsageError(f"missing value for {tok}")
        out[key.replace("-", "_")] = val
    return out


def _emit(args, summary, traces=()):
    """Write the one JSON summary plus CSV traces, each (name, header,
    columns); return their paths."""
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    summary = dict(summary)
    summary["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    spath = os.path.join(outdir, f"{args.command}-summary.json")
    util.dump_json(summary, spath)
    paths = [spath]
    for name, header, columns in traces:
        cpath = os.path.join(outdir, f"{name}.csv")
        util.dump_csv(cpath, header, columns)
        paths.append(cpath)
    return paths


def _dry_run(args, extra=None):
    print(util.dumps_json(_resolved_config(args, extra)))
    return 0


# ------------------------------------------------------------ verify


def _cmd_verify(args, extras):
    cli_over = _parse_override_tokens(extras)
    if cli_over:
        args.overrides = {**(args.overrides or {}), **cli_over}
    ids = list(args.ids) or ["all"]
    known = set(verify.experiment_ids())
    bad = [i for i in ids if i != "all" and i not in known]
    if bad:
        raise UsageError(f"unknown experiment ids: {bad}")
    if args.overrides:
        if len(ids) != 1 or ids[0] == "all":
            raise UsageError("parameter overrides need exactly one experiment id")
        verify.check_params(ids[0], args.overrides)  # so a dry run rejects what a run does
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    if args.dry_run:
        return _dry_run(args, {"ids": ids})

    summary = verify.run_suite(ids, budget=args.budget, seed=args.seed,
                               threads=args.threads, overrides=args.overrides)
    summary["command"] = "verify"
    summary["ids"] = ids
    summary["overrides"] = args.overrides or {}
    traces = []
    for rep in summary["reports"]:
        for name, art in rep["artifacts"].items():
            if isinstance(art, dict) and "header" in art and "rows" in art:
                traces.append((f"{rep['id']}-{name}", art["header"],
                               util.row_columns(art["rows"], len(art["header"]))))
    paths = _emit(args, summary, traces)
    for rep in summary["reports"]:
        print(f"{rep['id']}: {rep['verdict']}")
    print(f"suite: {summary['verdict']} "
          f"({summary['n_pass']} pass, {summary['n_fail']} fail)")
    print(f"wrote {paths[0]}")
    return 0 if summary["verdict"] == "pass" else 1


# -------------------------------------------------------------- norm


# The half-space norms of `norm --space`, from its flags.
_HALF_SPACE_NORMS = {
    "slice": lambda f, a, region, spec: no.slice_norm(f, a.q, a.t, region, spec),
    "bergman": lambda f, a, region, spec: no.bergman_norm(f, a.p, a.alpha, region, spec),
    "mixed": lambda f, a, region, spec: no.mixed_norm(f, a.p, a.q, a.alpha, region, spec),
    "tl": lambda f, a, region, spec: no.triebel_norm(f, a.p, a.q, a.alpha, region, spec),
    "sup": lambda f, a, region, spec: no.sup_norm(f, a.lam, region)[0],
}
_HALF_SPACES = tuple(_HALF_SPACE_NORMS)
_BALL_SPACES = ("slice", "volume", "mixed", "sup", "hardy")

# The ball norms of `norm --space` (the first five) and `ball functional
# --kind`, from the flags the two commands share.
_BALL_NORMS = {
    "slice": lambda f, a, res: bl.slice_norm_ball(f, a.q, a.t, resolution=res),
    "volume": lambda f, a, res: bl.volume_norm(f, a.p, a.alpha, res, a.radial),
    "mixed": lambda f, a, res: bl.mixed_norm_ball(f, a.p, a.q, a.alpha, res, a.radial),
    "sup": lambda f, a, res: bl.sup_mixed_norm_ball(f, a.q, a.alpha, res),
    "hardy": lambda f, a, res: bl.hardy_norm(f, a.t, resolution=res),
    "grad-volume": lambda f, a, res: bl.grad_volume_norm(f, a.p, a.alpha, res, a.radial),
    "grad-mixed": lambda f, a, res: bl.grad_mixed_norm(f, a.p, a.q, a.alpha, res,
                                                       a.radial),
}


_RADIAL_KINDS = ("volume", "mixed", "grad-volume", "grad-mixed")


def _finite_norm(kind, norm, *params):
    """norm(*params), the one value of `norm` and `ball functional`; float64
    overflow shows in the value, and a value that is not finite is a usage
    error."""
    try:
        with np.errstate(all="ignore"):
            value = norm(*params)
    except OverflowError:  # a Python float power past the float64 range
        value = math.inf
    if not math.isfinite(value):
        raise UsageError(f"the {kind} norm is not finite in float64 at these"
                         f" parameters (got {value})")
    return value


def _ball_norm(kind, f, args, res):
    if kind in _RADIAL_KINDS:
        # the radial rule's weight exponent, checked here to name its flags
        if kind.endswith("mixed"):
            bl.check_weight_exponent(args.alpha * args.p - 1, "--alpha times --p, less 1")
        else:
            bl.check_weight_exponent(args.alpha, "--alpha")
    # complex128 values on (radial nodes) x (sphere grid: res points on
    # the circle, res x 2 res on the 2-sphere); the sup kind, which takes
    # its slices at 24 radii, also keeps every degree's float64 basis rows
    rows = args.radial if kind in _RADIAL_KINDS else 1
    cols = res if f.n == 2 else 2 * res * res
    basis = sum(c.size for c in f.coeffs) if kind == "sup" else 0
    kept = f" and {basis} basis rows" if basis else ""
    _check_array_bytes(f"the {rows} x {cols} value table{kept}",
                       16 * rows * cols + 8 * basis * cols)
    return _finite_norm(kind, _BALL_NORMS[kind], f, args, res)


_FIELD_NEEDS = {"bergman-q": "an order, e.g. bergman-q:2",
                "test-fn": "an order, e.g. test-fn:1",
                "power": "an exponent, e.g. power:1.5",
                "expansion-file": "a path"}


def _parse_field(spec, n):
    """Builtin families: poisson, bergman-q, test-fn, power, expansion-file."""
    name, _, rest = str(spec).partition(":")
    parts = rest.split(":") if rest else []
    if name in _FIELD_NEEDS and not parts:
        raise UsageError(f"{name} needs {_FIELD_NEEDS[name]}")
    if name == "expansion-file":
        return _load_expansion(rest)
    try:
        if name == "poisson":
            height = float(parts[0]) if parts else 1.0
            return dilated(PoissonField, None, n, height)
        if name in ("bergman-q", "test-fn"):
            height = float(parts[1]) if len(parts) > 1 else 1.0
            cls = BergmanField if name == "bergman-q" else TestField
            return dilated(cls, int(parts[0]), n, height)
        if name == "power":
            return PowerField(n, float(parts[0]))
    except (TypeError, ValueError) as e:
        raise UsageError(f"malformed field spec {spec!r}: {e}")
    raise UsageError(
        f"unknown field family {name!r} (poisson, bergman-q, test-fn,"
        f" power, expansion-file)")


def _cmd_norm(args):
    # an expansion-file field takes its dimension from the file
    if args.n < 1 and str(args.field).partition(":")[0] != "expansion-file":
        raise UsageError(f"--n must be >= 1, got {args.n}")
    f = _parse_field(args.field, args.n)
    if isinstance(f, bl.Expansion):
        if args.space not in _BALL_SPACES:
            raise UsageError(
                f"space {args.space!r} undefined on the ball"
                f" (use one of {_BALL_SPACES})")
        value = _ball_norm(args.space, f, args, args.resolution)
    else:
        if args.space not in _HALF_SPACES:
            raise UsageError(
                f"space {args.space!r} undefined on the half-space"
                f" (use one of {_HALF_SPACES})")
        region = Region(args.x_max, args.t_min, args.t_max)
        # leggauss builds an order x order float64 companion matrix per order
        for flag, order in (("--order", args.order), ("--t-order", args.t_order)):
            if order < 1:
                raise UsageError(f"{flag} must be >= 1, got {order}")
            _check_array_bytes(f"the {flag} {order} Gauss rule's matrix", 8 * order * order)
        if args.space == "bergman" and f.n <= 2:
            # the cubes path, which holds the boxes' arrays and corners and
            # their clipped copies: about 110 and 150 bytes a box at n = 1, 2
            # (ru_maxrss at 0.25 to 1 million boxes)
            _check_whitney_bytes(region, f.n, 48 * (f.n + 2))
        spec = QuadSpec(order=args.order, t_order=args.t_order)
        value = _finite_norm(args.space, _HALF_SPACE_NORMS[args.space], f, args,
                             region, spec)
    summary = _resolved_config(args)
    summary["value"] = value
    header = ["space", "field", "n", "p", "q", "alpha", "lam", "t", "value"]
    row = [args.space, args.field, args.n, args.p, args.q, args.alpha,
           args.lam, args.t, value]
    paths = _emit(args, summary, [("norm-trace", header, [[v] for v in row])])
    print(repr(value))
    print(f"wrote {paths[0]}")
    return 0


# ------------------------------------------------------------ carleson


def _cmd_carleson(args):
    data = _load_json(args.measure)
    try:
        mu = ca.AtomicMeasure.from_json(data)
    except (KeyError, TypeError, ValueError) as e:
        raise UsageError(f"{args.measure} is not a valid measure file: {e}")
    region = Region(args.x_max, args.t_min, args.t_max)
    # the boxes' arrays and corners, and the report's mass, gauge and ratio
    # columns with the CSV cells made from them: about 220, 290 and 370
    # bytes a box at n = 1, 2, 3 (ru_maxrss with a 400-atom measure at 0.26
    # to 1.4 million boxes)
    _check_whitney_bytes(region, mu.n, 64 * (mu.n + 4))
    cubes = whitney_cubes(region, mu.n)
    if args.condition == "vector":
        s_vec = _floats_csv(args.s)
        rep = ca.condition_vector(mu, cubes, len(s_vec), s_vec)
    elif args.condition == "single":
        rep = ca.condition_single(mu, cubes, args.alpha)
    elif args.condition == "mixed":
        rep = ca.condition_mixed(mu, cubes, args.p, args.q, args.alpha)
    else:
        rep = ca.condition_tent(mu, cubes, args.p, args.alpha, args.tau)
    lost = int(np.count_nonzero(overlap_counts(mu.points, *box_corners(cubes)) == 0))
    if lost:
        print(f"warning: {lost} of {len(mu.t)} atoms lie outside the region and are"
              " not counted", file=sys.stderr)
    summary = _resolved_config(args)
    summary.update(rep.summary())
    summary["level_maxima"] = {str(k): v for k, v in rep.level_maxima().items()}
    header = ["condition", "level", "index", "mass", "gauge", "ratio"]
    paths = _emit(args, summary, [("carleson-trace", header, rep.csv_columns())])
    print(f"constant={rep.constant!r} over {len(rep)} boxes")
    print(f"wrote {paths[0]}")
    return 0


# ---------------------------------------------------------------- ball


def _parse_symbol(spec, cap):
    """decay:E -> (1+k)^-E, growth:E -> (1+k)^E, identity, zero, file:PATH."""
    name, _, rest = str(spec).partition(":")
    k = np.arange(cap + 1.0)
    vals = _load_json(rest) if name == "file" else None
    try:
        if name in ("decay", "growth"):
            with np.errstate(over="ignore"):  # Multiplier rejects an inf value
                power = float(rest) if name == "growth" else -float(rest)
                return bl.Multiplier.diagonal(2, cap, (1.0 + k) ** power)
        if name == "identity":
            return bl.Multiplier.diagonal(2, cap, np.ones(cap + 1))
        if name == "zero":
            return bl.Multiplier.diagonal(2, cap, np.zeros(cap + 1))
        if name == "file":
            return bl.Multiplier.diagonal(2, cap, np.asarray(vals, dtype=complex))
    except (TypeError, ValueError) as e:
        raise UsageError(f"malformed symbol spec {spec!r}: {e}")
    raise UsageError(
        f"unknown symbol family {name!r} (decay, growth, identity, zero, file)")


def _expansion_trace(name, f):
    top = [float(np.max(np.abs(c))) for c in f.coeffs]
    return (name, ["degree", "max_abs_coeff"], [range(len(top)), top])


def _cmd_ball(args):
    if args.resolution < 0:
        raise UsageError("--resolution must be >= 0 (0 picks the default)")
    summary = _resolved_config(args)
    traces = []

    if args.operation == "multiplier-check":
        if args.cap < 0:
            raise UsageError("--cap must be >= 0")
        # past level mant_dig, the radius 1 - 2**-i rounds to 1.0
        if not 1 <= args.rho_levels <= sys.float_info.mant_dig:
            raise UsageError(f"--rho-levels must be in 1..{sys.float_info.mant_dig}")
        res = args.resolution or 4 * args.cap + 8
        levels, degrees = args.rho_levels, args.cap + 1
        # held at once: the symbol's coefficients on the circle and the
        # Lambda multiplier's (complex128); the grid's points and weights
        # and the (degrees, res) zonal table (float64); the (levels,
        # degrees) rho^k c_k coefficients and two (levels, res) rows, the
        # running sum and a degree's term (complex128)
        _check_array_bytes(
            f"a degree-{args.cap} symbol on {levels} levels of {res}-point slice rows",
            2 * 16 * (2 * degrees - 1) + 24 * res + 8 * degrees * res
            + 16 * levels * degrees + 2 * 16 * levels * res)
        c = _parse_symbol(args.symbol, args.cap)
        if not 1.0 < args.s < math.inf:
            raise UsageError("need a finite s > 1 for the dual exponent")
        grid = bl.SphereGrid(2, res)
        sup, slope, rows = verify.slice_functional(
            c, args.s / (args.s - 1.0), args.beta, args.lam_order,
            args.rho_levels, grid)
        kind = verify.trend_class(slope)
        summary.update(functional=sup, trend=slope, classification=kind)
        traces.append(("ball-multiplier-trace", ["rho", "value"],
                       util.row_columns(rows, 2)))
        print(f"functional={sup!r} trend={slope:+.4f} -> {kind}")
    elif args.operation == "functional":
        f = _load_expansion(args.expansion)
        value = _ball_norm(args.kind, f, args, args.resolution or 24)
        summary["value"] = value
        traces.append(("ball-functional-trace",
                       ["kind", "p", "q", "alpha", "t", "value"],
                       [[v] for v in (args.kind, args.p, args.q, args.alpha, args.t,
                                      value)]))
        print(repr(value))
    elif args.operation == "lambda":
        f = _load_expansion(args.expansion)
        out = bl.multiplier_lambda(f.n, f.cap, args.t).apply(f)
        summary["expansion"] = out.to_json()
        traces.append(_expansion_trace("ball-lambda-trace", out))
        print(f"applied order-{args.t:g} derivative multiplier"
              f" through degree {out.cap}")
    else:
        f = _load_expansion(args.left)
        g = _load_expansion(args.right)
        out = bl.convolve(f, g)
        summary["expansion"] = out.to_json()
        traces.append(_expansion_trace("ball-convolve-trace", out))
        print(f"convolved through degree {out.cap}")

    paths = _emit(args, summary, traces)
    print(f"wrote {paths[0]}")
    return 0


# ------------------------------------------------------------- whitney


def _cmd_whitney(args):
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    region = Region(args.x_max, args.t_min, args.t_max)
    # Peak memory is the box arrays, as the writers stream a chunk of
    # records at a time.  ru_maxrss over the pre-call mark, at 0.3M to 4.1M
    # boxes, read 56, 80, 102, 127 and 153 bytes a box at n = 1 to 5, at
    # most 32 (n + 1); --lam adds the corner arrays and the measures, for
    # 160, 192, 221, 253 and 287 bytes, about 32 (n + 4).  The check
    # charges 1.5 times that.
    _check_whitney_bytes(region, args.n, 48 * (args.n + (1 if args.lam is None else 4)))
    cubes = whitney_cubes(region, args.n)
    level, centers = cubes.level, box_centers(cubes)
    header = (["level", "side"] + [f"center_{i}" for i in range(args.n)]
              + ["center_t"])
    cols = [level, cubes.side, *centers.T]
    if args.lam is not None:
        header.append("weighted_measure")
        cols.append(weighted_measures(*box_corners(cubes), args.lam))
    levels, counts = np.unique(level, return_counts=True)
    summary = _resolved_config(args)
    summary.update(count=len(level),
                   levels={str(j): k for j, k in zip(levels.tolist(), counts.tolist())},
                   cubes=util.Records(level=level, index=cubes.index, center=centers,
                                      side=cubes.side))
    paths = _emit(args, summary, [("whitney-cubes", header, cols)])
    print(f"{len(level)} boxes across levels "
          f"{levels[0]}..{levels[-1]}" if len(level) else "0 boxes")
    print(f"wrote {paths[0]}")
    return 0


# --------------------------------------------------------------- parser


def _add_common(sub):
    sub.add_argument("--out", default=os.environ.get("HARMSPACE_OUT", "."),
                     help="output directory (default $HARMSPACE_OUT or .)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--config", default=None,
                     help="JSON config merged under explicit flags")
    sub.add_argument("--dry-run", action="store_true",
                     help="print the resolved configuration and exit")


def _add_region(sub, x_max, t_min, t_max):
    sub.add_argument("--x-max", type=float, default=x_max)
    sub.add_argument("--t-min", type=float, default=t_min)
    sub.add_argument("--t-max", type=float, default=t_max)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmspace",
        description="weighted harmonic function spaces: verification "
                    "experiments, norms, Carleson reports, ball operators")
    subs = parser.add_subparsers(dest="command", required=True)

    # no abbreviations: a leftover --key is always an override (--s, not --seed)
    v = subs.add_parser("verify", help="run registered experiments", allow_abbrev=False)
    v.add_argument("ids", nargs="*",
                   help="experiment ids, or 'all' (extra --key value pairs "
                        "override the experiment's parameters)")
    v.add_argument("--budget", choices=sorted(verify.BUDGETS), default="standard")
    v.add_argument("--threads", type=int, default=1)
    _add_common(v)
    v.set_defaults(overrides=None)

    m = subs.add_parser("norm", help="compute one norm of one field")
    m.add_argument("--space", required=True,
                   choices=sorted(set(_HALF_SPACES) | set(_BALL_SPACES)))
    m.add_argument("--field", required=True,
                   help="poisson[:s] | bergman-q:l[:s] | test-fn:l[:s] | "
                        "power:lam | expansion-file:PATH")
    m.add_argument("--n", type=int, default=2, help="boundary dimension")
    m.add_argument("--p", type=float, default=2.0)
    m.add_argument("--q", type=float, default=2.0)
    m.add_argument("--alpha", type=float, default=1.0)
    m.add_argument("--lam", type=float, default=1.0)
    m.add_argument("--t", type=float, default=1.0,
                   help="slice height (half-space) or radius (ball)")
    m.add_argument("--order", type=int, default=8)
    m.add_argument("--t-order", type=int, default=6)
    m.add_argument("--resolution", type=int, default=48)
    m.add_argument("--radial", type=int, default=40)
    _add_region(m, 8.0, 2.0 ** -4, 8.0)
    _add_common(m)
    m.set_defaults(func=_cmd_norm)

    c = subs.add_parser("carleson", help="box-condition report for a measure")
    c.add_argument("--measure", required=True, help="measure JSON file")
    c.add_argument("--condition", required=True,
                   choices=["vector", "single", "mixed", "tent"])
    c.add_argument("--s", default="0.5,0.5",
                   help="slot exponents for the vector condition")
    c.add_argument("--alpha", type=float, default=1.0)
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--q", type=float, default=2.0)
    c.add_argument("--tau", type=float, default=None)
    _add_region(c, 4.0, 2.0 ** -4, 4.0)
    _add_common(c)
    c.set_defaults(func=_cmd_carleson)

    b = subs.add_parser("ball", help="unit-ball multiplier and norm operators")
    b.add_argument("operation",
                   choices=["multiplier-check", "functional", "lambda",
                            "convolve"])
    b.add_argument("--symbol", default="decay:2.0",
                   help="decay:E | growth:E | identity | zero | file:PATH")
    b.add_argument("--cap", type=int, default=16, help="symbol degree cap")
    b.add_argument("--s", type=float, default=2.0)
    b.add_argument("--beta", type=float, default=1.0)
    b.add_argument("--lam-order", type=float, default=None,
                   help="optional derivative order inside the functional")
    b.add_argument("--rho-levels", type=int, default=8)
    b.add_argument("--expansion", default=None, help="expansion JSON file")
    b.add_argument("--kind", default="volume",
                   choices=list(_BALL_NORMS))
    b.add_argument("--left", default=None, help="left expansion file")
    b.add_argument("--right", default=None, help="right expansion file")
    b.add_argument("--p", type=float, default=2.0)
    b.add_argument("--q", type=float, default=2.0)
    b.add_argument("--alpha", type=float, default=1.0)
    b.add_argument("--t", type=float, default=1.0,
                   help="derivative order / radius / hardy scale")
    b.add_argument("--resolution", type=int, default=0,
                   help="sphere grid size (0 = pick from cap)")
    b.add_argument("--radial", type=int, default=40)
    _add_common(b)
    b.set_defaults(func=_cmd_ball)

    w = subs.add_parser("whitney", help="enumerate the box decomposition")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--lam", type=float, default=None,
                   help="also tabulate the weighted measure of each box")
    _add_region(w, 4.0, 2.0 ** -4, 4.0)
    _add_common(w)
    w.set_defaults(func=_cmd_whitney)
    return parser


@functools.lru_cache(maxsize=None)
def _parser(out_default: str) -> argparse.ArgumentParser:
    """build_parser() once per default of --out, the one value a build
    reads from outside ($HARMSPACE_OUT): a build takes milliseconds, and
    parsing (parse_known_args, _parse_with_config) never changes it."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser(os.environ.get("HARMSPACE_OUT", "."))
    args, extras = parser.parse_known_args(argv)
    try:
        if args.config:
            args, extras = _parse_with_config(parser, argv, args)
        if args.command == "ball":
            if args.operation in ("functional", "lambda") and not args.expansion:
                raise UsageError(f"{args.operation} needs --expansion FILE")
            if args.operation == "convolve" and not (args.left and args.right):
                raise UsageError("convolve needs --left and --right files")
        if args.command == "verify":  # the one command that reads leftover --key value
            return _cmd_verify(args, extras)
        if extras:
            raise UsageError(f"unrecognized arguments: {extras}")
        return _dry_run(args) if args.dry_run else args.func(args)
    except (ValueError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
