"""Named, budgeted verification experiments over the whole toolkit.

Each experiment pins down a family of numerically checkable statements:
exact geometric identities of the dyadic box cover, kernel calculus
against finite differences, scaling exponents of closed-form field
families, box-condition classifications matched against embedding
behavior, trace round trips, distance functionals, and sphere-series
multiplier functionals.

Experiments are deterministic given (budget, seed): random panels draw
from a generator seeded by (seed, crc32(id)), and reports are assembled
in registry order regardless of thread count.  A report is a plain dict
safe for canonical JSON: {id, params, verdict, checks,
fitted_constants, artifacts}.  Check rows assert identities, declared
tolerances, classifications, and stability under refinement; fitted
constants are only ever reported.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ball as bl
from . import carleson as ca
from . import kernels
from . import norms as no
from . import operators as op
from . import quadrature as quad
from . import util
from .fields import BergmanField, PoissonField, PowerField, ProductField, TestField, dilated
from .geometry import (
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
from .quadrature import QuadSpec


# ---------------------------------------------------------------- budgets


@dataclass(frozen=True)
class Budget:
    """Knobs that trade runtime for resolution, never correctness targets."""

    order: int          # quadrature points per panel
    t_order: int        # points per dyadic t-layer
    cube_order: int     # tensor order on single boxes
    fit_points: int     # dyadic abscissas per scaling fit
    panel: int          # random functions per ratio table
    cap: int            # expansion degree cap on the ball
    rho_levels: int     # depth of the 1 - 2^-i radius grid
    grid: int           # sampling lattice per axis
    scales: tuple       # region-doubling factors for divergence proxies


BUDGETS = {
    "smoke": Budget(5, 3, 3, 7, 4, 16, 8, 12, (1.0, 2.0)),
    "standard": Budget(8, 5, 4, 9, 6, 16, 10, 16, (1.0, 2.0, 4.0)),
    "deep": Budget(10, 6, 5, 11, 10, 24, 12, 24, (1.0, 2.0, 4.0)),
}


# ------------------------------------------------------------ check rows


def _close(name, value, target, tol):
    value = float(value)
    target = float(target)
    ok = math.isfinite(value) and abs(value - target) <= tol
    return {"name": name, "value": value, "target": target, "tol": float(tol), "ok": bool(ok)}


def _below(name, value, bound):
    value = float(value)
    return {"name": name, "value": value, "bound": float(bound), "ok": bool(value <= bound)}


def _above(name, value, bound):
    value = float(value)
    return {"name": name, "value": value, "bound": float(bound), "ok": bool(value >= bound)}


def _within(name, value, lo, hi):
    value = float(value)
    return {"name": name, "value": value, "lo": float(lo), "hi": float(hi),
            "ok": bool(lo <= value <= hi)}


def _true(name, flag, **info):
    return {"name": name, "ok": bool(flag), **info}


def _eq(name, value, target):
    def plain(v):
        return list(v) if isinstance(v, tuple) else v
    return {"name": name, "value": plain(value), "target": plain(target),
            "ok": bool(value == target)}


def _raises(name, fn, exc=ValueError):
    try:
        fn()
    except exc:
        return _true(name, True)
    except Exception as e:  # noqa: BLE001 - wrong exception type is a failure
        return _true(name, False, raised=type(e).__name__)
    return _true(name, False, raised="nothing")


def _reject_row(name, exp_id, p, key):
    """A _raises row: check_params refuses p with key just past the zero of the
    first need naming key (by 0.1 for a float, to the nearest integer for an int),
    found by the secant through p[key] and p[key] + 1: a probed margin is affine."""
    margin = next(m for _, m in EXPERIMENTS[exp_id].needs if key in _named(m))
    args = {k: p[k] for k in _named(margin)}
    m0, m1 = (margin(**{**args, key: p[key] + d}) for d in (0, 1))
    zero = p[key] - m0 / (m1 - m0)
    up = 1 if m1 > m0 else -1  # the refused side of the zero is -up
    bad = up * math.floor(up * zero) if isinstance(p[key], int) else zero - 0.1 * up
    return _raises(name, lambda: check_params(exp_id, {**p, key: bad}))


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Experiment:
    id: str
    summary: str
    fn: object
    defaults: dict
    needs: tuple


EXPERIMENTS: dict = {}


def _experiment(exp_id, summary, needs=(), **defaults):
    """Register fn.  needs holds (text, margin) pairs: the hypothesis in text
    holds if and only if margin(the parameters it names) > 0."""
    def wrap(fn):
        EXPERIMENTS[exp_id] = Experiment(exp_id, summary, fn, defaults, needs)
        return fn
    return wrap


def experiment_ids():
    return list(EXPERIMENTS)


# The inclusive range of each experiment parameter, the same in every
# experiment: the widest powers-of-two range (|x| <= 2^6 for a float) whose
# ends and corners ran every experiment at smoke with no float warning.
_RANGES = {
    "n": (1, 4),
    "m": (1, 2),
    **dict.fromkeys(("l", "m_order", "k_order"), (0, 16)),
    **dict.fromkeys(("beta", "delta", "gamma", "s"), (-2.0 ** 6, 2.0 ** 6)),
    **dict.fromkeys(("a1", "a2", "alpha", "b1", "b2", "s1", "s2"), (-2.0 ** 4, 2.0 ** 4)),
    "p_exp": (2.0 ** -3, 2.0 ** 2),
    "q": (-2.0 ** 6, 2.0 ** 4),
    "q_exp": (-2.0 ** 6, 2.0 ** 3),
}


def _coerce(key, default, value):
    kind = int if isinstance(default, int) else float
    try:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return kind(value)  # the range check rejects a NaN or an infinity
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"parameter {key!r} must be {what}, got {value!r}") from None


def _named(margin):
    return margin.__code__.co_varnames[:margin.__code__.co_argcount]


def check_params(exp_id, overrides=None):
    """exp_id's defaults under the overrides, each of its default's type, in its
    _RANGES range and with each need's margin > 0 (read in order, so a margin may
    assume the needs before it); else a ValueError naming the parameter."""
    if exp_id not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {exp_id!r}")
    exp = EXPERIMENTS[exp_id]
    params = dict(exp.defaults)
    unknown = sorted(set(overrides or {}) - set(params))
    if unknown:
        raise ValueError(f"unknown parameters for {exp_id}: {unknown} (accepts {sorted(params)})")
    params.update((k, _coerce(k, params[k], v)) for k, v in (overrides or {}).items())
    for key, val in params.items():
        lo, hi = _RANGES[key]
        if not lo <= val <= hi:
            raise ValueError(f"{exp_id} needs {key} in {lo}..{hi}, got {key} = {val}")
    for text, margin in exp.needs:
        args = {k: params[k] for k in _named(margin)}
        value = margin(**args)
        if not value > 0:  # NaN fails too
            got = ", ".join(f"{k} = {v}" for k, v in args.items())
            raise ValueError(f"{exp_id} needs {text}, got {got} (margin {value})")
    return params


def run_experiment(exp_id, budget="standard", seed=0, overrides=None):
    """Run one experiment and return its sanitized report dict."""
    params = check_params(exp_id, overrides)
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}")
    exp = EXPERIMENTS[exp_id]
    rng = np.random.default_rng([seed, zlib.crc32(exp_id.encode())])
    checks, consts, arts = exp.fn(BUDGETS[budget], rng, params)
    verdict = "pass" if all(c["ok"] for c in checks) else "fail"
    return _sanitize({
        "id": exp_id,
        "summary": exp.summary,
        "params": {**params, "budget": budget, "seed": seed},
        "verdict": verdict,
        "checks": checks,
        "fitted_constants": consts,
        "artifacts": arts,
    })


def resolve_suite(ids=None, overrides=None):
    """The named ids in registry order, or all ids if none is named ("all" names
    none); a ValueError for an unknown id, or for overrides not for one id."""
    ids = list(ids or ["all"])
    named = [i for i in ids if i != "all"]
    unknown = [i for i in named if i not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")
    if overrides:
        if len(ids) != 1 or not named:
            raise ValueError("parameter overrides need exactly one experiment id")
        check_params(ids[0], overrides)
    return [i for i in EXPERIMENTS if i in named or not named]


def run_suite(ids=None, budget="standard", seed=0, threads=1, overrides=None):
    """Run the experiments resolve_suite gives; reports come back in registry order."""
    chosen = resolve_suite(ids, overrides)

    def one(i):
        return run_experiment(i, budget, seed, overrides)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            reports = list(ex.map(one, chosen))  # in the order of chosen
    else:
        reports = [one(i) for i in chosen]
    n_fail = sum(r["verdict"] != "pass" for r in reports)
    return {
        "budget": budget,
        "seed": seed,
        "verdict": "pass" if n_fail == 0 else "fail",
        "n_pass": len(reports) - n_fail,
        "n_fail": n_fail,
        "reports": reports,
    }


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    return obj


# --------------------------------------------------------- small helpers


def _axis_point(n, t):
    return np.r_[np.zeros(n), float(t)]


def _laplacian_decay(name, fn, z0, h, scale_floor, rounding):
    """Halving the step 2h -> h divides the Laplacian residual of a harmonic
    fn by 3.2..4.8 (second order), unless it is already at rounding level."""
    r1 = abs(util.discrete_laplacian(fn, z0, 2 * h))
    r2 = abs(util.discrete_laplacian(fn, z0, h))
    if r2 / max(abs(fn(z0)), scale_floor) < rounding:
        return _true(name, True, note="residual at rounding floor")
    return _within(name, r1 / r2, 3.2, 4.8)


def _coeff_gap(xs, ys):
    """Largest coefficient difference between two lists of degree blocks."""
    return max(float(np.max(np.abs(a - c))) for a, c in zip(xs, ys))


def _source_series(n, region, spec, xs, integrand):
    """[sum over the source rule of w * integrand(x, dsq, s) for x in xs].

    The integrands see a source point only through dsq = |y|^2, so the
    rule is the radial rule of the ball |y| <= x_max tensored with the
    height rule; integrand sees dsq as a column (radial nodes, 1) and s as
    a row.
    """
    r, w_r = quad.radial_quadrature(n, 1.0, region.x_max, spec)
    s, w_s = quad.t_quadrature(region, spec)
    w = (w_r[:, None] * w_s).ravel()
    dsq = r[:, None] ** 2
    return np.array([float(w @ integrand(x, dsq, s).ravel()) for x in xs])


def _sup_on_grid(fld, lam, region, grid):
    """Weighted sup of a radial field on a log-height lattice; an array
    of sups, one per payload, for a stacked KernelIntegralField."""
    t = np.exp(np.linspace(math.log(region.t_min * 1.01),
                           math.log(region.t_max * 0.99), grid))
    r = np.linspace(0.0, region.x_max * 0.98, grid)
    vals = np.abs(fld.radial_values(r[:, None], t[None, :])) * t[None, :] ** lam
    sup = vals.max(axis=(-2, -1))
    return sup if sup.ndim else float(sup)


# ================================================================ geometry


@_experiment("whitney", "dyadic box cover: exact geometry and weighted-measure scaling")
def _exp_whitney(b, rng, p):
    checks, consts, arts = [], {}, {}
    count_rows = []
    for n, x_max in ((1, 20.0), (2, 2.0)):
        region = Region(x_max, 2.0 ** -4, 32.0)
        cubes = whitney_cubes(region, n)
        level = cubes.level
        levels, sizes = (a.tolist() for a in np.unique(level, return_counts=True))
        checks.append(_true(f"n{n}-levels", levels == list(range(-4, 5)),
                            got=[levels[0], levels[-1]]))
        count_rows += [[n, j, k] for j, k in zip(levels, sizes)]

        lo, hi = box_corners(cubes)
        # diameter / distance to t = 0, which the bottom face attains
        ratios = np.linalg.norm(hi - lo, axis=1) / lo[:, -1]
        target = math.sqrt(n + 1)
        checks.append(_close(f"n{n}-diam-over-dist",
                             float(np.max(np.abs(ratios - target))), 0.0, 1e-13))

        # pairwise intersections of the first 40 boxes of each level
        worst = 0.0
        for j in levels:
            rows = np.flatnonzero(level == j)[:40]
            i, k = np.triu_indices(len(rows), 1)
            ilo = np.maximum(lo[rows][i], lo[rows][k])
            ihi = np.maximum(ilo, np.minimum(hi[rows][i], hi[rows][k]))
            worst = max(worst, float(box_volumes(ilo, ihi).max(initial=0.0)))
        checks.append(_close(f"n{n}-same-level-overlap", worst, 0.0, 0.0))

        tiled = all(hi[level == j][0, -1] == lo[level == j + 1][0, -1]
                    for j in range(-4, 4))
        checks.append(_true(f"n{n}-height-slabs-tile", tiled))

        vol = sum(box_volumes(*clipped_corners(lo, hi, region)).tolist())
        full = (2.0 * x_max) ** n * (32.0 - 2.0 ** -4)
        checks.append(_close(f"n{n}-cover-volume", vol / full, 1.0, 1e-12))

        pts = sample_region(region, n, 300 * b.grid, seed=int(rng.integers(2 ** 31)))
        first = np.flatnonzero(level == 0)[:8]
        probe = np.stack([lo[first] + 1e-6, hi[first] - 1e-6], axis=1)
        pts = np.vstack([pts, probe.reshape(-1, n + 1)])
        counts = overlap_counts(pts, *enlarged_corners(cubes))
        bound = 4 if n == 1 else 2 ** (n + 1)
        checks.append(_below(f"n{n}-enlarged-overlap", int(counts.max()), bound))
        consts[f"n{n}_overlap_max"] = int(counts.max())

        eta = box_centers(cubes)[:, -1].tolist()
        for lam in (-0.5, 0.0, 1.0, 2.0):
            e = n + 1 + lam
            r = weighted_measures(lo, hi, lam) / np.array([v ** e for v in eta])
            checks.append(_close(f"n{n}-measure-ratio-lam{lam}",
                                 float(r.max() / r.min() - 1.0), 0.0, 1e-12))
            consts[f"n{n}_measure_over_eta_lam{lam}"] = float(r.mean())

    sample = whitney_cubes(Region(2.0, 0.5, 2.0), 1)[:1]
    checks.append(_true("degenerate-region-empty",
                        whitney_cubes(Region(1.0, 4.0, 2.0), 1).index.shape == (0, 1)))
    checks.append(_raises("enlarge-factor-cap",
                          lambda: enlarged_corners(sample, 4.0 / 3.0)))
    checks.append(_close("enlarge-identity",
                         box_volumes(*enlarged_corners(sample, 1.0))[0],
                         box_volumes(*box_corners(sample))[0], 0.0))
    arts["level_counts"] = {"header": ["n", "level", "count"], "rows": count_rows}
    return checks, consts, arts


# ================================================================= kernels


@_experiment("kernels", "kernel calculus: Laplacian decay, derivative ladders, unit mass")
def _exp_kernels(b, rng, p):
    checks, consts, arts = [], {}, {}

    checks.append(_close("q0-point-n1",
                         BergmanField(0, 1, (0.0, 1.0)).values((0.0, 1.0)),
                         1.0 / (2.0 * math.pi), 1e-12))
    w3 = _axis_point(3, 1.0)
    checks.append(_close("testfn0-point-n3", TestField(0, 3, w3).values(w3), 0.25, 1e-12))
    checks.append(_close("testfn1-point-n3", TestField(1, 3, w3).values(w3), -0.25, 1e-12))
    checks.append(_eq("profile-poly-2-n3",
                      list(kernels.deriv_polynomial(2, 3)), [-2, 0, 8]))
    za, wa = (0.3, -0.2, 0.9), (0.1, 0.4, 1.7)
    checks.append(_close("q-argument-symmetry",
                         BergmanField(2, 2, wa).values(za) - BergmanField(2, 2, za).values(wa),
                         0.0, 1e-15))

    # derivative ladders against centered finite differences; the step
    # balances rounding amplification at order 5 against truncation
    h = 0.04
    for n in (1, 2, 3):
        dsq = 0.4 ** 2 + 0.1 ** 2 * (n - 1)
        tau0 = 2.3
        for l in range(5):
            fd = util.fd_derivative(
                lambda u, n=n: kernels.poisson_from_sq(n, dsq, u), tau0, l + 1, h)
            want = (-2.0) ** (l + 1) / math.factorial(l) * fd
            got = kernels.bergman_from_sq(l, n, dsq, tau0)
            checks.append(_close(f"q{l}-ladder-n{n}", got / want - 1.0, 0.0, 1e-6))
    for n in (2, 3):
        w = _axis_point(n, 1.0)
        x0 = np.zeros(n)
        x0[0] = 0.7
        t0 = 1.3
        f0 = TestField(0, n, w)
        for j in range(1, 5):
            fd = util.fd_derivative(lambda t, x0=x0: f0.values(np.r_[x0, t]), t0, j, h)
            got = TestField(j, n, w).values(np.r_[x0, t0])
            checks.append(_close(f"testfn-ladder-{j}-n{n}", fd / got - 1.0, 0.0, 1e-6))

    # Laplacian residual decays at second order: halving h quarters it.
    # P(x, t) has its source on the boundary, which no PoissonField has
    probes = []
    for n in (1, 2, 3):
        w = _axis_point(n, 1.0)
        z0 = np.zeros(n + 1)
        z0[0], z0[-1] = 0.3, 1.1
        probes.append((f"poisson-n{n}",
                       lambda q, n=n: kernels.poisson_from_sq(n, np.sum(q[:-1] * q[:-1]), q[-1]),
                       z0))
        for l in (0, 2):
            probes.append((f"q{l}-n{n}", BergmanField(l, n, w).values, z0))
        if n >= 2:
            for l in (0, 2):
                probes.append((f"testfn{l}-n{n}", TestField(l, n, w).values, z0))
    for name, fn, z0 in probes:
        checks.append(_laplacian_decay(f"laplacian-{name}", fn, z0, 0.04, 1e-12, 1e-11))

    # boundary kernel integrates to one: P(x, 1) is the field of the
    # source at height 0.5, seen at height 0.5
    spec = QuadSpec(order=max(8, b.order), t_order=b.t_order)
    for n in (1, 2, 3):
        r, wr = quad.radial_quadrature(n, 1.0, 1e5, spec)
        mass = float(wr @ PoissonField(n, _axis_point(n, 0.5)).radial_values(r, 0.5))
        checks.append(_close(f"poisson-mass-n{n}", mass, 1.0, 1e-4))
        consts[f"poisson_mass_n{n}"] = mass

    arts["profile_polynomials"] = {
        "header": ["l", "n", "coeffs"],
        "rows": [[l, n, list(kernels.deriv_polynomial(l, n))]
                 for n in (2, 3) for l in range(4)],
    }
    return checks, consts, arts


# ========================================================== value vs mean


@_experiment("lemma2", "interior value bounded by the weighted box average", alpha=1.0)
def _exp_lemma2(b, rng, p):
    checks, consts, arts = [], {}, {}
    alpha = p["alpha"]
    spec = QuadSpec(order=b.order, t_order=b.t_order,
                    cube_order=max(4, b.cube_order))
    region = Region(4.0, 2.0 ** -3, 4.0)
    rows = []
    worst = 0.0
    exps = (0.7, 1.0, 2.0)
    for n in (1, 2):
        flds = [PoissonField(n, _axis_point(n, 1.0)),
                BergmanField(1, n, _axis_point(n, 1.0))]
        if n == 2:
            flds.append(TestField(1, 2, _axis_point(2, 1.0)))
        cubes = whitney_cubes(region, n)
        sel = []
        for lev in np.unique(cubes.level):
            group = np.flatnonzero(cubes.level == lev)
            sel += [group[len(group) // 2], group[0]]
        for f in flds:
            # one row per selected box, one column per exponent
            table = np.array([no.lemma2_ratio(f, exps, alpha, cubes[[i]], spec)
                              for i in sel])
            for q, vals in zip(exps, table.T):
                checks.append(_true(
                    f"finite-n{n}-{f.label}-p{q}",
                    bool(np.all(np.isfinite(vals)) and np.all(vals > 0))))
                rows.append([n, f.label, q, float(vals.max())])
                worst = max(worst, float(vals.max()))
    consts["max_ratio"] = worst

    # the extremal ratio is a quadrature-stable quantity
    f0 = PoissonField(1, _axis_point(1, 1.0))
    cubes = whitney_cubes(region, 1)
    cube1 = cubes[np.flatnonzero(cubes.level == -2)[:1]]
    (r_a,) = no.lemma2_ratio(f0, (1.0,), alpha, cube1, spec)
    (r_b,) = no.lemma2_ratio(f0, (1.0,), alpha, cube1, spec.refined())
    checks.append(_close("ratio-refinement-drift", r_a / r_b, 1.0, 5e-3))
    arts["ratios"] = {"header": ["n", "field", "p", "max_ratio"], "rows": rows}
    return checks, consts, arts


# ===================================================== kernel decay fits


def _scaling_fit(b, series, target, name, shift=0.0):
    """Log-log slope of series(x, spec) against x + shift on a dyadic grid, on target,
    stable under spec.refined(), small residual: (checks, consts, arts, intercept)."""
    half = b.fit_points // 2
    x = 2.0 ** np.arange(-half, b.fit_points - half)
    spec = QuadSpec(order=b.order, t_order=b.t_order)
    vals = series(x, spec)
    slope, icept, resid = util.fit_loglog(x + shift, vals)
    slope2 = util.fit_loglog(x + shift, series(x, spec.refined()))[0]
    checks = [
        _close("slope", slope, target, 0.1),
        _below("slope-drift", abs(slope2 - slope), 0.05),
        _below("fit-residual", resid, 0.05),
    ]
    arts = {"fit": {"header": [name, "value"],
                    "rows": [[float(v + shift), float(y)] for v, y in zip(x, vals)]}}
    return checks, {"slope": slope}, arts, icept


def _source_fit(b, p, exp_id, integrand, target, name):
    """lemma4 and lemma5: the scaling fit of a _source_series over a wide
    region, with a reject row on gamma and the fitted prefactor."""
    region = Region(4096.0, 2.0 ** -12, 4096.0)

    def series(xs, spec):
        return _source_series(p["n"], region, spec, xs, integrand)

    checks, consts, arts, icept = _scaling_fit(b, series, target, name)
    checks.append(_reject_row("precondition-reject", exp_id, p, "gamma"))
    consts["prefactor"] = math.exp(icept)
    return checks, consts, arts


@_experiment("lemma4", "kernel power integral: scaling in the evaluation height",
             needs=(("delta > -1", lambda delta: delta + 1.0),
                    ("gamma > n + 1 + delta", lambda gamma, n, delta: gamma - (n + 1 + delta))),
             n=1, m_order=0, gamma=3.0, delta=0.0)
def _exp_lemma4(b, rng, p):
    n, m, gamma, delta = p["n"], p["m_order"], p["gamma"], p["delta"]

    def integrand(t, dsq, s):
        q = np.abs(kernels.bergman_from_sq(m, n, dsq, t + s))
        return q ** (gamma / (n + m + 1)) * s ** delta

    return _source_fit(b, p, "lemma4", integrand, delta - gamma + n + 1, "t")


@_experiment("lemma5", "reflected-distance power integral: scaling in the source height",
             needs=(("alpha > -1", lambda alpha: alpha + 1.0),
                    ("n + alpha < 2 * gamma - 1",
                     lambda n, alpha, gamma: (2.0 * gamma - 1.0) - (n + alpha))),
             n=1, alpha=0.0, gamma=2.0)
def _exp_lemma5(b, rng, p):
    n, alpha, gamma = p["n"], p["alpha"], p["gamma"]

    def integrand(s, dsq, t):
        return t ** alpha * (dsq + (t + s) ** 2) ** -gamma

    return _source_fit(b, p, "lemma5", integrand, alpha + n + 1 - 2.0 * gamma, "s")


# ====================================================== excursion covering


@_experiment("lemma6", "excursion sets of nearby boxes cover a full box",
             needs=(("n <= 3 (a memory limit at every budget, not a hypothesis of the"
                     " lemma: at n = 4 the cover's mask matrix exceeds MAX_COVER_CELLS)",
                     lambda n: 4 - n),),
             l=1, n=2)
def _exp_lemma6(b, rng, p):
    n, l0 = p["n"], p["l"]
    checks, consts, arts = [], {}, {}
    rows = []
    for li in (l0, l0 + 1):
        delta = kernels.default_delta(li, n)
        for w in (_axis_point(n, 1.0), _axis_point(n, 0.25),
                  np.r_[np.full(n, 0.4), 2.0]):
            s = float(w[-1])
            frac, chosen, mult = ca.lemma6_cover(w, li, n, delta,
                                                 grid=b.grid, lattice=5)
            tag = f"l{li}-s{s}"
            checks.append(_close(f"cover-{tag}", frac, 1.0, 0.0))
            side_ok = all(0.25 * s <= c[-1] <= 4.0 * s for c in chosen)
            checks.append(_true(f"cover-sides-{tag}", side_ok))
            checks.append(_above(f"cover-mult-{tag}", mult, 1))

            # covering inequality on the grid counting measure: the box mass
            # is sandwiched between the excursion total and mult times it
            lo, hi = ca.qw_box(w)
            axes = [np.linspace(lo[i] + 1e-9, hi[i] - 1e-9, b.grid)
                    for i in range(n + 1)]
            sets = ca.excursion_masks(li, n, delta, axes, chosen)
            total = float(sets.sum())
            npts = float(sets.shape[1])
            checks.append(_above(f"transfer-lower-{tag}", total, npts))
            checks.append(_below(f"transfer-upper-{tag}", total, mult * npts))
            rows.append([li, s, frac, len(chosen), mult])
            consts[f"multiplicity_l{li}"] = max(consts.get(f"multiplicity_l{li}", 0),
                                                int(mult))

    # atomic mass transfer reported against a dyadic density
    delta = kernels.default_delta(l0, n)
    mu = ca.AtomicMeasure.discretized_weight(Region(4.0, 2.0 ** -4, 4.0), n, 0.0)
    w = _axis_point(n, 1.0)
    _, chosen, _ = ca.lemma6_cover(w, l0, n, delta, grid=b.grid, lattice=5)
    tmass = sum(ca.excursion_mass(mu, chosen, l0, delta).tolist())
    lo, hi = ca.qw_box(w)
    qmass = float(mu.masses_in_boxes(lo[None], hi[None])[0])
    consts["atomic_transfer_ratio"] = tmass / qmass if qmass else float("inf")
    arts["covers"] = {"header": ["l", "s", "fraction", "boxes", "multiplicity"],
                      "rows": rows}
    return checks, consts, arts


# ======================================================== norm scaling fits


@_experiment("eq14-scaling", "slice-norm scaling of the dilated decaying family",
             needs=(("n >= 2 (the test fields are degenerate at n = 1)", lambda n: n - 1),
                    ("s > 0 (the dilation height of the source)", lambda s: s),
                    ("p_exp * (n - 1 + l) > n", lambda p_exp, n, l: p_exp * (n - 1 + l) - n)),
             n=3, l=1, p_exp=2.0, s=1.0)
def _exp_eq14(b, rng, p):
    n, l, pe, s = p["n"], p["l"], p["p_exp"], p["s"]
    f = dilated(TestField, l, n, s)
    region = Region(512.0, 2.0 ** -10, 1024.0)

    def series(tg, spec):
        return np.array([no.slice_norm(f, pe, t, region, spec) for t in tg])

    return _scaling_fit(b, series, n / pe - (n - 1 + l), "t_plus_s", shift=s)[:3]


@_experiment("eq15-scaling", "mixed-norm scaling of the dilated decaying family",
             needs=(("q_exp * (n - 1 + l) > n", lambda q_exp, n, l: q_exp * (n - 1 + l) - n),
                    ("alpha * p_exp > 0", lambda alpha, p_exp: alpha * p_exp),
                    ("(n / q_exp - (n - 1 + l) + alpha) * p_exp < 0",
                     lambda n, q_exp, l, alpha, p_exp:
                     -((n / q_exp - (n - 1 + l) + alpha) * p_exp))),
             n=3, l=1, p_exp=2.0, q_exp=2.0, alpha=0.5)
def _exp_eq15(b, rng, p):
    n, l, pe, qe, alpha = p["n"], p["l"], p["p_exp"], p["q_exp"], p["alpha"]
    e1 = n / qe - (n - 1 + l)
    region = Region(512.0, 2.0 ** -10, 2.0 ** 10)

    def series(sg, spec):
        return np.array([
            no.mixed_norm(dilated(TestField, l, n, s), pe, qe, alpha, region, spec)
            for s in sg
        ])

    return _scaling_fit(b, series, e1 + alpha, "s")[:3]


@_experiment("thm4-scaling", "weighted volume-norm scaling of the dilated family",
             needs=(("n >= 2 (the test fields are degenerate at n = 1)", lambda n: n - 1),
                    ("alpha * p_exp - 1 > -1", lambda alpha, p_exp: (alpha * p_exp - 1.0) + 1.0),
                    ("p_exp * (n - 1 + l - alpha) > n",
                     lambda p_exp, n, l, alpha: p_exp * (n - 1 + l - alpha) - n)),
             n=3, l=1, p_exp=2.0, alpha=0.5)
def _exp_thm4_scaling(b, rng, p):
    n, l, pe, alpha = p["n"], p["l"], p["p_exp"], p["alpha"]
    weight = alpha * pe - 1.0
    region = Region(512.0, 2.0 ** -10, 2.0 ** 10)

    def series(sg, spec):
        return np.array([
            no.bergman_norm(dilated(TestField, l, n, s), pe, weight, region,
                            spec, method="layers") ** pe
            for s in sg
        ])

    return _scaling_fit(b, series, n - pe * (n - 1 + l - alpha), "s")[:3]


# ===================================================== norm cross identities


@_experiment("norm-identities", "cross-implementation equalities between norms")
def _exp_norm_identities(b, rng, p):
    checks, consts, arts = [], {}, {}
    spec = QuadSpec(order=b.order, t_order=b.t_order,
                    cube_order=max(4, b.cube_order))
    f1 = BergmanField(2, 1, (0.0, 1.0))
    reg1 = Region(8.0, 2.0 ** -4, 8.0)

    mixed = no.mixed_norm(f1, 2.0, 2.0, 0.75, reg1, spec)
    volume = no.bergman_norm(f1, 2.0, 0.5, reg1, spec, method="cubes")
    checks.append(_close("mixed-eq-volume-n1", mixed / volume, 1.0, 1e-3))

    f2 = TestField(1, 2, _axis_point(2, 1.0))
    reg2 = Region(6.0, 2.0 ** -2, 4.0)
    consts["mixed_vs_volume_n2"] = (
        no.mixed_norm(f2, 2.0, 2.0, 0.75, reg2, spec)
        / no.bergman_norm(f2, 2.0, 0.5, reg2, spec, method="cubes"))

    tent = no.triebel_norm(f1, 2.0, 2.0, 0.75, reg1, spec)
    checks.append(_close("tent-eq-mixed-pp", tent / mixed, 1.0, 1e-10))

    layers = no.bergman_norm(f1, 2.0, 0.5, reg1, spec, method="layers")
    checks.append(_close("layers-eq-cubes", layers / volume, 1.0, 2e-3))

    val, _pt = no.sup_norm(PowerField(1, 1.5), 1.5, reg1)
    checks.append(_close("power-sup-unit", val, 1.0, 1e-12))

    disc, integ, ratio = no.discrete_vs_integral(f1, 1.0, 0.75, reg1, spec)
    checks.append(_within("discrete-vs-integral", ratio, 0.2, 5.0))
    consts["discrete_over_integral"] = ratio

    row_q = no.norm_row("volume", f1, reg1, 1.0, spec, p=0.5)
    row_n = no.norm_row("volume", f1, reg1, 1.0, spec, p=2.0)
    checks.append(_true("quasi-flag", row_q["quasi"] and not row_n["quasi"]))
    return checks, consts, arts


# ==================================================== box-condition panels


def _carleson_panel(b):
    """Region, norm spec, six measures with documented expected
    classification (True = growing), cubes, levels."""
    n = 1
    region = Region(8.0, 2.0 ** -5, 8.0)
    spec = QuadSpec(order=b.order, t_order=b.t_order,
                    cube_order=max(3, b.cube_order))
    cubes = whitney_cubes(region, n)
    levels = list(range(0, -5, -1))

    def ray(x_target, label):
        pts, ts = [], []
        for j in levels:
            side = 2.0 ** j
            k = math.floor(x_target / side)
            x = (k + 0.5) * side
            pts.append(np.full(n, x))
            ts.append(1.5 * side)
        return ca.AtomicMeasure(np.array(pts), ts, np.ones(len(ts)), label=label)

    zero = ca.AtomicMeasure(np.zeros((1, n)), [1.0], [0.0], label="zero")
    atom = ca.AtomicMeasure.point_mass(np.full(n, 0.1), 1.0, 1.0, label="single-atom")
    dens = ca.AtomicMeasure.discretized_weight(region, n, 3.0, label="dyadic-density")
    xs = np.linspace(-region.x_max * 0.9, region.x_max * 0.9, 81)
    pts = xs[:, None] * np.ones(n)[None, :]
    step = xs[1] - xs[0]
    slc = ca.AtomicMeasure(pts, np.full(len(xs), 1.5), np.full(len(xs), step ** n),
                           label="boundary-slice")
    return region, spec, [
        (zero, False),
        (atom, False),
        (dens, False),
        (slc, False),
        (ray(0.0, "ray-origin"), True),
        (ray(0.7, "ray-offset"), True),
    ], cubes, levels


_GROWTH_FACTOR = 10.0

_PANEL_HEADER = ["measure", "condition_grows", "condition_growth",
                 "embedding_grows", "embedding_growth"]


def _growth_classify(ratios):
    """Deep-level dominance over shallow levels flags a growing sequence."""
    shallow = max(ratios[:2])
    deep = max(ratios[-2:])
    if deep == 0.0:
        return False, 0.0
    if shallow == 0.0:
        return True, float("inf")
    g = deep / shallow
    return g >= _GROWTH_FACTOR, g


def _mass_cube_sequence(mu, cubes, levels):
    """Per level, the box holding the most mass (fallback: nearest the
    axis), as a WhitneyBoxes record in the order of levels."""
    seq = []
    for j in levels:
        rows = np.flatnonzero(cubes.level == j)
        group = cubes[rows]
        masses = mu.masses_in_boxes(*box_corners(group))
        if masses.max() > 0:
            k = int(np.argmax(masses))
        else:
            k = int(np.argmin(np.abs(box_centers(group)[:, 0] - group.side / 2.0)))
        seq.append(rows[k])
    return cubes[np.array(seq)]


def _embedding_ratios(mu, seq, l, mass, norm, cache):
    """Per box of seq: mass(sub, f) / norm(f), for mu restricted to the box
    and the test field centered at it, so each level probes its own box
    the way the box condition does.  cache keeps norm(f) by center."""
    out = []
    lo, hi = box_corners(seq)
    for blo, bhi, ctr in zip(lo, hi, box_centers(seq).tolist()):
        sub = mu.restricted(blo, bhi)
        if sub is None or sub.total_mass() == 0.0:
            out.append(0.0)
            continue
        w = tuple(ctr)
        f = BergmanField(l, mu.n, np.asarray(w))
        if w not in cache:
            cache[w] = norm(f)
        out.append(mass(sub, f) / cache[w])
    return out


def _panel_checks(tag, mu, expect, rep, emb, levels, checks, consts, rows):
    """Condition and embedding classify one measure alike and as expected;
    appends checks, constant and panel row, each prefixed by a tag."""
    pre = f"{tag}-" if tag else ""
    lm = rep.level_maxima()
    cond_bad, cond_g = _growth_classify([lm.get(j, 0.0) for j in levels])
    emb_bad, emb_g = _growth_classify(emb)
    checks.append(_true(f"{pre}classes-agree-{mu.label}", cond_bad == emb_bad,
                        condition=cond_bad, embedding=emb_bad))
    checks.append(_true(f"{pre}expected-{mu.label}", cond_bad == expect))
    if expect:
        checks.append(_above(f"{pre}cond-growth-{mu.label}", cond_g, _GROWTH_FACTOR))
        checks.append(_above(f"{pre}emb-growth-{mu.label}", emb_g, _GROWTH_FACTOR))
    consts[f"{tag}_constant_{mu.label}" if tag else f"constant_{mu.label}"] = rep.constant
    row = [mu.label, bool(cond_bad), float(cond_g), bool(emb_bad), float(emb_g)]
    rows.append([tag, *row] if tag else row)


def _box_condition_panel(b, l, conditions):
    """Box conditions against the embedding over the Carleson panel.

    conditions lists (tag, condition, mass, norm) per condition: for each
    measure mu, condition(mu, cubes) is checked against the mass ratios
    mass(sub, f) / norm(f, region, spec) of the test fields (see
    _embedding_ratios), with one norm cache per condition.  An empty tag
    leaves the check names and panel rows untagged."""
    region, spec, panel, cubes, levels = _carleson_panel(b)
    caches = [{} for _ in conditions]
    checks, consts, rows = [], {}, []
    for mu, expect in panel:
        seq = _mass_cube_sequence(mu, cubes, levels)
        for (tag, condition, mass, norm), cache in zip(conditions, caches):
            emb = _embedding_ratios(mu, seq, l, mass,
                                    lambda f: norm(f, region, spec), cache)
            _panel_checks(tag, mu, expect, condition(mu, cubes), emb, levels,
                          checks, consts, rows)
    header = ["condition", *_PANEL_HEADER] if conditions[0][0] else _PANEL_HEADER
    return checks, consts, {"panel": {"header": header, "rows": rows}}


def _product_embedding(pe, s_vec):
    """(mass, norm) of _box_condition_panel for the product of len(s_vec)
    test fields over their weighted volume norms."""
    def mass(sub, f):
        return sub.integrate(lambda pts: np.abs(f.values(pts)) ** (pe * len(s_vec)))

    def norm(f, region, spec):
        # one cubes-path norm per distinct slot exponent
        by_s = {s: no.bergman_norm(f, pe, s, region, spec, method="cubes") ** pe
                for s in set(s_vec)}
        return float(np.prod([by_s[s] for s in s_vec]))

    return mass, norm


@_experiment("thm2-equivalence", "vector box condition vs product-family mass ratios",
             needs=(("min((s1, s2)[:m]) > -1", lambda s1, s2, m: min((s1, s2)[:m]) + 1.0),
                    ("p_exp * (2 + l) > 2 + max((s1, s2)[:m])",
                     lambda p_exp, l, s1, s2, m: p_exp * (2 + l) - (2 + max((s1, s2)[:m])))),
             m=2, p_exp=1.0, s1=0.5, s2=0.5, l=3)
def _exp_thm2(b, rng, p):
    m, pe, l = p["m"], p["p_exp"], p["l"]
    s_vec = (p["s1"], p["s2"])[:m]
    return _box_condition_panel(b, l, [(
        "", lambda mu, cubes: ca.condition_vector(mu, cubes, m, s_vec),
        *_product_embedding(pe, s_vec))])


@_experiment("thm3-carleson", "single-function box condition vs mass ratios",
             needs=(("alpha > -1", lambda alpha: alpha + 1.0),
                    ("1 + alpha < p_exp * (2 + l) - 1",
                     lambda alpha, p_exp, l: (p_exp * (2 + l) - 1) - (1 + alpha))),
             p_exp=1.0, alpha=0.5, l=3)
def _exp_thm3(b, rng, p):
    pe, alpha, l = p["p_exp"], p["alpha"], p["l"]
    return _box_condition_panel(b, l, [(
        "", lambda mu, cubes: ca.condition_single(mu, cubes, alpha),
        *_product_embedding(pe, (alpha,)))])


@_experiment("thm4-carleson", "mixed and tent box conditions vs mass ratios",
             needs=(("alpha > 0", lambda alpha: alpha),
                    # non-strict: positive while p_exp is below q_exp's next float
                    ("p_exp <= q_exp",
                     lambda p_exp, q_exp: math.nextafter(q_exp, math.inf) - p_exp),
                    ("p_exp * (2 + l) > 1 + alpha * p_exp",
                     lambda p_exp, l, alpha: p_exp * (2 + l) - (1 + alpha * p_exp))),
             p_exp=1.0, q_exp=2.0, alpha=0.5, l=3)
def _exp_thm4_carleson(b, rng, p):
    pe, qe, alpha, l = p["p_exp"], p["q_exp"], p["alpha"], p["l"]
    return _box_condition_panel(b, l, [
        ("mixed", lambda mu, cubes: ca.condition_mixed(mu, cubes, pe, qe, alpha),
         lambda sub, f: sub.integrate(lambda pts: np.abs(f.values(pts)) ** qe) ** (1.0 / qe),
         lambda f, region, spec: no.mixed_norm(f, qe, pe, alpha, region, spec)),
        ("tent", lambda mu, cubes: ca.condition_tent(mu, cubes, pe, alpha),
         lambda sub, f: sub.integrate(lambda pts: np.abs(f.values(pts)) ** pe),
         lambda f, region, spec: no.triebel_norm(f, pe, 2.0, alpha, region, spec) ** pe),
    ])


# ======================================================= trace round trips


@_experiment("thm5-trace", "mean-extension trace round trip and slot collapse",
             needs=(("1 <= k_order <= 2 (the truncated region resolves the round trip "
                     "only at those kernel orders)", lambda k_order: min(k_order, 3 - k_order)),),
             k_order=2, l=0)
def _exp_thm5(b, rng, p):
    n = 3
    g = TestField(p["l"], n, _axis_point(n, 1.0))
    region = Region(32.0, 2.0 ** -6, 32.0)
    spec = QuadSpec(order=8, t_order=6, min_panel=0.25)
    # evaluation points with controlled radius; the node grid refines at
    # the matching axis offsets so the kernel peak is resolved everywhere
    dirs = rng.normal(size=(20, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 4.0, 20)
    ts = np.exp(rng.uniform(math.log(0.25), math.log(4.0), 20))
    pts = np.column_stack([dirs * radii[:, None], ts])
    offsets = (0.0, 1.0, 2.0, 3.0, 4.0)
    checks, consts, arts = [], {}, {}
    rows = []
    z = pts[:4]
    shift = np.zeros_like(z)
    shift[:, 0] = 0.3
    z1, z2 = pts[:8], np.roll(pts[:8], -3, axis=0)
    # the m-slot extension is one field at the slots' mean, so that field
    # is the trace for m = 1 and m = 2: build it once and evaluate it in
    # one call at the round-trip points, the three slot checks' means and
    # the 8 slot pairs' means (a point's value does not depend on the rest)
    ext = op.extension_field(g, p["k_order"], region, spec, offsets)
    vals, off, diag, swap, pair_vals = np.split(ext.values(np.concatenate([
        pts, (z + shift + (z - shift)) / 2, (z + z) / 2, (z - shift + (z + shift)) / 2,
        (z1 + z2) / 2])), [20, 24, 28, 32])
    rel = np.abs(vals / g.values(pts) - 1.0)
    for m in (1, 2):
        checks.append(_below(f"roundtrip-m{m}", float(rel.max()), 0.02))
        consts[f"roundtrip_err_m{m}"] = float(rel.max())
        rows.extend([[m, *map(float, q), float(r)] for q, r in zip(pts, rel)])
    base = vals[:4]
    checks.append(_close("mean-slot-collapse",
                         float(np.max(np.abs(off / base - 1.0))), 0.0, 1e-12))
    checks.append(_close("diagonal-matches-trace",
                         float(np.max(np.abs(diag / base - 1.0))), 0.0, 1e-12))
    checks.append(_close("slot-symmetry",
                         float(np.max(np.abs(swap - off))), 0.0, 0.0))
    # sup over 8 slot pairs (z_i, z_{i+3 mod 8}) of |f(z1, z2)| (t1 t2)^(1/2)
    g_sup = _sup_on_grid(g, 1.0, Region(16.0, 2.0 ** -5, 16.0), 32)
    best = 0.0
    for val, t1, t2 in zip(pair_vals, z1[:, -1], z2[:, -1]):
        best = max(best, abs(float(val)) * float(t1) ** 0.5 * float(t2) ** 0.5)
    consts["sup_ratio"] = best / g_sup
    arts["roundtrip"] = {"header": ["m", "x1", "x2", "x3", "t", "rel_err"],
                         "rows": rows}
    return checks, consts, arts


@_experiment("thm6-trace", "diagonal-norm vs slot-norm comparability",
             needs=(("s1 > -1", lambda s1: s1 + 1.0), ("s2 > -1", lambda s2: s2 + 1.0),
                    ("k_order > 1 + s1 + s2", lambda k_order, s1, s2: k_order - (1 + s1 + s2))),
             k_order=2, s1=0.25, s2=0.25, p_exp=1.0)
def _exp_thm6(b, rng, p):
    n, m = 1, 2
    s_vec = (p["s1"], p["s2"])
    pe = p["p_exp"]
    lam = (m - 1) * (n + 1) + sum(s_vec)
    region = Region(8.0, 2.0 ** -4, 8.0)
    spec = QuadSpec(order=b.order, t_order=b.t_order,
                    cube_order=max(3, b.cube_order))
    outer = QuadSpec(order=max(4, b.order // 2), t_order=2,
                     cube_order=max(3, b.cube_order))
    checks, consts, arts = [], {}, {}

    # the two-slot extension of g is E((z1 + z2)/2) and its trace is E
    g = BergmanField(2, n, (0.0, 1.0))
    ext = op.extension_field(g, p["k_order"], region, spec)
    lhs = no.bergman_norm(ext, pe, lam, region, outer) ** pe
    rhs = op.mean_slot_integral(ext, pe, s_vec, region, outer)
    checks.append(_true("extension-sides-positive", lhs > 0 and rhs > 0))
    consts["extension_ratio"] = lhs / rhs

    fa = BergmanField(2, n, (0.0, 1.0))
    fb = BergmanField(2, n, (0.5, 2.0))
    trace = ProductField(fa, fb)  # the trace of fa(z1) fb(z2)

    def product_sides(q, spec):
        """The trace's L^q(m_lam) mass and the product of the slot masses."""
        lhs = no.bergman_norm(trace, q, lam, region, spec) ** q
        rhs = 1.0
        for f, s in zip((fa, fb), s_vec):
            rhs *= no.bergman_norm(f, q, s, region, spec) ** q
        return lhs, rhs

    lhs2, rhs2 = product_sides(pe, spec)
    checks.append(_true("product-sides-positive", lhs2 > 0 and rhs2 > 0))
    consts["product_ratio"] = lhs2 / rhs2
    lhs3, rhs3 = product_sides(pe, spec.refined())
    checks.append(_close("product-ratio-drift",
                         (lhs3 / rhs3) / (lhs2 / rhs2), 1.0, 0.05))

    # the trace's exact mass on the atoms of the discretized weight m_lam
    mu = ca.AtomicMeasure.discretized_weight(region, n, lam)
    at = np.ones(len(mu.points))
    for f in (fa, fb):
        at *= np.abs(f.values(mu.points)) ** pe
    lhs_at = float(mu.weight @ at)
    consts["atomic_ratio"] = lhs_at / rhs2
    checks.append(_close("atomic-vs-integral-mass", lhs_at / lhs2, 1.0, 0.5))

    lhs4, rhs4 = product_sides(1.5, spec)
    consts["product_ratio_p1.5"] = lhs4 / rhs4
    checks.append(_reject_row("kernel-order-reject", "thm6-trace", p, "k_order"))
    return checks, consts, arts


# =========================================================== slot operator


@_experiment("prop1", "product-kernel operator bounded by the weighted source norm",
             needs=(("p_exp * a1 > -1 - s1", lambda p_exp, a1, s1: p_exp * a1 - (-1.0 - s1)),
                    ("p_exp * a2 > -1 - s2", lambda p_exp, a2, s2: p_exp * a2 - (-1.0 - s2)),
                    ("p_exp * b1 > 2 + s1", lambda p_exp, b1, s1: p_exp * b1 - (2 + s1)),
                    ("p_exp * b2 > 2 + s2", lambda p_exp, b2, s2: p_exp * b2 - (2 + s2))),
             a1=0.0, a2=0.0, b1=5.0, b2=5.0, s1=0.5, s2=0.5, p_exp=1.0, l=9)
def _exp_prop1(b, rng, p):
    n, m = 1, 2
    a_vec = (p["a1"], p["a2"])
    b_vec = (p["b1"], p["b2"])
    s_vec = (p["s1"], p["s2"])
    pe = p["p_exp"]
    lam = (m - 1) * (n + 1) + sum(s_vec)
    inner = Region(8.0, 2.0 ** -4, 8.0)
    # slot tail decays like a small negative power, so start the doubling
    # probe far enough out that one more doubling only sees the settled tail
    slot = Region(32.0, 2.0 ** -6, 32.0)
    spec_in = QuadSpec(order=b.order, t_order=b.t_order)
    slot_spec = QuadSpec(order=3, t_order=2, min_panel=0.5)
    f = BergmanField(p["l"], n, (0.0, 1.0))

    def lhs_value(slot_region, inner_region):
        zpts, zw = quad.tensor_rule([quad.box_axis_quadrature(slot_region, slot_spec),
                                     quad.t_quadrature(slot_region, slot_spec)])
        w_slots = [zw * zpts[:, -1] ** s for s in s_vec]
        return op.sab_form(f, a_vec, b_vec, [zpts, zpts], w_slots, pe,
                           inner_region, spec_in)

    L = lhs_value(slot, inner)
    R = no.bergman_norm(f, pe, lam, inner, spec_in, method="cubes") ** pe
    checks = [_true("sides-positive", L > 0 and R > 0)]
    consts = {"ratio": L / R}
    g_slot = lhs_value(slot.scaled(2.0), inner) / L
    checks.append(_below("slot-region-growth", g_slot, 1.2))
    g_inner = lhs_value(slot, inner.scaled(2.0)) / L
    checks.append(_below("inner-region-growth", g_inner, 1.2))
    checks.append(_reject_row("exponent-reject", "prop1", p, "b1"))
    consts["slot_growth"] = g_slot
    consts["inner_growth"] = g_inner
    return checks, consts, {}


# ========================================================== distance suite


@_experiment("thm7-distance", "weighted-sup distance: split, bound, grid estimate",
             needs=(("p_exp * (2 + l) > 4 + alpha",
                     lambda p_exp, l, alpha: p_exp * (2 + l) - (4 + alpha)),
                    ("m_order > max((alpha + 4) / p_exp - 1, alpha / p_exp)",
                     lambda m_order, alpha, p_exp: m_order - max((alpha + 4) / p_exp - 1.0,
                                                                 alpha / p_exp))),
             p_exp=1.0, alpha=-0.5, m_order=4, l=4)
def _exp_thm7(b, rng, p):
    n = 3
    pe, alpha, mo, l = p["p_exp"], p["alpha"], p["m_order"], p["l"]
    lam = (alpha + n + 1) / pe
    f = TestField(l, n, _axis_point(n, 1.0))
    checks, consts, arts = [], {}, {}

    split_region = Region(64.0, 2.0 ** -7, 64.0)
    split_spec = QuadSpec(order=8, t_order=6, min_panel=0.25)
    sup_region = Region(16.0, 2.0 ** -5, 16.0)
    fsup = _sup_on_grid(f, lam, sup_region, 48)
    consts["field_sup"] = fsup

    # f1 and f2 as one stacked field: both parts share each kernel table
    recon_offsets = (0.0, 1.0, 2.0, 3.0)
    pair = op.distance_split(f, [0.2 * fsup], lam, mo, split_region,
                             split_spec, recon_offsets)
    dirs = rng.normal(size=(8, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 3.0, 8)
    ts = np.exp(rng.uniform(math.log(0.5), math.log(4.0), 8))
    pts = np.column_stack([dirs * radii[:, None], ts])
    v1, v2 = pair.values(pts)
    del pair
    recon = np.abs((v1 + v2) / f.values(pts) - 1.0)
    checks.append(_below("split-reconstruction", float(recon.max()), 1e-3))
    consts["reconstruction_err"] = float(recon.max())

    small_spec = QuadSpec(order=5, t_order=4, min_panel=0.25)
    sup_offsets = (0.0, 2.0, 4.0, 8.0)
    fracs = (0.05, 0.1, 0.2, 0.4, 0.8)
    eps_panel = [frac * fsup for frac in fracs]
    panel = op.distance_split(f, eps_panel, lam, mo, sup_region, small_spec,
                              sup_offsets, parts=(1,))
    sups = _sup_on_grid(panel, lam, sup_region, b.grid)
    del panel
    ratios = []
    rows = []
    for frac, eps, val in zip(fracs, eps_panel, sups):
        ratios.append(val / eps)
        rows.append([frac, eps, val, val / eps])
    checks.append(_true("sup-over-eps-finite",
                        bool(np.all(np.isfinite(ratios)))))
    consts["sup_over_eps_max"] = float(max(ratios))
    consts["sup_over_eps_min"] = float(min(ratios))
    arts["eps_panel"] = {"header": ["frac", "eps", "offset_sup", "ratio"],
                         "rows": rows}

    # the refined split sets this experiment's peak memory, so the stacked
    # fields above are gone by now and only part 1 is built
    eps_mid = 0.2 * fsup
    g1r = op.distance_split(f, [eps_mid], lam, mo, sup_region,
                            small_spec.refined(), sup_offsets, parts=(1,))
    v_ref = _sup_on_grid(g1r, lam, sup_region, b.grid)[0]
    del g1r
    checks.append(_close("sup-bound-stability", v_ref / (ratios[2] * eps_mid),
                         1.0, 0.05))

    # grid distance: the critical power field flips from divergent to finite
    # one grid step above the unit threshold
    base = Region(8.0, 2.0 ** -4, 8.0)
    spec7 = QuadSpec(order=max(5, b.order - 2), t_order=b.t_order)
    eps_grid = 0.999 * 2.0 ** np.arange(-2.0, 2.1)
    eps_grid_f = np.array([0.1, 0.2, 0.4, 0.8]) * fsup
    pw = PowerField(n, lam)
    # both fields share the nodes, kernel order and radial grid, so one
    # kernel evaluation serves the two estimates
    (d2p, div_p, _, growth_p), (d2f, div_f, _, growth_f) = op.d2_estimate(
        [pw, f], [eps_grid, eps_grid_f], pe, alpha, mo, base, spec7,
        scales=b.scales)
    checks.append(_close("power-grid-distance", d2p, float(eps_grid[3]), 0.0))
    checks.append(_true("power-divergent-below-one",
                        bool(np.all(div_p[eps_grid < 1.0]))))
    arts["power_divergence"] = {
        "header": ["eps", "divergent", "last_growth"],
        "rows": [[float(e), bool(d), float(growth_p[i, -1])]
                 for i, (e, d) in enumerate(zip(eps_grid, div_p))]}

    checks.append(_true("member-never-divergent", not bool(np.any(div_f))))
    checks.append(_close("member-grid-distance", d2f, float(eps_grid_f.min()), 0.0))
    arts["member_divergence"] = {
        "header": ["eps", "divergent", "last_growth"],
        "rows": [[float(e), bool(d), float(growth_f[i, -1])]
                 for i, (e, d) in enumerate(zip(eps_grid_f, div_f))]}
    return checks, consts, arts


# ============================================================ ball geometry


@_experiment("ball-basis", "orthonormal sphere basis, zonal sums, boundary kernel")
def _exp_ball_basis(b, rng, p):
    checks, consts, arts = [], {}, {}
    for n in (2, 3):
        cap = b.cap if n == 2 else min(b.cap, 16)
        res = 4 * cap if n == 2 else cap + 8
        grid = bl.SphereGrid(n, res)
        pts, w = grid.points, grid.weights
        Bm = np.vstack([grid.rows(k) for k in range(cap + 1)])
        gram = (Bm * w) @ Bm.T
        checks.append(_below(f"gram-n{n}",
                             float(np.max(np.abs(gram - np.eye(len(gram))))), 1e-8))

        x0 = pts[7]
        cosg = pts @ x0
        Z = bl.zonal_values(n, cap, cosg)
        for k in (1, cap // 2, cap):
            Bk = grid.rows(k)
            bsum = Bk.T @ Bk[:, 7]
            checks.append(_below(f"addition-n{n}-k{k}",
                                 float(np.max(np.abs(bsum - Z[k]))), 1e-8))
        at_one = float(bl.zonal_values(n, cap, np.array([1.0]))[cap, 0])
        checks.append(_close(f"zonal-at-one-n{n}", at_one,
                             bl.dim_harmonics(n, cap), 1e-8))

        K = 40
        rho = 0.5
        Zbig = bl.zonal_values(n, K, cosg)
        series = ((rho ** np.arange(K + 1))[:, None] * Zbig).sum(axis=0)
        exact = bl.poisson_ball(rho * x0, pts)
        checks.append(_below(f"poisson-series-n{n}",
                             float(np.max(np.abs(series - exact))), 1e-6))

        f = bl.Expansion.random(n, cap, seed=int(rng.integers(2 ** 31)), decay=1.2)
        for r in (0.4, 0.9):
            lhs = bl.slice_norm_ball(f, 2.0, r, resolution=grid)
            rhs = f.l2_moment(r)
            checks.append(_close(f"parseval-n{n}-r{r}", lhs / rhs, 1.0, 1e-8))

        def as_fn(q, f=f):
            rr = float(np.linalg.norm(q))
            return float(np.real(f.values(np.array(rr),
                                          (np.asarray(q) / rr)[None, :])[0]))

        q0 = np.full(n, 0.3 / math.sqrt(n))
        checks.append(_laplacian_decay(f"laplacian-n{n}", as_fn, q0, 0.025, 1e-9, 1e-9))

    z4 = bl.zonal_values(4, 6, np.array([1.0, 0.3]))
    checks.append(_close("zonal-at-one-n4", float(z4[6, 0]),
                         bl.dim_harmonics(4, 6), 1e-10))
    checks.append(_true("zonal-finite-n4", bool(np.all(np.isfinite(z4)))))
    return checks, consts, arts


@_experiment("ball-norms", "ball norm identities and coefficient-multiplier algebra",
             needs=(("alpha > -1", lambda alpha: alpha + 1.0),), alpha=0.7)
def _exp_ball_norms(b, rng, p):
    al = p["alpha"]
    checks, consts, arts = [], {}, {}
    for n in (2, 3):
        cap = 8
        res = 4 * cap if n == 2 else cap + 8
        f = bl.Expansion.random(n, cap, seed=int(rng.integers(2 ** 31)), decay=1.5)
        g = bl.Expansion.random(n, cap, seed=int(rng.integers(2 ** 31)), decay=1.0)
        h = bl.Expansion.random(n, cap, seed=int(rng.integers(2 ** 31)), decay=1.0)
        grid = bl.SphereGrid(n, res)

        da = bl.grad_volume_norm(f, 1.0, al, resolution=grid, radial=40)
        db = bl.grad_mixed_norm(f, 1.0, 1.0, al + 1.0, resolution=grid, radial=40)
        checks.append(_close(f"gradient-norms-agree-n{n}", da / db, 1.0, 1e-3))
        consts[f"gradient_ratio_n{n}"] = da / db

        va = bl.volume_norm(f, 2.0, al, resolution=grid)
        vb = bl.mixed_norm_ball(f, 2.0, 2.0, (al + 1.0) / 2.0, resolution=grid)
        checks.append(_close(f"volume-eq-mixed-n{n}", va / vb, 1.0, 1e-10))

        slices = [bl.slice_norm_ball(f, 2.0, r, resolution=grid)
                  for r in (0.2, 0.5, 0.8, 1.0)]
        checks.append(_true(f"slice-monotone-n{n}",
                            all(slices[i] <= slices[i + 1] * (1 + 1e-12)
                                for i in range(3))))
        hardy = bl.hardy_norm(f, 2.0, resolution=grid)
        checks.append(_close(f"hardy-is-boundary-slice-n{n}",
                             hardy / slices[-1], 1.0, 1e-12))
        sup = bl.sup_mixed_norm_ball(f, 2.0, al, resolution=grid)
        checks.append(_below(f"sup-dominates-slice-n{n}",
                             (1 - 0.25) ** al * slices[1], sup * (1 + 1e-12)))

        t1, t2 = 0.7, 0.6
        fd_f = bl.fractional_derivative(t1, f)
        fd_g = bl.fractional_derivative(t1, g)
        comb = bl.Expansion(n, [2.0 * x + 3.0 * y
                                for x, y in zip(f.coeffs, g.coeffs)])
        lhsL = bl.fractional_derivative(t1, comb)
        rhsL = [2.0 * x + 3.0 * y for x, y in zip(fd_f.coeffs, fd_g.coeffs)]
        checks.append(_below(f"derivative-linear-n{n}", _coeff_gap(lhsL.coeffs, rhsL), 1e-12))

        c = bl.diagonal_symbol(n, 1.0 / (1.0 + np.arange(cap + 1.0)) ** 2)
        lhsC = bl.fractional_derivative(t1, bl.convolve(f, c))
        rhsC = bl.convolve(bl.fractional_derivative(t1, f), c)
        checks.append(_below(f"derivative-commutes-n{n}",
                             _coeff_gap(lhsC.coeffs, rhsC.coeffs), 1e-12))

        two = bl.fractional_derivative(t2, bl.fractional_derivative(t1, f))
        one = bl.fractional_derivative(t1 + t2, f)
        scale = max(float(np.max(np.abs(a))) for a in one.coeffs)
        gap = _coeff_gap(two.coeffs, one.coeffs) / scale
        checks.append(_above(f"derivative-non-semigroup-n{n}", gap, 1e-3))
        lvals = np.array([b[0] for b in bl.multiplier_lambda(n, cap, t1).coeffs])
        checks.append(_true(f"derivative-injective-n{n}",
                            bool(np.all(np.real(lvals) > 0))))

        ab = bl.convolve(f, g)
        ba = bl.convolve(g, f)
        checks.append(_below(f"convolve-commutes-n{n}", _coeff_gap(ab.coeffs, ba.coeffs), 1e-12))
        lhsA = bl.convolve(bl.convolve(f, g), h)
        rhsA = bl.convolve(f, bl.convolve(g, h))
        checks.append(_below(f"convolve-associates-n{n}",
                             _coeff_gap(lhsA.coeffs, rhsA.coeffs), 1e-12))
        # the product against the symbol is the per-degree scalar multiplier
        viaC = bl.convolve(f, c)
        viaS = [b[0] * x for b, x in zip(c.coeffs, f.coeffs)]
        checks.append(_close(f"convolve-is-multiplier-n{n}",
                             _coeff_gap(viaC.coeffs, viaS), 0.0, 0.0))

    # boundary-slice identity for the convolution against the Poisson slice
    K = 16
    res2 = 4 * K + 8
    grid2 = bl.SphereGrid(2, res2)
    diag = rng.normal(size=K + 1) * (1.0 + np.arange(K + 1.0)) ** -1.5
    c2 = bl.diagonal_symbol(2, diag)
    fK = bl.Expansion.random(2, K, seed=int(rng.integers(2 ** 31)), decay=1.2)
    rho = 0.75
    M = bl.conv_poisson_matrix(c2, rho, grid2)
    fv = fK.values(np.array(rho), grid2)
    lhs = M @ (grid2.weights * fv)
    rhs = bl.convolve(fK, c2).values(np.array(rho * rho), grid2)
    err = float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(rhs)))
    checks.append(_below("slice-convolution-identity", err, 1e-4))
    checks.append(_below("conv-matrix-symmetry",
                         float(np.max(np.abs(M - M.T))), 1e-12))
    return checks, consts, arts


# ==================================================== multiplier functionals


def _symbol_trends(n, K, decay_exp, functional, checks, consts, arts):
    """The functional of (1 + k)^decay_exp is stable from cap K to 2K and
    trends finite; that of 1 + k trends divergent.  Returns the symbol at
    caps K and 2K, its functional at 2K and the divergent trace rows."""
    decay = (1.0 + np.arange(2 * K + 1.0)) ** decay_exp
    c_half = bl.diagonal_symbol(n, decay[: K + 1])
    c_full = bl.diagonal_symbol(n, decay)
    N_half = functional(c_half)[0]
    N, slope, rows = functional(c_full)
    _, slope_bad, rows_bad = functional(
        bl.diagonal_symbol(n, 1.0 + np.arange(2 * K + 1.0)))
    checks.append(_close("functional-cap-stable", N_half / N, 1.0, 0.05))
    checks.append(_above("finite-trend", slope, bl.FINITE_TREND))
    checks.append(_below("divergent-trend", slope_bad, bl.DIVERGENT_TREND))
    consts["functional"] = N
    arts["trace"] = {"header": ["rho", "value"], "rows": rows}
    return c_half, c_full, N, rows_bad


def _ball_weighted_sup(f, beta, grid, levels):
    best = 0.0
    for i in range(0, levels + 1):
        rho = 1.0 - 2.0 ** -i
        vals = np.abs(f.values(np.array(rho), grid))
        best = max(best, (1.0 - rho * rho) ** beta * float(vals.max()))
    return best


@_experiment("thm8-multiplier", "boundary-slice functional for sup-weighted targets",
             needs=(("s > 1", lambda s: s - 1.0), ("beta > 0", lambda beta: beta)),
             s=2.0, beta=1.0)
def _exp_thm8(b, rng, p):
    n = 2
    s, beta = p["s"], p["beta"]
    sp = s / (s - 1.0)
    K = 16
    res = 4 * (2 * K) + 8
    grid = bl.SphereGrid(n, res)
    checks, consts, arts = [], {}, {}

    def functional(c):
        return bl.slice_functional(c, sp, beta, None, b.rho_levels, grid)

    c_half, _, N2, rows_bad = _symbol_trends(n, K, -2.0, functional, checks, consts, arts)
    arts["trace_divergent"] = {"header": ["rho", "value"], "rows": rows_bad}

    N0 = functional(bl.diagonal_symbol(n, np.zeros(K + 1)))[0]
    checks.append(_close("zero-symbol", N0, 0.0, 0.0))
    sl1 = functional(bl.diagonal_symbol(n, np.ones(2 * K + 1)))[1]
    checks.append(_above("identity-trend", sl1, bl.FINITE_TREND))

    ratios = []
    rrows = []
    worst = None
    for i in range(b.panel):
        fE = bl.Expansion.random(n, K, seed=int(rng.integers(2 ** 31)), decay=1.2)
        cf = bl.convolve(fE, c_half)
        lhs = _ball_weighted_sup(cf, beta, grid, b.rho_levels)
        rhs = N2 * bl.hardy_norm(fE, s, resolution=grid)
        ratio = lhs / rhs if rhs > 0 else 0.0
        ratios.append(ratio)
        rrows.append([i, lhs, rhs, ratio])
        if worst is None or ratio >= max(ratios):
            worst = cf
    checks.append(_true("ratio-table-finite",
                        bool(np.all(np.isfinite(ratios)))))
    consts["sufficiency_constant"] = float(max(ratios))
    arts["ratio_table"] = {"header": ["panel", "weighted_sup", "bound", "ratio"],
                           "rows": rrows}

    lhs_fine = _ball_weighted_sup(worst, beta, bl.SphereGrid(n, res + res // 2),
                                  b.rho_levels + 2)
    lhs_base = _ball_weighted_sup(worst, beta, grid, b.rho_levels)
    checks.append(_close("sup-grid-stability", lhs_fine / lhs_base, 1.0, 0.05))
    return checks, consts, arts


@_experiment("thm9-multiplier", "derivative-weighted slice functional, mixed-norm sources",
             needs=(("q > 1", lambda q: q - 1.0),
                    ("m_order > max(alpha - beta - 1, beta - 1)",
                     lambda m_order, alpha, beta: m_order - max(alpha - beta - 1.0, beta - 1.0)),
                    ("alpha * p_exp - 1 > -1 (the weight of the source mixed norm)",
                     lambda alpha, p_exp: (alpha * p_exp - 1.0) + 1.0)),
             q=2.0, alpha=1.0, beta=0.5, m_order=2, p_exp=1.0)
def _exp_thm9(b, rng, p):
    n = 2
    q, al, be, mo, pe = p["q"], p["alpha"], p["beta"], p["m_order"], p["p_exp"]
    qp = q / (q - 1.0)
    e9 = mo + 1.0 + be - al
    K = 16
    res = 4 * (2 * K) + 8
    grid, coarse = bl.SphereGrid(n, res), bl.SphereGrid(n, res // 4)
    checks, consts, arts = [], {}, {}

    c_half, c_full, M2, _ = _symbol_trends(
        n, K, -2.5, lambda c: bl.slice_functional(c, qp, e9, mo + 1.0, b.rho_levels, grid),
        checks, consts, arts)

    # conjugate-exponent sensitivity, reported only
    Mq = bl.slice_functional(c_full, q, e9, mo + 1.0, b.rho_levels, grid)[0]
    consts["functional_at_q"] = Mq

    rows, fits, end_ratios = [], [], []
    for i in range(b.panel):
        fE = bl.Expansion.random(n, K, seed=int(rng.integers(2 ** 31)), decay=1.3)
        cf = bl.convolve(fE, c_half)
        dcf = bl.fractional_derivative(mo + 1.0, cf)
        for ir in range(1, b.rho_levels + 1):
            rho = 1.0 - 2.0 ** -ir
            lhs = ((1.0 - rho) ** (mo + 1.0 + be)
                   * float(np.max(np.abs(dcf.values(np.array(rho), grid)))))
            rhs = ((1.0 - rho) ** al
                   * bl.slice_norm_ball(fE, q, rho, resolution=coarse))
            rows.append([i, rho, lhs, rhs, lhs / rhs])
            fits.append(lhs / rhs)
        lhs_sup = _ball_weighted_sup(cf, be, grid, b.rho_levels)
        src = bl.mixed_norm_ball(fE, pe, q, al, resolution=coarse)
        end_ratios.append(lhs_sup / (M2 * src))
    checks.append(_true("slice-table-finite", bool(np.all(np.isfinite(fits)))))
    checks.append(_true("end-ratio-finite", bool(np.all(np.isfinite(end_ratios)))))
    consts["slice_constant"] = float(max(fits))
    consts["sufficiency_constant"] = float(max(end_ratios))
    arts["slice_table"] = {"header": ["panel", "rho", "weighted_peak",
                                      "weighted_slice", "ratio"],
                           "rows": rows}
    return checks, consts, arts


@_experiment("thm10-functionals", "derivative-slice functionals for gradient-norm sources",
             needs=(("s > 1", lambda s: s - 1.0),
                    ("alpha - 1 > -1 (the weight of the gradient mixed norm)",
                     lambda alpha: (alpha - 1.0) + 1.0)),
             s=2.0, alpha=1.0, beta=0.5, m_order=2)
def _exp_thm10(b, rng, p):
    n = 2
    s, al, be, mo = p["s"], p["alpha"], p["beta"], p["m_order"]
    sp = s / (s - 1.0)
    K = 16
    res = 4 * (2 * K) + 8
    grid, coarse = bl.SphereGrid(n, res), bl.SphereGrid(n, res // 4)
    checks, consts, arts = [], {}, {}

    decay = (1.0 + np.arange(2 * K + 1.0)) ** -2.5
    c = bl.diagonal_symbol(n, decay)
    eL = mo + 2.0 + be - al
    eK = mo + 1.0 + be - al
    Lv, slL, rowsL = bl.slice_functional(c, sp, eL, mo + 1.0, b.rho_levels, grid)
    Kv, slKv, rowsK = bl.slice_functional(c, sp, eK, mo + 1.0, b.rho_levels, grid)
    consts["gradient_functional"] = Lv
    consts["volume_functional"] = Kv
    checks.append(_above("gradient-finite-trend", slL, bl.FINITE_TREND))
    checks.append(_above("volume-finite-trend", slKv, bl.FINITE_TREND))
    arts["trace_gradient"] = {"header": ["rho", "value"], "rows": rowsL}
    arts["trace_volume"] = {"header": ["rho", "value"], "rows": rowsK}

    # the two functionals agree exactly across the weight shift
    eL_shift = mo + 2.0 + be - (al + 1.0)
    Lshift = bl.slice_functional(c, sp, eL_shift, mo + 1.0, b.rho_levels, grid)[0]
    checks.append(_close("weight-shift-coherence", Kv / Lshift, 1.0, 1e-12))

    c_bad = bl.diagonal_symbol(n, 1.0 + np.arange(2 * K + 1.0))
    sl_bad = bl.slice_functional(c_bad, sp, eL, mo + 1.0, b.rho_levels, grid)[1]
    checks.append(_below("divergent-trend", sl_bad, bl.DIVERGENT_TREND))

    ratios = []
    for i in range(b.panel):
        fE = bl.Expansion.random(n, K, seed=int(rng.integers(2 ** 31)), decay=1.3)
        cf = bl.convolve(fE, c)  # the product stops at fE's cap K
        target = 0.0
        for ir in range(0, b.rho_levels + 1):
            rho = 1.0 - 2.0 ** -ir
            ms = bl.slice_norm_ball(cf, s, rho, resolution=coarse)
            target = max(target, (1.0 - rho) ** be * ms)
        src = bl.grad_mixed_norm(fE, 1.0, 1.0, al, resolution=coarse, radial=32)
        ratios.append(target / (Lv * src))
    checks.append(_true("ratio-table-finite", bool(np.all(np.isfinite(ratios)))))
    consts["sufficiency_constant"] = float(max(ratios))
    return checks, consts, arts
