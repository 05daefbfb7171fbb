"""Carleson-type conditions for measures on the upper half-space.

Measures are finite atomic: integrals against them are exact sums, so
every embedding check has a closed left-hand side and the only numerics
live in the norms on the right.  Four cube conditions are provided, all
of the shape sup_k mass(box_k) / gauge(box_k) over the Whitney boxes:

* vector condition:   gauge = |box|^(m + sum(s_j)/(n+1))
* single-weight form: gauge = |box|^(1 + alpha/(n+1))
* mixed-norm form:    gauge = eta^(n q/p + alpha q)   (0 < p <= q, alpha > 0)
* tent-norm form:     gauge = eta^(n + alpha p)

The excursion-set machinery (Q_w boxes, the sets where |P_l| stays above
a threshold, and the finite-cover mass transfer) lives here too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import kernels
from .geometry import (
    MASK_PAIRS, Region, WhitneyBoxes, box_centers, box_corners, box_volumes,
    in_boxes, weighted_measures, whitney_cubes,
)
from .quadrature import QuadSpec
from .norms import bergman_norm


class AtomicMeasure:
    """Finite positive atomic measure sum_i w_i delta_{(x_i, t_i)}."""

    def __init__(self, x, t, weight, label="measure"):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.t = np.asarray(t, dtype=float).ravel()
        self.weight = np.asarray(weight, dtype=float).ravel()
        self.label = label
        if self.x.shape[0] != self.t.size or self.t.size != self.weight.size:
            raise ValueError("atom arrays disagree in length")
        for name, arr in (("x", self.x), ("t", self.t), ("weight", self.weight)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"atom {name} values must be finite")
        if np.any(self.t <= 0):
            raise ValueError("atoms must lie in the open half-space")
        if np.any(self.weight < 0):
            raise ValueError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @cached_property
    def points(self) -> np.ndarray:
        """The atoms' (x, t) rows, (m, n+1); built once, read-only."""
        pts = np.column_stack([self.x, self.t])
        pts.flags.writeable = False
        return pts

    def total_mass(self) -> float:
        return float(self.weight.sum())

    def masses_in_boxes(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Mass of each closed box [lo, hi] (corner arrays, (B, n+1)): the
        np.sum, in atom order, of the weights of the atoms in the box, and
        0.0 for a box that holds none.  A chunk of boxes is tested only
        against the atoms whose t lies in the chunk's t range."""
        out = np.zeros(len(lo))
        step = max(1, MASK_PAIRS // max(1, self.t.size))
        for a in range(0, len(lo), step):
            blo, bhi = lo[a : a + step], hi[a : a + step]
            near = np.flatnonzero((self.t >= blo[:, -1].min()) & (self.t <= bhi[:, -1].max()))
            mask = in_boxes(self.points[near], blo, bhi)
            w = self.weight[near]
            for r in np.flatnonzero(mask.any(axis=1)).tolist():
                out[a + r] = w[mask[r]].sum()
        return out

    def restricted(self, lo, hi):
        """The atoms in the closed box [lo, hi] as a measure; None if there
        are none."""
        inside = in_boxes(self.points, lo, hi)
        if not np.any(inside):
            return None
        return AtomicMeasure(self.x[inside], self.t[inside], self.weight[inside],
                             label=self.label)

    def integrate(self, fn) -> float:
        """Exact integral of fn over the measure; fn maps (m, n+1) points."""
        return float(self.weight @ np.asarray(fn(self.points), dtype=float))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "atoms": [
                {"x": [float(v) for v in xi], "t": float(ti), "w": float(wi)}
                for xi, ti, wi in zip(self.x, self.t, self.weight)
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "AtomicMeasure":
        atoms = obj["atoms"]
        return cls(
            [a["x"] for a in atoms],
            [a["t"] for a in atoms],
            [a["w"] for a in atoms],
            obj.get("label", "measure"),
        )

    @classmethod
    def point_mass(cls, x, t, w=1.0, label="point") -> "AtomicMeasure":
        return cls([x], [t], [w], label)

    @classmethod
    def discretized_weight(cls, region: Region, n: int, lam: float, label=None):
        """Cube-center atoms carrying m_lam(box): the discrete stand-in
        for the weight t^lam dz."""
        cubes = whitney_cubes(region, n)
        if not len(cubes):
            raise ValueError("degenerate region: no boxes to carry the weight")
        ctr = box_centers(cubes)
        return cls(ctr[:, :-1], ctr[:, -1], weighted_measures(*box_corners(cubes), lam),
                   label or f"m_lambda-{lam:g}")


class CubeConditionReport:
    """Per-box ratios mass/gauge and their sup for one condition, as
    columns: the boxes' level (B,) and index (B, n) arrays, and float64
    mass, gauge and ratio = mass / gauge, all in box order."""

    def __init__(self, condition, params, level, index, mass, gauge, n):
        self.condition = condition
        self.params = params
        self.level = level
        self.index = index
        self.mass = mass
        self.gauge = gauge
        with np.errstate(over="ignore"):
            self.ratio = mass / gauge
        self.n = n

    def __len__(self) -> int:
        return len(self.level)

    @property
    def argmax(self):
        """Position of the first box with the largest ratio; None if none."""
        return int(np.argmax(self.ratio)) if len(self) else None

    @property
    def constant(self) -> float:
        i = self.argmax
        return 0.0 if i is None else float(self.ratio[i])

    def level_maxima(self) -> dict:
        """{level: max(0.0, the largest ratio of the level's boxes)}, in
        increasing level."""
        if not len(self):
            return {}
        low = int(self.level.min())
        slot = self.level - low
        top = np.zeros(int(slot.max()) + 1)
        np.maximum.at(top, slot, self.ratio)
        held = np.flatnonzero(np.bincount(slot))
        top = top[held]
        return dict(zip((held + low).tolist(), np.where(top > 0.0, top, 0.0).tolist()))

    def csv_columns(self) -> list:
        """Columns condition, level, index (i_1/.../i_n), mass, gauge, ratio."""
        digits = [list(map(str, c)) for c in self.index.T.tolist()]
        index = list(map("/".join, zip(*digits))) if digits else [""] * len(self)
        return [[self.condition] * len(self), self.level, index, self.mass,
                self.gauge, self.ratio]

    def summary(self) -> dict:
        i = self.argmax
        return {
            "condition": self.condition,
            "params": self.params,
            "constant": self.constant,
            "argmax_level": None if i is None else int(self.level[i]),
            "boxes": len(self),
        }


def _gauges(base, e):
    """[v**e for v in base] in Python floats, with inf where one overflows."""
    try:
        return [v**e for v in base]
    except OverflowError:
        pass
    out = []
    for v in base:
        try:
            out.append(v**e)
        except OverflowError:
            out.append(np.inf)
    return out


def _cube_report(condition, params, mu: AtomicMeasure, cubes: WhitneyBoxes, lo, hi,
                 base, e):
    """The report over the boxes, whose corners are (lo, hi), with gauge =
    base^e per box, base an array: the box volumes, or the etas (the centre
    heights, 3/2 side)."""
    gauge = np.array(_gauges(base.tolist(), e))
    bad = np.flatnonzero(~((gauge > 0.0) & (gauge < np.inf)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"the region's box at level {cubes.level[i]} (heights {lo[i, -1]:g}"
            f" to {hi[i, -1]:g}) has gauge {float(gauge[i])!r} at exponent {e:g}:"
            " its boxes are too small or too large for float64")
    return CubeConditionReport(condition, params, cubes.level, cubes.index,
                               mu.masses_in_boxes(lo, hi), gauge, mu.n)


def condition_vector(mu: AtomicMeasure, cubes, m: int, s_vec) -> CubeConditionReport:
    """mass / |box|^(m + sum(s)/(n+1)) over the boxes of the WhitneyBoxes
    record cubes; the m-fold product condition."""
    s_vec = list(s_vec)
    if len(s_vec) != m:
        raise ValueError("s_vec must have length m")
    n = mu.n
    e = m + sum(s_vec) / (n + 1)
    lo, hi = box_corners(cubes)
    return _cube_report("vector", {"m": m, "s": s_vec, "exponent": e}, mu, cubes,
                        lo, hi, box_volumes(lo, hi), e)


def condition_single(mu: AtomicMeasure, cubes, alpha: float) -> CubeConditionReport:
    """mass / |box|^(1 + alpha/(n+1)) over the boxes of the WhitneyBoxes
    record cubes; the single-weight corollary."""
    n = mu.n
    e = 1 + alpha / (n + 1)
    lo, hi = box_corners(cubes)
    return _cube_report("single", {"alpha": alpha, "exponent": e}, mu, cubes,
                        lo, hi, box_volumes(lo, hi), e)


def condition_mixed(mu, cubes, p: float, q: float, alpha: float) -> CubeConditionReport:
    """mass / eta^(n q/p + alpha q) over the boxes of the WhitneyBoxes
    record cubes, eta = 3/2 side; the mixed-norm embedding."""
    if not (0 < p <= q):
        raise ValueError("need 0 < p <= q")
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    e = mu.n * q / p + alpha * q
    lo, hi = box_corners(cubes)
    return _cube_report("mixed", {"p": p, "q": q, "alpha": alpha, "exponent": e},
                        mu, cubes, lo, hi, 1.5 * cubes.side, e)


def condition_tent(mu, cubes, p: float, alpha: float, tau=None) -> CubeConditionReport:
    """mass / eta^(n + alpha p) over the boxes of the WhitneyBoxes record
    cubes, eta = 3/2 side; the tent-space embedding."""
    if p <= 0 or alpha <= 0:
        raise ValueError("need p > 0 and alpha > 0")
    if tau is not None and not (0 < tau <= p):
        raise ValueError("need 0 < tau <= p")
    e = mu.n + alpha * p
    lo, hi = box_corners(cubes)
    return _cube_report("tent", {"p": p, "alpha": alpha, "tau": tau, "exponent": e},
                        mu, cubes, lo, hi, 1.5 * cubes.side, e)


def qw_box(w):
    """Corners (lo, hi), each (n+1,), of the closed cube Q_w centered at
    w = (y, s) with side s on all n+1 axes."""
    w = np.asarray(w, dtype=float)
    s = w[-1]
    if s <= 0:
        raise ValueError("center must lie in the open half-space")
    return w - s / 2, w + s / 2


def excursion_mass(mu: AtomicMeasure, w, l: int, delta: float) -> float:
    """Measure of {z in Q_w : |P_l(u)| > delta} (atoms only: exact)."""
    inside = in_boxes(mu.points, *qw_box(w))
    if not np.any(inside):
        return 0.0
    keep = kernels.profile_excursion(l, mu.n, delta, mu.points[inside],
                                     np.asarray(w, float))
    return float(mu.weight[inside][keep].sum())


def lemma6_cover(w, l: int, n: int, delta: float, grid: int = 16, lattice: int = 5):
    """Greedy finite cover of Q_w by excursion sets of nearby boxes.

    Candidate centers w' = (y', s') run over s' in {s/2, s, 2s} and a
    lattice of y' around y with spacing s'/2.  Returns (cover fraction,
    list of chosen centers, multiplicity) where multiplicity is the max
    number of chosen excursion sets containing one sample point.
    """
    w = np.asarray(w, dtype=float)
    s = w[-1]
    axes = [np.linspace(a, b, grid) for a, b in zip(*qw_box(w))]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])

    candidates = []
    for sp in (0.5 * s, s, 2.0 * s):
        offsets = np.linspace(-s, s, lattice)
        mesh = np.meshgrid(*([offsets] * n), indexing="ij")
        centers = np.column_stack([g.ravel() for g in mesh]) + w[:-1]
        for c in centers:
            for tp in (sp, 0.75 * sp, 1.25 * sp):
                candidates.append(np.append(c, tp))
    masks = []
    for cand in candidates:
        lo, hi = qw_box(cand)
        inside = np.all((pts > lo) & (pts < hi), axis=1)  # open: interior sets
        if not np.any(inside):
            masks.append(None)
            continue
        m = np.zeros(len(pts), dtype=bool)
        m[inside] = kernels.profile_excursion(l, n, delta, pts[inside], cand)
        masks.append(m)

    uncovered = np.ones(len(pts), dtype=bool)
    chosen = []
    chosen_masks = []
    while np.any(uncovered):
        gains = [0 if m is None else int(np.sum(m & uncovered)) for m in masks]
        best = int(np.argmax(gains))
        if gains[best] == 0:
            break
        chosen.append(candidates[best])
        chosen_masks.append(masks[best])
        uncovered &= ~masks[best]
    fraction = 1.0 - float(np.mean(uncovered))
    if chosen_masks:
        multiplicity = int(np.max(np.sum(np.array(chosen_masks), axis=0)))
    else:
        multiplicity = 0
    return fraction, chosen, multiplicity


def embedding_ratio(
    mu: AtomicMeasure,
    factors,
    p: float,
    s_vec,
    region: Region,
    spec: QuadSpec,
):
    """Exact L^p(mu) mass of a product field over its Bergman norms.

    factors: the fields f_1 .. f_m; the trace integrand is the pointwise
    product prod_j |f_j|^p at the atoms.  Returns (ratio, lhs, rhs).
    """
    pts = mu.points
    vals = np.ones(len(pts))
    for f in factors:
        vals *= np.abs(f.values(pts)) ** p
    lhs = float(mu.weight @ vals)
    rhs = 1.0
    for f, s in zip(factors, s_vec):
        nv = bergman_norm(f, p, s, region, spec)
        if nv == 0:
            raise ValueError("factor with zero norm")
        rhs *= nv**p
    return lhs / rhs, lhs, rhs
