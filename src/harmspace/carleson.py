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
    """Corners (lo, hi) of the closed cube Q_w centered at w = (y, s) with
    side s on all n+1 axes: each (n+1,) for one center, (k, n+1) for an
    array of k centers."""
    w = np.asarray(w, dtype=float)
    s = w[..., -1:]
    if np.any(s <= 0):
        raise ValueError("center must lie in the open half-space")
    return w - s / 2, w + s / 2


def _excursions_in(l: int, n: int, delta: float, pts, centers, inside):
    """Narrow inside, the (c, P) in-box mask of centers against pts, in
    place to the excursion sets {|P_l(u)| > delta}; profile_excursion runs
    only on the (center, point) pairs inside, gathered with np.nonzero."""
    rows, cols = np.nonzero(inside)
    inside[inside] = kernels.profile_excursion(
        l, n, delta, np.take(pts, cols, axis=0), np.take(centers, rows, axis=0))
    return inside


def excursion_masks(l: int, n: int, delta: float, axes, centers,
                    interior: bool = False) -> np.ndarray:
    """Boolean matrix (C, P) over the tensor grid of the n+1 1-D axes (axis
    0 slowest, P points): row c marks the grid points that lie in the closed
    cube Q_w of w = centers[c] (in its open cube with interior=True) and
    where |P_l(u)| > delta, u built from the w-reflection.

    Each entry is the value that one profile_excursion call per center
    gives.  The box test factors over the axes, and a chunk of centers
    holds at most MASK_PAIRS (center, point) pairs.
    """
    centers = np.asarray(centers, dtype=float)
    lo, hi = qw_box(centers)
    above, below = (np.greater, np.less) if interior else (np.greater_equal, np.less_equal)
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    out = np.empty((len(centers), len(pts)), dtype=bool)
    step = max(1, MASK_PAIRS // max(1, len(pts)))
    for a in range(0, len(centers), step):
        inside = True
        for i, x in enumerate(axes):
            shape = [-1] + [1] * (n + 1)
            shape[i + 1] = len(x)
            hit = above(x, lo[a : a + step, i, None]) & below(x, hi[a : a + step, i, None])
            inside = inside & hit.reshape(shape)
        inside = inside.reshape(-1, len(pts))
        out[a : a + step] = _excursions_in(l, n, delta, pts, centers[a : a + step], inside)
    return out


def excursion_mass(mu: AtomicMeasure, centers, l: int, delta: float) -> np.ndarray:
    """Measure of {z in Q_w : |P_l(u)| > delta} for each center w of
    centers (k, n+1), as an array (k,): the np.sum, in atom order, of the
    weights of the atoms in the set (exact for atoms).  A chunk of centers
    holds at most MASK_PAIRS (center, atom) pairs."""
    centers = np.asarray(centers, dtype=float)
    lo, hi = qw_box(centers)
    out = np.zeros(len(centers))
    step = max(1, MASK_PAIRS // max(1, mu.t.size))
    for a in range(0, len(centers), step):
        inside = in_boxes(mu.points, lo[a : a + step], hi[a : a + step])
        sets = _excursions_in(l, mu.n, delta, mu.points, centers[a : a + step], inside)
        out[a : a + step] = [mu.weight[m].sum() for m in sets]
    return out


# Booleans that lemma6_cover's mask matrix (candidates by sample points) may
# hold; the lemma6 experiment reaches 373M at deep with n = 3.
MAX_COVER_CELLS = 1 << 29


def lemma6_cover(w, l: int, n: int, delta: float, grid: int = 16, lattice: int = 5):
    """Greedy finite cover of Q_w by excursion sets of nearby boxes.

    Candidate centers w' = (y', s') run over s' in {s/2, s, 2s} (outermost),
    then y' on a lattice of lattice^n points spanning [y - s, y + s], then
    heights s', 0.75 s', 1.25 s' (innermost).  Each candidate's excursion
    set in its open box, sampled on a grid^(n+1) lattice of Q_w, is one row
    of a mask matrix (excursion_masks).  The greedy step takes the first
    candidate that covers the most uncovered points; the gains are exact
    integers, updated by the points each step covers.  Returns (cover
    fraction, chosen centers (k, n+1), multiplicity), where multiplicity
    is the max number of chosen excursion sets containing one sample
    point.  A matrix over MAX_COVER_CELLS raises ValueError before anything
    is built.
    """
    cells = 9 * lattice**n * grid ** (n + 1)
    if cells > MAX_COVER_CELLS:
        raise ValueError(f"the cover's mask matrix would hold {cells:.4g} booleans,"
                         f" over the limit of {MAX_COVER_CELLS:.4g}")
    w = np.asarray(w, dtype=float)
    s = w[-1]
    axes = [np.linspace(a, b, grid) for a, b in zip(*qw_box(w))]

    offsets = np.linspace(-s, s, lattice)
    mesh = np.meshgrid(*([offsets] * n), indexing="ij")
    lat = np.column_stack([g.ravel() for g in mesh]) + w[:-1]
    cands = np.empty((3, len(lat), 3, n + 1))
    cands[..., :-1] = lat[:, None, :]
    cands[..., -1] = np.multiply.outer([0.5 * s, s, 2.0 * s], [1.0, 0.75, 1.25])[:, None, :]
    cands = cands.reshape(-1, n + 1)
    masks = excursion_masks(l, n, delta, axes, cands, interior=True)

    uncovered = np.ones(masks.shape[1], dtype=bool)
    gains = masks.sum(axis=1)
    step = max(1, MASK_PAIRS // len(masks))
    chosen = []
    while np.any(uncovered):
        best = int(np.argmax(gains))
        if gains[best] == 0:
            break
        chosen.append(best)
        newly = np.flatnonzero(masks[best] & uncovered)
        uncovered[newly] = False
        # every candidate's gain loses the points it held among the newly covered
        for a in range(0, len(newly), step):
            gains -= masks[:, newly[a : a + step]].sum(axis=1)
    fraction = 1.0 - float(np.mean(uncovered))
    multiplicity = int(masks[chosen].sum(axis=0).max()) if chosen else 0
    return fraction, cands[chosen], multiplicity


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
