"""Layered dyadic Whitney-type decomposition of the upper half-space.

Points of the upper half-space are written z = (x, t) with x in R^n and
t > 0.  The decomposition at level j tiles the slab 2^j <= t <= 2^(j+1)
with boxes of spatial side 2^j on the lattice 2^j Z^n, so every box
satisfies diam(box) / dist(box, boundary) = sqrt(n+1) exactly and the
boxes have pairwise disjoint interiors.  Enlarging each box by a factor
below 4/3 about its center keeps the enlargement inside the half-space
and produces a cover of finite overlap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# enlargement factors must stay below this to keep boxes off t = 0
MAX_ENLARGE = 4.0 / 3.0
DEFAULT_ENLARGE = 1.25


@dataclass(frozen=True)
class Region:
    """Axis-aligned truncation |x_i| <= x_max, t_min <= t <= t_max."""

    x_max: float
    t_min: float
    t_max: float

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.x_max > 0 and self.t_min > 0 and self.t_max > 0):
            raise ValueError("region extents must be positive")

    @property
    def degenerate(self) -> bool:
        return self.t_min >= self.t_max

    def scaled(self, factor: float) -> "Region":
        """Doubled-style growth: x_max * factor, t range widened by factor."""
        return Region(self.x_max * factor, self.t_min / factor, self.t_max * factor)

    def key(self) -> str:
        return f"x{self.x_max:g}-t{self.t_min:g}-{self.t_max:g}"


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box; coordinates ordered (x_1 .. x_n, t)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi length mismatch")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box has negative extent")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def clipped(self, region: Region) -> "Box":
        n = self.dim - 1
        lo = [max(a, -region.x_max) for a in self.lo[:n]] + [max(self.lo[n], region.t_min)]
        hi = [min(b, region.x_max) for b in self.hi[:n]] + [min(self.hi[n], region.t_max)]
        lo = [min(a, b) for a, b in zip(lo, hi)]  # empty overlap collapses to zero volume
        return Box(tuple(lo), tuple(hi))


@dataclass(frozen=True, order=True)
class WhitneyCube:
    """One box of the layered decomposition: level j, spatial index k in Z^n."""

    level: int
    index: tuple

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def side(self) -> float:
        return 2.0**self.level

    @property
    def t_lo(self) -> float:
        return 2.0**self.level

    @property
    def t_hi(self) -> float:
        return 2.0 ** (self.level + 1)

    @property
    def center(self) -> np.ndarray:
        """(xi, eta) with eta = 1.5 * 2^level."""
        s = self.side
        xi = (np.asarray(self.index, dtype=float) + 0.5) * s
        return np.append(xi, 1.5 * s)

    @property
    def eta(self) -> float:
        return 1.5 * self.side

    @property
    def diameter(self) -> float:
        return self.side * math.sqrt(self.n + 1)

    @property
    def boundary_distance(self) -> float:
        # dist to {t = 0} is attained on the bottom face
        return self.t_lo

    def box(self) -> Box:
        s = self.side
        lo = tuple(k * s for k in self.index) + (self.t_lo,)
        hi = tuple((k + 1) * s for k in self.index) + (self.t_hi,)
        return Box(lo, hi)

    def enlarged(self, factor: float = DEFAULT_ENLARGE) -> Box:
        _check_enlarge(factor)
        c = self.center
        half = np.append(
            np.full(self.n, 0.5 * self.side * factor), 0.5 * self.side * factor
        )
        return Box(tuple(c - half), tuple(c + half))


def _check_enlarge(factor: float) -> None:
    if not (1.0 <= factor < MAX_ENLARGE):
        raise ValueError(f"enlargement factor must lie in [1, {MAX_ENLARGE})")


def _index_range(extent: float, side: float):
    """Integers k with (k*side, (k+1)*side) meeting (-extent, extent)."""
    q = extent / side
    k_max = math.ceil(q) - 1          # largest k with k*side < extent
    k_min = math.floor(-q - 1.0) + 1  # smallest k with (k+1)*side > -extent
    return range(k_min, k_max + 1)


def _layers(region: Region):
    """(level j, per-axis index range) of each layer of boxes meeting the
    region, by increasing level; none for a degenerate region."""
    if region.degenerate:
        return
    j_lo = math.floor(math.log2(region.t_min))
    j_hi = math.ceil(math.log2(region.t_max))
    for j in range(j_lo, j_hi + 1):
        if 2.0**j < region.t_max and 2.0 ** (j + 1) > region.t_min:
            yield j, _index_range(region.x_max, 2.0**j)


def whitney_cubes(region: Region, n: int) -> list:
    """All decomposition boxes whose interior meets the region.

    Sorted by (level, index), the order in which they are made: levels
    increase and itertools.product runs through the indices
    lexicographically.  A degenerate region gives [].
    """
    if n < 1:
        raise ValueError("spatial dimension must be >= 1")
    return [WhitneyCube(j, idx) for j, per_axis in _layers(region)
            for idx in itertools.product(per_axis, repeat=n)]


def whitney_count(region: Region, n: int) -> float:
    """len(whitney_cubes(region, n)), counted without building a box.

    A float, exact below 2**53, and inf where the count or one layer's
    index range overflows (a huge or unbounded region, a large n).
    """
    if n < 1:
        raise ValueError("spatial dimension must be >= 1")
    try:
        return float(sum(float(len(per_axis)) ** n for _, per_axis in _layers(region)))
    except OverflowError:
        return math.inf


# ----------------------------------------------------- corner arrays
#
# Whole-array forms of the per-box geometry, one row per cube in the
# cubes' order, all made from the (level, index, side) arrays that
# cube_arrays builds once from the cube list.  Each array is made with the
# same float operations as the WhitneyCube property it stands for, so its
# values equal those of box(), center and enlarged() bit for bit.  Powers
# of per-box values stay Python float ``**`` (``[v ** e for v in
# a.tolist()]``): numpy's vectorised pow differs from it in the last bit
# on some values.


def cube_arrays(cubes: list):
    """(level, index, side) of the cubes: int (B,), int (B, n), float
    (B,) with side = 2^level."""
    b, n = len(cubes), cubes[0].n if cubes else 0
    level = np.fromiter((c.level for c in cubes), np.int64, count=b)
    index = np.fromiter(itertools.chain.from_iterable(c.index for c in cubes),
                        np.int64, count=b * n).reshape(b, n)
    return level, index, np.ldexp(1.0, level)


def box_corners(index: np.ndarray, side: np.ndarray):
    """Corner arrays (lo, hi), each (B, n+1), of cube.box()."""
    lo = np.column_stack([index * side[:, None], side])
    hi = np.column_stack([(index + 1) * side[:, None], 2 * side])
    return lo, hi


def box_centers(index: np.ndarray, side: np.ndarray) -> np.ndarray:
    """cube.center of each cube, (B, n+1): ((k + 1/2) side, 3/2 side)."""
    return np.column_stack([(index + 0.5) * side[:, None], 1.5 * side])


def enlarged_corners(index: np.ndarray, side: np.ndarray,
                     factor: float = DEFAULT_ENLARGE):
    """Corner arrays (lo, hi) of cube.enlarged(factor)."""
    _check_enlarge(factor)
    c = box_centers(index, side)
    half = (0.5 * side * factor)[:, None]
    return c - half, c + half


def clipped_corners(lo: np.ndarray, hi: np.ndarray, region: Region):
    """The boxes [lo, hi] clipped to the region, in their order; boxes of
    zero volume are dropped.  The corners equal those of
    Box.clipped(region)."""
    n = lo.shape[1] - 1
    lo = np.maximum(lo, [-region.x_max] * n + [region.t_min])
    hi = np.minimum(hi, [region.x_max] * n + [region.t_max])
    lo = np.minimum(lo, hi)  # empty overlap collapses to zero volume
    keep = np.all(hi > lo, axis=1)
    return lo[keep], hi[keep]


def box_volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Box.volume of each box: the sides multiplied axis by axis."""
    v = np.ones(lo.shape[0])
    for a in range(lo.shape[1]):
        v = v * (hi[:, a] - lo[:, a])
    return v


def weighted_measures(lo: np.ndarray, hi: np.ndarray, lam: float) -> np.ndarray:
    """m_lambda of each box [lo, hi] = integral of t^lambda over it,
    closed form: |spatial box| (t1^(lambda+1) - t0^(lambda+1)) / (lambda+1).

    Only a finite lambda > -1 is accepted; the boxes used here sit away
    from t = 0, but the toolkit never needs the extended range.
    """
    if not -1 < lam < math.inf:  # NaN included
        raise ValueError(f"weight exponent must be finite and exceed -1, got {lam}")
    e = lam + 1
    t1 = np.array([t ** e for t in hi[:, -1].tolist()])
    t0 = np.array([t ** e for t in lo[:, -1].tolist()])
    return box_volumes(lo[:, :-1], hi[:, :-1]) * (t1 - t0) / e


def in_boxes(points: np.ndarray, lo, hi) -> np.ndarray:
    """Which points lie in the closed boxes [lo, hi]: a mask (m,) for one
    box (lo, hi of shape (d,)), (B, m) for corner arrays of shape (B, d)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inside = True
    for a in range(lo.shape[-1]):  # axis by axis: no reduction over a short axis
        x = points[:, a]
        inside = inside & (x >= lo[..., a, None]) & (x <= hi[..., a, None])
    return inside


# Box-point pairs tested in one in_boxes mask by overlap_counts and
# AtomicMeasure.masses_in_boxes: bounds the masks' memory.  At 2^20 the
# masks raised cube-quadrature's peak RSS by 1.3 MB; 2^18 adds nothing.
MASK_PAIRS = 1 << 18


def overlap_counts(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Number of the closed boxes [lo, hi] (corner arrays) holding each point.

    The boxes are taken one t-slab (one distinct t range) at a time, and
    only the points whose t lies in that range are tested against them:
    the others lie in none of its boxes, so the counts are exact.
    """
    pts = np.asarray(points, dtype=float)
    counts = np.zeros(len(pts), dtype=int)
    slabs, slab_of = np.unique(np.column_stack([lo[:, -1], hi[:, -1]]), axis=0,
                               return_inverse=True)
    slab_of = slab_of.ravel()
    for s, (t0, t1) in enumerate(slabs):
        sel = np.flatnonzero((pts[:, -1] >= t0) & (pts[:, -1] <= t1))
        slo, shi = lo[slab_of == s, :-1], hi[slab_of == s, :-1]
        step = max(1, MASK_PAIRS // len(slo))
        for a in range(0, len(sel), step):
            rows = sel[a : a + step]
            counts[rows] += in_boxes(pts[rows, :-1], slo, shi).sum(axis=0)
    return counts


def cubes_to_json(level: np.ndarray, index: np.ndarray, side: np.ndarray) -> list:
    """One record per cube of the cube_arrays: level, index, center and side."""
    return [{"level": j, "index": k, "center": c, "side": s} for j, k, c, s
            in zip(level.tolist(), index.tolist(), box_centers(index, side).tolist(),
                   side.tolist())]


def sample_region(region: Region, n: int, count: int, seed: int, margin: float = 0.0):
    """Deterministic uniform samples of the region (log-uniform in t).

    margin shrinks the box so samples stay away from the truncation
    boundary; t stays within [t_min, t_max] regardless.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-region.x_max * (1 - margin), region.x_max * (1 - margin), size=(count, n))
    lt = rng.uniform(math.log(region.t_min), math.log(region.t_max), size=count)
    return np.column_stack([x, np.exp(lt)])
