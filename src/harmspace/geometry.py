"""Layered dyadic Whitney-type decomposition of the upper half-space.

Points of the upper half-space are written z = (x, t) with x in R^n and
t > 0.  The decomposition at level j tiles the slab 2^j <= t <= 2^(j+1)
with boxes of spatial side 2^j on the lattice 2^j Z^n, so every box
satisfies diam(box) / dist(box, boundary) = sqrt(n+1) exactly and the
boxes have pairwise disjoint interiors.  Enlarging each box by a factor
below 4/3 about its center keeps the enlargement inside the half-space
and produces a cover of finite overlap.

The decomposition is held as arrays only: whitney_cubes returns a
WhitneyBoxes record of the boxes' levels and indices, and the corner,
centre, volume and weighted-measure functions below work on whole arrays
of boxes.  Any other box is a pair of corner arrays (lo, hi) as well.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class WhitneyBoxes:
    """Boxes of the layered decomposition, one row each: level j (int64,
    (B,)), spatial index k in Z^n (int64, (B, n)) and side 2^j (float,
    (B,)).  The box of a row is [k 2^j, (k+1) 2^j] x [2^j, 2^(j+1)].

    len() is the number of boxes; indexing with a slice, a mask or an
    index array gives those boxes, in that order.
    """

    level: np.ndarray
    index: np.ndarray
    side: np.ndarray

    def __len__(self) -> int:
        return len(self.level)

    def __getitem__(self, rows) -> "WhitneyBoxes":
        index = self.index[rows]
        if index.ndim != 2:
            raise TypeError("select boxes with a slice, a mask or an index array")
        return WhitneyBoxes(self.level[rows], index, self.side[rows])


def _check_enlarge(factor: float) -> None:
    if not (1.0 <= factor < MAX_ENLARGE):
        raise ValueError(f"enlargement factor must lie in [1, {MAX_ENLARGE})")


def _index_range(extent: float, side: float):
    """Integers k with (k*side, (k+1)*side) meeting (-extent, extent).

    side is a power of two, so q = extent / side is exact; the set is
    symmetric under k -> -1 - k, so no second rounded bound is needed.
    """
    q = extent / side
    k_max = math.ceil(q) - 1  # largest k with k*side < extent
    return range(-1 - k_max, k_max + 1)


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


def whitney_cubes(region: Region, n: int) -> WhitneyBoxes:
    """All decomposition boxes whose interior meets the region.

    Ordered by level, then lexicographically by index (the first axis
    varies slowest), one layer at a time.  A degenerate region gives no
    boxes: index of shape (0, n).
    """
    if n < 1:
        raise ValueError("spatial dimension must be >= 1")
    levels, indices = [np.zeros(0, np.int64)], [np.zeros((0, n), np.int64)]
    for j, per_axis in _layers(region):
        k = np.arange(per_axis.start, per_axis.stop, dtype=np.int64)
        grid = np.meshgrid(*[k] * n, indexing="ij")
        indices.append(np.stack(grid, axis=-1).reshape(-1, n))
        levels.append(np.full(len(indices[-1]), j, np.int64))
    level = np.concatenate(levels)
    return WhitneyBoxes(level, np.concatenate(indices), np.ldexp(1.0, level))


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
# Whole-array geometry of a WhitneyBoxes record, one row per box in its
# order.  Callers that need bit-for-bit agreement with a per-box formula
# keep powers of per-box values in Python float ``**`` (``[v ** e for v
# in a.tolist()]``): numpy's vectorised pow differs from it in the last
# bit on some values.


def box_corners(cubes: WhitneyBoxes):
    """Corner arrays (lo, hi), each (B, n+1): (k side, side) and
    ((k + 1) side, 2 side)."""
    side = cubes.side
    lo = np.column_stack([cubes.index * side[:, None], side])
    hi = np.column_stack([(cubes.index + 1) * side[:, None], 2 * side])
    return lo, hi


def box_centers(cubes: WhitneyBoxes) -> np.ndarray:
    """Centres (xi, eta) of the boxes, (B, n+1): ((k + 1/2) side, 3/2 side)."""
    side = cubes.side
    return np.column_stack([(cubes.index + 0.5) * side[:, None], 1.5 * side])


def enlarged_corners(cubes: WhitneyBoxes, factor: float = DEFAULT_ENLARGE):
    """Corner arrays (lo, hi) of the boxes scaled by factor about their
    centres: centre -/+ factor side / 2 on every axis."""
    _check_enlarge(factor)
    c = box_centers(cubes)
    half = (0.5 * cubes.side * factor)[:, None]
    return c - half, c + half


def clipped_corners(lo: np.ndarray, hi: np.ndarray, region: Region):
    """The boxes [lo, hi] clipped to the region, in their order; boxes of
    zero volume are dropped."""
    n = lo.shape[1] - 1
    lo = np.maximum(lo, [-region.x_max] * n + [region.t_min])
    hi = np.minimum(hi, [region.x_max] * n + [region.t_max])
    lo = np.minimum(lo, hi)  # empty overlap collapses to zero volume
    keep = np.all(hi > lo, axis=1)
    return lo[keep], hi[keep]


def box_volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Volume of each box [lo, hi]: the sides multiplied axis by axis,
    starting from 1.0."""
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


# Pairs of a box and a point tested in one mask by overlap_counts,
# AtomicMeasure.masses_in_boxes and the carleson excursion sets: bounds the
# masks' memory.  At 2^20 the masks raised cube-quadrature's peak RSS by
# 1.3 MB; 2^18 adds nothing.
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


def cubes_to_json(cubes: WhitneyBoxes) -> list:
    """One record per box: level, index, center and side."""
    return [{"level": j, "index": k, "center": c, "side": s} for j, k, c, s
            in zip(cubes.level.tolist(), cubes.index.tolist(),
                   box_centers(cubes).tolist(), cubes.side.tolist())]


def sample_region(region: Region, n: int, count: int, seed: int, margin: float = 0.0):
    """Deterministic uniform samples of the region (log-uniform in t).

    margin shrinks the box so samples stay away from the truncation
    boundary; t stays within [t_min, t_max] regardless.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-region.x_max * (1 - margin), region.x_max * (1 - margin), size=(count, n))
    lt = rng.uniform(math.log(region.t_min), math.log(region.t_max), size=count)
    return np.column_stack([x, np.exp(lt)])
