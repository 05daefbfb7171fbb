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

    def intersection_volume(self, other: "Box") -> float:
        v = 1.0
        for a0, b0, a1, b1 in zip(self.lo, self.hi, other.lo, other.hi):
            v *= max(0.0, min(b0, b1) - max(a0, a1))
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
        if not (1.0 <= factor < MAX_ENLARGE):
            raise ValueError(f"enlargement factor must lie in [1, {MAX_ENLARGE})")
        c = self.center
        half = np.append(
            np.full(self.n, 0.5 * self.side * factor), 0.5 * self.side * factor
        )
        return Box(tuple(c - half), tuple(c + half))

    def record(self) -> dict:
        return {
            "level": self.level,
            "index": list(self.index),
            "center": [float(v) for v in self.center],
            "side": self.side,
        }


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

    Returned sorted by (level, index); a degenerate region gives [].
    """
    if n < 1:
        raise ValueError("spatial dimension must be >= 1")
    cubes = [WhitneyCube(j, idx) for j, per_axis in _layers(region)
             for idx in itertools.product(per_axis, repeat=n)]
    cubes.sort()
    return cubes


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


def clipped_corners(cubes: list, region: Region):
    """Corner arrays (lo, hi), each (B, n+1), of the cubes' boxes clipped
    to the region, in the cubes' order; boxes of zero volume are dropped.
    The corners equal those of cube.box().clipped(region)."""
    if not cubes:
        return np.empty((0, 0)), np.empty((0, 0))
    side = 2.0 ** np.array([c.level for c in cubes], dtype=float)
    idx = np.array([c.index for c in cubes], dtype=float)
    lo = np.column_stack([idx * side[:, None], side])
    hi = np.column_stack([(idx + 1) * side[:, None], 2 * side])
    n = idx.shape[1]
    lo = np.maximum(lo, [-region.x_max] * n + [region.t_min])
    hi = np.minimum(hi, [region.x_max] * n + [region.t_max])
    lo = np.minimum(lo, hi)  # empty overlap collapses to zero volume
    keep = np.all(hi > lo, axis=1)
    return lo[keep], hi[keep]


def weighted_measure(box: Box, lam: float) -> float:
    """m_lambda(box) = integral of t^lambda over the box, closed form.

    Only lambda > -1 is accepted; the boxes used here sit away from t = 0,
    but the toolkit never needs the extended range.
    """
    if lam <= -1:
        raise ValueError("weight exponent must exceed -1")
    n = box.dim - 1
    spatial = 1.0
    for a, b in zip(box.lo[:n], box.hi[:n]):
        spatial *= b - a
    t0, t1 = box.lo[n], box.hi[n]
    return spatial * (t1 ** (lam + 1) - t0 ** (lam + 1)) / (lam + 1)


def overlap_counts(points: np.ndarray, boxes: list) -> np.ndarray:
    """Number of closed boxes containing each point (chunked brute force)."""
    pts = np.asarray(points, dtype=float)
    los = np.array([b.lo for b in boxes])
    his = np.array([b.hi for b in boxes])
    counts = np.zeros(len(pts), dtype=int)
    chunk = max(1, int(2e6 // max(1, len(boxes))))
    for start in range(0, len(pts), chunk):
        p = pts[start : start + chunk]
        inside = np.all(
            (p[:, None, :] >= los[None, :, :]) & (p[:, None, :] <= his[None, :, :]),
            axis=2,
        )
        counts[start : start + chunk] = inside.sum(axis=1)
    return counts


def cubes_to_json(cubes: list) -> list:
    return [c.record() for c in cubes]


def sample_region(region: Region, n: int, count: int, seed: int, margin: float = 0.0):
    """Deterministic uniform samples of the region (log-uniform in t).

    margin shrinks the box so samples stay away from the truncation
    boundary; t stays within [t_min, t_max] regardless.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-region.x_max * (1 - margin), region.x_max * (1 - margin), size=(count, n))
    lt = rng.uniform(math.log(region.t_min), math.log(region.t_max), size=count)
    return np.column_stack([x, np.exp(lt)])
