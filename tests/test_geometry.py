"""Whitney decomposition geometry: tiling, ratios, measures, records."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmspace.geometry import (
    MAX_ENLARGE,
    Box,
    Region,
    WhitneyCube,
    box_centers,
    box_corners,
    box_volumes,
    clipped_corners,
    cube_arrays,
    cubes_to_json,
    enlarged_corners,
    overlap_counts,
    sample_region,
    weighted_measures,
    whitney_count,
    whitney_cubes,
)


def _arrays(cubes):
    """The (index, side) arrays the corner helpers take."""
    return cube_arrays(cubes)[1:]


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        Region(1.0, -0.5, 1.0)
    assert Region(1.0, 2.0, 1.0).degenerate
    for extents in ((math.nan, 0.5, 1.0), (1.0, math.nan, 1.0), (1.0, 0.5, math.nan)):
        with pytest.raises(ValueError):
            Region(*extents)


def test_whitney_count_matches_enumeration():
    regions = [Region(4.0, 2.0 ** -4, 4.0), Region(1.0, 0.3, 5.0),
               Region(0.1, 0.25, 4.0), Region(0.7, 0.11, 0.9), Region(3.0, 2.0, 1.0)]
    for region in regions:
        for n in (1, 2):
            assert whitney_count(region, n) == len(whitney_cubes(region, n)), (region, n)
    # counted, not built: 2.4 million boxes, and one layer of 2**-40-sided ones
    assert whitney_count(Region(4.0, 2.0 ** -4, 4.0), 3) == 2396736
    assert whitney_count(Region(4.0, 2.0 ** -40, 2.0 ** -39), 1) == 2.0 ** 43
    # unbounded, overflowing and huge-n requests count as inf
    for region, n in ((Region(math.inf, 1.0, 2.0), 1), (Region(1.0, 1.0, math.inf), 1),
                      (Region(1e308, 1e-300, 2.0), 1), (Region(4.0, 1.0, 2.0), 10**9)):
        assert whitney_count(region, n) == math.inf
    with pytest.raises(ValueError):
        whitney_count(Region(1.0, 0.5, 1.0), 0)


def test_level_counts_hand_tiling():
    # side 2^j on |x| <= 4 gives 8 / 2^j boxes per level, levels -2..1
    cubes = whitney_cubes(Region(4.0, 0.25, 4.0), 1)
    counts = {}
    for c in cubes:
        counts[c.level] = counts.get(c.level, 0) + 1
    assert counts == {-2: 32, -1: 16, 0: 8, 1: 4}


def test_box_geometry_is_exact():
    for n in (1, 2):
        for c in whitney_cubes(Region(2.0, 0.5, 4.0), n):
            assert c.side == 2.0 ** c.level
            assert c.t_hi == 2.0 * c.t_lo == 2.0 ** (c.level + 1)
            assert c.diameter / c.boundary_distance == math.sqrt(n + 1)
            assert c.eta == pytest.approx(1.5 * c.side, rel=0, abs=0)


def test_interiors_disjoint_and_volumes_tile():
    region = Region(2.0, 0.25, 2.0)
    for n in (1, 2):
        cubes = whitney_cubes(region, n)
        boxes = [c.box() for c in cubes]
        lo, hi = np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
        i, j = np.triu_indices(len(boxes), 1)
        sides = np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j])
        assert np.clip(sides, 0.0, None).prod(axis=1).max() == 0.0
        covered = (2.0 * region.x_max) ** n * (region.t_max - region.t_min)
        assert sum(b.volume for b in boxes) == pytest.approx(covered, rel=1e-12)


def test_enlargement_stays_in_half_space():
    cubes = whitney_cubes(Region(1.0, 0.125, 1.0), 2)
    for c in cubes:
        grown = c.enlarged(MAX_ENLARGE - 1e-9)
        assert grown.lo[-1] > 0.0
    with pytest.raises(ValueError):
        cubes[0].enlarged(MAX_ENLARGE + 1e-6)


def test_overlap_bound_small_case():
    region = Region(2.0, 0.25, 2.0)
    for n, bound in ((1, 4), (2, 8)):
        cubes = whitney_cubes(region, n)
        pts = sample_region(region, n, 400, seed=11)
        counts = overlap_counts(pts, *enlarged_corners(*_arrays(cubes)))
        assert counts.min() >= 1  # enlarged boxes still cover
        assert counts.max() <= bound


def test_weighted_measure_closed_form():
    # int_{box} t^lam = side^n (t2^(lam+1) - t1^(lam+1)) / (lam+1)
    lo, hi = np.array([[0.0, 0.0, 0.5]]), np.array([[0.25, 0.25, 1.0]])
    for lam in (0.0, 1.0, 2.5):
        want = 0.25 ** 2 * (1.0 ** (lam + 1) - 0.5 ** (lam + 1)) / (lam + 1)
        assert weighted_measures(lo, hi, lam)[0] == pytest.approx(want, rel=1e-12)


def test_measure_scaling_constant_across_levels():
    lam = 1.5
    cubes = whitney_cubes(Region(4.0, 2.0 ** -4, 4.0), 1)
    ratios = set((weighted_measures(*box_corners(*_arrays(cubes)), lam)
                  / [c.eta ** (2 + lam) for c in cubes]).tolist())
    assert max(ratios) - min(ratios) < 1e-13 * max(ratios)


def test_json_records_contract():
    cubes = whitney_cubes(Region(1.0, 0.5, 1.0), 2)
    rec = cubes_to_json(*cube_arrays(cubes))[0]
    assert set(rec) == {"level", "index", "center", "side"}
    assert len(rec["index"]) == 2 and len(rec["center"]) == 3


def test_sample_region_deterministic():
    a = sample_region(Region(1.0, 0.25, 1.0), 2, 16, seed=3)
    b = sample_region(Region(1.0, 0.25, 1.0), 2, 16, seed=3)
    assert np.array_equal(a, b)
    assert a[:, -1].min() >= 0.25 and a[:, -1].max() <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=-0.9, max_value=4.0),
    level=st.integers(min_value=-3, max_value=3),
)
def test_measure_respects_dyadic_scaling(lam, level):
    # one box per level against the level-0 box, exact power law in the side
    lo = np.array([[0.0, 1.0], [0.0, 2.0 ** level]])
    hi = np.array([[1.0, 2.0], [2.0 ** level, 2.0 ** (level + 1)]])
    base, got = weighted_measures(lo, hi, lam)
    assert got == pytest.approx(base * 2.0 ** (level * (2 + lam)), rel=1e-10)


# ---------------------------------------------- corner arrays, bit for bit

_ARRAY_CUBES = {
    n: whitney_cubes(Region(1.0, 0.3, 3.0), n)
    + [WhitneyCube(-3, (-5, 7, -1)[:n]), WhitneyCube(4, (-1000, 3, -2**20)[:n]),
       WhitneyCube(-9, (-(2**30),) * n)]
    for n in (1, 2, 3)
}


def test_corner_arrays_equal_the_scalar_boxes():
    for n, cubes in _ARRAY_CUBES.items():
        assert any(min(c.index) < 0 for c in cubes)
        level, index, side = cube_arrays(cubes)
        lo, hi = box_corners(index, side)
        ctr = box_centers(index, side)
        assert lo.shape == hi.shape == ctr.shape == (len(cubes), n + 1)
        for b, c in enumerate(cubes):
            box = c.box()
            assert lo[b].tolist() == list(box.lo) and hi[b].tolist() == list(box.hi)
            assert ctr[b].tolist() == c.center.tolist()
            assert (level[b], tuple(index[b].tolist()), side[b]) == (c.level, c.index, c.side)
        for factor in (1.0, 1.25, MAX_ENLARGE - 1e-9):
            elo, ehi = enlarged_corners(index, side, factor)
            for b, c in enumerate(cubes):
                big = c.enlarged(factor)
                assert elo[b].tolist() == list(big.lo)
                assert ehi[b].tolist() == list(big.hi)
        with pytest.raises(ValueError):
            enlarged_corners(index, side, MAX_ENLARGE)


def test_volumes_and_measures_equal_the_per_box_formulas():
    def measure(box, lam):  # the closed form, one box at a time
        spatial = 1.0
        for a, b in zip(box.lo[:-1], box.hi[:-1]):
            spatial *= b - a
        return spatial * (box.hi[-1] ** (lam + 1) - box.lo[-1] ** (lam + 1)) / (lam + 1)

    region = Region(1.0, 0.3, 3.0)
    for n, cubes in _ARRAY_CUBES.items():
        boxes = [c.box() for c in cubes]
        lo, hi = box_corners(*_arrays(cubes))
        assert box_volumes(lo, hi).tolist() == [b.volume for b in boxes]
        for lam in (-0.5, 0, 1.0, 2.5, 3.7):
            want = [measure(b, lam) for b in boxes]
            assert weighted_measures(lo, hi, lam).tolist() == want
        rng = np.random.default_rng(n)  # boxes with t off the dyadic grid too
        rlo = rng.uniform(0.05, 3.0, size=(2000, n + 1))
        rhi = rlo + rng.uniform(0.0, 2.0, size=(2000, n + 1))
        rboxes = [Box(tuple(a), tuple(b)) for a, b in zip(rlo.tolist(), rhi.tolist())]
        for lam in (-0.37, 0.5, 1.5, 2.0, 6.1):
            assert weighted_measures(rlo, rhi, lam).tolist() == [measure(b, lam) for b in rboxes]
        clipped = [b.clipped(region) for b in boxes]
        clo, chi = clipped_corners(lo, hi, region)
        kept = [b for b in clipped if b.volume > 0]
        assert clo.tolist() == [list(b.lo) for b in kept]
        assert chi.tolist() == [list(b.hi) for b in kept]
    with pytest.raises(ValueError):
        weighted_measures(lo, hi, -1.0)


def test_json_records_equal_the_scalar_properties():
    for cubes in _ARRAY_CUBES.values():
        want = [{"level": c.level, "index": list(c.index),
                 "center": [float(v) for v in c.center], "side": c.side} for c in cubes]
        assert cubes_to_json(*cube_arrays(cubes)) == want
    assert cubes_to_json(*cube_arrays([])) == []


def test_cubes_come_sorted():
    for n in (1, 2, 3):
        cubes = whitney_cubes(Region(1.0, 0.3, 3.0), n)
        assert cubes == sorted(cubes)


def test_slab_overlap_counts_equal_brute_force():
    def brute(pts, lo, hi):
        return np.sum(np.all((pts[:, None] >= lo[None]) & (pts[:, None] <= hi[None]),
                             axis=2), axis=1)

    region = Region(1.0, 0.3, 3.0)
    for n in (1, 2, 3):
        cubes = whitney_cubes(region, n)
        for lo, hi in (box_corners(*_arrays(cubes)), enlarged_corners(*_arrays(cubes))):
            # probes on every slab's top and bottom, at box corners and faces
            rng = np.random.default_rng(n)
            pick = rng.integers(len(lo), size=60)
            mixed = np.where(rng.random((60, n + 1)) < 0.5, lo[pick], hi[pick])
            mixed[:, :n] += rng.choice([0.0, 0.0, 1e-9, -1e-9], size=(60, n))
            probes = np.concatenate([lo[pick], hi[pick], mixed])
            pts = np.vstack([probes, sample_region(region, n, 300, seed=n)])
            got = overlap_counts(pts, lo, hi)
            assert got.tolist() == brute(pts, lo, hi).tolist()
            assert got[:120].min() >= 1  # every corner lies in its own box
