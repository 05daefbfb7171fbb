"""Whitney decomposition geometry: tiling, ratios, measures, records."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmspace.geometry import (
    MAX_ENLARGE,
    Box,
    Region,
    cubes_to_json,
    overlap_counts,
    sample_region,
    weighted_measure,
    whitney_count,
    whitney_cubes,
)


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
        paired = sum(
            boxes[i].intersection_volume(boxes[j])
            for i in range(len(boxes))
            for j in range(i + 1, len(boxes))
        )
        assert paired == 0.0
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
        boxes = [c.enlarged() for c in cubes]
        pts = sample_region(region, n, 400, seed=11)
        counts = overlap_counts(pts, boxes)
        assert counts.min() >= 1  # enlarged boxes still cover
        assert counts.max() <= bound


def test_weighted_measure_closed_form():
    # int_{box} t^lam = side^n (t2^(lam+1) - t1^(lam+1)) / (lam+1)
    box = Box((0.0, 0.0, 0.5), (0.25, 0.25, 1.0))
    for lam in (0.0, 1.0, 2.5):
        want = 0.25 ** 2 * (1.0 ** (lam + 1) - 0.5 ** (lam + 1)) / (lam + 1)
        assert weighted_measure(box, lam) == pytest.approx(want, rel=1e-12)


def test_measure_scaling_constant_across_levels():
    lam = 1.5
    cubes = whitney_cubes(Region(4.0, 2.0 ** -4, 4.0), 1)
    ratios = {weighted_measure(c.box(), lam) / c.eta ** (2 + lam) for c in cubes}
    assert max(ratios) - min(ratios) < 1e-13 * max(ratios)


def test_json_records_contract():
    cubes = whitney_cubes(Region(1.0, 0.5, 1.0), 2)
    rec = cubes_to_json(cubes)[0]
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
    lo = (0.0, 2.0 ** level)
    hi = (2.0 ** level, 2.0 ** (level + 1))
    base = weighted_measure(Box((0.0, 1.0), (1.0, 2.0)), lam)
    got = weighted_measure(Box(lo, hi), lam)
    assert got == pytest.approx(base * 2.0 ** (level * (2 + lam)), rel=1e-10)
