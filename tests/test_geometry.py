"""Whitney decomposition geometry: tiling, ratios, measures, records."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from harmspace.geometry import (
    MAX_ENLARGE,
    Region,
    WhitneyBoxes,
    box_centers,
    box_corners,
    box_volumes,
    clipped_corners,
    enlarged_corners,
    overlap_counts,
    sample_region,
    weighted_measures,
    whitney_count,
    whitney_cubes,
)
from harmspace.util import Records, dumps_json


# ------------------------------------------- per-box references, Python floats


def _closed_form(level, index):
    """Corners, centre and eta of the box (level j, index k) in Python
    floats: [k 2^j, (k+1) 2^j] x [2^j, 2^(j+1)], centre ((k+1/2) 2^j,
    3/2 2^j)."""
    s = 2.0 ** level
    lo = [k * s for k in index] + [s]
    hi = [(k + 1) * s for k in index] + [2.0 * s]
    center = [(k + 0.5) * s for k in index] + [1.5 * s]
    return lo, hi, center, 1.5 * s


def _rows(cubes):
    """(level, index tuple) of each box, in the record's order."""
    return list(zip(cubes.level.tolist(), map(tuple, cubes.index.tolist())))


def _volume(lo, hi):
    """Volume of one box, the sides multiplied from 1.0 in axis order."""
    v = 1.0
    for a, b in zip(lo, hi):
        v *= b - a
    return v


def _clipped(lo, hi, region):
    """One box clipped to the region; an empty overlap collapses to zero
    volume.  The per-box reference for clipped_corners."""
    n = len(lo) - 1
    lo = [max(a, -region.x_max) for a in lo[:n]] + [max(lo[n], region.t_min)]
    hi = [min(b, region.x_max) for b in hi[:n]] + [min(hi[n], region.t_max)]
    return [min(a, b) for a, b in zip(lo, hi)], hi


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
    # overflowing and huge-n requests count as inf; an unbounded region is
    # never built
    for region, n in ((Region(1e308, 1e-300, 2.0), 1), (Region(4.0, 1.0, 2.0), 10**9)):
        assert whitney_count(region, n) == math.inf
    for extents in ((math.inf, 1.0, 2.0), (1.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            Region(*extents)
    with pytest.raises(ValueError):
        whitney_count(Region(1.0, 0.5, 1.0), 0)


def test_level_counts_hand_tiling():
    # side 2^j on |x| <= 4 gives 8 / 2^j boxes per level, levels -2..1
    cubes = whitney_cubes(Region(4.0, 0.25, 4.0), 1)
    levels, counts = np.unique(cubes.level, return_counts=True)
    assert dict(zip(levels.tolist(), counts.tolist())) == {-2: 32, -1: 16, 0: 8, 1: 4}


def test_box_geometry_is_exact():
    for n in (1, 2):
        cubes = whitney_cubes(Region(2.0, 0.5, 4.0), n)
        lo, hi = box_corners(cubes)
        assert cubes.side.tolist() == [2.0 ** j for j in cubes.level.tolist()]
        assert (hi[:, -1] == 2.0 * lo[:, -1]).all() and (lo[:, -1] == cubes.side).all()
        assert (hi[:, :-1] - lo[:, :-1] == cubes.side[:, None]).all()
        # diameter over the distance to t = 0, which the bottom face attains
        diameter = np.sqrt(np.sum((hi - lo) ** 2, axis=1))
        assert (diameter / lo[:, -1] == math.sqrt(n + 1)).all()
        assert (box_centers(cubes)[:, -1] == 1.5 * cubes.side).all()


def test_interiors_disjoint_and_volumes_tile():
    region = Region(2.0, 0.25, 2.0)
    for n in (1, 2):
        lo, hi = box_corners(whitney_cubes(region, n))
        i, j = np.triu_indices(len(lo), 1)
        sides = np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j])
        assert np.clip(sides, 0.0, None).prod(axis=1).max() == 0.0
        covered = (2.0 * region.x_max) ** n * (region.t_max - region.t_min)
        assert box_volumes(lo, hi).sum() == pytest.approx(covered, rel=1e-12)


def test_enlargement_stays_in_half_space():
    cubes = whitney_cubes(Region(1.0, 0.125, 1.0), 2)
    lo, _ = enlarged_corners(cubes, MAX_ENLARGE - 1e-9)
    assert (lo[:, -1] > 0.0).all()
    with pytest.raises(ValueError):
        enlarged_corners(cubes[:1], MAX_ENLARGE + 1e-6)


def test_overlap_bound_small_case():
    region = Region(2.0, 0.25, 2.0)
    for n, bound in ((1, 4), (2, 8)):
        cubes = whitney_cubes(region, n)
        pts = sample_region(region, n, 400, seed=11)
        counts = overlap_counts(pts, *enlarged_corners(cubes))
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
    etas = [_closed_form(j, k)[3] for j, k in _rows(cubes)]
    ratios = set((weighted_measures(*box_corners(cubes), lam)
                  / [eta ** (2 + lam) for eta in etas]).tolist())
    assert max(ratios) - min(ratios) < 1e-13 * max(ratios)


def _box_records(cubes):
    """The per-box records of the whitney summary, built from the arrays."""
    return Records(level=cubes.level, index=cubes.index, center=box_centers(cubes),
                   side=cubes.side)


def test_json_records_contract():
    cubes = whitney_cubes(Region(1.0, 0.5, 1.0), 2)
    rec = json.loads(dumps_json(_box_records(cubes)))[0]
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


def _with_rows(cubes, rows):
    """cubes followed by extra (level, index) rows."""
    level = np.concatenate([cubes.level, [j for j, _ in rows]]).astype(np.int64)
    index = np.concatenate([cubes.index, [k for _, k in rows]]).astype(np.int64)
    return WhitneyBoxes(level, index, np.ldexp(1.0, level))


_ARRAY_CUBES = {
    n: _with_rows(whitney_cubes(Region(1.0, 0.3, 3.0), n),
                  [(-3, (-5, 7, -1)[:n]), (4, (-1000, 3, -2**20)[:n]),
                   (-9, (-(2**30),) * n)])
    for n in (1, 2, 3)
}


def test_corner_arrays_equal_the_scalar_boxes():
    for n, cubes in _ARRAY_CUBES.items():
        assert cubes.index.min() < -2**29
        lo, hi = box_corners(cubes)
        ctr = box_centers(cubes)
        assert lo.shape == hi.shape == ctr.shape == (len(cubes), n + 1)
        for b, (j, k) in enumerate(_rows(cubes)):
            want_lo, want_hi, want_ctr, _ = _closed_form(j, k)
            assert lo[b].tolist() == want_lo and hi[b].tolist() == want_hi
            assert ctr[b].tolist() == want_ctr
            assert cubes.side[b] == 2.0 ** j
        for factor in (1.0, 1.25, MAX_ENLARGE - 1e-9):
            elo, ehi = enlarged_corners(cubes, factor)
            for b, (j, k) in enumerate(_rows(cubes)):
                ctr_b, half = _closed_form(j, k)[2], 0.5 * 2.0 ** j * factor
                assert elo[b].tolist() == [c - half for c in ctr_b]
                assert ehi[b].tolist() == [c + half for c in ctr_b]
        with pytest.raises(ValueError):
            enlarged_corners(cubes, MAX_ENLARGE)


def test_volumes_and_measures_equal_the_per_box_formulas():
    def measure(lo, hi, lam):  # the closed form, one box at a time
        return _volume(lo[:-1], hi[:-1]) * (hi[-1] ** (lam + 1) - lo[-1] ** (lam + 1)) / (lam + 1)

    region = Region(1.0, 0.3, 3.0)
    for n, cubes in _ARRAY_CUBES.items():
        lo, hi = box_corners(cubes)
        boxes = list(zip(lo.tolist(), hi.tolist()))
        assert box_volumes(lo, hi).tolist() == [_volume(a, b) for a, b in boxes]
        for lam in (-0.5, 0, 1.0, 2.5, 3.7):
            want = [measure(a, b, lam) for a, b in boxes]
            assert weighted_measures(lo, hi, lam).tolist() == want
        rng = np.random.default_rng(n)  # boxes with t off the dyadic grid too
        rlo = rng.uniform(0.05, 3.0, size=(2000, n + 1))
        rhi = rlo + rng.uniform(0.0, 2.0, size=(2000, n + 1))
        rboxes = list(zip(rlo.tolist(), rhi.tolist()))
        for lam in (-0.37, 0.5, 1.5, 2.0, 6.1):
            assert weighted_measures(rlo, rhi, lam).tolist() == [measure(a, b, lam)
                                                                  for a, b in rboxes]
        clipped = [_clipped(a, b, region) for a, b in boxes]
        kept = [(a, b) for a, b in clipped if _volume(a, b) > 0]
        assert 0 < len(kept) < len(clipped)
        clo, chi = clipped_corners(lo, hi, region)
        assert clo.tolist() == [a for a, _ in kept]
        assert chi.tolist() == [b for _, b in kept]
    with pytest.raises(ValueError):
        weighted_measures(lo, hi, -1.0)


def test_json_records_equal_the_scalar_properties():
    for cubes in _ARRAY_CUBES.values():
        want = [{"level": j, "index": list(k), "center": _closed_form(j, k)[2],
                 "side": 2.0 ** j} for j, k in _rows(cubes)]
        assert dumps_json(_box_records(cubes)) == json.dumps(want, sort_keys=True, indent=2)
    assert dumps_json(_box_records(whitney_cubes(Region(1.0, 4.0, 2.0), 2))) == "[]"


def test_cubes_come_sorted():
    for n in (1, 2, 3):
        rows = _rows(whitney_cubes(Region(1.0, 0.3, 3.0), n))
        assert rows == sorted(set(rows))


def test_record_selection_keeps_the_rows_in_order():
    cubes = whitney_cubes(Region(1.0, 0.3, 3.0), 2)
    rows = _rows(cubes)
    mask = cubes.level == -1
    picks = np.array([5, 0, 5, len(cubes) - 1])
    for sel, want in ((mask, [r for r, m in zip(rows, mask) if m]),
                      (slice(3, 9), rows[3:9]), (picks, [rows[i] for i in picks]),
                      ([2], [rows[2]])):
        got = cubes[sel]
        assert _rows(got) == want
        assert got.side.tolist() == [2.0 ** j for j, _ in want]
        assert got.index.shape == (len(want), 2)
    assert cubes[cubes.level > 99].index.shape == (0, 2)
    with pytest.raises(TypeError):
        cubes[0]


def _decomposition(region, n, most):
    """The boxes whose interior meets the region, by brute force: each
    level j with (2^j, 2^(j+1)) meeting (t_min, t_max), each index k with
    (k 2^j, (k+1) 2^j) meeting (-x_max, x_max) on every axis, in order.
    None if there are more than `most`; none for t_min >= t_max."""
    if region.t_min >= region.t_max:
        return []
    layers = []
    for j in range(math.floor(math.log2(region.t_min)) - 1,
                   math.ceil(math.log2(region.t_max)) + 1):
        s = 2.0 ** j
        if s < region.t_max and 2.0 * s > region.t_min:
            top = math.ceil(region.x_max / s) + 1
            layers.append((j, [k for k in range(-top, top)
                               if k * s < region.x_max and (k + 1) * s > -region.x_max]))
    if sum(len(ks) ** n for _, ks in layers) > most:
        return None
    return [(j, k) for j, ks in layers for k in itertools.product(ks, repeat=n)]


@settings(max_examples=60, deadline=None)
# x_max one ulp above the side: -q - 1 rounds to -2, which once lost the
# box at k = -2 whose interior meets the region in a sliver
@example(n=1, x_max=math.nextafter(2.0 ** -5, 1.0), t_min=2.0 ** -5, t_span=1.0)
@example(n=2, x_max=math.nextafter(0.5, 1.0), t_min=0.25, t_span=2.0)
@given(
    n=st.integers(min_value=1, max_value=3),
    x_max=st.floats(min_value=0.01, max_value=3.0),
    t_min=st.floats(min_value=2.0 ** -5, max_value=4.0),
    t_span=st.floats(min_value=-1.0, max_value=6.0),
)
def test_whitney_cubes_match_closed_forms(n, x_max, t_min, t_span):
    region = Region(x_max, t_min, t_min * 2.0 ** t_span)
    want = _decomposition(region, n, 4000)
    assume(want is not None)
    cubes = whitney_cubes(region, n)
    assert len(cubes) == whitney_count(region, n) == len(want)
    assert cubes.level.dtype == cubes.index.dtype == np.int64
    assert cubes.level.shape == (len(want),) and cubes.index.shape == (len(want), n)
    assert _rows(cubes) == want  # by level, then lexicographic in the index
    if want:
        assert cubes.index.min() < 0
    lo, hi = box_corners(cubes)
    ctr = box_centers(cubes)
    for b, (j, k) in enumerate(want):
        want_lo, want_hi, want_ctr, eta = _closed_form(j, k)
        assert cubes.side[b] == 2.0 ** j
        assert lo[b].tolist() == want_lo and hi[b].tolist() == want_hi
        assert ctr[b].tolist() == want_ctr and ctr[b, -1] == eta


def test_slab_overlap_counts_equal_brute_force():
    def brute(pts, lo, hi):
        return np.sum(np.all((pts[:, None] >= lo[None]) & (pts[:, None] <= hi[None]),
                             axis=2), axis=1)

    region = Region(1.0, 0.3, 3.0)
    for n in (1, 2, 3):
        cubes = whitney_cubes(region, n)
        for lo, hi in (box_corners(cubes), enlarged_corners(cubes)):
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
