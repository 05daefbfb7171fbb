"""Atomic measures and box conditions: exact masses, hand-sized gauges."""

import tracemalloc

import numpy as np
import pytest

from harmspace import carleson as ca, kernels
from harmspace.geometry import MASK_PAIRS, Region, box_corners, in_boxes, whitney_cubes
from harmspace.quadrature import QuadSpec


def test_atom_validation():
    with pytest.raises(ValueError):
        ca.AtomicMeasure([[0.0], [1.0]], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ca.AtomicMeasure([[0.0]], [0.0], [1.0])
    with pytest.raises(ValueError):
        ca.AtomicMeasure([[0.0]], [1.0], [-1.0])
    # NaN passes a "< 0" test, so non-finite values need their own check
    for x, t, w in (([[np.nan]], [1.0], [1.0]), ([[0.0]], [np.inf], [1.0]),
                    ([[0.0]], [np.nan], [1.0]), ([[0.0]], [1.0], [np.nan]),
                    ([[0.0]], [1.0], [np.inf])):
        with pytest.raises(ValueError, match="finite"):
            ca.AtomicMeasure(x, t, w)


def _boxes(cubes):
    """The cubes' boxes as (lo, hi) corner rows, in order."""
    return list(zip(*box_corners(cubes)))


def _mass_in_box(mu, box):
    """Per-box mass reference: the np.sum of the weights of the atoms in
    the closed box (lo, hi), in atom order."""
    return float(mu.weight[in_boxes(mu.points, *box)].sum())


def test_mass_in_box_boundary_inclusive():
    # an atom sitting on the shared face of two closed boxes counts in both
    mu = ca.AtomicMeasure.point_mass([0.5], 1.0, 2.0)
    cubes = whitney_cubes(Region(4.0, 0.25, 4.0), 1)
    masses = [_mass_in_box(mu, b) for b in _boxes(cubes)]
    holding = [m > 0 for m in masses]
    assert set(cubes.level[holding].tolist()) == {-1, 0}
    assert {m for m in masses if m > 0} == {2.0}


def test_integrate_is_exact_sum():
    mu = ca.AtomicMeasure([[0.0], [1.0]], [1.0, 2.0], [0.5, 2.0])
    got = mu.integrate(lambda pts: pts[:, 0] + pts[:, 1])
    assert got == 0.5 * (0.0 + 1.0) + 2.0 * (1.0 + 2.0)


def test_json_round_trip():
    mu = ca.AtomicMeasure([[0.25, -1.0], [3.0, 0.5]], [0.75, 2.5],
                          [1.0, 0.125], label="pair")
    back = ca.AtomicMeasure.from_json(mu.to_json())
    assert back.label == "pair"
    assert np.array_equal(back.x, mu.x)
    assert np.array_equal(back.t, mu.t)
    assert np.array_equal(back.weight, mu.weight)


def test_discretized_weight_total_mass_closed_form():
    # the boxes tile the region, so the cube-center atoms carry exactly
    # int_region t^lam = (2 x_max)^n (t_max^(lam+1) - t_min^(lam+1))/(lam+1)
    region = Region(4.0, 0.25, 4.0)
    for n, lam in ((1, 2.0), (1, -0.5), (2, 1.0)):
        mu = ca.AtomicMeasure.discretized_weight(region, n, lam)
        exact = (8.0**n) * (4.0 ** (lam + 1) - 0.25 ** (lam + 1)) / (lam + 1)
        assert mu.total_mass() == pytest.approx(exact, rel=1e-12)


def test_condition_single_hand_computed():
    # one atom of weight 2 in exactly one box of volume 1 and gauge 1
    mu = ca.AtomicMeasure.point_mass([0.1], 1.5, 2.0)
    cubes = whitney_cubes(Region(4.0, 0.25, 4.0), 1)
    rep = ca.condition_single(mu, cubes, alpha=1.0)
    assert rep.constant == 2.0
    assert rep.level[rep.argmax] == 0
    assert rep.params["exponent"] == 1.5


def test_condition_gauges_hand_computed():
    # atom in the level-1 box: side 2, volume 4, eta 3
    cubes = whitney_cubes(Region(4.0, 0.5, 8.0), 1)
    mu = ca.AtomicMeasure.point_mass([0.1], 3.0, 1.0)
    vec = ca.condition_vector(mu, cubes, 2, (0.5, 0.5))
    assert vec.constant == pytest.approx(4.0**-2.5, rel=1e-14)
    mix = ca.condition_mixed(mu, cubes, 1.0, 2.0, 1.0)
    assert mix.constant == pytest.approx(3.0**-4.0, rel=1e-14)
    tent = ca.condition_tent(mu, cubes, 2.0, 1.0)
    assert tent.constant == pytest.approx(3.0**-3.0, rel=1e-14)


def test_condition_validation():
    cubes = whitney_cubes(Region(2.0, 0.5, 2.0), 1)
    mu = ca.AtomicMeasure.point_mass([0.0], 1.0)
    with pytest.raises(ValueError):
        ca.condition_vector(mu, cubes, 2, (0.5,))
    with pytest.raises(ValueError):
        ca.condition_mixed(mu, cubes, 2.0, 1.0, 1.0)  # p > q
    with pytest.raises(ValueError):
        ca.condition_mixed(mu, cubes, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        ca.condition_tent(mu, cubes, 0.0, 1.0)
    with pytest.raises(ValueError):
        ca.condition_tent(mu, cubes, 2.0, 1.0, tau=3.0)


def test_report_shapes_and_csv():
    region = Region(4.0, 0.25, 4.0)
    cubes = whitney_cubes(region, 1)
    mu = ca.AtomicMeasure.point_mass([0.1], 1.5, 2.0)
    rep = ca.condition_single(mu, cubes, alpha=1.0)
    assert len(rep) == len(cubes)
    lm = rep.level_maxima()
    assert set(lm) == set(cubes.level.tolist())
    assert max(lm.values()) == rep.constant
    cols = rep.csv_columns()
    assert len(cols) == 6 and all(len(c) == len(cubes) for c in cols)
    assert set(cols[0]) == {"single"}
    assert cols[2] == [str(k) for k in cubes.index[:, 0].tolist()]
    s = rep.summary()
    assert s["condition"] == "single"
    assert s["boxes"] == len(cubes)
    assert s["constant"] == rep.constant
    assert s["argmax_level"] == 0


def test_qw_box_geometry():
    lo, hi = ca.qw_box([1.0, -2.0, 0.5])
    assert lo.tolist() == [0.75, -2.25, 0.25]
    assert hi.tolist() == [1.25, -1.75, 0.75]
    # an array of centers gives corner arrays, one row per center
    lo2, hi2 = ca.qw_box([[1.0, -2.0, 0.5], [0.0, 0.0, 2.0]])
    assert lo2.tolist() == [lo.tolist(), [-1.0, -1.0, 1.0]]
    assert hi2.tolist() == [hi.tolist(), [1.0, 1.0, 3.0]]
    with pytest.raises(ValueError):
        ca.qw_box([0.0, -1.0])
    with pytest.raises(ValueError):
        ca.qw_box([[0.0, 1.0], [0.0, 0.0]])


def test_excursion_mass_bounds():
    w = np.array([0.0, 0.0, 1.0])
    inside = ca.AtomicMeasure.point_mass([0.05, 0.0], 1.1, 3.0)
    outside = ca.AtomicMeasure.point_mass([5.0, 0.0], 1.1, 3.0)
    lo, hi = ca.qw_box(w)
    full = inside.masses_in_boxes(lo[None], hi[None])[0]
    assert full == 3.0
    masses = [ca.excursion_mass(inside, w[None], 1, d)[0] for d in (0.0, 0.01, 0.1, 1.0)]
    assert all(0.0 <= m <= full for m in masses)
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert ca.excursion_mass(outside, w[None], 1, 0.0).tolist() == [0.0]


def test_lemma6_cover():
    w = np.array([0.0, 0.25])
    frac, chosen, mult = ca.lemma6_cover(w, 1, 1, 0.05, grid=10, lattice=3)
    assert 0.0 <= frac <= 1.0
    assert chosen.shape == (len(chosen), 2)
    assert mult >= (1 if len(chosen) else 0)


def _excursion_loop(l, n, delta, pts, w, interior):
    """One center's excursion set: its box test on every point, then
    profile_excursion on the points inside; None if no point is inside."""
    lo, hi = ca.qw_box(w)
    if interior:
        inside = np.all((pts > lo) & (pts < hi), axis=1)
    else:
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    if not np.any(inside):
        return None
    m = np.zeros(len(pts), dtype=bool)
    m[inside] = kernels.profile_excursion(l, n, delta, pts[inside], w)
    return m


def _grid(axes):
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _lemma6_cover_loop(w, l, n, delta, grid, lattice):
    """The cover built one candidate at a time, each gain a fresh count:
    the reference for the mask-matrix cover.  Also returns the number of
    candidates whose open box holds no sample point."""
    w = np.asarray(w, dtype=float)
    s = w[-1]
    pts = _grid([np.linspace(a, b, grid) for a, b in zip(*ca.qw_box(w))])
    candidates = []
    for sp in (0.5 * s, s, 2.0 * s):
        offsets = np.linspace(-s, s, lattice)
        centers = _grid([offsets] * n) + w[:-1]
        for c in centers:
            for tp in (sp, 0.75 * sp, 1.25 * sp):
                candidates.append(np.append(c, tp))
    masks = [_excursion_loop(l, n, delta, pts, c, True) for c in candidates]
    uncovered = np.ones(len(pts), dtype=bool)
    chosen, chosen_masks = [], []
    while np.any(uncovered):
        gains = [0 if m is None else int(np.sum(m & uncovered)) for m in masks]
        best = int(np.argmax(gains))
        if gains[best] == 0:
            break
        chosen.append(candidates[best])
        chosen_masks.append(masks[best])
        uncovered &= ~masks[best]
    fraction = 1.0 - float(np.mean(uncovered))
    mult = int(np.max(np.sum(np.array(chosen_masks), axis=0))) if chosen_masks else 0
    return (fraction, np.array(chosen).reshape(-1, n + 1), mult,
            sum(m is None for m in masks))


_COVER_CASES = [
    # (n, l, w, grid, lattice); every lattice-5 case has candidates whose
    # open box holds no sample point, and P_1 vanishes for n = 1, so the
    # first case covers nothing
    (1, 1, [0.0, 0.25], 10, 3),
    (1, 2, [0.0, 1.0], 12, 5),
    (1, 3, [0.4, 2.0], 9, 3),
    (2, 1, [0.0, 0.0, 1.0], 8, 5),
    (2, 2, [0.4, 0.4, 2.0], 7, 3),
    (3, 1, [0.0, 0.0, 0.0, 0.25], 5, 5),
    (3, 2, [0.4, 0.4, 0.4, 2.0], 6, 3),
]


@pytest.mark.parametrize("n, l, w, grid, lattice", _COVER_CASES)
def test_lemma6_cover_equals_the_per_candidate_loop(n, l, w, grid, lattice):
    delta = kernels.default_delta(l, n) if l > 1 or n > 1 else 0.05
    frac, chosen, mult = ca.lemma6_cover(w, l, n, delta, grid=grid, lattice=lattice)
    ref_frac, ref_chosen, ref_mult, empty = _lemma6_cover_loop(w, l, n, delta, grid, lattice)
    assert (frac, mult) == (ref_frac, ref_mult)
    assert np.array_equal(chosen, ref_chosen)
    if lattice == 5:
        assert empty > 0
    # the chosen centers' closed excursion sets on a shrunken grid (the
    # transfer check of lemma6), and their atomic masses
    lo, hi = ca.qw_box(np.asarray(w))
    axes = [np.linspace(a + 1e-9, b - 1e-9, grid) for a, b in zip(lo, hi)]
    gpts = _grid(axes)
    sets = ca.excursion_masks(l, n, delta, axes, chosen)
    for c, row in zip(chosen, sets):
        ref = _excursion_loop(l, n, delta, gpts, c, False)
        assert np.array_equal(row, np.zeros(len(gpts), bool) if ref is None else ref)
    mu = ca.AtomicMeasure.discretized_weight(Region(2.0, 2.0 ** -3, 4.0), n, 0.0)
    mass = ca.excursion_mass(mu, chosen, l, delta)
    ref = [0.0 if m is None else float(mu.weight[m].sum())
           for m in (_excursion_loop(l, n, delta, mu.points, c, False) for c in chosen)]
    assert mass.tolist() == ref


def test_excursion_masks_in_chunks_equal_one_pass(monkeypatch):
    w = np.array([0.0, 0.0, 1.0])
    axes = [np.linspace(a, b, 6) for a, b in zip(*ca.qw_box(w))]
    centers = np.array([[0.1, -0.2, 0.9], [0.0, 0.0, 0.5], [0.3, 0.3, 1.5], [5.0, 0.0, 1.0]])
    whole = ca.excursion_masks(2, 2, 0.01, axes, centers, interior=True)
    monkeypatch.setattr(ca, "MASK_PAIRS", 1)  # one center per chunk
    assert np.array_equal(ca.excursion_masks(2, 2, 0.01, axes, centers, interior=True), whole)
    assert not whole[-1].any() and whole[:-1].any()


def test_lemma6_cover_over_the_cell_limit_raises_before_building(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the limit must reject the cover before this")

    monkeypatch.setattr(ca, "excursion_masks", unreachable)
    # lemma6 at smoke with n = 4: 5,625 candidates by 12^5 points, 1.4G cells
    w = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="mask matrix"):
        ca.lemma6_cover(w, 1, 4, 0.1, grid=12, lattice=5)
    # deep with n = 3 stays within it
    assert 9 * 5**3 * 24**4 <= ca.MAX_COVER_CELLS


def test_lemma6_cover_peak_memory_is_the_mask_matrix():
    # lemma6 at deep with n = 2: 225 candidates by 24^3 points
    n, grid, lattice = 2, 24, 5
    cells = 9 * lattice**n * grid ** (n + 1)
    w = np.array([0.0, 0.0, 1.0])
    delta = kernels.default_delta(1, n)
    tracemalloc.start()
    try:
        ca.lemma6_cover(w, 1, n, delta, grid=grid, lattice=lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (C, P) booleans plus the temporaries of one chunk of MASK_PAIRS pairs
    assert peak < cells + 48 * MASK_PAIRS


# ------------------------------------------- array paths, bit for bit

def _lattice_measure(n, seed):
    """Atoms on box corners, on shared faces and inside, with several atoms
    (more than numpy's 8-way unrolled sum) in some boxes."""
    rng = np.random.default_rng(seed)
    corners = rng.integers(-8, 8, size=(40, n)) * 0.25
    faces = corners + np.where(rng.random((40, n)) < 0.5, 0.0, 0.125)
    x = np.vstack([corners, faces, rng.uniform(-2.0, 2.0, size=(60, n)),
                   np.full((12, n), 0.0625)])
    t = np.concatenate([rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], size=80),
                        np.exp(rng.uniform(np.log(0.25), np.log(4.0), 60)),
                        np.full(12, 0.75)])
    return ca.AtomicMeasure(x, t, rng.exponential(1.0, len(t)))


def test_masses_in_boxes_equal_mass_in_box(monkeypatch):
    for n in (1, 2, 3):
        mu = _lattice_measure(n, seed=n)
        cubes = whitney_cubes(Region(2.0, 0.25, 4.0), n)
        lo, hi = box_corners(cubes)
        want = [_mass_in_box(mu, b) for b in _boxes(cubes)]
        assert mu.masses_in_boxes(lo, hi).tolist() == want
        # small chunks: atoms on the edges of each chunk's t range
        monkeypatch.setattr(ca, "MASK_PAIRS", 7 * len(mu.t))
        assert mu.masses_in_boxes(lo, hi).tolist() == want
        monkeypatch.undo()
        assert sum(m > 0 for m in want) > 10 and max(want) > 0
        # boxes that share a face or a corner both hold the atom on it
        held = [np.count_nonzero(in_boxes(mu.points, *b)) for b in _boxes(cubes)]
        assert sum(held) > len(mu.t)


def test_restricted_keeps_the_atoms_of_the_closed_box():
    mu = _lattice_measure(2, seed=5)
    for box in _boxes(whitney_cubes(Region(2.0, 0.25, 4.0), 2)[::37]):
        sub = mu.restricted(*box)
        if sub is None:
            assert _mass_in_box(mu, box) == 0.0
            continue
        assert sub.total_mass() == _mass_in_box(mu, box)
        assert _mass_in_box(sub, box) == _mass_in_box(mu, box)


def _reference_rows(mu, cubes, boxes, gauge):
    """(level, index tuple, mass, gauge, ratio) per box in Python floats:
    _mass_in_box of each box, gauge(level) from a closed form."""
    rows = []
    for j, k, box in zip(cubes.level.tolist(), cubes.index.tolist(), boxes):
        mass, g = _mass_in_box(mu, box), gauge(j)
        rows.append((j, tuple(k), mass, g, mass / g))
    return rows


def _report_rows(rep):
    """The report's columns as row tuples of Python values."""
    return list(zip(rep.level.tolist(), map(tuple, rep.index.tolist()),
                    rep.mass.tolist(), rep.gauge.tolist(), rep.ratio.tolist()))


def _row_statistics(condition, params, rows):
    """(constant, argmax position, level maxima, summary) from row tuples,
    as the report computed them when it kept one tuple per box."""
    constant = max(r[4] for r in rows)
    arg = max(range(len(rows)), key=lambda i: rows[i][4])
    maxima: dict = {}
    for lev, _, _, _, ratio in rows:
        maxima[lev] = max(maxima.get(lev, 0.0), ratio)
    summary = {"condition": condition, "params": params, "constant": constant,
               "argmax_level": rows[arg][0], "boxes": len(rows)}
    return constant, arg, maxima, summary


def _gauges_by_level(n, e):
    """Closed-form gauges of a level-j box: |box|^e and eta^e, eta = 3/2 side."""
    return (lambda j: ((2.0 ** j) ** n * 2.0 ** j) ** e,
            lambda j: (1.5 * 2.0 ** j) ** e)


def test_report_statistics_equal_the_row_reference():
    small = whitney_cubes(Region(4.0, 0.25, 4.0), 1)
    cases = [
        (ca.AtomicMeasure.point_mass([0.1], 1.5, 2.0), small),
        (ca.AtomicMeasure.point_mass([0.1], 100.0, 2.0), small),  # no mass at all
        # equal atoms in two boxes of one level: the first box is the argmax
        (ca.AtomicMeasure([[-2.5], [2.5]], [1.5, 1.5], [1.0, 1.0]), small),
        # a -0.0 weight in the first box: its ratio -0.0 is the first maximum
        (ca.AtomicMeasure([[-3.9], [2.5]], [0.3, 1.5], [-0.0, 0.0]), small),
    ]
    # a seeded 400-atom measure on the region of the benchmark's carleson calls
    rng = np.random.default_rng(400)
    cases.append((ca.AtomicMeasure(
        rng.uniform(-2.0, 2.0, size=(400, 2)),
        np.exp(rng.uniform(np.log(2.0 ** -4), np.log(4.0), 400)),
        rng.exponential(1.0, 400)), whitney_cubes(Region(2.0, 2.0 ** -4, 4.0), 2)))
    for mu, cubes in cases:
        boxes = _boxes(cubes)
        for rep in (ca.condition_vector(mu, cubes, 2, (0.5, 0.5)),
                    ca.condition_single(mu, cubes, 1.5),
                    ca.condition_mixed(mu, cubes, 2.0, 3.0, 0.5),
                    ca.condition_tent(mu, cubes, 2.0, 0.5, 1.0)):
            volume, eta = _gauges_by_level(mu.n, rep.params["exponent"])
            gauge = volume if rep.condition in ("vector", "single") else eta
            rows = _reference_rows(mu, cubes, boxes, gauge)
            constant, arg, maxima, summary = _row_statistics(rep.condition, rep.params,
                                                             rows)
            assert _report_rows(rep) == rows
            assert len(rep) == len(rows)
            assert repr(rep.constant) == repr(constant) and type(rep.constant) is float
            assert rep.argmax == arg
            got = rep.level_maxima()
            assert list(got) == list(maxima)
            assert [repr(v) for v in got.values()] == [repr(v) for v in maxima.values()]
            assert repr(rep.summary()) == repr(summary)
    # no boxes: a degenerate t range, rejected rather than reported as 0.0
    mu, none = ca.AtomicMeasure.point_mass([0.1], 1.5, 2.0), whitney_cubes(
        Region(1.0, 2.0, 1.0), 1)
    for condition in (lambda: ca.condition_vector(mu, none, 2, (0.5, 0.5)),
                      lambda: ca.condition_single(mu, none, 1.5),
                      lambda: ca.condition_mixed(mu, none, 2.0, 3.0, 0.5),
                      lambda: ca.condition_tent(mu, none, 2.0, 0.5, 1.0)):
        with pytest.raises(ValueError, match="degenerate t range"):
            condition()


def test_cube_report_rows_equal_the_per_box_reference():
    for n in (1, 2):
        mu = _lattice_measure(n, seed=10 + n)
        cubes = whitney_cubes(Region(2.0, 0.25, 4.0), n)
        boxes = _boxes(cubes)
        # gauges from the closed forms: 0 is |box|^e, 1 is eta^e
        cases = [(ca.condition_vector(mu, cubes, 2, (0.31, 0.77)), 0),
                 (ca.condition_mixed(mu, cubes, 1.3, 2.9, 0.61), 1)]
        # numpy's vectorised pow differs from Python's on some of these
        for alpha in np.linspace(0.1, 6.0, 30):
            cases += [(ca.condition_single(mu, cubes, alpha), 0),
                      (ca.condition_tent(mu, cubes, 1.7, alpha, 1.0), 1)]
        for rep, kind in cases:
            gauge = _gauges_by_level(n, rep.params["exponent"])[kind]
            want = _reference_rows(mu, cubes, boxes, gauge)
            assert _report_rows(rep) == want, rep.condition


def test_discretized_weight_atoms_are_the_cube_centers():
    region = Region(2.0, 0.25, 4.0)
    cubes = whitney_cubes(region, 2)
    mu = ca.AtomicMeasure.discretized_weight(region, 2, 1.5)
    sides = [2.0 ** j for j in cubes.level.tolist()]
    assert mu.points.tolist() == [[(k + 0.5) * s for k in ks] + [1.5 * s]
                                  for ks, s in zip(cubes.index.tolist(), sides)]
    # the closed form side^2 (t1^e - t0^e) / e, e = lambda + 1, box by box
    e = 2.5
    assert mu.weight.tolist() == [s * s * ((2.0 * s) ** e - s ** e) / e for s in sides]
    # a degenerate region carries no atoms, and a condition over it is rejected
    empty = ca.AtomicMeasure.discretized_weight(Region(1.0, 4.0, 2.0), 1, 0.0)
    assert empty.points.shape == (0, 2)
    with pytest.raises(ValueError, match="degenerate t range"):
        ca.condition_single(empty, whitney_cubes(Region(1.0, 4.0, 2.0), 1), 1.0)
