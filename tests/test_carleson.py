"""Atomic measures and box conditions: exact masses, hand-sized gauges."""

import numpy as np
import pytest

from harmspace import carleson as ca
from harmspace.geometry import Box, Region, box_corners, whitney_cubes
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
    """The cubes' boxes as Box objects, in order."""
    lo, hi = box_corners(cubes)
    return [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


def test_mass_in_box_boundary_inclusive():
    # an atom sitting on the shared face of two closed boxes counts in both
    mu = ca.AtomicMeasure.point_mass([0.5], 1.0, 2.0)
    cubes = whitney_cubes(Region(4.0, 0.25, 4.0), 1)
    masses = [mu.mass_in_box(b) for b in _boxes(cubes)]
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
    box = ca.qw_box([1.0, -2.0, 0.5])
    assert box.lo == (0.75, -2.25, 0.25)
    assert box.hi == (1.25, -1.75, 0.75)
    with pytest.raises(ValueError):
        ca.qw_box([0.0, -1.0])


def test_excursion_mass_bounds():
    w = np.array([0.0, 0.0, 1.0])
    inside = ca.AtomicMeasure.point_mass([0.05, 0.0], 1.1, 3.0)
    outside = ca.AtomicMeasure.point_mass([5.0, 0.0], 1.1, 3.0)
    full = inside.mass_in_box(ca.qw_box(w))
    assert full == 3.0
    masses = [ca.excursion_mass(inside, w, 1, d) for d in (0.0, 0.01, 0.1, 1.0)]
    assert all(0.0 <= m <= full for m in masses)
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert ca.excursion_mass(outside, w, 1, 0.0) == 0.0


def test_lemma6_cover():
    w = np.array([0.0, 0.25])
    frac, chosen, mult = ca.lemma6_cover(w, 1, 1, 0.05, grid=10, lattice=3)
    assert 0.0 <= frac <= 1.0
    assert mult >= (1 if chosen else 0)


def test_embedding_ratio_lhs_exact():
    from harmspace.fields import PoissonField

    region = Region(2.0, 0.25, 2.0)
    spec = QuadSpec(order=6, t_order=4)
    mu = ca.AtomicMeasure([[0.0], [0.5]], [0.5, 1.0], [1.0, 2.0])
    f = PoissonField(1, np.array([0.0, 1.0]))
    ratio, lhs, rhs = ca.embedding_ratio(mu, [f], 2.0, (0.5,), region, spec)
    expect = float(np.sum(mu.weight * np.abs(f.values(mu.points)) ** 2))
    assert lhs == pytest.approx(expect, rel=1e-14)
    assert ratio == pytest.approx(lhs / rhs, rel=1e-14)


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
        want = [mu.mass_in_box(b) for b in _boxes(cubes)]
        assert mu.masses_in_boxes(lo, hi).tolist() == want
        # small chunks: atoms on the edges of each chunk's t range
        monkeypatch.setattr(ca, "MASK_PAIRS", 7 * len(mu.t))
        assert mu.masses_in_boxes(lo, hi).tolist() == want
        monkeypatch.undo()
        assert sum(m > 0 for m in want) > 10 and max(want) > 0
        # boxes that share a face or a corner both hold the atom on it
        held = [np.count_nonzero(mu.in_box(b)) for b in _boxes(cubes)]
        assert sum(held) > len(mu.t)


def test_restricted_keeps_the_atoms_of_the_closed_box():
    mu = _lattice_measure(2, seed=5)
    for box in _boxes(whitney_cubes(Region(2.0, 0.25, 4.0), 2)[::37]):
        sub = mu.restricted(box)
        if sub is None:
            assert mu.mass_in_box(box) == 0.0
            continue
        assert sub.total_mass() == float(np.sum(mu.weight[mu.in_box(box)]))
        assert sub.mass_in_box(box) == mu.mass_in_box(box)


def _reference_rows(mu, cubes, boxes, gauge):
    """(level, index tuple, mass, gauge, ratio) per box in Python floats:
    mass_in_box of each Box, gauge(level) from a closed form."""
    rows = []
    for j, k, box in zip(cubes.level.tolist(), cubes.index.tolist(), boxes):
        mass, g = mu.mass_in_box(box), gauge(j)
        rows.append((j, tuple(k), mass, g, mass / g))
    return rows


def _report_rows(rep):
    """The report's columns as row tuples of Python values."""
    return list(zip(rep.level.tolist(), map(tuple, rep.index.tolist()),
                    rep.mass.tolist(), rep.gauge.tolist(), rep.ratio.tolist()))


def _row_statistics(condition, params, rows):
    """(constant, argmax position, level maxima, summary) from row tuples,
    as the report computed them when it kept one tuple per box."""
    constant = max((r[4] for r in rows), default=0.0)
    arg = max(range(len(rows)), key=lambda i: rows[i][4], default=None)
    maxima: dict = {}
    for lev, _, _, _, ratio in rows:
        maxima[lev] = max(maxima.get(lev, 0.0), ratio)
    summary = {"condition": condition, "params": params, "constant": constant,
               "argmax_level": None if arg is None else rows[arg][0],
               "boxes": len(rows)}
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
        (ca.AtomicMeasure.point_mass([0.1], 1.5, 2.0),
         whitney_cubes(Region(1.0, 2.0, 1.0), 1)),  # no boxes
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
    with pytest.raises(ValueError):
        ca.AtomicMeasure.discretized_weight(Region(1.0, 4.0, 2.0), 1, 0.0)
